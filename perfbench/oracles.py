"""Reference computations and output checkers that do not use chromheap.

Every checker takes a graph as (n, edges), with 1-based vertex labels and
edges as (u, v) pairs, plus a value the program produced, and returns a
list of problems; an empty list means the value passed.  The references
are recomputed here from the edge list by brute force or from required
properties (Whitney's theorem, sign alternation), never read from a
stored copy of an earlier output.
"""
from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

Edges = Sequence[tuple[int, int]]


# ---------------------------------------------------------------------------
# graph primitives


def neighbours(n: int, edges: Edges) -> list[set[int]]:
    nb: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    return nb


def components(n: int, edges: Edges) -> int:
    nb = neighbours(n, edges)
    seen: set[int] = set()
    count = 0
    for s in range(1, n + 1):
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in nb[v] - seen:
                seen.add(w)
                stack.append(w)
    return count


def triangles(n: int, edges: Edges) -> int:
    nb = neighbours(n, edges)
    return sum(len(nb[u] & nb[v]) for u, v in edges) // 3


def is_bipartite(n: int, edges: Edges) -> bool:
    nb = neighbours(n, edges)
    side: dict[int, int] = {}
    for s in range(1, n + 1):
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in nb[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def induced(n: int, edges: Edges, vertices: Iterable[int]) -> tuple[int, list[tuple[int, int]]]:
    """Induced subgraph on the given vertices, relabelled 1..k in order."""
    keep = sorted(vertices)
    index = {v: i + 1 for i, v in enumerate(keep)}
    sub = [(index[u], index[v]) for u, v in edges if u in index and v in index]
    return len(keep), sub


# ---------------------------------------------------------------------------
# brute-force counts


def proper_colourings(n: int, edges: Edges, q: int) -> int:
    """Maps V -> {1..q} with distinct colours on every edge, by backtracking."""
    earlier = [[] for _ in range(n + 1)]
    for u, v in edges:
        lo, hi = min(u, v), max(u, v)
        earlier[hi].append(lo)
    colour = [0] * (n + 1)

    def place(v: int) -> int:
        if v > n:
            return 1
        total = 0
        for c in range(1, q + 1):
            if all(colour[w] != c for w in earlier[v]):
                colour[v] = c
                total += place(v + 1)
        colour[v] = 0
        return total

    return place(1)


def acyclic_source_sets(n: int, edges: Edges) -> list[frozenset[int]]:
    """The source set of every acyclic orientation, one entry per orientation.

    Edges are directed one at a time; an arc t -> h is refused when t is
    already reachable from h along the arcs chosen so far (a depth-first
    search over those arcs), so every leaf of the search is acyclic.
    """
    out: list[set[int]] = [set() for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    found: list[frozenset[int]] = []

    def reaches(src: int, dst: int) -> bool:
        stack, seen = [src], {src}
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in out[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def orient(k: int) -> None:
        if k == len(edges):
            found.append(frozenset(v for v in range(1, n + 1) if indeg[v] == 0))
            return
        u, v = edges[k]
        for t, h in ((u, v), (v, u)):
            if reaches(h, t):
                continue
            out[t].add(h)
            indeg[h] += 1
            orient(k + 1)
            out[t].discard(h)
            indeg[h] -= 1

    orient(0)
    return found


def acyclic_orientations(n: int, edges: Edges) -> int:
    return len(acyclic_source_sets(n, edges))


def unique_min_source_orientations(n: int, edges: Edges) -> int:
    """Acyclic orientations whose only source is vertex 1 (0 when n = 0)."""
    if n == 0:
        return 0
    return sum(1 for s in acyclic_source_sets(n, edges) if s == {1})


def independent_sets_by_size(n: int, edges: Edges) -> list[int]:
    """count[k] = number of independent k-subsets, by testing every subset."""
    edge_masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in edges]
    count = [0] * (n + 1)
    for mask in range(1 << n):
        if all(mask & e != e for e in edge_masks):
            count[bin(mask).count("1")] += 1
    return count


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, constant term first)


def evaluate(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def falling_factorial(d: int) -> list[int]:
    """q(q-1)...(q-d+1) as a coefficient list."""
    out = [1]
    for k in range(d):
        out = poly_mul(out, [-k, 1])
    return out


def int_coeffs(raw: Sequence[str]) -> list[int]:
    return [int(c) for c in raw]


# ---------------------------------------------------------------------------
# checkers


def whitney_problems(n: int, edges: Edges, coeffs: Sequence[int]) -> list[str]:
    """Required properties of a chromatic polynomial, from the edge list alone.

    Degree n and leading coefficient 1; [q^(n-1)] = -m;
    [q^(n-2)] = C(m,2) - #triangles; signs alternate; the lowest nonzero
    power is the number of components; chi(1) = [m == 0];
    chi(2) = 2^c for a bipartite graph and 0 otherwise.
    """
    problems: list[str] = []
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    m = len(edges)
    c = components(n, edges)
    if len(coeffs) != n + 1:
        return [f"degree {len(coeffs) - 1}, want {n}"]
    if coeffs[n] != 1:
        problems.append(f"leading coefficient {coeffs[n]}, want 1")
    if n >= 1 and coeffs[n - 1] != -m:
        problems.append(f"[q^(n-1)] = {coeffs[n - 1]}, want -m = {-m}")
    if n >= 2 and coeffs[n - 2] != comb(m, 2) - triangles(n, edges):
        problems.append(f"[q^(n-2)] = {coeffs[n - 2]}, want C(m,2) - triangles")
    lowest = next(k for k, x in enumerate(coeffs) if x)
    if lowest != c:
        problems.append(f"lowest nonzero power {lowest}, want {c} components")
    for k in range(c, n + 1):
        if coeffs[k] * (-1) ** (n - k) <= 0:
            problems.append(f"[q^{k}] = {coeffs[k]} breaks sign alternation")
            break
    if evaluate(coeffs, 1) != (1 if m == 0 else 0):
        problems.append("chi(1) wrong")
    if evaluate(coeffs, 2) != (2**c if is_bipartite(n, edges) else 0):
        problems.append("chi(2) disagrees with a 2-colouring search")
    return problems


def chromatic_values_problems(
    n: int, edges: Edges, coeffs: Sequence[int], acyclic: int | None = None
) -> list[str]:
    """chi(q) for q = 0..3 against colouring counts, and |chi(-1)| against
    the number of acyclic orientations (counted here unless given)."""
    problems = []
    for q in range(4):
        want = proper_colourings(n, edges, q)
        if evaluate(coeffs, q) != want:
            problems.append(f"chi({q}) = {evaluate(coeffs, q)}, brute force {want}")
    if acyclic is None:
        acyclic = acyclic_orientations(n, edges)
    if abs(evaluate(coeffs, -1)) != acyclic:
        problems.append(f"|chi(-1)| = {abs(evaluate(coeffs, -1))}, acyclic orientations {acyclic}")
    return problems


def acyclic_table_problems(
    n: int, edges: Edges, table: Sequence[int], masks: Iterable[int], unique_min_source: bool
) -> list[str]:
    """Sampled entries of a 2^n subset table against brute-force counts of
    the induced subgraphs: all acyclic orientations (a-table), or those
    whose unique source is the smallest vertex (b-table)."""
    if len(table) != 1 << n:
        return [f"table has {len(table)} entries, want {1 << n}"]
    count = unique_min_source_orientations if unique_min_source else acyclic_orientations
    problems = []
    for mask in masks:
        k, sub = induced(n, edges, [v for v in range(1, n + 1) if mask >> (v - 1) & 1])
        want = count(k, sub)
        if table[mask] != want:
            problems.append(f"entry {mask:#x} = {table[mask]}, brute force {want}")
    return problems


def same_polynomial_problems(label: str, got: Sequence[int], want: Sequence[int]) -> list[str]:
    a, b = list(got), list(want)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    return [] if a == b else [f"{label}: {a} != {b}"]


def report_problems(report) -> list[str]:
    """A reciprocity report must say equal, and its two sides must agree."""
    problems = []
    if not report.equal:
        problems.append(f"{report.identity} {report.params} reported unequal")
    if report.count != report.poly_side:
        problems.append(f"{report.identity} {report.params}: {report.count} != {report.poly_side}")
    return problems


# ---------------------------------------------------------------------------
# command-line payload checkers


def cli_orientations_problems(n: int, edges: Edges, payload: dict) -> list[str]:
    total = int(payload["acyclic_count"])
    parts = sum(int(c) for c in payload["by_source_components"].values())
    want = acyclic_orientations(n, edges)
    problems = []
    if total != parts:
        problems.append(f"acyclic_count {total} != sum by_source_components {parts}")
    if total != want:
        problems.append(f"acyclic_count {total}, brute force {want}")
    return problems


def cli_heaps_problems(n: int, edges: Edges, payload: dict) -> list[str]:
    """Every squarefree coefficient of the heap series within the bound is
    the number of acyclic orientations of the induced subgraph."""
    bound = payload["bound"]
    found = {}
    for term in payload["heap"]:
        exps = term["exponents"]
        if all(e <= 1 for e in exps):
            found[tuple(exps)] = (int(term["num"]), int(term["den"]))
    problems = []
    if not payload["identities"]["equal"]:
        problems.append("heap identities reported unequal")
    for mask in range(1 << n):
        vertices = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        if len(vertices) > bound:
            continue
        exps = tuple(1 if mask >> (v - 1) & 1 else 0 for v in range(1, n + 1))
        want = acyclic_orientations(*induced(n, edges, vertices))
        got = found.get(exps, (0, 1))
        if got != (want, 1):
            problems.append(f"[x^{vertices}]H = {got[0]}/{got[1]}, brute force {want}")
    return problems


def cli_chromatic_problems(n: int, edges: Edges, payload: dict) -> list[str]:
    return whitney_problems(n, edges, int_coeffs(payload["polynomial"]["coeffs"]))


def cli_chihat_problems(n: int, edges: Edges, payload: dict) -> list[str]:
    """chi-hat times q(q-1)...(q-d+1) must be a chromatic polynomial of G."""
    quotient = int_coeffs(payload["polynomial"]["coeffs"])
    return whitney_problems(n, edges, poly_mul(quotient, falling_factorial(payload["d"])))


def cli_bivariate_problems(n: int, edges: Edges, payload: dict) -> list[str]:
    """P(q, r) = sum over W of chi_{G[W]}(q) r^(n-|W|).  Hence P(0, r) = r^n,
    P(1, r) counts independent sets by size, and [r^0] is chi_G."""
    terms = [(t["i"], t["j"], int(t["c"])) for t in payload["terms"]]
    at_zero = {j: c for i, j, c in terms if i == 0}
    at_one = [0] * (n + 1)
    for _, j, c in terms:
        at_one[j] += c
    chi = [0] * (n + 1)
    for i, j, c in terms:
        if j == 0:
            chi[i] += c
    problems = []
    if at_zero != {n: 1}:
        problems.append(f"P(0, r) = {at_zero}, want r^{n}")
    sizes = independent_sets_by_size(n, edges)
    if at_one != [sizes[n - j] for j in range(n + 1)]:
        problems.append("P(1, r) disagrees with the independent-set count")
    return problems + whitney_problems(n, edges, chi)


def cli_symfunc_problems(n: int, edges: Edges, payload: dict) -> list[str]:
    """X_G in the p-basis: p_k -> q gives chi, [p_1^n] = 1, [p_2 p_1^(n-2)] = -m,
    omega(X_G) at p_k -> 1 counts acyclic orientations, and the N-variable
    expansion sums to the number of proper N-colourings."""
    def terms(block):
        return {tuple(t["partition"]): (int(t["num"]), int(t["den"])) for t in block["terms"]}

    powersum = terms(payload["powersum"])
    problems = []
    if any(den != 1 for _, den in powersum.values()):
        problems.append("non-integer p-coefficient")
    m = len(edges)
    if n and powersum.get((1,) * n, (0, 1))[0] != 1:
        problems.append("[p_1^n] != 1")
    if n >= 2 and powersum.get((2,) + (1,) * (n - 2), (0, 1))[0] != -m:
        problems.append("[p_2 p_1^(n-2)] != -m")
    spec = [0] * (n + 1)
    for lam, (num, _) in powersum.items():
        spec[len(lam)] += num
    problems += same_polynomial_problems(
        "p_k -> q", int_coeffs(payload["chromatic_from_specialization"]["coeffs"]), spec
    )
    acyclic = acyclic_orientations(n, edges)
    problems += chromatic_values_problems(n, edges, spec, acyclic)
    tally = sum(num for num, _ in terms(payload["omega"]).values())
    if tally != acyclic:
        problems.append(f"omega(X)(1) = {tally}, not the acyclic orientation count")
    if "expansion" in payload:
        N = payload["expansion"]["variables"]
        total = sum(int(t["num"]) for t in payload["expansion"]["terms"])
        if total != proper_colourings(n, edges, N):
            problems.append(f"expansion in {N} variables sums to {total}, not chi({N})")
    return problems


def cli_reciprocity_problems(payload: dict) -> list[str]:
    problems = []
    if payload["equal"] is not True:
        problems.append(f"{payload['identity']} reported unequal")
    if payload["count"] != payload["poly_side"]:
        problems.append(f"count {payload['count']} != poly_side {payload['poly_side']}")
    return problems


def cli_selfcheck_problems(payload: dict) -> list[str]:
    if payload["passed"] != payload["total"] or payload["total"] < 1:
        return [f"selfcheck passed {payload['passed']} of {payload['total']}"]
    return []
