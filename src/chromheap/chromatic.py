"""Chromatic polynomials, exact and cross-checkable several ways.

chi has three routes that share no code: deletion-contraction memoized on
a canonical lower-triangular adjacency encoding; "subset_dp", ranked
inclusion-exclusion whose table also gives the two-variable polynomial;
and count_independent_tuples, a power of the independence table by the
ranked subset product of subsets.py.  The default, "auto", peels
components and leaves off and hands each 2-core to one of the first two.
Brute-force coloring counters (one backtracking enumerator) check all
three.  All arithmetic is exact.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .config import DEFAULT_BUDGET, Budget, charge
from .errors import (
    InternalInvariantViolation,
    NotAClique,
    ResourceBudgetExceeded,
    TooManyVertices,
    VertexOutOfRange,
)
from .graphs import (
    TABLE_MAX_VERTICES, Graph, blowup, components, graph_cached, independence_polynomials,
    independence_table, induced_subgraph, is_clique, iter_vertices, table_entries, vset,
)
from .polynomials import BivariatePoly, Poly
from .subsets import ranked_entry

DELCON_MAX_VERTICES = 30
BIVARIATE_MAX_VERTICES = 16


def _lower_tri_key(adj: Sequence[int]) -> tuple[int, int]:
    """Canonical key: vertex count plus the lower-triangular adjacency bits."""
    bits = 0
    pos = 0
    for i, row in enumerate(adj):
        bits |= (row & ((1 << i) - 1)) << pos
        pos += i
    return (len(adj), bits)


def _drop_bit(mask: int, i: int) -> int:
    return (mask & ((1 << i) - 1)) | ((mask >> (i + 1)) << i)


def _poly_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _chrom_delcon(adj: tuple[int, ...], memo: dict, budget: Budget) -> tuple[int, ...]:
    key = _lower_tri_key(adj)
    cached = memo.get(key)
    if cached is not None:
        return cached
    n = len(adj)
    best = -1
    best_deg = 0
    for i, row in enumerate(adj):
        d = row.bit_count()
        if d > best_deg:
            best, best_deg = i, d
    if best_deg == 0:
        result: tuple[int, ...] = (0,) * n + (1,)
    else:
        u = best
        v = (adj[u] & -adj[u]).bit_length() - 1
        adj_del = list(adj)
        adj_del[u] &= ~(1 << v)
        adj_del[v] &= ~(1 << u)
        lo, hi = (u, v) if u < v else (v, u)
        merged = (adj[lo] | adj[hi]) & ~((1 << lo) | (1 << hi))
        adj_con = []
        for i in range(n):
            if i == hi:
                continue
            if i == lo:
                row = merged
            else:
                row = adj[i]
                if row >> hi & 1:
                    row = (row & ~(1 << hi)) | (1 << lo)
            adj_con.append(_drop_bit(row, hi))
        result = _poly_sub(
            _chrom_delcon(tuple(adj_del), memo, budget),
            _chrom_delcon(tuple(adj_con), memo, budget),
        )
    if len(memo) >= budget.memo_entries:
        raise ResourceBudgetExceeded(
            f"deletion-contraction memo exceeded {budget.memo_entries} entries"
        )
    memo[key] = result
    return result


def _ranked_table(G: Graph, budget: Budget) -> list[list[int]]:
    """A[w][k]: k! times the partitions of w-vertex subsets into k
    independent blocks, by ranked inclusion-exclusion (Bjorklund, Husfeldt,
    Koivisto, Set partitioning via inclusion-exclusion, 2009):

        A[w][k] = sum over S of (-1)^(w-|S|) C(n-|S|, w-|S|) [z^w](f_S - 1)^k

    with f_S(z) the rank polynomial of the independent subsets of S
    (graphs.independence_polynomials, n+1 bits a coefficient).  Its
    z-coefficient is |S|, so each distinct f_S is powered once and the
    powers are summed per size.  [z^w](f_S - 1)^k <= C(nk, w) <= C(n^2, n)
    and under 2^n sets share a size, so a slot of C(n^2, n).bit_length() +
    n + 1 bits holds every sum.  The 2^n table is charged as the memo.
    """
    n = G.n
    charge("subset rank table entries", table_entries(n), budget.memo_entries)
    bits, f = n + 1, independence_polynomials(G)
    width = math.comb(n * n, n).bit_length() + n + 1
    keep, digit, slot = (1 << width * (n + 1)) - 1, (1 << bits) - 1, (1 << width) - 1
    sums = [[0] * (n + 1) for _ in range(n + 1)]  # sums[|S|][k]: packed (f_S - 1)^k
    for packed, count in Counter(f).items():
        base = 0  # f_S - 1, repacked a slot per coefficient
        for i in range(n, 0, -1):
            base = (base | packed >> bits * i & digit) << width
        row, power_k = sums[packed >> bits & digit], count
        for k in range(1, n + 1):
            power_k = power_k * base & keep
            row[k] += power_k
    A = [[0] * (n + 1) for _ in range(n + 1)]
    A[0][0] = 1  # the empty set, split into no blocks
    for s in range(1, n + 1):
        for w in range(s, n + 1):
            c = math.comb(n - s, w - s) * (-1) ** (w - s)
            for k in range(1, w + 1):
                A[w][k] += c * (sums[s][k] >> width * w & slot)
    return A


def _falling_sum(row: Sequence[int]) -> Poly:
    """Sum over k of row[k] / k! times q falling k."""
    poly, ff = Poly.zero(), Poly.one()
    for k, c in enumerate(row):
        if k:
            ff = ff * Poly((-(k - 1), 1))
        poly = poly + c // math.factorial(k) * ff
    return poly


@graph_cached
def _chromatic_delcon(G: Graph, budget: Budget) -> Poly:
    return Poly(_chrom_delcon(G.adj, {}, budget))


@graph_cached
def _chromatic_reduced(G: Graph, budget: Budget) -> Poly:
    """chi over the components (Read, An introduction to chromatic
    polynomials, 1968): a vertex peeled with one neighbour left is a factor
    q - 1, a tree's last vertex a factor q.  The rest of a component is its
    2-core, which takes the ranked table if its 2^n entries fit the budget."""
    chi = Poly.one()
    for core in components(G):
        peeled = True
        while peeled:
            peeled = False
            for v in iter_vertices(core):
                nb = G.adj[v - 1] & core
                if not nb & (nb - 1):
                    core ^= 1 << (v - 1)
                    chi = chi * Poly((-1, 1) if nb else (0, 1))
                    peeled = True
        if core:
            H = induced_subgraph(G, core)[0]
            fits = H.n <= TABLE_MAX_VERTICES and 1 << H.n <= budget.memo_entries
            route = "subset_dp" if fits else "deletion_contraction"
            chi = chi * chromatic_polynomial(H, route, budget)
    return chi


def chromatic_polynomial(
    G: Graph, method: str = "auto", budget: Budget = DEFAULT_BUDGET
) -> Poly:
    """Chromatic polynomial of G, constant coefficient first.

    method "deletion_contraction" runs memoized deletion-contraction
    (n <= 30) and "subset_dp" ranked inclusion-exclusion (n <= 22, and a
    2^n table within budget.memo_entries: n <= 19 by default), both on the
    whole graph.  "auto" peels components and leaves off, then takes each
    2-core by subset_dp where it fits and by deletion-contraction otherwise.
    """
    if method == "auto":
        return _chromatic_reduced(G, budget)
    if method == "deletion_contraction":
        if G.n > DELCON_MAX_VERTICES:
            raise TooManyVertices(
                f"deletion-contraction capped at n={DELCON_MAX_VERTICES}, got {G.n}"
            )
        return _chromatic_delcon(G, budget)
    if method == "subset_dp":
        return _falling_sum(_ranked_table(G, budget)[G.n])
    raise ValueError(f"unknown method {method!r}")


def enumerate_colorings(
    G: Graph, colors: int, proper: int, sizes: Sequence[int] | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Every way to give each vertex v a set of sizes[v-1] colors out of
    0..colors-1 (one color each by default), as its tuple of color classes:
    entry c is the mask of the vertices that hold color c.

    Each color below `proper` must get an independent class, and the walk
    backtracks on adjacency as it places each vertex; colors at or above
    `proper` are free.  Vertex 1 chooses slowest, its sets in lexicographic
    order.  The walk has at most prod_v C(colors, sizes[v-1]) leaves
    (colors^n by default), charged to enumeration_limit before the first.
    """
    n = G.n
    if sizes is None:
        sizes = [1] * n
    if len(sizes) != n:
        raise VertexOutOfRange(f"{len(sizes)} color-set sizes for {n} vertices")
    leaves = math.prod(math.comb(max(colors, 0), k) for k in sizes)
    charge("coloring enumeration", leaves, budget.enumeration_limit)
    classes = [0] * max(colors, 0)
    if n == 0:
        yield tuple(classes)
        return
    sets = [
        [(sum(1 << c for c in held), held) for held in combinations(range(colors), k)]
        for k in sizes
    ]

    last = n - 1

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        blocked = 0
        for c in range(proper):
            if classes[c] & G.adj[i]:
                blocked |= 1 << c
        bit = 1 << i
        for mask, held in sets[i]:
            if mask & blocked:
                continue
            for c in held:
                classes[c] |= bit
            if i == last:
                yield tuple(classes)
            else:
                yield from rec(i + 1)
            for c in held:
                classes[c] ^= bit

    yield from rec(0)


def count_proper_colorings(G: Graph, q: int) -> int:
    """Brute-force count of proper colorings with colors 1..q."""
    if q < 0:
        raise VertexOutOfRange("color count must be nonnegative")
    return sum(1 for _ in enumerate_colorings(G, q, q))


def count_independent_tuples(G: Graph, q: int) -> int:
    """Ordered q-tuples of pairwise disjoint independent sets covering V.

    Equals the chromatic polynomial at q.  It is the q-th subset-convolution
    power of the independence table at the full set (subsets.ranked_entry),
    an oracle that shares only graph primitives with deletion-contraction
    and subset_dp.
    """
    if q < 0:
        raise VertexOutOfRange("color count must be nonnegative")
    return ranked_entry([(independence_table(G), q)], G.n)


def chi_hat(G: Graph, d: int, budget: Budget = DEFAULT_BUDGET) -> Poly:
    """Chromatic polynomial divided exactly by q(q-1)...(q-d+1).

    Requires vertices 1..d to be pairwise adjacent; the division is then
    exact, and a nonzero remainder raises InternalInvariantViolation.
    """
    if d < 0 or d > G.n:
        raise VertexOutOfRange(f"d={d} not in 0..{G.n}")
    if not is_clique(G, vset(range(1, d + 1))):
        raise NotAClique(f"vertices 1..{d} are not pairwise adjacent")
    chi = chromatic_polynomial(G, budget=budget)
    return chi.divide_exact(Poly.falling_factorial(d))


@graph_cached
def _bivariate_terms(G: Graph, budget: Budget) -> dict[tuple[int, int], int]:
    rows = enumerate(_ranked_table(G, budget))
    return {(i, G.n - w): c for w, row in rows for i, c in enumerate(_falling_sum(row).coeffs)}


def bivariate_polynomial(G: Graph, budget: Budget = DEFAULT_BUDGET) -> BivariatePoly:
    """Two-variable coloring polynomial: sum over vertex subsets W of
    chi_{G[W]}(q) * r^(n - |W|).

    At (q, r) it counts colorings with q proper colors and r free colors,
    where only the proper colors carry adjacency constraints.  Row w of the
    subset_dp table sums chi_{G[W]} over |W| = w.  Memoized on G; each call
    returns a fresh copy.
    """
    if G.n > BIVARIATE_MAX_VERTICES:
        raise TooManyVertices(f"bivariate polynomial capped at n={BIVARIATE_MAX_VERTICES}, got {G.n}")
    return BivariatePoly(_bivariate_terms(G, budget))


def count_bivariate_colorings(G: Graph, q: int, r: int) -> int:
    """Brute-force count of maps into q proper plus r free colors where
    adjacent vertices never share a proper color."""
    if q < 0 or r < 0:
        raise VertexOutOfRange("color counts must be nonnegative")
    return sum(1 for _ in enumerate_colorings(G, q + r, q))


def multicolor_polynomial(
    G: Graph, m: Sequence[int], budget: Budget = DEFAULT_BUDGET
) -> Poly:
    """Multicoloring polynomial: chromatic polynomial of the blow-up graph
    divided by the product of the multiplicity factorials.

    The quotient has rational coefficients but integer values at integers;
    this is checked at q = 0..|m|+1.
    """
    total = sum(m)
    if total > 22:
        raise TooManyVertices(f"multicolor polynomial capped at |m|=22, got {total}")
    B = blowup(G, m)
    chi = chromatic_polynomial(B, budget=budget)
    scale = Fraction(1)
    for k in m:
        scale /= math.factorial(k)
    out = chi * scale
    for q in range(total + 2):
        value = out.evaluate(q)
        if Fraction(value).denominator != 1:
            raise InternalInvariantViolation(
                f"multicolor polynomial non-integer at q={q}: {value}"
            )
    return out


def count_multicolorings(G: Graph, m: Sequence[int], q: int) -> int:
    """Brute-force count of assignments of an m_v-subset of 1..q to each
    vertex v with adjacent vertices receiving disjoint sets."""
    return sum(1 for _ in enumerate_colorings(G, q, q, m))
