"""Chromatic polynomials, exact and cross-checkable several ways.

The default route is deletion-contraction memoized on a canonical
lower-triangular adjacency encoding; a subset dynamic program over
independent sets provides an independent second route, and brute-force
coloring counters (one backtracking enumerator) a third.  All arithmetic
is exact.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .config import DEFAULT_BUDGET, Budget
from .errors import (
    InternalInvariantViolation,
    NotAClique,
    ResourceBudgetExceeded,
    TooManyVertices,
    VertexOutOfRange,
)
from .graphs import Graph, blowup, graph_cached, independence_table, is_clique, vset
from .polynomials import BivariatePoly, Poly
from .subsets import convolve, power

DELCON_MAX_VERTICES = 30


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


def _chromatic_subset_dp(G: Graph) -> Poly:
    """Chromatic polynomial as sum over k of (partitions of the vertex set
    into k nonempty independent blocks) times q falling k.

    The k-block table is the anchored product of the (k-1)-block table with
    the nonempty independent sets, so each partition is counted once."""
    n = G.n
    if n == 0:
        return Poly.one()
    blocks = list(independence_table(G))
    blocks[0] = 0
    full = G.full_mask
    poly = Poly.zero()
    ff = Poly.one()
    cur = blocks
    for k in range(1, n + 1):
        if k > 1:
            cur = convolve(cur, blocks, n, anchored=True)
        ff = ff * Poly((-(k - 1), 1))
        if cur[full]:
            poly = poly + cur[full] * ff
    return poly


@graph_cached
def _chromatic_delcon(G: Graph, budget: Budget) -> Poly:
    return Poly(_chrom_delcon(G.adj, {}, budget))


def chromatic_polynomial(
    G: Graph, method: str = "auto", budget: Budget = DEFAULT_BUDGET
) -> Poly:
    """Chromatic polynomial of G, constant coefficient first.

    method "auto" and "deletion_contraction" use memoized deletion-
    contraction (n <= 30); "subset_dp" partitions the vertex set into
    independent blocks (n <= 22).
    """
    if method in ("auto", "deletion_contraction"):
        if G.n > DELCON_MAX_VERTICES:
            raise TooManyVertices(
                f"deletion-contraction capped at n={DELCON_MAX_VERTICES}, got {G.n}"
            )
        return _chromatic_delcon(G, budget)
    if method == "subset_dp":
        return _chromatic_subset_dp(G)
    raise ValueError(f"unknown method {method!r}")


def enumerate_colorings(
    G: Graph, colors: int, proper: int, sizes: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Every way to give each vertex v a set of sizes[v-1] colors out of
    0..colors-1 (one color each by default), as its tuple of color classes:
    entry c is the mask of the vertices that hold color c.

    Each color below `proper` must get an independent class, and the walk
    backtracks on adjacency as it places each vertex; colors at or above
    `proper` are free.  Vertex 1 chooses slowest, its sets in lexicographic
    order.
    """
    n = G.n
    if sizes is None:
        sizes = [1] * n
    if len(sizes) != n:
        raise VertexOutOfRange(f"{len(sizes)} color-set sizes for {n} vertices")
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
    power of the independence table, so it shares the subset kernel with
    the subset_dp route: it is an oracle independent of deletion-contraction
    only, and must not be compared with subset_dp.
    """
    if q < 0:
        raise VertexOutOfRange("color count must be nonnegative")
    return power(list(independence_table(G)), q, G.n)[G.full_mask]


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


def bivariate_polynomial(G: Graph, budget: Budget = DEFAULT_BUDGET) -> BivariatePoly:
    """Two-variable coloring polynomial: sum over vertex subsets W of
    chi_{G[W]}(q) * r^(n - |W|).

    At (q, r) it counts colorings with q proper colors and r free colors,
    where only the proper colors carry adjacency constraints.
    """
    if G.n > 16:
        raise TooManyVertices(f"bivariate polynomial capped at n=16, got {G.n}")
    memo: dict = {}
    out = BivariatePoly()
    n = G.n
    for W in range(1 << n):
        vertices = []
        m = W
        while m:
            vertices.append((m & -m).bit_length() - 1)
            m &= m - 1
        index = {v: i for i, v in enumerate(vertices)}
        adj = []
        for v in vertices:
            new = 0
            mm = G.adj[v] & W
            while mm:
                w = (mm & -mm).bit_length() - 1
                new |= 1 << index[w]
                mm &= mm - 1
            adj.append(new)
        coeffs = _chrom_delcon(tuple(adj), memo, budget)
        j = n - W.bit_count()
        for i, c in enumerate(coeffs):
            out.add_term(i, j, c)
    return out


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
