"""Shared fixtures and hypothesis strategies for the suite."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest
from hypothesis import strategies as st

from chromheap.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from chromheap.graphs import Graph, from_edge_list, induced_subgraph
from chromheap.errors import VertexOutOfRange
from chromheap.orientations import (
    Orientation,
    acyclic_orientation_list,
    lambda_partition,
    source_components,
)
from chromheap.series import TruncatedSeries
from chromheap.symfunc import _IDENTITIES, MultiPoly


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def k1() -> Graph:
    return complete_graph(1)


@pytest.fixture
def k2() -> Graph:
    return complete_graph(2)


@pytest.fixture
def k3() -> Graph:
    return complete_graph(3)


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def star5() -> Graph:
    return star_graph(5)


@st.composite
def graphs(draw, max_n: int = 6) -> Graph:
    """Arbitrary small graph: vertex count then a subset of possible edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return from_edge_list(n, picks)


def seeded_graph(n: int, m: int, seed: int) -> Graph:
    """G(n, m) [seed]: m edges by random.Random(seed).sample from the pairs
    (u, v), u < v, in lexicographic order."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return from_edge_list(n, random.Random(seed).sample(pairs, m))


# every n <= 5, the empty graph included, with a third of its possible
# edges rounded down and with two thirds rounded up
SEEDED_SMALL = [
    seeded_graph(n, m, seed)
    for n in range(6)
    for seed, m in enumerate(sorted({n * (n - 1) // 6, -(-n * (n - 1) // 3)}))
]


@st.composite
def rational_series(draw, max_vars: int = 3, max_bound: int = 4) -> TruncatedSeries:
    """Random truncated series with small rational coefficients."""
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    bound = draw(st.integers(min_value=1, max_value=max_bound))
    exps = st.tuples(*[st.integers(min_value=0, max_value=bound) for _ in range(nvars)])
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    raw = draw(st.dictionaries(exps, coeff, max_size=8))
    terms = {e: c for e, c in raw.items() if sum(e) <= bound}
    return TruncatedSeries(nvars, bound, terms)


# The 3^n subset convolution, kept as the reference that the ranked
# product (chromheap.subsets) and the theorem-1 strata are checked against.


def identity(n: int) -> list[int]:
    """The unit of the product: 1 at the empty set, 0 elsewhere."""
    out = [0] * (1 << n)
    out[0] = 1
    return out


def convolve(f: Sequence[int], g: Sequence[int], n: int) -> list[int]:
    """h[V] = sum over U subset of V of f[U] g[V \\ U], walking every
    (V, U) pair."""
    if f.count(0) > g.count(0):
        # the product is symmetric: look up the sparser table first, so
        # that its zeros skip the second lookup
        f, g = g, f
    size = 1 << n
    out = [0] * size
    for V in range(size):
        s = 0
        U = V
        while True:
            y = g[V ^ U]
            if y:
                x = f[U]
                if x:
                    s += x * y
            if not U:
                break
            U = (U - 1) & V
        out[V] = s
    return out


def power(f: Sequence[int], k: int, n: int) -> list[int]:
    """k-fold product of f by repeated squaring; k = 0 gives the identity
    table."""
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    result = None
    base = list(f)
    while k:
        if k & 1:
            result = base if result is None else convolve(result, base, n)
        k >>= 1
        if k:
            base = convolve(base, base, n)
    return identity(n) if result is None else result


# Literal sums over (acyclic orientation, coloring) pairs, kept as the
# references that the class-by-class counting sides of reciprocity and
# symfunc are tested against.  They share the identity layouts and the
# MultiPoly container with those sides, and nothing else.


def restrict_orientation(G: Graph, o: Orientation, mask: int) -> Orientation:
    """Restriction of an orientation to G[mask], in the induced numbering."""
    H, labels = induced_subgraph(G, mask)
    direction = {}
    for e, (u, v) in enumerate(G.edges):
        direction[(u, v)] = o.bits >> e & 1
    bits = 0
    for e, (u, v) in enumerate(H.edges):
        ou, ov = labels[u - 1], labels[v - 1]
        bits |= direction[(ou, ov)] << e
    return Orientation(H.edges, bits)


def is_descent_free(G: Graph, o: Orientation, coloring: Sequence[int]) -> bool:
    """True iff colors never decrease along arcs; coloring[v-1] colors vertex v."""
    if len(coloring) != G.n:
        raise VertexOutOfRange(f"coloring has length {len(coloring)}, need {G.n}")
    for t, h in o.arcs:
        if coloring[t - 1] > coloring[h - 1]:
            return False
    return True


def restriction_lambda(G: Graph, o: Orientation, mask: int) -> tuple[int, ...]:
    """Source-component size partition of an orientation restricted to G[mask]."""
    if mask == 0:
        return ()
    H, _ = induced_subgraph(G, mask)
    return lambda_partition(source_components(H, restrict_orientation(G, o, mask)))


def count_descent_free_pairs_naive(G: Graph, j: int) -> int:
    """Descent-free pairs (acyclic orientation, coloring into 1..j)."""
    return sum(
        is_descent_free(G, o, f)
        for o in acyclic_orientation_list(G)
        for f in product(range(1, j + 1), repeat=G.n)
    )


def count_shifted_pairs_naive(G: Graph, i: int, j: int) -> int:
    """Descent-free pairs (gamma, coloring into 1..j+1) whose restriction of
    gamma to the class of color 1 has exactly i source components."""
    count = 0
    for o in acyclic_orientation_list(G):
        for f in product(range(1, j + 2), repeat=G.n):
            if is_descent_free(G, o, f):
                low = sum(1 << v for v, c in enumerate(f) if c == 1)
                count += len(restriction_lambda(G, o, low)) == i
    return count


def orientation_side_naive(G: Graph, identity: str, *sizes: int) -> MultiPoly:
    """Orientation side of an identity (a key of symfunc._IDENTITIES, with
    the sizes identity_sides takes) as the literal sum over descent-free
    (acyclic orientation, coloring) pairs, colors ordered -ny..-1, 0,
    1..nz, each y class independent."""
    nvars, ny, z, nz, zero = _IDENTITIES[identity][0](*sizes)
    palette = list(range(-ny, 0)) + [0] * (zero is not None) + list(range(1, nz + 1))
    tally: Counter[tuple[tuple[int, ...], tuple[int, ...]]] = Counter()
    for o in acyclic_orientation_list(G):
        for f in product(palette, repeat=G.n):
            if not is_descent_free(G, o, f):
                continue
            if any(f[u - 1] == f[v - 1] < 0 for u, v in G.edges):
                continue
            key = [0] * nvars
            zero_block = 0
            for pos, c in enumerate(f):
                if c < 0:
                    key[-c - 1] += 1
                elif c > 0:
                    key[z + c - 1] += 1
                else:
                    zero_block |= 1 << pos
            lam = () if zero is None else restriction_lambda(G, o, zero_block)
            tally[tuple(key), lam] += 1
    total = MultiPoly(nvars)
    for (key, lam), count in tally.items():
        term = MultiPoly(nvars, {key: count})
        for part in lam:  # p_lambda in the color-0 slots
            term = term * MultiPoly.power_sum(nvars, part, *zero)
        total = total + term
    return total
