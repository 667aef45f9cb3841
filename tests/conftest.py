"""Shared fixtures and hypothesis strategies for the suite."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from chromheap.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from chromheap.graphs import Graph, from_edge_list
from chromheap.series import TruncatedSeries


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
