"""Subset-lattice kernel, and the a/b tables, against brute-force sums
over ordered block tuples; the ranked product against the 3^n reference
convolution of conftest."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap.graphs import from_edge_list, independence_table
from chromheap.orientations import acyclic_count_table, unique_source_min_table
from chromheap.subsets import moebius, ranked_entry, ranked_product, zeta

from conftest import convolve, identity, power


def brute_tuples(tables: list[list[int]], V: int, anchored: bool = False) -> int:
    """Sum over ordered tuples (U_1, ..., U_k) of pairwise disjoint sets with
    union V of prod_t tables[t][U_t]; anchored keeps only the tuples whose
    last block holds min(V)."""
    bits = [1 << i for i in range(V.bit_length()) if V >> i & 1]
    total = 0
    for assignment in product(range(len(tables)), repeat=len(bits)):
        blocks = [0] * len(tables)
        for bit, t in zip(bits, assignment):
            blocks[t] |= bit
        if anchored and V and not blocks[-1] & V & -V:
            continue
        total += math.prod(f[U] for f, U in zip(tables, blocks))
    return total


def random_table(rng: random.Random, n: int) -> list[int]:
    """Small integers with plenty of zeros, so both sparse paths run."""
    return [rng.choice((0, 0, 1, -1, 2, 3, -5)) for _ in range(1 << n)]


@pytest.mark.parametrize("n", range(6))
def test_convolve_matches_brute_force(n):
    rng = random.Random(n)
    for _ in range(3):
        f, g = random_table(rng, n), random_table(rng, n)
        assert convolve(f, g, n) == [brute_tuples([f, g], V) for V in range(1 << n)]


@pytest.mark.parametrize("n", range(6))
def test_tables_satisfy_their_defining_convolutions(n):
    # the a and b tables solve their defining convolutions with the signed
    # independent sets t: t * a is the identity table, and the sum over the
    # tuples whose b-block holds min(V) is -t off the empty set
    rng = random.Random(100 + n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for _ in range(3):
        g = from_edge_list(n, [e for e in pairs if rng.random() < 0.5])
        indep = independence_table(g)
        t = [(-1) ** U.bit_count() * indep[U] for U in range(1 << n)]
        a, b = acyclic_count_table(g), unique_source_min_table(g)
        assert [brute_tuples([t, a], V) for V in range(1 << n)] == identity(n)
        assert [brute_tuples([t, b], V, True) for V in range(1 << n)] == [0] + [-x for x in t[1:]]


@pytest.mark.parametrize("n", range(6))
def test_power_matches_brute_force(n):
    rng = random.Random(200 + n)
    f = random_table(rng, n)
    for k in (0, 1, 2, 5):
        want = [brute_tuples([f] * k, V) for V in range(1 << n)]
        assert power(f, k, n) == want
    assert power(f, 0, n) == identity(n)


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ranked_product([([1, 1], -1)], 1)
    with pytest.raises(ValueError):
        ranked_entry([([1, -1], 2)], 1)


@st.composite
def factor_lists(draw):
    """n <= 6 and 1-4 factors (f, k) with k in 0..4; f >= 0, its empty-set
    entry drawn apart so that both zero and nonzero ones occur."""
    n = draw(st.integers(min_value=0, max_value=6))
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        empty = draw(st.sampled_from((0, 1, 2)))
        rest = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=(1 << n) - 1, max_size=(1 << n) - 1))
        factors.append(([empty] + rest, draw(st.integers(min_value=0, max_value=4))))
    return n, factors


@settings(max_examples=150, deadline=None)
@given(factor_lists())
def test_ranked_product_matches_convolve_and_brute_force(case):
    n, factors = case
    want = identity(n)
    for f, k in factors:
        want = convolve(want, power(f, k, n), n)
    assert ranked_product(factors, n) == want
    assert ranked_entry(factors, n) == want[-1]
    tables = [f for f, k in factors for _ in range(k)]
    if len(tables) ** n <= 4096:
        assert want[-1] == brute_tuples(tables, (1 << n) - 1)


@pytest.mark.parametrize("n", range(7))
def test_moebius_inverts_zeta(n):
    rng = random.Random(300 + n)
    f = random_table(rng, n)
    z = list(f)
    zeta(z)
    assert z == [sum(f[S] for S in range(1 << n) if S & V == S) for V in range(1 << n)]
    moebius(z)
    assert z == f
