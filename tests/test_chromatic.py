"""Chromatic, quotient, bivariate, and multicolor polynomials."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap import chromatic
from chromheap.chromatic import (
    bivariate_polynomial,
    chi_hat,
    chromatic_polynomial,
    count_bivariate_colorings,
    count_independent_tuples,
    count_multicolorings,
    count_proper_colorings,
    enumerate_colorings,
    multicolor_polynomial,
)
from chromheap.config import Budget
from chromheap.errors import InternalInvariantViolation, NotAClique, ResourceBudgetExceeded, VertexOutOfRange
from chromheap.families import (
    complete_graph,
    cycle_graph,
    fixed_family,
    path_graph,
    random_graph,
    seeded_family,
)
from chromheap.graphs import blowup, from_edge_list, independence_table, induced_subgraph
from chromheap.polynomials import BivariatePoly, Poly

from conftest import graphs


def test_c4_polynomial(c4):
    assert chromatic_polynomial(c4).coeffs == (0, -3, 6, -4, 1)


def test_known_families():
    # K_n: falling factorial; path: q(q-1)^(n-1); cycle: (q-1)^n + (-1)^n (q-1)
    for q in range(0, 6):
        assert chromatic_polynomial(complete_graph(3)).evaluate(q) == q * (q - 1) * (q - 2)
        assert chromatic_polynomial(path_graph(4)).evaluate(q) == q * (q - 1) ** 3
        assert chromatic_polynomial(cycle_graph(5)).evaluate(q) == (q - 1) ** 5 - (q - 1)


@given(graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_polynomial_counts_colorings(g, q):
    assert chromatic_polynomial(g).evaluate(q) == count_proper_colorings(g, q)


@given(graphs(max_n=5))
@settings(max_examples=40, deadline=None)
def test_polynomial_shape(g):
    chi = chromatic_polynomial(g)
    assert chi.degree == g.n
    assert chi.coefficient(g.n) == 1
    assert chi.evaluate(0) == 0 or g.n == 0
    # alternating signs: (-1)^(n-k) [q^k] chi >= 0
    assert all((-1) ** (g.n - k) * chi.coefficient(k) >= 0 for k in range(g.n + 1))


def test_chi_hat_c4(c4):
    assert chi_hat(c4, 0) == chromatic_polynomial(c4)
    assert chi_hat(c4, 1).coeffs == (-3, 6, -4, 1)
    assert chi_hat(c4, 2).coeffs == (3, -3, 1)


def test_chi_hat_requires_clique(c4):
    with pytest.raises(NotAClique):
        chi_hat(c4, 3)


def test_chi_hat_reconstructs_chi(k3):
    quot = chi_hat(k3, 2)
    chi = chromatic_polynomial(k3)
    rebuilt = quot * Poly((0, 1)) * Poly((-1, 1))
    assert rebuilt == chi


def test_divide_exact_in_ints_over_a_unit_lead():
    # a divisor led by +-1 divides integer polynomials in ints
    rng = random.Random(31)
    for _ in range(20):
        quotient = Poly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 5))))
        k = rng.randint(0, 4)
        for divisor in (Poly.falling_factorial(k), -Poly.falling_factorial(k)):
            got = (quotient * divisor).divide_exact(divisor)
            assert got == quotient and all(type(c) is int for c in got.coeffs)
    with pytest.raises(InternalInvariantViolation):
        Poly((1, 0, 1)).divide_exact(Poly((0, 1)))


def test_divide_exact_over_a_non_unit_lead_uses_fractions():
    # 2q + 2 is not led by +-1: (q + 1) / (2q + 2) = 1/2 needs Fraction
    half = Poly((1, 1)).divide_exact(Poly((2, 2)))
    assert half == Poly((Fraction(1, 2),)) and type(half.coeffs[0]) is Fraction
    # an integral quotient still comes back in ints: (6q^2 + 5q + 1) / (2q + 1)
    got = Poly((1, 5, 6)).divide_exact(Poly((1, 2)))
    assert got == Poly((1, 3)) and all(type(c) is int for c in got.coeffs)
    # Fraction coefficients take the Fraction path whatever the lead
    got = Poly((Fraction(1, 2), Fraction(1, 2))).divide_exact(Poly((1, 1)))
    assert got == Poly((Fraction(1, 2),))
    with pytest.raises(InternalInvariantViolation):
        Poly((1, 1)).divide_exact(Poly((0, 2)))


@given(graphs(max_n=6), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_bivariate_counts_colorings(g, q, r):
    if r > q:
        return
    # the walk itself: q proper then r free colors, one color per vertex
    independent = independence_table(g)
    walked = 0
    for classes in enumerate_colorings(g, q + r, q):
        assert len(classes) == q + r
        union = 0
        for m in classes:
            assert not union & m
            union |= m
        assert union == g.full_mask
        assert all(independent[m] for m in classes[:q])
        walked += 1
    poly = bivariate_polynomial(g)
    assert poly.evaluate(q, r) == walked == count_bivariate_colorings(g, q, r)


def test_bivariate_specializes_to_chromatic(c4):
    # no free colors: every color is proper
    poly = bivariate_polynomial(c4)
    chi = chromatic_polynomial(c4)
    for q in range(5):
        assert poly.evaluate(q, 0) == chi.evaluate(q)


def test_bivariate_all_free_counts_all_maps(c4):
    poly = bivariate_polynomial(c4)
    for r in range(4):
        assert poly.evaluate(0, r) == r**c4.n


def test_multicolor_matches_blowup(c4):
    for m in [(1, 1, 1, 1), (2, 1, 0, 1), (2, 2, 2, 2)]:
        fact = 1
        for k in m:
            for t in range(2, k + 1):
                fact *= t
        lhs = multicolor_polynomial(c4, m) * Poly((fact,))
        assert lhs == chromatic_polynomial(blowup(c4, m))


@given(graphs(max_n=4), st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_multicolor_counts_set_colorings(g, m, q):
    m = m[: g.n]
    assert multicolor_polynomial(g, m).evaluate(q) == count_multicolorings(g, m, q)


def test_independent_tuple_oracle(c4):
    # tuples of q pairwise-compatible independent sets covering each vertex once
    for q in range(4):
        assert count_independent_tuples(c4, q) == count_proper_colorings(c4, q)


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_subset_dp_matches_deletion_contraction(g):
    assert chromatic_polynomial(g, method="subset_dp") == chromatic_polynomial(
        g, method="deletion_contraction"
    )


def test_subset_dp_matches_deletion_contraction_gnp10():
    for seed in range(3):
        g = random_graph(random.Random(seed), 10, 0.5)
        assert chromatic_polynomial(g, method="subset_dp") == chromatic_polynomial(
            g, method="deletion_contraction"
        )


def test_disconnected_graph_factorizes():
    g = from_edge_list(4, [(1, 2), (3, 4)])
    k2chi = chromatic_polynomial(from_edge_list(2, [(1, 2)]))
    assert chromatic_polynomial(g) == k2chi * k2chi


def test_three_chi_routes_agree_on_the_family():
    # deletion-contraction, ranked inclusion-exclusion and the ranked
    # subset-product power of the independence table share no code; auto
    # reduces first
    for name, g in fixed_family() + seeded_family():
        chi = chromatic_polynomial(g, method="deletion_contraction")
        assert chromatic_polynomial(g, method="subset_dp") == chi, name
        assert chromatic_polynomial(g) == chi, name
        for q in (0, 1, 2, 3, g.n + 1, 10**6):
            assert count_independent_tuples(g, q) == chi.evaluate(q), (name, q)


def _relabeled(rng, n, edges):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return from_edge_list(n, [(labels[u - 1], labels[v - 1]) for u, v in edges])


def _forest(rng, n, join=0.9):
    """A random forest: each vertex joins an earlier one or starts a tree."""
    edges = [(v, rng.randrange(1, v)) for v in range(2, n + 1) if rng.random() < join]
    return _relabeled(rng, n, edges), n - len(edges)


def _closed_form(c, t, core=Poly.one()):
    """core * q^c * (q - 1)^t"""
    chi = core * Poly.q_power(c)
    for _ in range(t):
        chi = chi * Poly((-1, 1))
    return chi


def test_auto_gives_forests_their_closed_form():
    # chi of a forest with c trees is q^c (q - 1)^(n - c); deletion-
    # contraction alone takes seconds on a 24-vertex tree
    rng = random.Random(5)
    cases = [_forest(rng, n) for n in range(31) for _ in range(2)] + [_forest(rng, 40)]
    cases += [(from_edge_list(0, []), 0), (from_edge_list(3, []), 3)]
    cases += [(from_edge_list(5, [(2, 4)]), 4)]  # a K2 component and three isolated vertices
    start = time.perf_counter()
    for g, c in cases:
        assert chromatic_polynomial(g) == _closed_form(c, g.n - c), (g.n, c)
    assert time.perf_counter() - start < 1.0


def test_auto_peels_pendant_trees_off_a_cycle():
    # chi(C_k) (q - 1)^t for t tree vertices hung on a k-cycle, where
    # chi(C_k) = (q - 1)^k + (-1)^k (q - 1)
    rng = random.Random(6)
    for k in range(3, 9):
        for t in (0, 1, 5, 15):
            edges = [(v, v % k + 1) for v in range(1, k + 1)]
            edges += [(v, rng.randrange(1, v)) for v in range(k + 1, k + t + 1)]
            g = _relabeled(rng, k + t, edges)
            want = _closed_form(0, t, _closed_form(0, k) + _closed_form(0, 1) * (-1) ** k)
            assert chromatic_polynomial(g) == want, (k, t)
            if g.n <= 12:
                assert chromatic_polynomial(g, method="deletion_contraction") == want


def test_auto_sends_each_core_where_it_fits(monkeypatch):
    # a tree needs no table and no memo; a 15-vertex core (a cycle with two
    # chords, a pendant path on it) takes the ranked table at 2^15 memo
    # entries and deletion-contraction below
    edges = [(v, v % 15 + 1) for v in range(1, 16)] + [(1, 8), (4, 12)]
    edges += [(16, 3), (17, 16), (18, 17)]
    routes = []

    def spy(name):
        fn = getattr(chromatic, name)

        def called(*args):
            routes.append(name)
            return fn(*args)

        monkeypatch.setattr(chromatic, name, called)

    spy("_ranked_table")
    spy("_chrom_delcon")
    chis = []
    for entries in (2**15, 2**15 - 1):
        routes.clear()
        chis.append(chromatic_polynomial(from_edge_list(18, edges), budget=Budget(memo_entries=entries)))
        assert set(routes) == {"_ranked_table" if entries == 2**15 else "_chrom_delcon"}
    assert chis[0] == chis[1] == chromatic_polynomial(from_edge_list(18, edges), method="subset_dp")
    routes.clear()
    tree, _ = _forest(random.Random(7), 20, join=1.0)
    assert chromatic_polynomial(tree, budget=Budget(memo_entries=1)) == _closed_form(1, 19)
    assert routes == []


def test_auto_splits_components_before_choosing():
    # two 12-vertex cores fit 2^12 memo entries one at a time, not together
    core = random_graph(random.Random(8), 12, 0.5)
    twice = from_edge_list(24, core.edges + tuple((u + 12, v + 12) for u, v in core.edges))
    chi = chromatic_polynomial(core, method="subset_dp")
    assert chromatic_polynomial(twice, budget=Budget(memo_entries=2**12)) == chi * chi


def _bivariate_by_subsets(g):
    """sum over vertex subsets W of chi_{G[W]}(q) r^(n - |W|), chi by
    deletion-contraction on each induced subgraph."""
    out = BivariatePoly()
    for W in range(1 << g.n):
        chi = chromatic_polynomial(induced_subgraph(g, W)[0], method="deletion_contraction")
        for i, c in enumerate(chi.coeffs):
            out.add_term(i, g.n - W.bit_count(), c)
    return out


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_bivariate_is_the_subset_sum_of_chi(g):
    assert bivariate_polynomial(g) == _bivariate_by_subsets(g)


def test_bivariate_is_the_subset_sum_of_chi_gnp10():
    for seed in range(2):
        g = random_graph(random.Random(seed), 10, 0.5)
        assert bivariate_polynomial(g) == _bivariate_by_subsets(g)


def test_packing_extremes():
    # the edgeless graph has the largest rank polynomials, the complete
    # graph the smallest: chi = q^n, (q + r)^n and q falling n
    for n in range(17):
        g = from_edge_list(n, [])
        assert chromatic_polynomial(g, method="subset_dp") == Poly.q_power(n)
        binomial = BivariatePoly({(i, n - i): math.comb(n, i) for i in range(n + 1)})
        assert bivariate_polynomial(g) == binomial
    for n in range(1, 13):
        chi = chromatic_polynomial(complete_graph(n), method="subset_dp")
        assert chi == Poly.falling_factorial(n)


def test_bivariate_result_is_a_fresh_copy(c4):
    first = bivariate_polynomial(c4)
    want = dict(first.terms)
    first.add_term(0, 0, 7)
    first.add_term(1, 3, -4)
    assert bivariate_polynomial(c4).terms == want


def test_subset_table_is_charged_before_it_is_built(c4):
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetExceeded):
        chromatic_polynomial(from_edge_list(20, []), method="subset_dp")
    assert time.perf_counter() - start < 1.0
    # C4 has 2^4 = 16 vertex subsets
    for call in (
        lambda b: chromatic_polynomial(c4, method="subset_dp", budget=b),
        lambda b: bivariate_polynomial(c4, budget=b),
    ):
        with pytest.raises(ResourceBudgetExceeded):
            call(Budget(memo_entries=15))
        call(Budget(memo_entries=16))


def test_proper_coloring_walk_is_charged_its_exact_size():
    # K8 at 8 colors is 8^8 > 8,000,000 by the plain bound, but its walk
    # places 8 + 8*7 + ... + 8! = 109,600 vertex colors, 8! of them at the
    # last vertex
    k8 = complete_graph(8)
    steps = sum(math.perm(8, d) for d in range(1, 9))
    assert count_proper_colorings(k8, 8) == math.factorial(8)
    assert count_proper_colorings(k8, 8, Budget(enumeration_limit=steps)) == math.factorial(8)
    with pytest.raises(ResourceBudgetExceeded, match=f"enumeration needs {steps} > budget {steps - 1}"):
        count_proper_colorings(k8, 8, Budget(enumeration_limit=steps - 1))
    # K9 has no 8-coloring, yet the walk still colors its first 8 vertices
    # every way: the charge counts them, not the zero leaves
    with pytest.raises(ResourceBudgetExceeded, match=f"enumeration needs {steps} > budget {steps - 1}"):
        count_proper_colorings(complete_graph(9), 8, Budget(enumeration_limit=steps - 1))
    assert count_proper_colorings(complete_graph(9), 8) == 0


def test_negative_derivative_order_is_rejected():
    with pytest.raises(VertexOutOfRange, match="nonnegative, got -1"):
        Poly((0, -3, 6, -4, 1)).derivative(-1)
    assert Poly((0, -3, 6, -4, 1)).derivative(0) == Poly((0, -3, 6, -4, 1))
