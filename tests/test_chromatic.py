"""Chromatic, quotient, bivariate, and multicolor polynomials."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from chromheap.errors import NotAClique
from chromheap.families import complete_graph, cycle_graph, path_graph, random_graph
from chromheap.graphs import blowup, from_edge_list, independence_table
from chromheap.polynomials import Poly

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
