"""Counting-versus-polynomial checks: small known values, naive
cross-validation, degenerate parameter reductions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap.chromatic import chi_hat, chromatic_polynomial
from chromheap.errors import BadLabeling, Disconnected, NotAClique, VertexOutOfRange
from chromheap.families import complete_graph, cycle_graph, path_graph, seeded_family, star_graph
from chromheap.graphs import ascending_relabel, from_edge_list, is_clique, is_connected, vset
from chromheap.orientations import (
    acyclic_count_table,
    acyclic_orientation_list,
    sinks,
    source_components,
    unique_source_min_table,
)
from chromheap.polynomials import Poly
from chromheap.reciprocity import (
    _taylor,
    check_bivariate_reciprocity,
    check_clique_quotient_reciprocity,
    check_derivative_reciprocity,
    check_greene_zaslavsky,
    check_shifted_reciprocity,
    check_sink_rooted,
    check_stanley_reciprocity,
    count_bivariate_tuples_naive,
    count_block_tuples_naive,
    count_descent_free_pairs_naive,
)
from conftest import convolve, graphs, power


def test_derivative_check_c4(c4):
    r = check_derivative_reciprocity(c4, 1, 1)
    assert r.count == 31
    assert r.poly_side == 31
    assert r.strata == {1: 16, 2: 8, 3: 4, 4: 3}
    assert r.equal
    chi = chromatic_polynomial(c4)
    assert -chi.derivative(1).evaluate(-1) == 31


def test_derivative_check_acyclic_count(c4):
    r = check_derivative_reciprocity(c4, 0, 1)
    assert r.count == 14 and r.equal


def test_derivative_check_trivial_zero(c4, k1):
    for g in (c4, k1):
        r = check_derivative_reciprocity(g, 0, 0)
        assert r.count == 0 and r.poly_side == 0 and r.equal


def _strata_by_convolution(g, i, j):
    """Theorem-1 tuple counts by |V_1|, from 3^n subset convolutions."""
    a, b = acyclic_count_table(g), unique_source_min_table(g)
    rest = convolve(power(b, i - 1, g.n), power(a, j, g.n), g.n)
    strata = {}
    for V1 in range(1, 1 << g.n):
        if b[V1] and rest[g.full_mask ^ V1]:
            s = V1.bit_count()
            strata[s] = strata.get(s, 0) + b[V1] * rest[g.full_mask ^ V1]
    return strata


@pytest.mark.parametrize("n", range(11))
def test_derivative_strata_match_the_convolution_route(n):
    rng = random.Random(f"strata/{n}")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for p in (0.3, 0.6):
        g = from_edge_list(n, [e for e in pairs if rng.random() < p])
        for i in range(5):
            for j in range(5 - i):
                r = check_derivative_reciprocity(g, i, j)
                assert r.equal
                if i:
                    assert r.strata == _strata_by_convolution(g, i, j)
                    assert r.count == sum(r.strata.values())
                else:
                    assert r.count == power(acyclic_count_table(g), j, n)[g.full_mask]


def test_derivative_check_rejects_negative(c4):
    with pytest.raises(VertexOutOfRange):
        check_derivative_reciprocity(c4, -1, 0)


@given(graphs(max_n=5), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_derivative_check_matches_naive(g, i, j):
    r = check_derivative_reciprocity(g, i, j)
    assert r.equal
    assert r.count == count_block_tuples_naive(g, i, j)


def test_stanley_check_c4(c4):
    assert check_stanley_reciprocity(c4, 1).count == 14
    assert check_stanley_reciprocity(c4, 2).count == 78
    assert check_stanley_reciprocity(c4, 2).count == (-1) ** 4 * chromatic_polynomial(
        c4
    ).evaluate(-2)


def test_stanley_check_single_vertex(k1):
    for j in range(4):
        assert check_stanley_reciprocity(k1, j).count == j


@given(graphs(max_n=5), st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_stanley_matches_naive_and_block_route(g, j):
    r = check_stanley_reciprocity(g, j)
    assert r.equal
    assert r.count == count_descent_free_pairs_naive(g, j)
    assert r.count == check_derivative_reciprocity(g, 0, j).count


def test_greene_zaslavsky_c4(c4):
    for i, want in [(1, 3), (2, 6), (3, 4), (4, 1)]:
        r = check_greene_zaslavsky(c4, i)
        assert r.count == want and r.equal
    assert check_greene_zaslavsky(c4, 5).count == 0


@given(graphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_greene_zaslavsky_sums_to_acyclic_count(g):
    total = 0
    for i in range(g.n + 1):
        r = check_greene_zaslavsky(g, i)
        assert r.equal
        total += r.count
    assert total == check_derivative_reciprocity(g, 0, 1).count


def test_shifted_check_reduces_at_j_zero(c4):
    for i in (1, 2, 3):
        shifted = check_shifted_reciprocity(c4, i, 0)
        plain = check_greene_zaslavsky(c4, i)
        assert shifted.equal and shifted.count == plain.count


@given(graphs(max_n=5), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None)
def test_shifted_check_holds(g, i, j):
    assert check_shifted_reciprocity(g, i, j).equal


def test_clique_quotient_c4(c4):
    r = check_clique_quotient_reciprocity(c4, 2, 1, 0)
    assert r.count == 3 and r.equal
    quot = chi_hat(c4, 2)
    assert -quot.derivative(1).evaluate(0) == 3


def test_clique_quotient_d_zero_matches_theorem1(c4):
    a = check_clique_quotient_reciprocity(c4, 0, 1, 1)
    b = check_derivative_reciprocity(c4, 1, 1)
    assert a.count == b.count == 31


def test_clique_quotient_rejects_nonclique(c4):
    with pytest.raises(NotAClique):
        check_clique_quotient_reciprocity(c4, 3, 0, 0)


def test_sink_rooted_c4(c4):
    # d=1, i=0: unique-sink-and-source orientations rooted at vertex 1
    r = check_sink_rooted(c4, 1, 0)
    assert r.equal


def test_sink_rooted_needs_valid_labeling():
    g = from_edge_list(3, [(2, 3)])
    with pytest.raises((Disconnected, BadLabeling)):
        check_sink_rooted(g, 1, 0)


@given(graphs(max_n=5), st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None)
def test_sink_rooted_relabeling_invariance(g, d, i):
    if not is_connected(g) or d > g.n:
        return
    counts = []
    for strategy in ("min", "max"):
        h, _ = ascending_relabel(g, strategy=strategy)
        try:
            r = check_sink_rooted(h, d, i)
        except NotAClique:
            return
        assert r.equal
        counts.append(r.count)
    assert counts[0] == counts[1]


def _sink_rooted_by_filter(g, d, i):
    # the literal filter over the orientation list that check_sink_rooted
    # ran before its one-walk histogram
    count = 0
    for o in acyclic_orientation_list(g):
        if sinks(g, o) != 1:  # vertex 1 alone
            continue
        comps = source_components(g, o)
        if len(comps) != d + i:
            continue
        holders = set()
        ok = True
        for t in range(1, d + 1):
            for k, comp in enumerate(comps):
                if comp >> (t - 1) & 1:
                    if k in holders:
                        ok = False
                    holders.add(k)
                    break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("seed", range(16))
def test_sink_rooted_histogram_matches_literal_filter(seed):
    # vertex 1, the unique sink, is a source component by itself, so the
    # distinct-components condition first bites at d = 3; odd seeds give
    # vertices 1, 2, 3 a triangle and keep them in the relabelling
    rng = random.Random(900 + seed)
    n = rng.randint(3 if seed % 2 else 1, 7)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = {e for e in pairs if rng.random() < 0.5} | {(v - 1, v) for v in range(2, n + 1)}
    prefix = 3 if seed % 2 else 0
    if prefix:
        edges |= {(1, 2), (1, 3), (2, 3)}
    g = from_edge_list(n, sorted(edges))
    h, _ = ascending_relabel(g, clique_prefix=prefix, strategy=rng.choice(["min", "max"]))
    for d in (1, 2, 3):
        if d > n or not is_clique(h, vset(range(1, d + 1))):
            continue
        for i in range(4):
            assert check_sink_rooted(h, d, i).count == _sink_rooted_by_filter(h, d, i)


def test_bivariate_check_c4(c4):
    for j, k in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        r = check_bivariate_reciprocity(c4, j, k)
        assert r.equal
        assert r.count == count_bivariate_tuples_naive(c4, j, k)


@given(graphs(max_n=4), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_bivariate_check_matches_naive(g, j, k):
    r = check_bivariate_reciprocity(g, j, k)
    assert r.equal
    assert r.count == count_bivariate_tuples_naive(g, j, k)


def test_huge_free_block_counts_finish(c4):
    # j or k free blocks cost about log(j) products, not j of them
    assert check_bivariate_reciprocity(c4, 0, 10**6).equal
    assert check_clique_quotient_reciprocity(c4, 1, 0, 10**6).equal


def test_star_and_complete_controls():
    # two shapes with very different chromatic structure keep all checks green
    for g in (star_graph(5), complete_graph(4), path_graph(5), cycle_graph(5)):
        assert check_derivative_reciprocity(g, 2, 1).equal
        assert check_stanley_reciprocity(g, 2).equal
        assert check_greene_zaslavsky(g, 1).equal


def _sides(r):
    return r.count, r.poly_side


def test_paper_specializations_agree():
    # Theorem 4.4 at d = 0 is Theorem 1; Corollary 4.3 at j = 0 is
    # Greene-Zaslavsky; summed over i at j - 1, Corollary 4.3 is Stanley at j
    for _, g in seeded_family(count=60):
        for i in range(3):
            for j in range(3):
                assert _sides(check_derivative_reciprocity(g, i, j)) == _sides(
                    check_clique_quotient_reciprocity(g, 0, i, j))
        for i in range(g.n + 2):
            assert _sides(check_greene_zaslavsky(g, i)) == _sides(check_shifted_reciprocity(g, i, 0))
        for j in range(1, 4):
            shifted = [check_shifted_reciprocity(g, i, j - 1) for i in range(g.n + 1)]
            assert _sides(check_stanley_reciprocity(g, j)) == (
                sum(r.count for r in shifted), sum(r.poly_side for r in shifted))


@pytest.mark.parametrize("seed", range(8))
def test_taylor_matches_the_expanded_shift(seed):
    rng = random.Random(seed)
    for _ in range(10):
        p = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        for x in range(-3, 4):
            shifted = p.shift(x)
            for i in range(-2, p.degree + 3):
                assert _taylor(p, i, x) == shifted.coefficient(i)
