"""Chromatic symmetric function: expansions, omega, specializations, and
the orientation-side identities, each cross-checked against a literal
enumeration route."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap import symfunc
from chromheap.chromatic import chromatic_polynomial
from chromheap.config import DEFAULT_BUDGET
from chromheap.errors import (
    InternalInvariantViolation,
    NonIntegerResult,
    ResourceBudgetExceeded,
    VertexOutOfRange,
)
from chromheap.families import complete_graph, path_graph, star_graph
from chromheap.graphs import blowup, from_edge_list
from chromheap.orientations import acyclic_orientation_list
from chromheap.symfunc import (
    MultiPoly,
    PPoly,
    csf_from_colorings,
    csf_powersum,
    expand_finite,
    identity_sides,
    multicolor_csf,
    multicolor_csf_from_colorings,
    omega,
    orientation_lambda_tally,
    orientation_side_naive,
    specialize_p_to_q,
    specialize_p_to_value,
    substitute_power_sums,
    verify_combined,
    verify_descent_expansion,
    verify_orientation_expansion,
    verify_split_alphabet,
    verify_superfication,
)

from conftest import graphs


# --- PPoly basics ---------------------------------------------------------


def test_ppoly_rejects_non_partitions():
    with pytest.raises(InternalInvariantViolation):
        PPoly({(1, 2): 1})  # not weakly decreasing
    with pytest.raises(InternalInvariantViolation):
        PPoly({(0,): 1})  # parts must be positive
    with pytest.raises(InternalInvariantViolation):
        PPoly({(2,): 1, (1, 1, 1): 1})  # mixed degree


def test_ppoly_drops_zeros_and_compares():
    assert PPoly({(2, 1): 0}) == PPoly({})
    assert PPoly({(2, 1): Fraction(4, 2)}) == PPoly({(2, 1): 2})


def test_omega_signs():
    x = PPoly({(2, 1): 1})
    assert omega(x).terms == {(2, 1): -1}
    assert omega(PPoly({(3, 1): 5})).terms == {(3, 1): 5}


@given(graphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_omega_is_an_involution(g):
    x = csf_powersum(g)
    assert omega(omega(x)) == x


# --- the expansion itself -------------------------------------------------


def test_c4_powersum_coefficients(c4):
    x = csf_powersum(c4)
    assert x.terms == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): -4,
        (3, 1): 4,
        (2, 2): 2,
        (4,): -3,
    }
    assert omega(x).terms == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 4,
        (3, 1): 4,
        (2, 2): 2,
        (4,): 3,
    }


def test_edgeless_graph_is_pure_p1(k1):
    assert csf_powersum(k1).terms == {(1,): 1}
    e3 = from_edge_list(3, [])
    assert csf_powersum(e3).terms == {(1, 1, 1): 1}


@given(graphs(max_n=6), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_expansion_matches_direct_colorings(g, n_colors):
    # the colorings route never touches the block table or its walk
    assert expand_finite(csf_powersum(g), n_colors) == csf_from_colorings(g, n_colors)


@given(graphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_specialization_recovers_chromatic(g):
    x = csf_powersum(g)
    chi = chromatic_polynomial(g)
    assert specialize_p_to_q(x) == chi
    for q in range(4):
        assert specialize_p_to_value(x, q) == chi.evaluate(q)


@given(graphs(max_n=5), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_dual_evaluation(g, j):
    val = expand_finite(omega(csf_powersum(g)), j).evaluate([1] * j)
    assert val == (-1) ** g.n * chromatic_polynomial(g).evaluate(-j)


@given(graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_omega_coefficients_count_orientations(g):
    w = omega(csf_powersum(g))
    assert all(c > 0 for c in w.terms.values())
    assert w.sum_of_coefficients() == len(acyclic_orientation_list(g))


def _seeded_gnm(n: int, m: int, seed: int):
    pairs = list(combinations(range(1, n + 1), 2))
    return from_edge_list(n, random.Random(seed).sample(pairs, m))


def test_expansion_past_twenty_edges():
    # K7 has 21 edges and the seeded G(8, 22) has 22
    for g in (complete_graph(7), _seeded_gnm(8, 22, 2026)):
        assert g.num_edges > 20
        assert verify_orientation_expansion(g).equal


def test_connected_block_budget_is_charged_first():
    # one 16-vertex component needs (3^16 - 1)/2 steps, past the default
    # enumeration_limit, and is refused before any table is built
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetExceeded):
        csf_powersum(path_graph(16))
    assert time.perf_counter() - start < 1.0
    # the charge is exact: (3^3 - 1)/2 + (3^1 - 1)/2 = 14 for K3 plus a vertex
    g = from_edge_list(4, [(1, 2), (1, 3), (2, 3)])
    assert csf_powersum(g, DEFAULT_BUDGET.with_overrides(enumeration_limit=14))
    with pytest.raises(ResourceBudgetExceeded):
        csf_powersum(g, DEFAULT_BUDGET.with_overrides(enumeration_limit=13))


def test_csf_powersum_charges_every_call_and_returns_fresh_copies():
    # X_G is memoized on the graph, but its steps are charged on every
    # call, and no caller can change what the next call returns
    g = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    steps = (3**5 - 1) // 2
    first = csf_powersum(g)
    with pytest.raises(ResourceBudgetExceeded):
        csf_powersum(g, DEFAULT_BUDGET.with_overrides(enumeration_limit=steps - 1))
    assert csf_powersum(g, DEFAULT_BUDGET.with_overrides(enumeration_limit=steps)) == first
    want = dict(first.terms)
    lam = next(iter(first.terms))
    first.terms[lam] += 1
    first.terms[(5,)] = 7
    second = csf_powersum(g)
    assert second is not first and second.terms == want
    second.terms.clear()
    assert csf_powersum(g).terms == want


def _ppoly_product(*factors: PPoly) -> PPoly:
    out: Counter = Counter({(): 1})
    for f in factors:
        step: Counter = Counter()
        for lam, c in out.items():
            for mu, d in f.terms.items():
                step[tuple(sorted(lam + mu, reverse=True))] += c * d
        out = step
    return PPoly(out)


def test_components_multiply():
    # four disjoint triangles and ten isolated vertices: 22 vertices, each
    # component small, so X = (p111 - 3 p21 + 2 p3)^4 p1^10
    edges = [(t + a, t + b) for t in (1, 4, 7, 10) for a, b in ((0, 1), (0, 2), (1, 2))]
    g = from_edge_list(22, edges)
    triangle = PPoly({(1, 1, 1): 1, (2, 1): -3, (3,): 2})
    want = _ppoly_product(*[triangle] * 4, *[PPoly({(1,): 1})] * 10)
    assert want.coefficient((3, 3, 3, 3) + (1,) * 10) == 16
    assert csf_powersum(g) == want


def test_non_integral_specialization_rejected():
    with pytest.raises(NonIntegerResult):
        specialize_p_to_q(PPoly({(1,): Fraction(1, 2)}))


# --- orientation-side identities -------------------------------------------


def test_orientation_expansion_c4(c4):
    report = verify_orientation_expansion(c4)
    assert report.equal
    assert orientation_lambda_tally(c4).terms == omega(csf_powersum(c4)).terms


def test_orientation_expansion_mismatch_names_the_first_partition(c4, monkeypatch):
    # the tally is skewed at p[3,1] and p[2,1,1]; the report keeps both
    # sides and adds the first of the two in sorted_terms order
    real = symfunc.orientation_lambda_tally
    skew = PPoly({(3, 1): 2, (2, 1, 1): -1})
    monkeypatch.setattr(symfunc, "orientation_lambda_tally", lambda g: real(g) + skew)
    report = verify_orientation_expansion(c4)
    lhs = omega(csf_powersum(c4))
    assert not report.equal
    assert report.details == (
        f"omega side {lhs.pretty()}",
        f"tally side {(lhs + skew).pretty()}",
        f"first difference at partition [2, 1, 1]: omega {lhs.coefficient((2, 1, 1))},"
        f" tally {lhs.coefficient((2, 1, 1)) - 1}",
    )
    # a partition that only the tally side has: omega(X) of three isolated
    # vertices is p[1,1,1] alone
    monkeypatch.setattr(symfunc, "orientation_lambda_tally", lambda g: real(g) + PPoly({(3,): 1}))
    report = verify_orientation_expansion(from_edge_list(3, []))
    assert report.details[2] == "first difference at partition [3]: omega 0, tally 1"


@given(graphs(max_n=6))
@settings(max_examples=25, deadline=None)
def test_orientation_expansion_property(g):
    assert verify_orientation_expansion(g).equal


def test_descent_expansion_c4_one_color(c4):
    lhs, rhs = identity_sides(c4, "descent_expansion", 1)
    assert lhs.terms == rhs.terms == {(4,): 14}


def test_descent_expansion_single_vertex(k1):
    lhs, rhs = identity_sides(k1, "descent_expansion", 3)
    want = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert lhs.terms == rhs.terms == want


@given(graphs(max_n=5), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_descent_expansion_matches_naive(g, n_colors):
    report = verify_descent_expansion(g, n_colors)
    assert report.equal
    lhs, rhs = identity_sides(g, "descent_expansion", n_colors)
    assert rhs == orientation_side_naive(g, "descent_expansion", n_colors)


@given(graphs(max_n=5), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=15, deadline=None)
def test_split_alphabet_matches_naive(g, ny, nz):
    report = verify_split_alphabet(g, ny, nz)
    assert report.equal
    _, rhs = identity_sides(g, "split_alphabet", ny, nz)
    assert rhs == orientation_side_naive(g, "split_alphabet", ny, nz)


@given(graphs(max_n=5), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_ny_zero_image_is_omega_then_expansion(g, ny, nz):
    # with no y alphabet in the layout, the algebraic side is omega(X_G)
    # expanded in all of its slots
    x = omega(csf_powersum(g))
    lhs, _ = identity_sides(g, "descent_expansion", nz)
    assert lhs == expand_finite(x, nz)
    lhs, _ = identity_sides(g, "split_alphabet", ny, nz)
    assert lhs == expand_finite(x, ny + nz)


def test_coloring_charge_refuses_before_x_g(c4, monkeypatch):
    # three colors on C4 walk exactly 3^4 = 81 colorings, and X_G takes
    # (3^4 - 1)/2 = 40 steps, so only the coloring charge refuses 80
    def budget(limit):
        return DEFAULT_BUDGET.with_overrides(enumeration_limit=limit)

    assert identity_sides(c4, "descent_expansion", 3, budget=budget(81))
    calls = []
    monkeypatch.setattr(symfunc, "csf_powersum", lambda *args: calls.append(args))
    with pytest.raises(ResourceBudgetExceeded, match="coloring enumeration needs 81 > budget 80"):
        identity_sides(c4, "descent_expansion", 3, budget=budget(80))
    assert calls == []


def test_identity_caps_refuse_past_the_table(c4):
    for identity, sizes in (
        ("descent_expansion", (9,)), ("split_alphabet", (4, 1)),
        ("superfication", (1, 4)), ("combined_alphabets", (1, 3, 1)),
    ):
        with pytest.raises(ResourceBudgetExceeded, match="alphabets capped"):
            identity_sides(c4, identity, *sizes)
    with pytest.raises(ResourceBudgetExceeded, match="5 vertices"):
        identity_sides(path_graph(6), "combined_alphabets", 1, 1, 1)
    # a negative alphabet is refused, not indexed past its slots
    for identity, sizes in (
        ("descent_expansion", (-1,)), ("split_alphabet", (1, -1)),
        ("superfication", (-1, 1)), ("combined_alphabets", (-1, 1, 1)),
    ):
        with pytest.raises(VertexOutOfRange, match="nonnegative"):
            identity_sides(c4, identity, *sizes)


def test_split_alphabet_degenerate_reductions(c4):
    # no z-colors: only the empty coloring survives, leaving the
    # orientation tally expanded in y
    lhs, rhs = identity_sides(c4, "split_alphabet", 2, 0)
    tally = substitute_power_sums(
        orientation_lambda_tally(c4), 2, lambda k: MultiPoly.power_sum(2, k, 0, 2)
    )
    assert lhs == rhs == tally
    # no y-colors: class 0 must be empty, leaving the descent expansion
    lhs, rhs = identity_sides(c4, "split_alphabet", 0, 2)
    dl, dr = identity_sides(c4, "descent_expansion", 2)
    assert rhs.terms == dr.terms
    assert lhs.terms == dl.terms


@given(graphs(max_n=4), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=12, deadline=None)
def test_superfication_matches_naive(g, ny, nz):
    report = verify_superfication(g, ny, nz)
    assert report.equal
    _, rhs = identity_sides(g, "superfication", ny, nz)
    assert rhs == orientation_side_naive(g, "superfication", ny, nz)


def test_superfication_degenerate_reductions(c4):
    # no positive colors: signed colorings become proper colorings
    lhs, rhs = identity_sides(c4, "superfication", 2, 0)
    assert lhs == rhs == expand_finite(csf_powersum(c4), 2)
    # no negative colors: the sign flip is exactly omega
    lhs, rhs = identity_sides(c4, "superfication", 0, 2)
    dl, dr = identity_sides(c4, "descent_expansion", 2)
    assert lhs.terms == dl.terms
    assert rhs.terms == dr.terms


def _permute_exponents(poly: MultiPoly, perm: list[int]) -> dict:
    return {tuple(e[i] for i in perm): c for e, c in poly.terms.items()}


@given(graphs(max_n=4))
@settings(max_examples=10, deadline=None)
def test_combined_matches_naive(g):
    report = verify_combined(g, 1, 1, 1)
    assert report.equal
    _, rhs = identity_sides(g, "combined_alphabets", 1, 1, 1)
    assert rhs == orientation_side_naive(g, "combined_alphabets", 1, 1, 1)


def test_combined_degenerate_reductions(c4):
    # w empty: the three-alphabet identity is the signed-coloring one
    lc, rc = identity_sides(c4, "combined_alphabets", 1, 2, 0)
    ls, rs = identity_sides(c4, "superfication", 1, 2)
    assert lc.terms == ls.terms and rc.terms == rs.terms
    # y empty: it is the split-alphabet identity with slots [z | w],
    # while split_alphabet uses [y(=w) | z]
    lc, rc = identity_sides(c4, "combined_alphabets", 0, 2, 1)
    lt, rt = identity_sides(c4, "split_alphabet", 1, 2)
    perm = [2, 0, 1]  # combined slot order (z1,z2,w) read as (y,z1,z2)
    assert _permute_exponents(lc, perm) == lt.terms
    assert _permute_exponents(rc, perm) == rt.terms


@given(graphs(max_n=5))
@settings(max_examples=12, deadline=None)
def test_combined_degenerates_propertywise(g):
    lc, rc = identity_sides(g, "combined_alphabets", 1, 1, 0)
    ls, rs = identity_sides(g, "superfication", 1, 1)
    assert lc.terms == ls.terms and rc.terms == rs.terms


# --- multicolorings --------------------------------------------------------


def _mfact(m) -> int:
    out = 1
    for k in m:
        out *= factorial(k)
    return out


def test_multicolor_csf_matches_blowup(c4):
    for m in [(1, 1, 1, 1), (2, 1, 0, 1), (2, 2, 0, 0)]:
        x = multicolor_csf(c4, m)
        blown = csf_powersum(blowup(c4, m))
        assert x.scale(_mfact(m)) == blown


def test_multicoloring_charge_is_exact():
    # eight isolated vertices with one color each out of three: the walk is
    # charged its 3^8 = 6561 leaves, within the default budget
    g = from_edge_list(8, [])
    direct = multicolor_csf_from_colorings(g, (1,) * 8, 3)
    assert direct == expand_finite(csf_powersum(g), 3)
    assert sum(direct.terms.values()) == 3**8
    budget = DEFAULT_BUDGET.with_overrides(enumeration_limit=3**8 - 1)
    with pytest.raises(ResourceBudgetExceeded, match="coloring enumeration needs 6561"):
        multicolor_csf_from_colorings(g, (1,) * 8, 3, budget)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_multicolor_expansion_matches_direct(m, n_colors):
    g = path_graph(3)
    x = multicolor_csf(g, m)
    direct = multicolor_csf_from_colorings(g, m, n_colors)
    assert expand_finite(x, n_colors) == direct


def test_multicolor_specializes_to_multicolor_polynomial(c4):
    # the q-specialization of X_{G,m} can have rational coefficients, so
    # compare by value rather than asking for an integer-coefficient Poly
    from chromheap.chromatic import multicolor_polynomial

    # the blow-up of K4 by (2, 2, 2, 2) is K8, with 28 edges
    for g, m in [(c4, (1, 1, 1, 1)), (c4, (2, 0, 1, 0)), (complete_graph(4), (2, 2, 2, 2))]:
        x = multicolor_csf(g, m)
        poly = multicolor_polynomial(g, m)
        for q in range(sum(m) + 2):
            assert specialize_p_to_value(x, q) == poly.evaluate(q)


# --- control values on other families --------------------------------------


def test_complete_graph_expansion():
    # X_{K3} = p111 - 3 p21 + 2 p3; at 3 colors it is 6 z1 z2 z3
    x = csf_powersum(complete_graph(3))
    assert x.terms == {(1, 1, 1): 1, (2, 1): -3, (3,): 2}
    e = expand_finite(x, 3)
    assert e.terms == {(1, 1, 1): 6}


def test_star_graph_tally_totals():
    g = star_graph(4)
    w = omega(csf_powersum(g))
    assert w.sum_of_coefficients() == len(acyclic_orientation_list(g))
