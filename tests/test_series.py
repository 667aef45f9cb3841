"""Truncated series arithmetic and the heap generating series."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap import series
from chromheap.errors import InternalInvariantViolation, ResourceBudgetExceeded, VertexOutOfRange
from chromheap.config import Budget
from chromheap.families import complete_graph, cycle_graph, path_graph
from chromheap.graphs import from_edge_list, vset
from chromheap.orientations import acyclic_count_table, unique_source_min_table
from chromheap.series import (
    TruncatedSeries,
    check_heap_identities,
    direct_heap_count,
    direct_pyramid_count,
    direct_restricted_count,
    heap_series,
    heap_series_triple,
    pyramid_series,
    restricted_heap_series,
    restricted_trivial_series,
    trivial_series,
    verify_heap_identities,
)

from conftest import graphs, rational_series


# --- ring arithmetic ------------------------------------------------------


def test_multiplication_truncates():
    s = TruncatedSeries(1, 2, {(1,): 1})
    assert (s * s).terms == {(2,): 1}
    assert (s * s * s).terms == {}


def test_addition_and_scalar_ops():
    s = TruncatedSeries(2, 3, {(1, 0): 2, (0, 1): Fraction(1, 2)})
    t = s + s - s
    assert t == s
    assert (1 - s).coefficient((1, 0)) == -2
    assert (1 - s).constant_term() == 1


@given(rational_series())
@settings(max_examples=80, deadline=None)
def test_reciprocal_roundtrip(s):
    f = 1 + s - TruncatedSeries.constant(s.nvars, s.bound, s.constant_term())
    g = f.reciprocal()
    assert f * g == TruncatedSeries.constant(s.nvars, s.bound)


@given(rational_series())
@settings(max_examples=80, deadline=None)
def test_exp_log_roundtrip(s):
    # force constant term 0, then exp/log invert each other
    zeroed = s - TruncatedSeries.constant(s.nvars, s.bound, s.constant_term())
    assert zeroed.exp().log() == zeroed
    one_plus = 1 + zeroed
    assert one_plus.log().exp() == one_plus


def test_reciprocal_needs_unit_constant():
    s = TruncatedSeries(1, 2, {(1,): 1})
    with pytest.raises(InternalInvariantViolation):
        s.reciprocal()
    with pytest.raises(InternalInvariantViolation):
        s.log()
    with pytest.raises(InternalInvariantViolation):
        (1 + s).exp()


def test_substitute_neg_flips_odd_degrees():
    s = TruncatedSeries(2, 3, {(1, 0): 1, (1, 1): 1, (0, 3): 2})
    n = s.substitute_neg()
    assert n.coefficient((1, 0)) == -1
    assert n.coefficient((1, 1)) == 1
    assert n.coefficient((0, 3)) == -2


# --- heap series ----------------------------------------------------------


def test_trivial_series_is_independent_set_polynomial(c4):
    t = trivial_series(c4, 8)
    assert t.terms == {
        (0, 0, 0, 0): 1,
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1,
        (1, 0, 1, 0): 1,
        (0, 1, 0, 1): 1,
    }


def test_displayed_low_degree_coefficients(c4):
    h = heap_series(c4, 4)
    p = pyramid_series(c4, 4)
    assert h.constant_term() == 1
    for v in range(1, 5):
        e = tuple(2 if i == v - 1 else 0 for i in range(4))
        single = tuple(1 if i == v - 1 else 0 for i in range(4))
        assert h.coefficient(single) == 1
        assert h.coefficient(e) == 1
        assert p.coefficient(single) == 1
        assert p.coefficient(e) == Fraction(1, 2)
    assert h.coefficient((1, 1, 0, 0)) == 2
    assert h.coefficient((1, 0, 1, 0)) == 1
    assert p.coefficient((1, 1, 0, 0)) == 1
    assert p.coefficient((1, 0, 1, 0)) == 0


@given(graphs(max_n=5))
@settings(max_examples=25, deadline=None)
def test_heap_coefficients_are_nonnegative_integers(g):
    h = heap_series(g, 5)
    for exps, c in h.terms.items():
        assert c == int(c) and c >= 0, (exps, c)


@given(graphs(max_n=5))
@settings(max_examples=25, deadline=None)
def test_pyramid_coefficients_times_size_are_counts(g):
    p = pyramid_series(g, 5)
    for exps, c in p.terms.items():
        scaled = c * sum(exps)
        assert scaled == int(scaled) and scaled >= 0, (exps, c)


def test_heap_coefficients_count_heaps(c4):
    h = heap_series(c4, 6)
    p = pyramid_series(c4, 6)
    for m in [(1, 1, 0, 0), (2, 1, 0, 1), (2, 0, 2, 0), (1, 1, 1, 1), (3, 0, 0, 0)]:
        assert h.coefficient(m) == direct_heap_count(c4, m)
        assert p.coefficient(m) * sum(m) == direct_pyramid_count(c4, m)


def test_squarefree_coefficients_are_orientation_counts(c4):
    h = heap_series(c4, 4)
    p = pyramid_series(c4, 4)
    a = acyclic_count_table(c4)
    b = unique_source_min_table(c4)
    for mask in range(1, 1 << 4):
        assert h.coefficient_of_set(mask) == a[mask]
        assert p.coefficient_of_set(mask) == b[mask]


def test_restricted_series_quotient(c4):
    bound = 5
    t_neg = trivial_series(c4, bound).substitute_neg()
    for smask in (vset([1]), vset([1, 3]), c4.full_mask):
        hs = restricted_heap_series(c4, smask, bound)
        numerator = restricted_trivial_series(c4, smask, bound).substitute_neg()
        assert hs * t_neg == numerator
    assert restricted_heap_series(c4, c4.full_mask, bound) == heap_series(c4, bound)


def test_restricted_counts(c4):
    for m in [(1, 1, 0, 0), (2, 1, 0, 1), (1, 0, 1, 0)]:
        total = direct_heap_count(c4, m)
        allowed = direct_restricted_count(c4, c4.full_mask, m)
        assert allowed == total
        hs = restricted_heap_series(c4, vset([2]), 5)
        assert hs.coefficient(m) == direct_restricted_count(c4, vset([2]), m)


def test_heap_identities_verify(c4, k3):
    for g in (c4, k3, path_graph(5), from_edge_list(3, [])):
        report = verify_heap_identities(g, 6)
        assert report.equal, report.details


# Packed monomials use max(1, D.bit_length()) bits per variable: exponents
# up to D = 1 and 7 fill their field, and D = 2, 4 and 8 start a wider one.
PACKING_EDGES = (0, 1, 2, 4, 7, 8)


@pytest.mark.parametrize("bound", PACKING_EDGES)
def test_closed_forms_at_packing_edges(bound):
    k1 = complete_graph(1)
    assert heap_series(k1, bound).terms == {(k,): 1 for k in range(bound + 1)}
    assert pyramid_series(k1, bound).terms == {(k,): Fraction(1, k) for k in range(1, bound + 1)}
    monomials = [(a, d - a) for d in range(bound + 1) for a in range(d + 1)]
    e2 = from_edge_list(2, [])
    assert heap_series(e2, bound).terms == {m: 1 for m in monomials}
    k2 = complete_graph(2)
    assert heap_series(k2, bound).terms == {(a, b): comb(a + b, a) for a, b in monomials}
    for g in (k1, e2, k2):
        report = verify_heap_identities(g, bound)
        assert report.equal, report.details


def _bumped(s, exps):
    terms = dict(s.terms)
    terms[exps] = terms.get(exps, 0) + 1
    return TruncatedSeries(s.nvars, s.bound, terms)


@pytest.mark.parametrize("graph", [cycle_graph(4), path_graph(6)], ids=["c4", "p6"])
def test_perturbed_series_are_reported(graph):
    # H has every monomial within the bound, so these bump each coefficient
    # of H, and each of P together with the zeros around its support
    bound = 4
    t, h, p = heap_series_triple(graph, bound)
    assert check_heap_identities(graph, t, h, p).equal
    assert len(h.terms) == comb(bound + graph.n, graph.n)
    for exps in h.terms:
        details = check_heap_identities(graph, t, _bumped(h, exps), p).details
        assert "H * T(-x) != 1" in details and "exp(-P) != T(-x)" not in details, exps
        details = check_heap_identities(graph, t, h, _bumped(p, exps)).details
        assert "exp(-P) != T(-x)" in details and "H * T(-x) != 1" not in details, exps


def test_heap_mismatch_names_the_first_differing_monomial(c4):
    t, h, p = heap_series_triple(c4, 4)
    # H gains x2 x3, which H * T(-x) = 1 + x2 x3 + ... then carries as its
    # lowest wrong term; exp(-P) = T(-x) does not read H (the squarefree
    # shadow checks report the bump after these)
    details = check_heap_identities(c4, t, _bumped(h, (0, 1, 1, 0)), p).details
    assert details[:2] == ("H * T(-x) != 1", "first difference at exponents [0, 1, 1, 0]: 1 vs 0")
    assert "exp(-P) != T(-x)" not in details
    # P gains three monomials, each of which exp(-P) carries as -1 times
    # itself into degrees where T(-x) has none: degree comes first, although
    # x4^3 packs below both degree-2 bumps, then the tuple
    skewed = p
    for m in ((0, 0, 0, 3), (2, 0, 0, 0), (1, 1, 0, 0)):
        skewed = _bumped(skewed, m)
    report = check_heap_identities(c4, t, h, skewed)
    assert not report.equal
    assert report.details == ("exp(-P) != T(-x)", "first difference at exponents [1, 1, 0, 0]: -1 vs 0")
    # a constant term in P has no exp to compare
    details = check_heap_identities(c4, t, h, _bumped(p, (0, 0, 0, 0))).details
    assert details == ("exp(-P) != T(-x)",)


@pytest.mark.parametrize("seed", range(24))
def test_exp_step_multiplies_what_was_prepaid(monkeypatch, seed):
    # the prepay charges the series size, the inversion, then the exp(-P)
    # step; the check's exp step must multiply exactly that many pairs
    rng = random.Random(seed)
    n = seed % 8
    pairs = list(combinations(range(1, n + 1), 2))
    g = from_edge_list(n, rng.sample(pairs, rng.randint(0, len(pairs))))
    charged, multiplied = [], []
    real = series._first_exp_difference

    def counted(theta, f, work):
        out = real(theta, f, work)
        multiplied.append(work.pairs)
        return out

    monkeypatch.setattr(series, "_first_exp_difference", counted)
    for bound in range(9):
        charged.clear()
        multiplied.clear()
        with monkeypatch.context() as m:
            m.setattr(series, "charge", lambda kind, amount, limit: charged.append(amount))
            series._prepay_heap_identities(g, bound, Budget())
        assert check_heap_identities(g, *heap_series_triple(g, bound)).equal
        assert multiplied == [charged[2]], (n, bound)


def test_shadow_catches_another_graphs_triple(c4):
    # P4's triple satisfies H * T(-x) = 1 and exp(P) = H by itself, so only
    # the orientation-side shadow can tell it does not belong to C4
    details = check_heap_identities(c4, *heap_series_triple(path_graph(4), 4)).details
    assert len(details) == 64
    assert all(d.startswith("[x^V]H_S != source-confined count for S=") for d in details)
    assert details[0] == "[x^V]H_S != source-confined count for S=(), V=(1, 4)"
    assert details[-1] == "[x^V]H_S != source-confined count for S=(1, 2, 3, 4), V=(1, 2, 3, 4)"


def test_work_charge_stops_long_recurrences():
    tight = Budget(enumeration_limit=100)
    k1 = complete_graph(1)
    # on K1 the inversion multiplies D coefficient pairs, exp(-P) 2D - 1
    # and the check's H * T(-x) product 2D + 1, the most of the three
    assert verify_heap_identities(k1, 49, tight).equal  # 99 pairs
    with pytest.raises(ResourceBudgetExceeded, match="needs 101 > budget 100"):
        verify_heap_identities(k1, 50, tight)
    with pytest.raises(ResourceBudgetExceeded):
        heap_series(complete_graph(3), 40, tight)


@given(graphs(), st.integers(min_value=0, max_value=7))
@settings(max_examples=80, deadline=None)
def test_slice_sizes_come_from_the_graph_alone(g, bound):
    _, _, p = heap_series_triple(g, bound)
    f = series._trivial_slices(g, bound, -1)
    assert series._heap_slice_sizes(g, bound) == ([len(x) for x in f], [len(x) for x in p._slices])


def _refusal(run) -> str | None:
    try:
        run()
    except ResourceBudgetExceeded as exc:
        return str(exc)
    return None


def test_prepaid_refusals_match_the_running_route():
    # the prepaid charges alone refuse what building the triple and checking
    # it refuses, with the same message, before any series exists
    cases = [from_edge_list(0, []), complete_graph(1), from_edge_list(3, []), cycle_graph(4),
             complete_graph(3), path_graph(5)]
    refused = 0
    for g in cases:
        for bound in range(9):
            for budget in (Budget(enumeration_limit=300), Budget(enumeration_limit=60),
                           Budget(series_terms=40)):
                prepaid = _refusal(lambda: series._prepay_heap_identities(g, bound, budget))
                running = _refusal(
                    lambda: check_heap_identities(g, *heap_series_triple(g, bound, budget), budget)
                )
                assert prepaid == running, (g, bound, budget)
                assert _refusal(lambda: verify_heap_identities(g, bound, budget)) == running
                refused += running is not None
    assert 0 < refused < 6 * 9 * 3


def test_budget_guard():
    g = complete_graph(3)
    with pytest.raises(ResourceBudgetExceeded):
        trivial_series(g, 30, Budget(series_terms=10))


def test_negative_bound_is_rejected(c4):
    with pytest.raises(VertexOutOfRange, match="degree bound D"):
        heap_series(c4, -1)


def test_direct_counts_small():
    k2 = complete_graph(2)
    assert direct_heap_count(k2, (1, 1)) == 2
    assert direct_heap_count(k2, (2, 2)) == 6  # interleavings of aabb chains
    assert direct_pyramid_count(k2, (1, 1)) == 2
    e2 = from_edge_list(2, [])
    assert direct_heap_count(e2, (1, 1)) == 1
    assert direct_pyramid_count(e2, (1, 1)) == 0
