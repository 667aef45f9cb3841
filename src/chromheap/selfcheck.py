"""Registry of worked examples with published values, replayed exactly.

Every entry recomputes a documented value from scratch through the public
API and compares with zero tolerance.  The CLI `selfcheck` command runs the
whole registry; the test suite asserts it passes as a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from .chromatic import chi_hat, chromatic_polynomial, multicolor_polynomial
from .errors import NotAdjacent
from .families import complete_graph, cycle_graph
from .graphs import blowup, from_edge_list, independent_sets, vset
from .orientations import (
    acyclic_count_table,
    acyclic_orientation_list,
    count_bipolar,
    lambda_histogram,
    source_component_histogram,
    subgraph_unique_source_count,
    unique_source_min_table,
)
from .reciprocity import (
    check_clique_quotient_reciprocity,
    check_derivative_reciprocity,
    check_greene_zaslavsky,
    check_stanley_reciprocity,
)
from .series import (
    direct_heap_count,
    heap_series,
    pyramid_series,
    restricted_heap_series,
    trivial_series,
)
from .symfunc import (
    csf_from_colorings,
    csf_powersum,
    expand_finite,
    identity_sides,
    omega,
    orientation_lambda_tally,
    specialize_p_to_q,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


_REGISTRY: list[tuple[str, Callable[[], str]]] = []


def _check(name: str):
    def deco(fn: Callable[[], str]):
        _REGISTRY.append((name, fn))
        return fn

    return deco


def _c4():
    return cycle_graph(4)


def _expect(got, want, label: str) -> None:
    if got != want:
        raise AssertionError(f"{label}: got {got!r}, want {want!r}")


@_check("four_cycle_shape")
def _four_cycle_shape() -> str:
    g = from_edge_list(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    _expect((g.n, g.num_edges), (4, 4), "vertex/edge count")
    _expect(g.has_edge(1, 2), True, "edge {1,2}")
    _expect(g.has_edge(1, 3), False, "non-edge {1,3}")
    return "4 vertices, 4 edges, diagonals absent"


@_check("blowup_type_3201")
def _blowup_type_3201() -> str:
    h = blowup(_c4(), (3, 2, 0, 1))
    _expect((h.n, h.num_edges), (6, 13), "blow-up shape")
    return "blow-up (3,2,0,1) has 6 vertices and 13 edges"


@_check("independent_sets_c4")
def _independent_sets_c4() -> str:
    got = set(independent_sets(_c4()))
    want = {0, vset([1]), vset([2]), vset([3]), vset([4]), vset([1, 3]), vset([2, 4])}
    _expect(got, want, "independent sets")
    return "7 independent sets including the two diagonals"


@_check("acyclic_orientation_count_c4")
def _acyclic_count_c4() -> str:
    _expect(len(acyclic_orientation_list(_c4())), 14, "acyclic orientations")
    return "14 acyclic orientations"


@_check("source_component_histogram_c4")
def _source_histogram_c4() -> str:
    _expect(source_component_histogram(_c4()), {1: 3, 2: 6, 3: 4, 4: 1}, "histogram")
    return "component-count tallies 3/6/4/1"


@_check("lambda_histogram_c4")
def _lambda_histogram_c4() -> str:
    want = {(1, 1, 1, 1): 1, (2, 1, 1): 4, (3, 1): 4, (2, 2): 2, (4,): 3}
    _expect(lambda_histogram(_c4()), want, "partition tallies")
    return "partition tallies 1/4/4/2/3"


@_check("acyclic_table_c4")
def _acyclic_table_c4() -> str:
    a = acyclic_count_table(_c4())
    _expect(a[vset([1, 2, 3, 4])], 14, "a[full]")
    _expect(a[vset([1, 2])], 2, "a[{1,2}]")
    return "a[full]=14, a[{1,2}]=2"


@_check("unique_source_table_c4")
def _unique_source_table_c4() -> str:
    b = unique_source_min_table(_c4())
    _expect(b[vset([1, 2, 3, 4])], 3, "b[full]")
    return "3 orientations with unique source 1"


@_check("bipolar_requires_adjacency")
def _bipolar_requires_adjacency() -> str:
    try:
        count_bipolar(_c4(), 1, 3)
    except NotAdjacent:
        return "count_bipolar(1,3) rejected: 1 and 3 non-adjacent"
    raise AssertionError("count_bipolar(C4,1,3) should raise NotAdjacent")


@_check("chromatic_polynomial_c4")
def _chromatic_c4() -> str:
    chi = chromatic_polynomial(_c4())
    _expect(chi.coeffs, (0, -3, 6, -4, 1), "coefficients")
    return "chi = q^4 - 4q^3 + 6q^2 - 3q"


@_check("derivative_at_minus_one_c4")
def _derivative_c4() -> str:
    chi = chromatic_polynomial(_c4())
    _expect(chi.derivative(1).evaluate(-1), -31, "chi'(-1)")
    return "chi'(-1) = -31"


@_check("clique_quotient_polynomial_c4")
def _chi_hat_c4() -> str:
    _expect(chi_hat(_c4(), 2).coeffs, (3, -3, 1), "quotient coefficients")
    return "chi-hat_2 = q^2 - 3q + 3"


@_check("multicolor_heap_evaluation_c4")
def _multicolor_heap_c4() -> str:
    g = _c4()
    for m in [(1, 1, 1, 1), (2, 1, 0, 1), (2, 0, 1, 0), (1, 0, 1, 0)]:
        val = multicolor_polynomial(g, m).evaluate(-1)
        want = direct_heap_count(g, m)
        _expect((-1) ** sum(m) * val, want, f"heap count, m={m}")
    return "signed chi_{G,m}(-1) equals the direct heap count"


@_check("trivial_series_c4")
def _trivial_series_c4() -> str:
    t = trivial_series(_c4(), 6)
    want = {
        (0, 0, 0, 0): 1,
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1,
        (1, 0, 1, 0): 1,
        (0, 1, 0, 1): 1,
    }
    _expect(dict(t.terms), want, "trivial series")
    return "T = 1 + x1 + x2 + x3 + x4 + x1x3 + x2x4 exactly"


@_check("heap_series_coefficients_c4")
def _heap_series_c4() -> str:
    h = heap_series(_c4(), 6)
    _expect(h.coefficient((1, 1, 0, 0)), 2, "[x1x2]H")
    _expect(h.coefficient((1, 0, 1, 0)), 1, "[x1x3]H")
    _expect(h.coefficient((2, 0, 0, 0)), 1, "[x1^2]H")
    return "H coefficients 2, 1, 1 at x1x2, x1x3, x1^2"


@_check("pyramid_series_coefficients_c4")
def _pyramid_series_c4() -> str:
    p = pyramid_series(_c4(), 6)
    _expect(p.coefficient((1, 1, 0, 0)), 1, "[x1x2]P")
    _expect(p.coefficient((2, 0, 0, 0)), Fraction(1, 2), "[x1^2]P")
    return "P coefficients 1 and 1/2 at x1x2 and x1^2"


@_check("squarefree_shadows_c4")
def _squarefree_shadows_c4() -> str:
    g = _c4()
    h = heap_series(g, 6)
    p = pyramid_series(g, 6)
    a = acyclic_count_table(g)
    b = unique_source_min_table(g)
    for v in range(1 << g.n):
        _expect(h.coefficient_of_set(v), a[v], f"[x^V]H at V={v:04b}")
        if v:
            _expect(p.coefficient_of_set(v), b[v], f"[x^V]P at V={v:04b}")
    return "[x^V]H = a[V] and [x^V]P = b[V] on all 16 subsets"


@_check("restricted_series_source_counts_c4")
def _restricted_series_c4() -> str:
    g = _c4()
    hs = restricted_heap_series(g, vset([2]), 6)
    for v in range(1 << g.n):
        if v >> 1 & 1:
            want = subgraph_unique_source_count(g, v, 2)
            _expect(hs.coefficient_of_set(v), want, f"[x^V]H_S at V={v:04b}")
    return "[x^V]H_{2} counts orientations of G[V] with unique source 2"


@_check("heap_pair_count_k2")
def _heap_pair_k2() -> str:
    _expect(direct_heap_count(complete_graph(2), (1, 1)), 2, "heaps of K2")
    return "2 heaps of type (1,1) on an edge"


@_check("derivative_reciprocity_c4_11")
def _derivative_reciprocity_11() -> str:
    r = check_derivative_reciprocity(_c4(), 1, 1)
    _expect(r.count, 31, "tuple count")
    _expect(r.strata, {1: 16, 2: 8, 3: 4, 4: 3}, "strata by first block size")
    _expect(r.equal, True, "identity verdict")
    chi = chromatic_polynomial(_c4())
    _expect(-chi.derivative(1).evaluate(-1), 31, "-chi'(-1)")
    return "31 tuples, strata 16/8/4/3, equals -chi'(-1)"


@_check("derivative_reciprocity_c4_01")
def _derivative_reciprocity_01() -> str:
    r = check_derivative_reciprocity(_c4(), 0, 1)
    _expect((r.count, r.equal), (14, True), "count")
    return "14 = chi(-1) up to sign"


@_check("descent_free_pairs_c4")
def _descent_free_pairs_c4() -> str:
    r = check_stanley_reciprocity(_c4(), 1)
    _expect((r.count, r.equal), (14, True), "pairs with one color")
    return "14 descent-free pairs at one color"


@_check("source_component_reciprocity_c4")
def _source_component_reciprocity_c4() -> str:
    for i, want in [(1, 3), (4, 1)]:
        r = check_greene_zaslavsky(_c4(), i)
        _expect((r.count, r.equal), (want, True), f"i={i}")
    return "3 single-source and 1 all-singleton orientations"


@_check("clique_quotient_count_c4")
def _clique_quotient_count_c4() -> str:
    r = check_clique_quotient_reciprocity(_c4(), 2, 1, 0)
    _expect((r.count, r.equal), (3, True), "pinned tuple count")
    return "3 tuples for d=2, i=1, j=0"


@_check("powersum_expansion_c4")
def _powersum_c4() -> str:
    x = csf_powersum(_c4())
    want = {(1, 1, 1, 1): 1, (2, 1, 1): -4, (3, 1): 4, (2, 2): 2, (4,): -3}
    _expect(x.terms, want, "p-expansion")
    return "X = p1111 - 4p211 + 4p31 + 2p22 - 3p4"


@_check("omega_expansion_c4")
def _omega_c4() -> str:
    w = omega(csf_powersum(_c4()))
    want = {(1, 1, 1, 1): 1, (2, 1, 1): 4, (3, 1): 4, (2, 2): 2, (4,): 3}
    _expect(w.terms, want, "omega p-expansion")
    return "omega(X) = p1111 + 4p211 + 4p31 + 2p22 + 3p4"


@_check("orientation_expansion_c4")
def _orientation_expansion_c4() -> str:
    tally = orientation_lambda_tally(_c4())
    want = {(1, 1, 1, 1): 1, (2, 1, 1): 4, (3, 1): 4, (2, 2): 2, (4,): 3}
    _expect(tally.terms, want, "orientation tally")
    _expect(tally == omega(csf_powersum(_c4())), True, "matches omega(X)")
    return "orientation tally 1/4/4/2/3 equals omega(X)"


@_check("q_specialization_c4")
def _q_specialization_c4() -> str:
    chi = specialize_p_to_q(csf_powersum(_c4()))
    _expect(chi, chromatic_polynomial(_c4()), "p_k -> q")
    return "p_k -> q recovers the chromatic polynomial"


@_check("dual_evaluation_c4")
def _dual_evaluation_c4() -> str:
    g = _c4()
    w = omega(csf_powersum(g))
    chi = chromatic_polynomial(g)
    for j in range(5):
        val = expand_finite(w, j).evaluate([1] * j)
        _expect(val, (-1) ** g.n * chi.evaluate(-j), f"j={j}")
    return "omega(X) at j ones equals (-1)^n chi(-j) for j <= 4"


@_check("monomial_coefficients_c4")
def _monomial_coefficients_c4() -> str:
    x = csf_powersum(_c4())
    e4 = expand_finite(x, 4)
    _expect(e4.coefficient((1, 1, 1, 1)), 24, "[z1z2z3z4]")
    _expect(e4.coefficient((2, 1, 1, 0)), 4, "[z1^2 z2 z3]")
    _expect(e4.coefficient((2, 2, 0, 0)), 2, "[z1^2 z2^2]")
    return "coefficients 24, 4, 2 at the three monomial shapes"


@_check("ones_evaluation_binomials_c4")
def _ones_evaluation_c4() -> str:
    x = csf_powersum(_c4())
    for j in range(7):
        val = expand_finite(x, j).evaluate([1] * j)
        want = 24 * comb(j, 4) + 12 * comb(j, 3) + 2 * comb(j, 2)
        _expect(val, want, f"j={j}")
    return "X at j ones equals 24C(j,4) + 12C(j,3) + 2C(j,2) for j <= 6"


@_check("two_color_expansion_c4")
def _two_color_expansion_c4() -> str:
    direct = csf_from_colorings(_c4(), 2)
    _expect(direct.terms, {(2, 2): 2}, "two-color expansion")
    _expect(direct, expand_finite(csf_powersum(_c4()), 2), "oracle equivalence")
    return "two proper 2-colorings, both of shape z1^2 z2^2"


@_check("descent_pair_expansion_c4")
def _descent_pair_expansion_c4() -> str:
    lhs, rhs = identity_sides(_c4(), "descent_expansion", 1)
    _expect(lhs.terms, {(4,): 14}, "algebraic side")
    _expect(rhs.terms, {(4,): 14}, "orientation side")
    return "both sides 14*z1^4 at one color"


def run_selfcheck() -> list[CheckResult]:
    """Run every registered check; failures are reported, never raised."""
    out = []
    for name, fn in _REGISTRY:
        try:
            detail = fn()
            out.append(CheckResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - a failed check is a result
            out.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return out
