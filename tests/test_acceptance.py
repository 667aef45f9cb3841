"""Acceptance gate: ten numbered criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every comparison is exact; a criterion fails on any deviation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from chromheap.chromatic import chi_hat, chromatic_polynomial, multicolor_polynomial
from chromheap.families import (
    complete_graph,
    cycle_graph,
    fixed_family,
    path_graph,
    seeded_family,
    star_graph,
)
from chromheap.graphs import (
    ascending_relabel,
    blowup,
    from_edge_list,
    is_clique,
    is_connected,
    vset,
)
from chromheap.orientations import (
    acyclic_orientation_list,
    count_bipolar,
    source_component_histogram,
)
from chromheap.polynomials import Poly
from chromheap.reciprocity import (
    check_bivariate_reciprocity,
    check_clique_quotient_reciprocity,
    check_derivative_reciprocity,
    check_greene_zaslavsky,
    check_shifted_reciprocity,
    check_sink_rooted,
    check_stanley_reciprocity,
)
from chromheap.series import (
    direct_heap_count,
    heap_series,
    pyramid_series,
    trivial_series,
    verify_heap_identities,
)
from chromheap.symfunc import (
    csf_powersum,
    expand_finite,
    omega,
    verify_combined,
    verify_descent_expansion,
    verify_orientation_expansion,
    verify_split_alphabet,
    verify_superfication,
)

C4 = cycle_graph(4)


def _conclude(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {num:2d}: {label}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_01_cycle_chromatic_coefficients():
    failures = []
    chi = chromatic_polynomial(C4)
    if chi.coeffs != (0, -3, 6, -4, 1):
        failures.append(f"coeffs {chi.coeffs}")
    _conclude(1, "chromatic polynomial of the 4-cycle, exact coefficients", failures)


def test_criterion_02_derivative_pair_count():
    failures = []
    r = check_derivative_reciprocity(C4, 1, 1)
    if r.count != 31:
        failures.append(f"count {r.count}")
    if r.strata != {1: 16, 2: 8, 3: 4, 4: 3}:
        failures.append(f"strata {r.strata}")
    if not r.equal:
        failures.append("sides differ")
    chi = chromatic_polynomial(C4)
    if -chi.derivative(1).evaluate(-1) != 31:
        failures.append("derivative value")
    _conclude(2, "31 block tuples stratified 16/8/4/3 equal -chi'(-1)", failures)


def test_criterion_03_orientation_tallies():
    failures = []
    if len(acyclic_orientation_list(C4)) != 14:
        failures.append("orientation count")
    hist = source_component_histogram(C4)
    if hist != {1: 3, 2: 6, 3: 4, 4: 1}:
        failures.append(f"histogram {hist}")
    chi = chromatic_polynomial(C4)
    for i, want in hist.items():
        if (-1) ** (4 - i) * chi.coefficient(i) != want:
            failures.append(f"coefficient link i={i}")
    _conclude(3, "14 orientations tallied 3/6/4/1 match signed coefficients", failures)


def test_criterion_04_clique_quotient_example():
    failures = []
    quot = chi_hat(C4, 2)
    if quot.coeffs != (3, -3, 1):
        failures.append(f"quotient {quot.coeffs}")
    r = check_clique_quotient_reciprocity(C4, 2, 1, 0)
    if r.count != 3 or not r.equal:
        failures.append(f"count {r.count} equal {r.equal}")
    if -quot.derivative(1).evaluate(0) != 3:
        failures.append("derivative at 0")
    _conclude(4, "clique-quotient polynomial and its 3 pinned tuples", failures)


def test_criterion_05_series_low_degree_display():
    failures = []
    t = trivial_series(C4, 6)
    want_t = {
        (0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1, (1, 0, 1, 0): 1, (0, 1, 0, 1): 1,
    }
    if dict(t.terms) != want_t:
        failures.append("trivial series")
    h = heap_series(C4, 6)
    p = pyramid_series(C4, 6)
    adjacent = {(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)}
    diagonal = {(1, 0, 1, 0), (0, 1, 0, 1)}
    for exps in product(range(3), repeat=4):
        d = sum(exps)
        if d > 2:
            continue
        if d == 0:
            want_h, want_p = 1, 0
        elif d == 1:
            want_h, want_p = 1, 1
        elif max(exps) == 2:
            want_h, want_p = 1, Fraction(1, 2)
        elif exps in adjacent:
            want_h, want_p = 2, 1
        else:
            assert exps in diagonal
            want_h, want_p = 1, 0
        if h.coefficient(exps) != want_h:
            failures.append(f"H at {exps}")
        if p.coefficient(exps) != want_p:
            failures.append(f"P at {exps}")
    _conclude(5, "heap series displays match through total degree 2", failures)


def test_criterion_06_monomial_expansion_values():
    failures = []
    x = csf_powersum(C4)
    e4 = expand_finite(x, 4)
    shapes = {(1, 1, 1, 1): 24, (2, 1, 1, 0): 4, (2, 2, 0, 0): 2}
    for shape, want in shapes.items():
        for exps in set(permutations(shape)):
            if e4.coefficient(exps) != want:
                failures.append(f"{exps} -> {e4.coefficient(exps)}")
    for j in range(7):
        val = expand_finite(x, j).evaluate([1] * j)
        want = 24 * comb(j, 4) + 12 * comb(j, 3) + 2 * comb(j, 2)
        if val != want:
            failures.append(f"ones at j={j}")
    _conclude(6, "monomial coefficients 24/4/2 and binomial evaluations", failures)


def test_criterion_07_power_sum_coefficients():
    failures = []
    x = csf_powersum(C4)
    if x.terms != {(1, 1, 1, 1): 1, (2, 1, 1): -4, (3, 1): 4, (2, 2): 2, (4,): -3}:
        failures.append(f"X {x.terms}")
    w = omega(x)
    if w.terms != {(1, 1, 1, 1): 1, (2, 1, 1): 4, (3, 1): 4, (2, 2): 2, (4,): 3}:
        failures.append(f"omega {w.terms}")
    _conclude(7, "power-sum coefficients (1,-4,4,2,-3) and (1,4,4,2,3)", failures)


def test_criterion_08_property_suite():
    failures: list = []
    fam = seeded_family()
    assert len(fam) >= 200
    checks = 0

    def note(ok: bool, what) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    for name, g in fam:
        for i in range(4):
            for j in range(4 - i):
                note(check_derivative_reciprocity(g, i, j).equal, (name, "blocks", i, j))
        for j in range(4):
            note(check_stanley_reciprocity(g, j).equal, (name, "pairs", j))
        for i in range(g.n + 1):
            note(check_greene_zaslavsky(g, i).equal, (name, "components", i))
        for i in range(3):
            for j in range(3 - i):
                note(check_shifted_reciprocity(g, i, j).equal, (name, "shifted", i, j))
        for d in (1, 2):
            if d > g.n or not is_clique(g, vset(range(1, d + 1))):
                continue
            for i in range(3):
                for j in range(3 - i):
                    note(
                        check_clique_quotient_reciprocity(g, d, i, j).equal,
                        (name, "quotient", d, i, j),
                    )
        if is_connected(g):
            counts: dict[str, dict] = {}
            for strategy in ("min", "max"):
                seen = {}
                h, _ = ascending_relabel(g, strategy=strategy)
                for d in (1, 2):
                    if d > h.n or not is_clique(h, vset(range(1, d + 1))):
                        continue
                    for i in range(4):
                        r = check_sink_rooted(h, d, i)
                        note(r.equal, (name, "rooted", strategy, d, i))
                        seen[(d, i)] = r.count
                counts[strategy] = seen
            note(counts["min"] == counts["max"], (name, "relabel invariance"))
        for j in range(3):
            for k in range(3 - j):
                note(check_bivariate_reciprocity(g, j, k).equal, (name, "bivariate", j, k))
        note(verify_heap_identities(g, 6).equal, (name, "heaps"))
        note(verify_orientation_expansion(g).equal, (name, "tally"))
        for n_colors in (1, 2):
            note(verify_descent_expansion(g, n_colors).equal, (name, "descent", n_colors))
        for a, b in ((1, 1), (2, 2)):
            note(verify_split_alphabet(g, a, b).equal, (name, "split", a, b))
            note(verify_superfication(g, a, b).equal, (name, "signed", a, b))
        if g.n <= 5:
            note(verify_combined(g, 1, 1, 1).equal, (name, "combined"))

    label = f"oracle property suite ({checks} checks over {len(fam)} graphs)"
    _conclude(8, label, failures)


def test_criterion_09_bipolar_invariance():
    failures = []
    graphs = [(n, g) for n, g in fixed_family() + seeded_family() if is_connected(g) and g.n >= 2]
    for name, g in graphs:
        values = {count_bipolar(g, u, v) for u, v in g.edges}
        if len(values) != 1:
            failures.append((name, "pair dependence", values))
            continue
        (count,) = values
        quot = chi_hat(g, 1)
        # [q^1] of quot(q+1) is quot'(1)
        want = (-1) ** g.n * quot.derivative(1).evaluate(1)
        if count != want:
            failures.append((name, "value", count, want))
    label = f"bipolar count pair-independent on {len(graphs)} connected graphs"
    _conclude(9, label, failures)


def test_criterion_10_multicolor_identities():
    failures = []
    hosts = [
        complete_graph(1),
        complete_graph(2),
        from_edge_list(2, []),
        path_graph(3),
        complete_graph(3),
        path_graph(4),
        C4,
        star_graph(4),
        complete_graph(4),
    ]
    pairs = 0
    for g in hosts:
        for m in product(range(3), repeat=g.n):
            if sum(m) > 8:
                continue
            pairs += 1
            fact = 1
            for k in m:
                fact *= factorial(k)
            poly = multicolor_polynomial(g, m)
            if poly * Poly((fact,)) != chromatic_polynomial(blowup(g, m)):
                failures.append((g.n, m, "blow-up product"))
            signed = (-1) ** sum(m) * poly.evaluate(-1)
            if signed != direct_heap_count(g, m):
                failures.append((g.n, m, "heap evaluation"))
    extra = [(complete_graph(3), (3, 3, 2)), (path_graph(4), (3, 2, 2, 1))]
    for g, m in extra:
        pairs += 1
        signed = (-1) ** sum(m) * multicolor_polynomial(g, m).evaluate(-1)
        if signed != direct_heap_count(g, m):
            failures.append((g.n, m, "heap evaluation"))
    _conclude(10, f"multicolor identities on {pairs} (graph, type) pairs", failures)
