"""Packed monomials, the stored form of MultiPoly and TruncatedSeries,
against tuple-keyed references written out here.  Both sides of every
identity are built in these containers, so a packing fault could move both
sides alike; these tests compare each operation with plain tuple algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromheap.errors import InternalInvariantViolation
from chromheap.series import TruncatedSeries
from chromheap.symfunc import MultiPoly

TOP = MultiPoly.MAX_DEGREE
COEFFS = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)),
)


# --- tuple-keyed reference algebra ------------------------------------------


def _clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def ref_mul(a: dict, b: dict, bound: int | None = None) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if bound is None or sum(e) <= bound:
                out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def ref_evaluate(a: dict, values) -> object:
    total = 0
    for e, c in a.items():
        term = c
        for x, k in zip(values, e):
            term *= x**k
        total += term
    return total


# --- MultiPoly ----------------------------------------------------------------


@st.composite
def exponent_maps(draw, nvars: int, top: int = TOP) -> dict:
    """Exponent tuple -> coefficient, total degree <= top.  Exponents are
    mostly small, sometimes at a slot's edge, so carries would show."""
    out = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exps, room = [], top
        for _ in range(nvars):
            e = draw(st.one_of(st.integers(0, min(3, room)), st.integers(0, room)))
            exps.append(e)
            room -= e
        out[tuple(exps)] = draw(COEFFS)
    return out


@st.composite
def multipoly_pairs(draw):
    nvars = draw(st.integers(min_value=0, max_value=4))
    return nvars, draw(exponent_maps(nvars)), draw(exponent_maps(nvars))


@given(multipoly_pairs())
@settings(max_examples=150, deadline=None)
def test_multipoly_matches_tuple_algebra(case):
    nvars, a, b = case
    pa, pb = MultiPoly(nvars, a), MultiPoly(nvars, b)
    assert pa.terms == _clean(a) and pb.terms == _clean(b)
    assert len(pa) == len(_clean(a))
    assert (pa + pb).terms == ref_add(a, b)
    assert (pa - pb).terms == ref_add(a, {e: -c for e, c in b.items()})
    assert pa.scale(Fraction(-3, 2)).terms == _clean({e: c * Fraction(-3, 2) for e, c in a.items()})
    assert pa.scale(0).terms == {}
    values = [Fraction(k + 2, 3) for k in range(nvars)]
    assert pa.evaluate(values) == ref_evaluate(_clean(a), values)
    for e in list(a)[:3]:
        assert pa.coefficient(e) == _clean(a).get(e, 0)
    # equal as tuple maps exactly when equal as packed maps
    assert (pa == pb) == (_clean(a) == _clean(b))
    assert pa == MultiPoly(nvars, pa.terms) and hash(pa) == hash(MultiPoly(nvars, pa.terms))
    assert pa - pa == MultiPoly(nvars)
    top = max((sum(e) for e in _clean(a)), default=0) + max((sum(e) for e in _clean(b)), default=0)
    if top <= TOP:
        assert (pa * pb).terms == ref_mul(a, b)
    else:
        with pytest.raises(InternalInvariantViolation, match="overflows"):
            pa * pb


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_products_fill_a_slot_to_its_edge(nvars, data):
    # split a total of exactly MAX_DEGREE between the two factors
    i = data.draw(st.integers(min_value=0, max_value=nvars - 1))
    k = data.draw(st.integers(min_value=0, max_value=TOP))
    x = [0] * nvars
    x[i] = k
    y = [0] * nvars
    y[i] = TOP - k
    extra = data.draw(exponent_maps(nvars, top=3))
    a = {**{e: c for e, c in extra.items() if sum(e) <= k}, tuple(x): 2}
    product = MultiPoly(nvars, a) * MultiPoly(nvars, {tuple(y): 3})
    assert product.terms == ref_mul(a, {tuple(y): 3})
    assert product.coefficient(tuple(TOP if j == i else 0 for j in range(nvars))) == 6


def test_product_past_a_slot_raises_instead_of_carrying():
    half = MultiPoly(2, {(128, 0): 1})
    with pytest.raises(InternalInvariantViolation, match="overflows"):
        half * half  # x0^256 would carry into x1
    edge = MultiPoly(2, {(127, 0): 1}) * half
    assert edge.terms == {(255, 0): 1}
    with pytest.raises(InternalInvariantViolation, match="overflows"):
        edge * MultiPoly(2, {(0, 1): 1})  # total degree 256, even though no slot passes 255
    with pytest.raises(InternalInvariantViolation, match="bad exponent tuple"):
        MultiPoly(2, {(256, 0): 1})


def test_multipoly_output_is_lexicographic_on_the_view():
    # slot 0 is the low field of a packed monomial, so packed order puts
    # x0^2 (2) before x1 (256); the tuples must still sort lexicographically
    x0, x1 = MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(0, 1): 1})
    poly = (x0 + x1) * (x0 + x1) + x0 + x1.scale(Fraction(1, 2))
    want = [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert [e for e, _ in poly.sorted_terms()] == want
    assert poly.to_json_list() == [
        {"exponents": [0, 1], "num": "1", "den": "2"},
        {"exponents": [0, 2], "num": "1", "den": "1"},
        {"exponents": [1, 0], "num": "1", "den": "1"},
        {"exponents": [1, 1], "num": "2", "den": "1"},
        {"exponents": [2, 0], "num": "1", "den": "1"},
    ]


@given(multipoly_pairs())
@settings(max_examples=60, deadline=None)
def test_multipoly_json_order_is_lexicographic(case):
    nvars, a, b = case
    poly = MultiPoly(nvars, a) + MultiPoly(nvars, b)
    listed = [tuple(t["exponents"]) for t in poly.to_json_list()]
    assert listed == sorted(ref_add(a, b))


# --- TruncatedSeries ----------------------------------------------------------


@st.composite
def series_pairs(draw):
    """Two tuple maps in nvars variables within a bound; bounds 1..9 cross
    the field widths 1 through 4 bits, and single exponents reach the bound."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    bound = draw(st.integers(min_value=1, max_value=9))
    maps = []
    for _ in range(2):
        out = {}
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            exps, room = [], bound
            for _ in range(nvars):
                e = draw(st.integers(0, room))
                exps.append(e)
                room -= e
            out[tuple(exps)] = draw(COEFFS)
        maps.append(out)
    return nvars, bound, *maps


@given(series_pairs())
@settings(max_examples=150, deadline=None)
def test_series_match_tuple_algebra(case):
    nvars, bound, a, b = case
    sa, sb = TruncatedSeries(nvars, bound, a), TruncatedSeries(nvars, bound, b)
    assert sa.terms == _clean(a)
    assert (sa + sb).terms == ref_add(a, b)
    assert (sa * sb).terms == ref_mul(a, b, bound)
    assert sa.substitute_neg().terms == {e: -c if sum(e) % 2 else c for e, c in _clean(a).items()}
    assert (sa == sb) == (_clean(a) == _clean(b))
    assert sa.constant_term() == _clean(a).get((0,) * nvars, 0)
    for mask in range(1 << nvars + 1):  # one bit past the variables is ignored
        squarefree = tuple(mask >> i & 1 for i in range(nvars))
        assert sa.coefficient_of_set(mask) == _clean(a).get(squarefree, 0)
    for e in a:
        assert sa.coefficient(e) == _clean(a).get(e, 0)


def test_series_output_orders_by_degree_then_tuple():
    s = TruncatedSeries(2, 3, {(0, 1): 1, (1, 0): 2, (2, 0): 3, (0, 2): 4, (1, 1): 5, (3, 0): 6, (0, 0): 7})
    s = s * TruncatedSeries.constant(2, 3)  # an arithmetic result, in slice order
    assert [t["exponents"] for t in s.to_json_list()] == [
        [0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0], [3, 0],
    ]


@st.composite
def listed_series(draw):
    """A tuple map in 0..3 variables within a bound 0..9, with up to 16
    terms, so that repr's cut after 12 terms is reached."""
    nvars = draw(st.integers(min_value=0, max_value=3))
    bound = draw(st.integers(min_value=0, max_value=9))
    out = {}
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        exps, room = [], draw(st.integers(0, bound))
        for _ in range(nvars):
            e = draw(st.integers(0, room))
            exps.append(e)
            room -= e
        out[tuple(exps)] = draw(COEFFS)
    return nvars, bound, out


def ref_listing(terms: dict) -> list[tuple[tuple[int, ...], object]]:
    return sorted(_clean(terms).items(), key=lambda item: (sum(item[0]), item[0]))


@given(listed_series())
@settings(max_examples=200, deadline=None)
def test_series_listing_reads_slices_in_degree_then_tuple_order(case):
    nvars, bound, terms = case
    s = TruncatedSeries(nvars, bound, terms)
    rows = ref_listing(terms)
    want = []
    for e, c in rows:
        c = Fraction(c)
        want.append({"exponents": list(e), "num": str(c.numerator), "den": str(c.denominator)})
    assert s.to_json_list() == want
    bits = []
    for e, c in rows[:12]:
        mono = "*".join(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k)
        bits.append(f"{c}*{mono}" if mono else f"{c}")
    tail = " + ..." if len(rows) > 12 else ""
    assert repr(s) == f"TruncatedSeries({' + '.join(bits) or '0'}{tail})"
