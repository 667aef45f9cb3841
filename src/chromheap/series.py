"""Truncated multivariate generating series for heaps of pieces.

A heap over a graph G is, concretely, an acyclic orientation of a blow-up
of G in which the copies of each vertex are totally ordered (lower copies
below higher ones).  Its type records how many pieces of each kind occur,
so series in one commuting variable per vertex count heaps by type:

* T, the trivial-heap series: one term per independent set (heaps whose
  pieces are pairwise non-adjacent, each taken once);
* H = 1 / T(-x), counting all heaps by type;
* P = -log T(-x), counting pyramids (heaps with a unique minimal piece):
  the coefficient of x^m in P is (pyramids of type m) / |m|;
* H_S = T_{S-bar}(-x) / T(-x), counting heaps whose minimal pieces all have type in S.

Layout.  A series cut at total degree D is stored as its D + 1 homogeneous
slices.  A monomial is one int with each exponent in a field of
max(1, D.bit_length()) bits, x1 in the highest field and xn in the lowest,
so a monomial product is one integer add that never carries, and the slice
product sum_k A_k B_{d-k} (`_degree`) never forms a term above D.
Multiplication, inverse, log and exp are recurrences over it, and their
results are stored as they come out; `terms`, keyed by exponent tuples, is
a view built on first use.  Within one slice the packed ints sort as their
exponent tuples do, so listings (to_json_list, repr, the CLI's JSON writer)
and mismatch reports sort each slice's ints and unpack them in that order,
and never build the view.  Each product or recurrence charges its
coefficient pairs against Budget.enumeration_limit: as it runs in general,
and up front where the count is known before the first degree (the
inversion of heap_series_triple, which meets every monomial of H,
`_full_support_pairs`; and the exp step of check_heap_identities, which
meets the independent sets, `_exp_pairs`).  Those counts, and the running
total of the check's H * T(-x) product, follow from G and D alone
(`_heap_slice_sizes`), so verify_heap_identities and the CLI charge them
before any series is built.

Heap routes, both in integers, from F = T(-x) built from the independent
sets.  Inversion: H_d = -sum_{k>=1} F_k H_{d-k}.  Log: with theta the Euler
operator (x^m -> |m| x^m), thetaL_d = d F_d - sum_{1<=k<d} F_k thetaL_{d-k}
gives L = log F and P = -L, whose P_m = -thetaL_m / |m| is the only
division into Fraction.  check_heap_identities checks the inversion by
H * T(-x) = 1, and the log against it by rebuilding g = exp(-P) from
d g_d = sum_{j<d} g_j (-theta P)_{d-j}, by exact division, and comparing g
with F degree by degree.  The routes share the slice product.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .config import DEFAULT_BUDGET, Budget, charge
from .errors import InternalInvariantViolation, TooManyVertices, VertexOutOfRange
from .graphs import Graph, blowup, blowup_types, independence_table, iter_vertices, vset, vset_tuple
from .orientations import _closure_sources, _iter_acyclic_bits, subgraph_source_mask_tally
from .reports import IdentityReport
from .subsets import zeta

MAX_HEAP_PIECES = 10

Slices = list[dict]  # slice d maps packed monomials of degree d to coefficients
_PAIRS = "series coefficient pairs"


def _width(bound: int) -> int:
    """Bits per variable in a packed monomial."""
    return max(1, bound.bit_length())


def _fields(nvars: int, bound: int) -> tuple[int, range]:
    """(mask, shifts) of the exponent fields, highest first: exponent i of
    a packed monomial k is k >> shifts[i] & mask."""
    width = _width(bound)
    return (1 << width) - 1, range(width * (nvars - 1), -1, -width)


def _spread(vmask: int, nvars: int, width: int) -> int:
    """The packed squarefree monomial x^V of a vertex mask V."""
    return sum(1 << width * (nvars - v) for v in iter_vertices(vmask))


def _div(c, d: int):
    """c / d, kept an int when d divides c."""
    return c // d if isinstance(c, int) and not c % d else Fraction(c, d)


class _Work:
    """Coefficient pairs one product or recurrence has multiplied so far,
    charged as they run; or, when the total is known before the first
    degree, that total charged once (prepaid) and nothing after it."""

    def __init__(self, budget: Budget, prepaid: int | None = None):
        self.pairs, self.limit = 0, budget.enumeration_limit
        if prepaid is not None:
            charge(_PAIRS, prepaid, self.limit)
            self.limit = None

    def add(self, pairs: int) -> None:
        self.pairs += pairs
        if self.limit is not None:
            charge(_PAIRS, self.pairs, self.limit)


def _full_support_pairs(sizes: Sequence[int], n: int) -> int:
    """Coefficient pairs of a recurrence whose degree d <= D = len(sizes) - 1
    takes sum_{k>=1} a_k e_{d-k}, with sizes[k] terms in a_k, when every e_j
    has all C(j+n-1, n-1) monomials of degree j in n variables.  H has:
    every multiset of pieces is the content of a heap.  By the hockey-stick
    identity a_k meets sum_{j<=D-k} |e_j| = C(D-k+n, n) terms, so the count
    is exact when e is H and an upper bound for any e."""
    bound = len(sizes) - 1
    return sum(size * math.comb(bound - k + n, n) for k, size in enumerate(sizes) if k)


def _exp_pairs(p: Sequence[int], f: Sequence[int]) -> int:
    """Coefficient pairs of rebuilding F from P, with sizes p[k] = |P_k| and
    f[j] = |F_j| for j <= D: degree d takes sum_{j<d} F_j (theta P)_{d-j}
    and theta keeps the support of P, so the count is sum_{k>=1} |P_k|
    sum_{j<=D-k} |F_j|, read off prefix sums of f."""
    below = list(accumulate(f))  # below[i] = |F_0| + ... + |F_i|
    bound = len(f) - 1
    return sum(size * below[bound - k] for k, size in enumerate(p) if k)


def _degree(a: list, b: Slices, d: int, work: _Work) -> dict:
    """Slice d of a * b without zeros; a lists (k, a_k) for the nonempty a_k.
    Empty slices of b, such as those a recurrence has not filled yet, are skipped."""
    pairs, count = [], 0
    for k, x in a:
        if k > d:
            break
        y = b[d - k]
        if y:
            pairs.append((x, y))
            count += len(x) * len(y)
    work.add(count)
    acc: dict = {}
    get = acc.get
    for x, y in pairs:
        for kx, cx in x.items():
            for ky, cy in y.items():
                k = kx + ky
                acc[k] = get(k, 0) + cx * cy
    return {k: c for k, c in acc.items() if c}


def _nonempty(a: Slices) -> list:
    return [(k, x) for k, x in enumerate(a) if x]


def _product(a: Slices, b: Slices, work: _Work) -> Slices:
    """a * b, scanning the factor with fewer nonempty slices."""
    a_items, b_items = _nonempty(a), _nonempty(b)
    if len(b_items) < len(a_items):
        a_items, b = b_items, a
    return [_degree(a_items, b, d, work) for d in range(len(b))]


def _inverse(f: Slices, work: _Work) -> Slices:
    """1 / f for f_0 = 1: h_d = -sum_{k>=1} f_k h_{d-k}."""
    if f[:1] != [{0: 1}]:
        raise InternalInvariantViolation("reciprocal needs constant term 1")
    minus_f = [(k, {m: -c for m, c in x.items()}) for k, x in _nonempty(f) if k]
    h: Slices = [{0: 1}] + [{} for _ in f[1:]]
    for d in range(1, len(f)):
        h[d] = _degree(minus_f, h, d, work)
    return h


def _theta_log(f: Slices, work: _Work) -> Slices:
    """theta log f for f_0 = 1: t_d = d f_d - sum_{1<=k<d} f_k t_{d-k}."""
    if f[:1] != [{0: 1}]:
        raise InternalInvariantViolation("log needs constant term 1")
    f_items = _nonempty(f)
    t: Slices = [{} for _ in f]
    for d in range(1, len(f)):
        acc = {k: d * c for k, c in f[d].items()}
        for k, c in _degree(f_items, t, d, work).items():
            acc[k] = acc.get(k, 0) - c
        t[d] = {k: c for k, c in acc.items() if c}
    return t


def _exp_of_theta(theta: Slices, work: _Work) -> Slices:
    """The e with e_0 = 1 and theta e = theta * e: d e_d = sum_{k>=1} theta_k e_{d-k}."""
    theta_items = _nonempty(theta)
    e: Slices = [{0: 1}] + [{} for _ in theta[1:]]
    for d in range(1, len(theta)):
        e[d] = {k: _div(c, d) for k, c in _degree(theta_items, e, d, work).items()}
    return e


def _first_exp_difference(theta: Slices, f: Slices, work: _Work) -> tuple[int, dict] | None:
    """The first degree d at which the e of _exp_of_theta(theta) differs
    from f, with e_d; None when e = f.  Below d, e equals f, so d e_d is
    the sum over the nonempty f_j, j < d, of f_j theta_{d-j}: each degree
    walks the nonempty slices of f met so far, never every slice of theta."""
    e_items = []  # (j, e_j) for the nonempty e_j, j < d
    for d, x in enumerate(f):
        e = {k: _div(c, d) for k, c in _degree(e_items, theta, d, work).items()} if d else {0: 1}
        if e != x:
            return d, e
        if x:
            e_items.append((d, x))
    return None


def _theta(a: Slices, sign: int = 1) -> Slices:
    """sign * theta a, whole coefficients as ints so that exp stays in integers."""
    out = [{k: sign * d * c for k, c in x.items()} for d, x in enumerate(a)]
    return [{k: c.numerator if c.denominator == 1 else c for k, c in x.items()} for x in out]


def _divide_theta(t: Slices, sign: int = 1) -> Slices:
    """sign * s for theta s = t: one division per coefficient."""
    return [{k: _div(sign * c, d) for k, c in x.items()} for d, x in enumerate(t)]


class TruncatedSeries:
    """Sparse series in nvars variables, truncated above a total degree bound.

    Stored form: the bound + 1 homogeneous slices, slice d mapping the packed
    monomials of total degree d (see Layout) to nonzero coefficients.
    `terms`, keyed by exponent tuples, is a read-only view built on first use.
    """

    __slots__ = ("nvars", "bound", "_slices", "_view")

    def __init__(self, nvars: int, bound: int, terms: Mapping[tuple[int, ...], object] | None = None):
        shifts = _fields(nvars, bound)[1]
        slices: Slices = [{} for _ in range(bound + 1)]
        for exps, c in (terms or {}).items():
            key = tuple(exps)
            if len(key) != nvars or any(e < 0 for e in key):
                raise InternalInvariantViolation(f"bad exponent tuple {key} for {nvars} variables")
            if c != 0 and sum(key) <= bound:
                slices[sum(key)][sum(e << s for e, s in zip(key, shifts))] = c
        self.nvars, self.bound, self._slices, self._view = nvars, bound, slices, None

    @classmethod
    def constant(cls, nvars: int, bound: int, c=1) -> "TruncatedSeries":
        return cls(nvars, bound, {(0,) * nvars: c})

    @property
    def terms(self) -> dict[tuple[int, ...], object]:
        """Exponent tuple -> coefficient, the read-only view of the slices."""
        if self._view is None:
            digit, shifts = _fields(self.nvars, self.bound)
            self._view = {
                tuple(k >> s & digit for s in shifts): c for x in self._slices for k, c in x.items()
            }
        return self._view

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), 0)

    def coefficient_of_set(self, mask: int):
        """Coefficient of the squarefree monomial given by a vertex mask."""
        mask &= (1 << self.nvars) - 1
        d = mask.bit_count()
        if d > self.bound:
            return 0
        return self._slices[d].get(_spread(mask, self.nvars, _width(self.bound)), 0)

    def constant_term(self):
        return self._slices[0].get(0, 0) if self._slices else 0

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars or self.bound != other.bound:
            raise ValueError("series have different variable counts or bounds")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.nvars, self.bound, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars, self.bound, self._slices) == (other.nvars, other.bound, other._slices)

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.nvars, self.bound, other)
        self._check_compatible(other)
        slices = []
        for x, y in zip(self._slices, other._slices):
            out = dict(x)
            for k, c in y.items():
                out[k] = out.get(k, 0) + c
            slices.append({k: c for k, c in out.items() if c})
        return _series(self.nvars, self.bound, slices)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return self.map_coefficients(lambda c: -c)

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.map_coefficients(lambda c: c * other)
        self._check_compatible(other)
        product = _product(self._slices, other._slices, _Work(DEFAULT_BUDGET))
        return _series(self.nvars, self.bound, product)

    __rmul__ = __mul__

    def substitute_neg(self) -> "TruncatedSeries":
        """The series with every variable negated: x^m picks up (-1)^|m|."""
        slices = [{k: -c for k, c in x.items()} if d & 1 else x for d, x in enumerate(self._slices)]
        return _series(self.nvars, self.bound, slices)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be exactly 1."""
        return _series(self.nvars, self.bound, _inverse(self._slices, _Work(DEFAULT_BUDGET)))

    def log(self) -> "TruncatedSeries":
        """Natural log; the constant term must be exactly 1."""
        theta_l = _theta_log(self._slices, _Work(DEFAULT_BUDGET))
        return _series(self.nvars, self.bound, _divide_theta(theta_l))

    def exp(self) -> "TruncatedSeries":
        """Exponential; the constant term must be exactly 0."""
        if self.constant_term() != 0:
            raise InternalInvariantViolation("exp needs constant term 0")
        e = _exp_of_theta(_theta(self._slices), _Work(DEFAULT_BUDGET))
        return _series(self.nvars, self.bound, e)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        slices = [{k: v for k, c in x.items() if (v := fn(c)) != 0} for x in self._slices]
        return _series(self.nvars, self.bound, slices)

    def to_json_list(self) -> list[dict]:
        out = []
        for exps, c in _listing(self._slices, self.nvars):
            num, den = _num_den(c)
            out.append({"exponents": exps, "num": num, "den": den})
        return out

    def _json_listing(self, newline: str) -> str:
        """json.dumps(self.to_json_list(), indent=2) with newline carrying the
        indent of the closing bracket, written straight from the slices."""
        term, field = newline + "  ", newline + "    "
        digit, shifts = _fields(self.nvars, self.bound)
        names = [str(e) for e in range(self.bound + 1)]
        sep = "," + field + "  "
        if self.nvars:
            head, mid = "{" + field + '"exponents": [' + field + "  ", field + "],"
        else:
            head, mid = "{" + field + '"exponents": [', "],"
        mid += field + '"num": "'
        den_key, tail = '",' + field + '"den": "', '"' + term + "}"
        rows = []
        for x in self._slices:  # in _listing's order, unpacked to digit strings
            for k in sorted(x):
                num, den = _num_den(x[k])
                exps = sep.join([names[k >> s & digit] for s in shifts])
                rows.append(head + exps + mid + num + den_key + den + tail)
        return "[" + term + ("," + term).join(rows) + newline + "]" if rows else "[]"

    def __repr__(self) -> str:
        bits = []
        for exps, c in _listing(self._slices, self.nvars):
            if len(bits) == 12:
                break
            mono = "*".join(f"x{i+1}" if e == 1 else f"x{i+1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        tail = " + ..." if sum(map(len, self._slices)) > 12 else ""
        return f"TruncatedSeries({' + '.join(bits) or '0'}{tail})"


def _num_den(c) -> tuple[str, str]:
    """Numerator and denominator of a coefficient, as decimal strings."""
    if type(c) is int:
        return str(c), "1"
    c = c if type(c) is Fraction else Fraction(c)
    return str(c.numerator), str(c.denominator)


def _listing(slices: Slices, nvars: int):
    """Yield (exponent list, value) by degree and then lexicographically:
    x1 packs highest, so a slice's packed ints sort as its exponent tuples."""
    digit, shifts = _fields(nvars, len(slices) - 1)
    for x in slices:
        for k in sorted(x):
            yield [k >> s & digit for s in shifts], x[k]


def _guard_series_size(n: int, bound: int, budget: Budget) -> None:
    if bound < 0:
        raise VertexOutOfRange(f"degree bound D must be nonnegative, got {bound}")
    charge("truncated series", math.comb(bound + n, n), budget.series_terms)


def _independent_levels(G: Graph, bound: int) -> list[list[int]]:
    """Level d lists the independent d-sets of G, for d <= bound: each set
    grows from the set of its d - 1 lowest vertices, so only sets within
    the bound are visited, and no 2^n table is built."""
    levels, level = [[0]], [(0, G.full_mask)]  # (set, vertices that may join it)
    while level and len(levels) <= bound:
        grown = []
        for mask, free in level:
            while free:
                low = free & -free
                free ^= low
                grown.append((mask | low, free & ~G.adj[low.bit_length() - 1]))
        levels.append([mask for mask, _ in grown])
        level = grown
    return levels + [[] for _ in range(bound + 1 - len(levels))]


def _trivial_slices(G: Graph, bound: int, sign: int = 1, avoid: int = 0) -> Slices:
    """T_{avoid-bar}(sign * x): sign^|I| x^I for each independent set I missing avoid."""
    width = _width(bound)
    return [
        {_spread(mask, G.n, width): sign**d for mask in masks if not mask & avoid}
        for d, masks in enumerate(_independent_levels(G, bound))
    ]


def _series(nvars: int, bound: int, slices: Slices) -> TruncatedSeries:
    """The series whose stored slices are these (bound + 1 of them, no zero
    coefficient); they are wrapped, not copied."""
    series = TruncatedSeries.__new__(TruncatedSeries)
    series.nvars, series.bound, series._slices, series._view = nvars, bound, slices, None
    return series


def trivial_series(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> TruncatedSeries:
    """T: one squarefree term per independent set of G (within the bound)."""
    return restricted_trivial_series(G, 0, bound, budget)


def heap_series(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> TruncatedSeries:
    """H = 1 / T(-x): coefficient of x^m counts heaps of type m."""
    return heap_series_triple(G, bound, budget)[1]


def pyramid_series(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> TruncatedSeries:
    """P = -log T(-x): coefficient of x^m is (pyramids of type m) / |m|."""
    return heap_series_triple(G, bound, budget)[2]


def restricted_trivial_series(
    G: Graph, S: int | Iterable[int], bound: int, budget: Budget = DEFAULT_BUDGET
) -> TruncatedSeries:
    """Trivial-heap series of the independent sets avoiding S."""
    smask = S if isinstance(S, int) else vset(S)
    if smask >> G.n:
        raise VertexOutOfRange("S contains vertices outside 1..n")
    _guard_series_size(G.n, bound, budget)
    return _series(G.n, bound, _trivial_slices(G, bound, avoid=smask))


def restricted_heap_series(
    G: Graph, S: int | Iterable[int], bound: int, budget: Budget = DEFAULT_BUDGET
) -> TruncatedSeries:
    """H_S = T_{S-bar}(-x) / T(-x): heaps whose minimal pieces all have type in S."""
    numerator = restricted_trivial_series(G, S, bound, budget).substitute_neg()._slices
    h = heap_series(G, bound, budget)._slices
    return _series(G.n, bound, _product(numerator, h, _Work(budget)))


# ---------------------------------------------------------------------------
# direct enumeration of heaps of a fixed type


def _iter_heap_source_masks(G: Graph, m: Sequence[int]):
    """Yield the source (minimal piece) mask of every heap of type m, and the piece types."""
    if len(m) != G.n:
        raise VertexOutOfRange("type vector length mismatch")
    if sum(m) > MAX_HEAP_PIECES:
        raise TooManyVertices(
            f"direct heap enumeration capped at {MAX_HEAP_PIECES} pieces, got {sum(m)}"
        )
    B, types = blowup(G, m), blowup_types(m)
    # copies of one vertex are stacked lower below higher; other edges are free
    forced = tuple((u, v) for u, v in B.edges if types[u - 1] == types[v - 1])
    free = tuple((u, v) for u, v in B.edges if types[u - 1] != types[v - 1])
    for _, reach in _iter_acyclic_bits(B.n, free, forced):
        yield _closure_sources(reach, B.full_mask), types


def direct_heap_count(G: Graph, m: Sequence[int]) -> int:
    """Number of heaps of type m, by direct enumeration (|m| <= 10)."""
    return sum(1 for _ in _iter_heap_source_masks(G, m))


def direct_pyramid_count(G: Graph, m: Sequence[int]) -> int:
    """Number of heaps of type m with a unique minimal piece."""
    return sum(1 for srcs, _ in _iter_heap_source_masks(G, m) if srcs.bit_count() == 1)


def direct_restricted_count(G: Graph, S: int | Iterable[int], m: Sequence[int]) -> int:
    """Number of heaps of type m all of whose minimal pieces have type in S."""
    smask = S if isinstance(S, int) else vset(S)
    return sum(
        all(smask >> (types[piece - 1] - 1) & 1 for piece in iter_vertices(srcs))
        for srcs, types in _iter_heap_source_masks(G, m)
    )


def heap_series_triple(
    G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """(T, H, P): H = 1 / F by inversion and P = -log F by theta log, from one F = T(-x)."""
    _guard_series_size(G.n, bound, budget)
    f = _trivial_slices(G, bound, -1)
    h = _inverse(f, _Work(budget, prepaid=_full_support_pairs(list(map(len, f)), G.n)))
    p = _divide_theta(_theta_log(f, _Work(budget)), -1)
    return tuple(_series(G.n, bound, s) for s in (_trivial_slices(G, bound), h, p))


def _heap_slice_sizes(G: Graph, bound: int) -> tuple[list[int], list[int]]:
    """The slice sizes of F = T(-x) and of P that heap_series_triple builds,
    from G alone.  F_d has one term per independent d-set.  A pyramid count
    is positive exactly when the support of its type induces a connected
    subgraph, and a connected s-set carries C(d-1, s-1) types of degree d,
    so |P_d| = sum_s c_s C(d-1, s-1) with c_s the connected induced
    s-vertex subgraphs, s <= min(n, D): no more sets than the C(D+n, n)
    terms that _guard_series_size has charged."""
    f = list(map(len, _independent_levels(G, bound)))
    connected, level = [0], {1 << v for v in range(G.n)}
    while level and len(connected) <= bound:
        connected.append(len(level))
        if len(connected) > bound:
            break
        grown = set()
        for vs in level:
            reach = 0
            for v in iter_vertices(vs):
                reach |= G.adj[v - 1]
            grown.update(vs | 1 << (w - 1) for w in iter_vertices(reach & ~vs))
        level = grown
    p = [0] + [
        sum(c * math.comb(d - 1, s - 1) for s, c in enumerate(connected) if s) for d in range(1, bound + 1)
    ]
    return f, p


def _prepay_heap_identities(G: Graph, bound: int, budget: Budget) -> None:
    """Charge, from G and the bound alone and in their order, every charge
    of heap_series_triple and check_heap_identities: the series size, the
    inversion's pairs, the exp(-P) step's pairs, and the H * T(-x) product's
    running total degree by degree.  The theta log charges as it runs too,
    but never past the inversion's count, as no slice of P is larger than
    the slice of H of its degree.  Each count is exact, so this refuses what
    those refuse, with the same message, before any series is built; their
    charges repeat it."""
    _guard_series_size(G.n, bound, budget)
    f, p = _heap_slice_sizes(G, bound)
    charge(_PAIRS, _full_support_pairs(f, G.n), budget.enumeration_limit)
    charge(_PAIRS, _exp_pairs(p, f), budget.enumeration_limit)
    h = [1] + [math.comb(j + G.n - 1, j) for j in range(1, bound + 1)]  # |H_j|
    f_items = [(k, size) for k, size in enumerate(f) if size]
    total = 0
    for d in range(bound + 1):
        total += sum(size * h[d - k] for k, size in f_items if k <= d)
        charge(_PAIRS, total, budget.enumeration_limit)


def verify_heap_identities(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> IdentityReport:
    """Check the series identities up to the degree bound (see check_heap_identities)."""
    _prepay_heap_identities(G, bound, budget)
    return check_heap_identities(G, *heap_series_triple(G, bound, budget), budget)


def _mismatch(failure: str, a: Slices, b: Slices, nvars: int) -> list[str]:
    """failure, then the first monomial, by degree and then exponent tuple,
    whose coefficients in a and b differ, with both coefficients."""
    differing = [
        {k: (x.get(k, 0), y.get(k, 0)) for k in x.keys() | y.keys() if x.get(k, 0) != y.get(k, 0)}
        for x, y in zip(a, b)
    ]
    for exps, (u, v) in _listing(differing, nvars):
        return [failure, f"first difference at exponents {exps}: {u} vs {v}"]
    return [failure]


def check_heap_identities(
    G: Graph, trivial: TruncatedSeries, H: TruncatedSeries, P: TruncatedSeries,
    budget: Budget = DEFAULT_BUDGET,
) -> IdentityReport:
    """Check the identities for T, H and P as heap_series_triple builds them.

    Always: H * T(-x) = 1, and exp(-P) = T(-x) with exp rebuilding T(-x)
    from theta P alone.  A series with constant term 1 has one inverse, so
    given the first, exp(P) = H <=> exp(P) T(-x) = 1 <=> exp(-P) = T(-x):
    the second checks the log route against the inversion route as
    exp(P) = H would, but its rebuilt series has the support of T(-x), the
    independent sets, and not the full support of H.  It stops at the first
    degree that differs.

    For n <= 5, [x^V]H_S must count the acyclic orientations of G[V] with
    all sources in S, for all S and V.  Only squarefree terms reach x^V, so
    [x^V]H_S = sum over U subset of V - S of t[U] [x^(V-U)]H, with t[U] =
    (-1)^|U| for independent U and 0 otherwise: one zeta transform per V
    of U -> t[U] [x^(V-U)]H, read at V - S for every S.
    """
    bound = trivial.bound
    f = trivial.substitute_neg()._slices
    h, p = H._slices, P._slices
    # theta drops the constant term, and exp(-P) = T(-x) needs P_0 = 0;
    # theta P has the support of P, so the exp route is charged before any work
    exp_pairs = _exp_pairs(list(map(len, p)), list(map(len, f)))
    exp_work = _Work(budget, prepaid=exp_pairs) if P.constant_term() == 0 else None
    failures = []
    one = [{0: 1}] + [{} for _ in range(bound)]
    product = _product(h, f, _Work(budget))
    if product != one:
        failures += _mismatch("H * T(-x) != 1", product, one, H.nvars)
    if exp_work is None:
        failures.append("exp(-P) != T(-x)")
    elif differs := _first_exp_difference(_theta(p, -1), f, exp_work):
        d, e = differs
        failures += _mismatch("exp(-P) != T(-x)", f[:d] + [e] + f[d + 1:], f, P.nvars)
    if G.n <= 5:
        vsets = [V for V in range(1 << G.n) if V.bit_count() <= bound]
        tallies = {V: subgraph_source_mask_tally(G, V) for V in vsets}
        hv = [H.coefficient_of_set(W) for W in range(1 << G.n)]
        indep = independence_table(G)
        signed = [(-1) ** U.bit_count() * indep[U] for U in range(1 << G.n)]
        shadows = {}
        for V in vsets:
            shadows[V] = [t * hv[V ^ U] if U & V == U else 0 for U, t in enumerate(signed)]
            zeta(shadows[V])
        for smask in range(1 << G.n):
            for V in vsets:
                want = sum(c for src, c in tallies[V] if src & ~smask == 0)
                if shadows[V][V & ~smask] != want:
                    failures.append(
                        f"[x^V]H_S != source-confined count for "
                        f"S={vset_tuple(smask)}, V={vset_tuple(V)}"
                    )
    return IdentityReport("heap_series", {"n": G.n, "bound": bound}, not failures, tuple(failures))
