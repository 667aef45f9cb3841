"""Truncated multivariate generating series for heaps of pieces.

A heap over a graph G is, concretely, an acyclic orientation of a
blow-up of G in which the copies of each vertex are totally ordered
(lower copies below higher ones).  Its type records how many pieces of
each kind occur, so series in one commuting variable per vertex count
heaps by type.  Three series matter here:

* T, the trivial-heap series: one term per independent set (heaps whose
  pieces are pairwise non-adjacent, each taken once);
* H = 1 / T(-x), counting all heaps by type;
* P = -log T(-x), counting pyramids (heaps with a unique minimal piece)
  weighted by 1/(number of pieces) ... the coefficient of x^m in P times
  |m| is the number of pyramids of type m divided by, precisely, nothing:
  P's coefficient of x^m is (pyramids of type m) / |m|.

Restricted series: H_S = T_{S-bar}(-x) / T(-x) counts heaps all of whose
minimal pieces have type in S.

Everything is truncated at a total degree bound; all arithmetic is exact
(int or Fraction coefficients).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .config import DEFAULT_BUDGET, Budget, charge
from .errors import InternalInvariantViolation, TooManyVertices, VertexOutOfRange
from .graphs import (
    Graph,
    blowup,
    blowup_types,
    independent_sets,
    iter_vertices,
    vset,
    vset_tuple,
)
from .orientations import _iter_acyclic_bits
from .reports import IdentityReport

MAX_HEAP_PIECES = 10


class TruncatedSeries:
    """Sparse series in nvars variables, truncated above a total degree bound."""

    __slots__ = ("nvars", "bound", "terms")

    def __init__(self, nvars: int, bound: int, terms: Mapping[tuple[int, ...], object] | None = None):
        self.nvars = nvars
        self.bound = bound
        clean: dict[tuple[int, ...], object] = {}
        for exps, c in (terms or {}).items():
            if c == 0 or sum(exps) > bound:
                continue
            clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def constant(cls, nvars: int, bound: int, c=1) -> "TruncatedSeries":
        return cls(nvars, bound, {(0,) * nvars: c})

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), 0)

    def coefficient_of_set(self, mask: int):
        """Coefficient of the squarefree monomial given by a vertex mask."""
        exps = [0] * self.nvars
        for v in iter_vertices(mask):
            exps[v - 1] = 1
        return self.coefficient(exps)

    def constant_term(self):
        return self.coefficient((0,) * self.nvars)

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars or self.bound != other.bound:
            raise ValueError("series have different variable counts or bounds")

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return (
                self.nvars == other.nvars
                and self.bound == other.bound
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            return self == TruncatedSeries.constant(self.nvars, self.bound, other)
        return NotImplemented

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.nvars, self.bound, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            new = out.get(k, 0) + c
            if new == 0:
                out.pop(k, None)
            else:
                out[k] = new
        return TruncatedSeries(self.nvars, self.bound, out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.nvars, self.bound, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.nvars, self.bound, other)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries(self.nvars, self.bound, {})
            return TruncatedSeries(
                self.nvars, self.bound, {k: c * other for k, c in self.terms.items()}
            )
        self._check_compatible(other)
        bound = self.bound
        bitems = sorted((sum(k), k, c) for k, c in other.terms.items())
        out: dict[tuple[int, ...], object] = {}
        for ka, ca in self.terms.items():
            room = bound - sum(ka)
            for db, kb, cb in bitems:
                if db > room:
                    break
                key = tuple(x + y for x, y in zip(ka, kb))
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return TruncatedSeries(self.nvars, self.bound, out)

    __rmul__ = __mul__

    def substitute_neg(self) -> "TruncatedSeries":
        """The series with every variable negated: x^m picks up (-1)^|m|."""
        return TruncatedSeries(
            self.nvars,
            self.bound,
            {k: (-c if sum(k) & 1 else c) for k, c in self.terms.items()},
        )

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be exactly 1."""
        if self.constant_term() != 1:
            raise InternalInvariantViolation("reciprocal needs constant term 1")
        u = 1 - self
        acc = TruncatedSeries.constant(self.nvars, self.bound)
        for _ in range(self.bound):
            acc = 1 + u * acc
        return acc

    def log(self) -> "TruncatedSeries":
        """Natural log; the constant term must be exactly 1."""
        if self.constant_term() != 1:
            raise InternalInvariantViolation("log needs constant term 1")
        u = 1 - self
        if self.bound == 0:
            return TruncatedSeries(self.nvars, self.bound, {})
        acc = TruncatedSeries.constant(self.nvars, self.bound, Fraction(1, self.bound))
        for k in range(self.bound - 1, 0, -1):
            acc = u * acc + Fraction(1, k)
        return -(u * acc)

    def exp(self) -> "TruncatedSeries":
        """Exponential; the constant term must be exactly 0.

        Computed slice by slice through the Euler-operator recurrence
        d*E_d = sum_{k<=d} (k*P_k)*E_{d-k} over homogeneous degrees, so
        each coefficient pair is combined once rather than once per term
        of the partial-sum formula.
        """
        if self.constant_term() != 0:
            raise InternalInvariantViolation("exp needs constant term 0")
        theta: dict[int, list[tuple[tuple[int, ...], object]]] = {}
        for e, c in self.terms.items():
            d = sum(e)
            theta.setdefault(d, []).append((e, c * d))
        by_degree: list[dict[tuple[int, ...], object]] = [
            {} for _ in range(self.bound + 1)
        ]
        by_degree[0][(0,) * self.nvars] = 1
        for d in range(1, self.bound + 1):
            acc = by_degree[d]
            for k, plist in theta.items():
                if k > d:
                    continue
                lower = by_degree[d - k]
                if not lower:
                    continue
                for pe, pc in plist:
                    for ee, ec in lower.items():
                        key = tuple(x + y for x, y in zip(pe, ee))
                        prev = acc.get(key)
                        acc[key] = pc * ec if prev is None else prev + pc * ec
            if d > 1:
                for key, c in acc.items():
                    acc[key] = c / d if isinstance(c, Fraction) else Fraction(c, d)
        merged: dict[tuple[int, ...], object] = {}
        for level in by_degree:
            merged.update(level)
        return TruncatedSeries(self.nvars, self.bound, merged)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        return TruncatedSeries(self.nvars, self.bound, {k: fn(c) for k, c in self.terms.items()})

    def to_json_list(self) -> list[dict]:
        items = sorted((sum(k), k) for k in self.terms)
        out = []
        for _, k in items:
            c = Fraction(self.terms[k])
            out.append(
                {"exponents": list(k), "num": str(c.numerator), "den": str(c.denominator)}
            )
        return out

    def __repr__(self) -> str:
        items = sorted((sum(k), k) for k in self.terms)
        bits = []
        for _, k in items[:12]:
            mono = "*".join(
                f"x{i+1}" if e == 1 else f"x{i+1}^{e}" for i, e in enumerate(k) if e
            )
            bits.append(f"{self.terms[k]}{'*' + mono if mono else ''}")
        tail = " + ..." if len(items) > 12 else ""
        return f"TruncatedSeries({' + '.join(bits) or '0'}{tail})"


def _guard_series_size(n: int, bound: int, budget: Budget) -> None:
    charge("truncated series", math.comb(bound + n, n), budget.series_terms)


def trivial_series(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> TruncatedSeries:
    """T: one squarefree term per independent set of G (within the bound)."""
    _guard_series_size(G.n, bound, budget)
    terms = {}
    for mask in independent_sets(G):
        if mask.bit_count() > bound:
            continue
        exps = [0] * G.n
        for v in iter_vertices(mask):
            exps[v - 1] = 1
        terms[tuple(exps)] = 1
    return TruncatedSeries(G.n, bound, terms)


def heap_series(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> TruncatedSeries:
    """H = 1 / T(-x): coefficient of x^m counts heaps of type m."""
    return trivial_series(G, bound, budget).substitute_neg().reciprocal()


def pyramid_series(G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET) -> TruncatedSeries:
    """P = -log T(-x): coefficient of x^m is (pyramids of type m) / |m|."""
    return -(trivial_series(G, bound, budget).substitute_neg().log())


def restricted_trivial_series(
    G: Graph, S: int | Iterable[int], bound: int, budget: Budget = DEFAULT_BUDGET
) -> TruncatedSeries:
    """Trivial-heap series of the independent sets avoiding S."""
    _guard_series_size(G.n, bound, budget)
    smask = S if isinstance(S, int) else vset(S)
    if smask >> G.n:
        raise VertexOutOfRange("S contains vertices outside 1..n")
    terms = {}
    for mask in independent_sets(G):
        if mask & smask or mask.bit_count() > bound:
            continue
        exps = [0] * G.n
        for v in iter_vertices(mask):
            exps[v - 1] = 1
        terms[tuple(exps)] = 1
    return TruncatedSeries(G.n, bound, terms)


def restricted_heap_series(
    G: Graph, S: int | Iterable[int], bound: int, budget: Budget = DEFAULT_BUDGET
) -> TruncatedSeries:
    """H_S = T_{S-bar}(-x) / T(-x): heaps whose minimal pieces all have type in S."""
    numerator = restricted_trivial_series(G, S, bound, budget).substitute_neg()
    return numerator * heap_series(G, bound, budget)


# ---------------------------------------------------------------------------
# direct enumeration of heaps of a fixed type


def _heap_skeleton(G: Graph, m: Sequence[int]):
    """Blow-up graph, piece types, forced intra-type arcs, free cross edges."""
    if len(m) != G.n:
        raise VertexOutOfRange("type vector length mismatch")
    if sum(m) > MAX_HEAP_PIECES:
        raise TooManyVertices(
            f"direct heap enumeration capped at {MAX_HEAP_PIECES} pieces, got {sum(m)}"
        )
    B = blowup(G, m)
    types = blowup_types(m)
    forced = []
    free = []
    for u, v in B.edges:
        if types[u - 1] == types[v - 1]:
            forced.append((u, v))  # lower copy below higher copy
        else:
            free.append((u, v))
    return B, types, tuple(forced), tuple(free)


def _iter_heap_source_masks(G: Graph, m: Sequence[int]):
    """Yield the source (minimal piece) mask of every heap of type m."""
    B, types, forced, free = _heap_skeleton(G, m)
    forced_in = 0
    for _, h in forced:
        forced_in |= 1 << (h - 1)
    for bits in _iter_acyclic_bits(B.n, free, forced):
        in_mask = forced_in
        for e, (u, v) in enumerate(free):
            h = u if bits >> e & 1 else v
            in_mask |= 1 << (h - 1)
        yield B.full_mask & ~in_mask, types


def direct_heap_count(G: Graph, m: Sequence[int]) -> int:
    """Number of heaps of type m, by direct enumeration (|m| <= 10)."""
    return sum(1 for _ in _iter_heap_source_masks(G, m))


def direct_pyramid_count(G: Graph, m: Sequence[int]) -> int:
    """Number of heaps of type m with a unique minimal piece."""
    return sum(
        1 for srcs, _ in _iter_heap_source_masks(G, m) if srcs.bit_count() == 1
    )


def direct_restricted_count(G: Graph, S: int | Iterable[int], m: Sequence[int]) -> int:
    """Number of heaps of type m all of whose minimal pieces have type in S."""
    smask = S if isinstance(S, int) else vset(S)
    count = 0
    for srcs, types in _iter_heap_source_masks(G, m):
        ok = True
        for piece in iter_vertices(srcs):
            if not smask >> (types[piece - 1] - 1) & 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def heap_series_triple(
    G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """(T, H, P): T built once, H = 1 / T(-x) by series inversion and
    P = -log T(-x) by series logarithm."""
    trivial = trivial_series(G, bound, budget)
    t_neg = trivial.substitute_neg()
    return trivial, t_neg.reciprocal(), -(t_neg.log())


def verify_heap_identities(
    G: Graph, bound: int, budget: Budget = DEFAULT_BUDGET
) -> IdentityReport:
    """Check the series identities up to the degree bound (see
    check_heap_identities)."""
    return check_heap_identities(G, *heap_series_triple(G, bound, budget), budget)


def check_heap_identities(
    G: Graph,
    trivial: TruncatedSeries,
    H: TruncatedSeries,
    P: TruncatedSeries,
    budget: Budget = DEFAULT_BUDGET,
) -> IdentityReport:
    """Check the series identities for T, H and P as heap_series_triple
    builds them, up to their degree bound.

    Always: H * T(-x) = 1 and exp(P) = H (H built by series inversion,
    P by series logarithm, so the exp comparison crosses two independent
    arithmetic routes).  For n <= 5, every S subset of [n] additionally
    gets the quotient identity H_S * T(-x) = T_{S-bar}(-x) plus an
    orientation-side shadow: the coefficient of each squarefree x^V in
    H_S must count the acyclic orientations of G[V] whose sources all
    lie in S.
    """
    from .orientations import subgraph_source_mask_tally

    bound = trivial.bound
    t_neg = trivial.substitute_neg()
    failures = []
    one = TruncatedSeries.constant(G.n, bound)
    if H * t_neg != one:
        failures.append("H * T(-x) != 1")
    if P.exp() != H:
        failures.append("exp(P) != H")
    if G.n <= 5:
        vsets = [V for V in range(1 << G.n) if V.bit_count() <= bound]
        tallies = {V: subgraph_source_mask_tally(G, V) for V in vsets}
        for smask in range(1 << G.n):
            numerator = restricted_trivial_series(G, smask, bound, budget).substitute_neg()
            h_s = numerator * H
            if h_s * t_neg != numerator:
                failures.append(
                    f"H_S * T(-x) != T_Sbar(-x) for S={vset_tuple(smask)}"
                )
            for V in vsets:
                want = sum(c for src, c in tallies[V] if src & ~smask == 0)
                if h_s.coefficient_of_set(V) != want:
                    failures.append(
                        f"[x^V]H_S != source-confined count for "
                        f"S={vset_tuple(smask)}, V={vset_tuple(V)}"
                    )
    return IdentityReport(
        identity="heap_series",
        params={"n": G.n, "bound": bound},
        equal=not failures,
        details=tuple(failures),
    )
