"""Chromatic symmetric function in the power-sum basis.

X_G is stored as a map from integer partitions to exact coefficients; the
omega involution and the q-specialization act on that map directly, so the
e/h bases never materialize.  Finite-alphabet expansions produce MultiPoly
polynomials, which lets every identity compare its algebraic side against
an orientation-side enumeration in exact arithmetic.  A MultiPoly stores
each monomial as one packed int (MultiPoly.WIDTH bits per exponent slot)
and refuses a result of total degree above MultiPoly.MAX_DEGREE, so no
exponent carries; exponent tuples are a read-only view for output and
tests, and every listing sorts them lexicographically.

Slot layout, one for every orientation-side identity: its alphabets take
contiguous slot ranges in the order y, z, w.  The orientation side colors
vertices -Ny..-1, 0, 1..Nz.  Color -i is y_i, and its class must be
independent.  Color c > 0 is z_c, and its class is weighted by its number
of acyclic orientations.  Color 0, where the identity has it, marks a block
weighted by p_lambda of its acyclic orientations in the remaining alphabet
(y in the split-alphabet identity, w in the three-alphabet one).
_IDENTITIES writes this down once per identity, with its caps; its
algebraic side, its grouped side and the literal reference in the tests
all read it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Mapping, Sequence

from .chromatic import enumerate_colorings
from .config import DEFAULT_BUDGET, Budget, charge
from .errors import InternalInvariantViolation, NonIntegerResult, ResourceBudgetExceeded, VertexOutOfRange
from .graphs import Graph, blowup, components, graph_cached, independence_table, induced_subgraph
from .orientations import (
    lambda_histogram,
    subgraph_acyclic_table,
    subgraph_lambda_tally,
    unique_source_min_table,
)
from .polynomials import Poly
from .reports import IdentityReport

MAX_EXPAND_VARS = 8
MAX_EXPAND_DEGREE = 8
MAX_COLORING_VARS = 5
MAX_COLORING_VERTICES = 8
MAX_MULTICOLOR_WEIGHT = 8


def _exact(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _coeff_json(c) -> dict:
    f = Fraction(c)
    return {"num": str(f.numerator), "den": str(f.denominator)}


# ---------------------------------------------------------------------------
# power-sum representation


class PPoly:
    """Homogeneous symmetric function written in the power-sum basis.

    ``terms`` maps a weakly decreasing partition tuple to a nonzero exact
    coefficient; every key partitions the same integer (``degree``).
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: Mapping[tuple[int, ...], object] | None = None):
        clean: dict[tuple[int, ...], object] = {}
        degrees: set[int] = set()
        for lam, c in (terms or {}).items():
            c = _exact(c)
            if c == 0:
                continue
            key = tuple(lam)
            if any(part <= 0 for part in key) or any(
                key[i] < key[i + 1] for i in range(len(key) - 1)
            ):
                raise InternalInvariantViolation(f"not a partition: {key}")
            degrees.add(sum(key))
            clean[key] = c
        if len(degrees) > 1:
            raise InternalInvariantViolation("mixed homogeneous degrees in one PPoly")
        self.terms = clean
        self.degree = degrees.pop() if degrees else 0

    def coefficient(self, lam: Sequence[int]):
        return self.terms.get(tuple(lam), 0)

    def scale(self, c) -> "PPoly":
        if c == 0:
            return PPoly()
        return PPoly({lam: v * c for lam, v in self.terms.items()})

    def __add__(self, other: "PPoly") -> "PPoly":
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return PPoly(out)

    def __sub__(self, other: "PPoly") -> "PPoly":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, PPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def sum_of_coefficients(self):
        return _exact(sum(self.terms.values()))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items())

    def to_json_dict(self) -> dict:
        terms = [
            {"partition": list(lam), **_coeff_json(c)}
            for lam, c in self.sorted_terms()
        ]
        return {"basis": "p", "degree": self.degree, "terms": terms}

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_terms():
            name = "p[%s]" % ",".join(map(str, lam)) if lam else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"PPoly({self.pretty()})"


def omega(X: PPoly) -> PPoly:
    """Duality involution: p_k picks up (-1)^(k-1), so p_lambda is scaled
    by (-1)^(|lambda| - len(lambda))."""
    return PPoly(
        {
            lam: c if (sum(lam) - len(lam)) % 2 == 0 else -c
            for lam, c in X.terms.items()
        }
    )


def _connected_csf(H: Graph, budget: Budget) -> dict[tuple[int, ...], int]:
    """X_H of a connected graph by the walk of csf_powersum, partitions as
    ascending tuples.  X[V] first sums b[B] X[V - B] per block size
    k = |B|, then adds the part k with the sign (-1)^(k-1) of c(B)."""
    b = unique_source_min_table(H, budget)
    X = [{(): 1}]
    for V in range(1, 1 << H.n):
        rest = V ^ (V & -V)
        by_size: dict[int, dict[tuple[int, ...], int]] = {}
        U = rest
        while True:
            if w := b[V ^ U]:
                acc = by_size.setdefault((V ^ U).bit_count(), {})
                for lam, c in X[U].items():
                    acc[lam] = acc.get(lam, 0) + w * c
            if not U:
                break
            U = (U - 1) & rest
        out: dict[tuple[int, ...], int] = {}
        for k, acc in by_size.items():
            for lam, c in acc.items():
                if c:
                    i = bisect_left(lam, k)
                    key = lam[:i] + (k,) + lam[i:]
                    out[key] = out.get(key, 0) + (c if k & 1 else -c)
        X.append(out)
    return X[-1]


def csf_powersum(G: Graph, budget: Budget = DEFAULT_BUDGET) -> PPoly:
    """X_G in the p-basis from the min-sourced block table.

    Grouping Stanley's edge-subset formula by the vertex blocks that an edge
    set S connects gives X_G = sum over set partitions pi of V of
    prod_{B in pi} c(B) p_lambda(pi), with c(B) the sum of (-1)^|S| over the
    edge sets S of G[B] connecting B.  By Greene-Zaslavsky, c(B) =
    (-1)^(|B|-1) b[B], where b[B] counts the acyclic orientations of G[B]
    whose unique source is min B (unique_source_min_table; 0 when G[B] is
    disconnected).  Putting min V in the first block gives the walk

        X[V] = sum over U subset of V - min V of c(V - U) p_|V-U| X[U],

    run per connected component and joined, since X is multiplicative.
    Its sum over components of (3^n_c - 1)/2 steps is charged on every
    call; the terms are then memoized on G (with the budget, as its table
    charges depend on it), and each call returns a fresh PPoly.
    """
    steps = sum((3 ** mask.bit_count() - 1) // 2 for mask in components(G))
    charge("enumeration", steps, budget.enumeration_limit)
    return PPoly(_csf_terms(G, budget))


@graph_cached
def _csf_terms(G: Graph, budget: Budget) -> dict[tuple[int, ...], int]:
    """The terms of csf_powersum: X of each component, joined."""
    terms: Counter[tuple[int, ...]] = Counter({(): 1})
    for mask in components(G):
        part = _connected_csf(induced_subgraph(G, mask)[0], budget)
        joined: Counter[tuple[int, ...]] = Counter()
        for lam, c in terms.items():
            for mu, d in part.items():
                joined[tuple(sorted(lam + mu))] += c * d
        terms = joined
    return {lam[::-1]: c for lam, c in terms.items()}


def specialize_p_to_q(X: PPoly) -> Poly:
    """Substitute every generator p_k by the indeterminate q, sending
    p_lambda to q^len(lambda); the result must have integer coefficients."""
    top = max((len(lam) for lam in X.terms), default=0)
    coeffs = [Fraction(0)] * (top + 1)
    for lam, c in X.terms.items():
        coeffs[len(lam)] += Fraction(c)
    if any(f.denominator != 1 for f in coeffs):
        raise NonIntegerResult("q-specialization has non-integer coefficients")
    return Poly(tuple(int(f) for f in coeffs))


def specialize_p_to_value(X: PPoly, t):
    """Substitute every generator p_k by the exact value t."""
    return _exact(sum(c * t ** len(lam) for lam, c in X.terms.items()))


# ---------------------------------------------------------------------------
# finite-alphabet polynomials


class MultiPoly:
    """Polynomial in a fixed tuple of alphabet variables.

    Stored form: a map from packed monomials to nonzero exact coefficients.
    A packed monomial is one int whose slot i, bits WIDTH*i up to
    WIDTH*(i + 1) - 1, holds the exponent of variable i (0-based), so a
    product of monomials is one integer add.  Every term's total degree is
    at most the stored bound ``_top``, and no exponent exceeds its term's
    total degree, so keeping ``_top`` <= MAX_DEGREE keeps every exponent in
    its slot: a product whose bound would pass MAX_DEGREE raises
    InternalInvariantViolation instead of carrying into the next slot.

    View: ``terms`` maps exponent tuples (one slot per variable) to the
    coefficients.  It is built on first use, for output and tests, and is
    read-only.  Packed ints do not sort like exponent tuples, so every
    ordering (sorted_terms, to_json_list) sorts the view.  Identity checks
    lay out their alphabets as contiguous slot ranges.
    """

    WIDTH = 8
    MAX_DEGREE = (1 << WIDTH) - 1

    __slots__ = ("nvars", "_top", "_packed", "_view")

    def __init__(
        self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None
    ):
        packed: dict[int, object] = {}
        top = 0
        for exps, c in (terms or {}).items():
            c = _exact(c)
            if c == 0:
                continue
            key = tuple(exps)
            if len(key) != nvars or any(e < 0 for e in key) or sum(key) > self.MAX_DEGREE:
                raise InternalInvariantViolation(
                    f"bad exponent tuple {key} for {nvars} variables"
                )
            packed[self.pack(key)] = c
            top = max(top, sum(key))
        self.nvars, self._top, self._packed, self._view = nvars, top, packed, None

    @classmethod
    def _of(cls, nvars: int, packed: dict[int, object], top: int) -> "MultiPoly":
        """Wrap a packed map, no coefficient zero and no total degree above
        top, without re-checking its keys."""
        if top > cls.MAX_DEGREE:
            raise InternalInvariantViolation(
                f"total degree {top} overflows the {cls.WIDTH}-bit exponent slots"
            )
        poly = cls.__new__(cls)
        poly.nvars, poly._top, poly._packed, poly._view = nvars, top, packed, None
        return poly

    @classmethod
    def pack(cls, exps: Sequence[int], lo: int = 0) -> int:
        """The packed monomial with exponents exps in slots lo, lo + 1, ..."""
        key = 0
        for e in reversed(exps):
            key = key << cls.WIDTH | e
        return key << cls.WIDTH * lo

    @classmethod
    def constant(cls, nvars: int, c=1) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def power_sum(cls, nvars: int, k: int, lo: int, hi: int) -> "MultiPoly":
        """x_lo^k + ... + x_{hi-1}^k over 0-based variable slots."""
        terms = {}
        for i in range(lo, hi):
            e = [0] * nvars
            e[i] = k
            terms[tuple(e)] = 1
        return cls(nvars, terms)

    @property
    def terms(self) -> dict[tuple[int, ...], object]:
        """Exponent tuple -> coefficient, the read-only view of the packed map."""
        if self._view is None:
            width, digit = self.WIDTH, self.MAX_DEGREE
            shifts = range(0, width * self.nvars, width)
            self._view = {
                tuple(e >> s & digit for s in shifts): _exact(c)
                for e, c in self._packed.items()
            }
        return self._view

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._packed.items())))

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self._packed)
        for e, c in other._packed.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return MultiPoly._of(self.nvars, out, max(self._top, other._top))

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c) -> "MultiPoly":
        if c == 0:
            return MultiPoly(self.nvars)
        return MultiPoly._of(
            self.nvars, {e: v * c for e, v in self._packed.items()}, self._top
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        a, b = self._packed, other._packed
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, object] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        top = self._top + other._top
        return MultiPoly._of(self.nvars, {e: c for e, c in out.items() if c}, top)

    __rmul__ = __mul__

    def _check_compatible(self, other: "MultiPoly") -> None:
        if not isinstance(other, MultiPoly) or self.nvars != other.nvars:
            raise InternalInvariantViolation("alphabet size mismatch")

    def evaluate(self, values: Sequence[object]):
        if len(values) != self.nvars:
            raise InternalInvariantViolation("value tuple length mismatch")
        total = 0
        for e, c in self.terms.items():
            term = c
            for x, k in zip(values, e):
                if k:
                    term *= x**k
            total += term
        return _exact(total)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.terms.items())

    def to_json_list(self) -> list[dict]:
        return [
            {"exponents": list(e), **_coeff_json(c)} for e, c in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"MultiPoly(nvars={self.nvars}, terms={len(self)})"


def substitute_power_sums(
    X: PPoly, nvars: int, image: Callable[[int], MultiPoly]
) -> MultiPoly:
    """Apply p_k -> image(k) to every term of X and expand exactly."""
    img_cache: dict[int, MultiPoly] = {}
    lam_cache: dict[tuple[int, ...], MultiPoly] = {}

    def expand_lam(lam: tuple[int, ...]) -> MultiPoly:
        if lam not in lam_cache:
            if not lam:
                lam_cache[lam] = MultiPoly.constant(nvars, 1)
            else:
                k = lam[-1]
                if k not in img_cache:
                    img_cache[k] = image(k)
                lam_cache[lam] = expand_lam(lam[:-1]) * img_cache[k]
        return lam_cache[lam]

    acc: dict[int, object] = {}
    top = 0
    for lam, c in X.terms.items():
        poly = expand_lam(lam)
        top = max(top, poly._top)
        for e, v in poly._packed.items():
            s = acc.get(e, 0) + c * v
            if s:
                acc[e] = s
            else:
                del acc[e]
    return MultiPoly._of(nvars, acc, top)


def expand_finite(X: PPoly, N: int) -> MultiPoly:
    """Expand X in variables z_1..z_N: substitute p_k -> z_1^k + ... + z_N^k."""
    if N < 0:
        raise VertexOutOfRange(f"-N must be a nonnegative number of variables, got {N}")
    if N > MAX_EXPAND_VARS or X.degree > MAX_EXPAND_DEGREE:
        raise ResourceBudgetExceeded(
            f"finite expansion capped at {MAX_EXPAND_VARS} variables"
            f" and degree {MAX_EXPAND_DEGREE}"
        )
    return substitute_power_sums(X, N, lambda k: MultiPoly.power_sum(N, k, 0, N))


def _color_count_tally(G: Graph, N: int, sizes: Sequence[int] | None, budget: Budget) -> MultiPoly:
    """Sum over the proper (multi)colorings of enumerate_colorings with N
    colors of prod_c z_c^(size of class c)."""
    tally: Counter[tuple[int, ...]] = Counter()
    for classes in enumerate_colorings(G, N, N, sizes, budget):
        tally[tuple(m.bit_count() for m in classes)] += 1
    return MultiPoly(N, tally)


def csf_from_colorings(G: Graph, N: int, budget: Budget = DEFAULT_BUDGET) -> MultiPoly:
    """X_G truncated to N colors by direct enumeration of proper colorings;
    each coloring f contributes the monomial prod_v z_{f(v)}."""
    if N > MAX_COLORING_VARS or G.n > MAX_COLORING_VERTICES:
        raise ResourceBudgetExceeded(
            f"direct coloring expansion capped at {MAX_COLORING_VARS} colors"
            f" and {MAX_COLORING_VERTICES} vertices"
        )
    return _color_count_tally(G, N, None, budget)


# ---------------------------------------------------------------------------
# orientation-side building blocks


# keyed on (partition, slot range), not on a graph; the vertex caps bound it
@lru_cache(maxsize=None)
def _expand_partition(
    lam: tuple[int, ...], nvars: int, lo: int, hi: int
) -> MultiPoly:
    """p_lam expanded in variable slots lo..hi-1 of an nvars alphabet."""
    if not lam:
        return MultiPoly.constant(nvars, 1)
    return _expand_partition(lam[:-1], nvars, lo, hi) * MultiPoly.power_sum(
        nvars, lam[-1], lo, hi
    )


@graph_cached
def _lambda_weight(G: Graph, mask: int, nvars: int, lo: int, hi: int) -> MultiPoly:
    """Sum of p_{lambda(gamma)} over acyclic orientations of G[mask],
    expanded in variable slots lo..hi-1."""
    acc: dict[int, object] = {}
    for lam, cnt in subgraph_lambda_tally(G, mask):
        _add_shifted(acc, _expand_partition(lam, nvars, lo, hi)._packed, 0, cnt)
    return MultiPoly._of(nvars, acc, mask.bit_count())


def _add_shifted(acc: dict, weight: dict, base: int, factor: int) -> None:
    """acc += factor * weight * the packed monomial base, both packed maps."""
    for e, v in weight.items():
        key = e + base
        s = acc.get(key, 0) + factor * v
        if s:
            acc[key] = s
        else:
            del acc[key]


# Each orientation-side identity, its alphabets in the order y, z, w:
# (layout, report parameter names, variables per alphabet cap, vertex cap).
# The layout takes the alphabet sizes to (nvars, ny, z, nz, zero): colors
# -1..-ny count in slots 0..ny-1, colors 1..nz in slots z..z+nz-1, and the
# color-0 block, if zero is a slot range (lo, hi), is weighted in lo..hi-1.
_IDENTITIES: dict[str, tuple[Callable[..., tuple], tuple[str, ...], int, int]] = {
    "descent_expansion": (lambda N: (N, 0, 0, N, None), ("colors",), 8, 8),
    "split_alphabet": (
        lambda Ny, Nz: (Ny + Nz, 0, Ny, Nz, (0, Ny)), ("y_vars", "z_vars"), 3, 6
    ),
    "superfication": (
        lambda Ny, Nz: (Ny + Nz, Ny, Ny, Nz, None), ("y_vars", "z_vars"), 3, 6
    ),
    "combined_alphabets": (
        lambda Ny, Nz, Nw: (Ny + Nz + Nw, Ny, Ny, Nz, (Ny + Nz, Ny + Nz + Nw)),
        ("y_vars", "z_vars", "w_vars"), 2, 5,
    ),
}


def _grouped_side(G: Graph, identity: str, *sizes: int, budget: Budget) -> MultiPoly:
    """Orientation side of an identity, summed one color class at a time.

    Descent-freeness forces every arc between distinct color classes, so a
    coloring admits exactly the products of acyclic orientations of its
    classes: the side is a sum over ordered tuples of disjoint classes, a
    subset-lattice sum (Bjorklund, Husfeldt, Kaski, Koivisto, Fourier meets
    Moebius, 2007).  Colors run over the ny y colors, color 0 if the
    identity has it, then the nz z colors, and fold from last to first.
    F[T], a packed map, sums the weights of the colorings of exactly T by
    the colors folded so far, from F[empty] = 1.  A color adds a class S
    outside T: a y color an independent S, keyed |S| in its slot; color 0
    any S, weighted by _lambda_weight; a z color any S, weighted by
    acyclic[S] and keyed |S| in its slot.  The first color takes only the
    S that completes V.

    The (T, S) pairs are charged first: 2^n for the last color, 3^n for
    each middle one and 2^n for the first, or one for a lone color.
    """
    nvars, ny, z, nz, zero = _IDENTITIES[identity][0](*sizes)
    n, full, width = G.n, G.full_mask, MultiPoly.WIDTH
    colors = ny + (zero is not None) + nz
    pairs = colors if colors < 2 else 2 ** (n + 1) + (colors - 2) * 3 ** n
    charge("coloring fold", pairs, budget.enumeration_limit)
    independent = independence_table(G)
    acyclic = subgraph_acyclic_table(G, budget) if nz else ()
    sets = range(1 << n)

    def weights(c: int) -> list:
        """The packed weight of each class S of color c; None where S may
        not take c."""
        if c < ny:
            return [{S.bit_count() << width * c: 1} if independent[S] else None for S in sets]
        if c == ny and zero is not None:
            return [_lambda_weight(G, S, nvars, *zero)._packed for S in sets]
        shift = width * (z + c - (colors - nz))
        return [{S.bit_count() << shift: acyclic[S]} for S in sets]

    F = {0: {0: 1}}
    for c in reversed(range(colors)):
        w, out = weights(c), {}
        for T, tail in F.items():
            rest = S = full ^ T
            while True:
                if w[S]:
                    acc = out.setdefault(S | T, {})
                    for key, m in w[S].items():
                        _add_shifted(acc, tail, key, m)
                if not S or not c:
                    break
                S = (S - 1) & rest
        F = out
    return MultiPoly._of(nvars, F.get(full, {}), n)


def _alphabet_image(nvars: int, ny: int, k: int) -> MultiPoly:
    """p_k(slots 0..ny-1) - (-1)^k p_k(slots ny..nvars-1)."""
    rest = MultiPoly.power_sum(nvars, k, ny, nvars).scale((-1) ** k)
    return MultiPoly.power_sum(nvars, k, 0, ny) - rest


def identity_sides(
    G: Graph, identity: str, *sizes: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[MultiPoly, MultiPoly]:
    """Algebraic and orientation sides of an identity of _IDENTITIES, its
    alphabets of the given sizes.

    The algebraic side is X_G with p_k -> p_k(y) - (-1)^k p_k(z + w), y
    being slots 0..ny-1 of the layout: X_G(y - z) for superfication,
    X_G(y - (z + w)) for the three-alphabet identity, and at ny = 0,
    omega(X_G) in all the slots (the descent expansion, and the split
    alphabet's omega(X_G)(y + z)).  The orientation side's fold is charged
    before X_G is computed.
    """
    layout, _, cap, nmax = _IDENTITIES[identity]
    if any(s < 0 for s in sizes):
        raise VertexOutOfRange(f"alphabet sizes must be nonnegative, got {list(sizes)}")
    if any(s > cap for s in sizes) or G.n > nmax:
        raise ResourceBudgetExceeded(
            f"alphabets capped at {cap} variables and {nmax} vertices here"
        )
    nvars, ny = layout(*sizes)[:2]
    rhs = _grouped_side(G, identity, *sizes, budget=budget)
    lhs = substitute_power_sums(
        csf_powersum(G, budget), nvars, lambda k: _alphabet_image(nvars, ny, k)
    )
    return lhs, rhs


def sides_report(
    G: Graph, identity: str, sizes: Sequence[int], lhs: MultiPoly, rhs: MultiPoly
) -> IdentityReport:
    """Report on the sides of identity_sides: the monomial count of each
    and, when they differ, the smallest monomial whose coefficients differ."""
    details = (f"{len(lhs)} monomials algebraic side",
               f"{len(rhs)} monomials orientation side")
    equal = lhs == rhs
    if not equal:
        e = min(
            e for e in lhs.terms.keys() | rhs.terms.keys()
            if lhs.coefficient(e) != rhs.coefficient(e)
        )
        details += (
            f"first difference at exponents {list(e)}:"
            f" algebraic {lhs.coefficient(e)}, orientation {rhs.coefficient(e)}",
        )
    return IdentityReport(
        identity=identity,
        params={"n": G.n, **dict(zip(_IDENTITIES[identity][1], sizes))},
        equal=equal,
        details=details,
    )


# ---------------------------------------------------------------------------
# identity checks


def orientation_lambda_tally(G: Graph) -> PPoly:
    """Tally of p_{lambda(gamma)} over all acyclic orientations of G."""
    return PPoly(lambda_histogram(G))


def verify_orientation_expansion(
    G: Graph, budget: Budget = DEFAULT_BUDGET
) -> IdentityReport:
    """The orientation tally of p_{lambda(gamma)} should equal omega(X_G);
    when they differ, the report ends with the first partition, in
    sorted_terms order, whose coefficients differ."""
    lhs = omega(csf_powersum(G, budget))
    rhs = orientation_lambda_tally(G)
    details = (f"omega side {lhs.pretty()}", f"tally side {rhs.pretty()}")
    equal = lhs == rhs
    if not equal:
        lam = min(
            lam for lam in lhs.terms.keys() | rhs.terms.keys()
            if lhs.coefficient(lam) != rhs.coefficient(lam)
        )
        details += (
            f"first difference at partition {list(lam)}:"
            f" omega {lhs.coefficient(lam)}, tally {rhs.coefficient(lam)}",
        )
    return IdentityReport(
        identity="orientation_expansion",
        params={"n": G.n},
        equal=equal,
        details=details,
    )


def _verify(G: Graph, identity: str, *sizes: int, budget: Budget) -> IdentityReport:
    return sides_report(G, identity, sizes, *identity_sides(G, identity, *sizes, budget=budget))


def verify_descent_expansion(
    G: Graph, N: int, budget: Budget = DEFAULT_BUDGET
) -> IdentityReport:
    """omega(X_G) in N variables against the descent-free pair enumeration."""
    return _verify(G, "descent_expansion", N, budget=budget)


def verify_split_alphabet(
    G: Graph, Ny: int, Nz: int, budget: Budget = DEFAULT_BUDGET
) -> IdentityReport:
    """omega(X_G)(y + z) against descent-free colorings into {0, 1..Nz}
    whose color-0 block keeps p_lambda of a free acyclic orientation in y."""
    return _verify(G, "split_alphabet", Ny, Nz, budget=budget)


def verify_superfication(
    G: Graph, Ny: int, Nz: int, budget: Budget = DEFAULT_BUDGET
) -> IdentityReport:
    """X_G(y - z) against descent-free colorings into {-Ny..-1, 1..Nz} whose
    negative classes are independent."""
    return _verify(G, "superfication", Ny, Nz, budget=budget)


def verify_combined(
    G: Graph, Ny: int, Nz: int, Nw: int, budget: Budget = DEFAULT_BUDGET
) -> IdentityReport:
    """X_G(y - (z + w)) against descent-free colorings into {-Ny..Nz}, the
    color-0 block weighted by p_lambda in w."""
    return _verify(G, "combined_alphabets", Ny, Nz, Nw, budget=budget)


# ---------------------------------------------------------------------------
# multicoloring refinement


def multicolor_csf(
    G: Graph, m: Sequence[int], budget: Budget = DEFAULT_BUDGET
) -> PPoly:
    """Type-m refinement: X of the blown-up graph divided by prod_v m_v!."""
    if sum(m) > MAX_MULTICOLOR_WEIGHT:
        raise ResourceBudgetExceeded(
            f"multicolor expansion capped at weight {MAX_MULTICOLOR_WEIGHT}"
        )
    scale = Fraction(1)
    for k in m:
        scale /= factorial(k)
    return csf_powersum(blowup(G, m), budget).scale(scale)


def multicolor_csf_from_colorings(
    G: Graph, m: Sequence[int], N: int, budget: Budget = DEFAULT_BUDGET
) -> MultiPoly:
    """Direct type-m multicoloring enumeration with colors in [N].

    A multicoloring assigns vertex v a set of m_v colors with adjacent
    vertices using disjoint sets; each occurrence of a color contributes
    one power of its variable.
    """
    if N > 3 or sum(m) > MAX_MULTICOLOR_WEIGHT:
        raise ResourceBudgetExceeded("direct multicoloring capped at 3 colors")
    if len(m) != G.n:
        raise InternalInvariantViolation("type vector length mismatch")
    return _color_count_tally(G, N, m, budget)
