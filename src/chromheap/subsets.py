"""Sums over the subset lattice of a vertex set.

A table is a list of length 2^n indexed by vertex masks.  The product of
two tables is the subset convolution

    (f * g)[V] = sum over U subset of V of f[U] g[V \\ U],

so a k-fold product counts ordered k-tuples of pairwise disjoint blocks
covering V, each block weighted by its own table.

ranked_product and ranked_entry take a whole product of powers of
nonnegative tables at once, by ranked zeta and Moebius transforms over
packed integers (Bjorklund, Husfeldt, Kaski, Koivisto, Fourier meets
Moebius: fast subset convolution, 2007): about n 2^n big-int additions
and log k products per subset.  The reciprocity checks count their block
tuples and descent-free pairs with it, chromatic.count_independent_tuples
its colorings, and count_proper_colorings the size of its walk.

zeta and moebius are the one lattice walk that the ranked product,
orientations._heap_table and the small heap-series check in
series.check_heap_identities run.  Two other walkers cover the lattice
themselves, each with a shape of its own: symfunc._connected_csf, whose
entries are maps from partitions to coefficients, and
chromatic._ranked_table, which sums powers of rank polynomials for chi.
"""
from __future__ import annotations

from itertools import compress
from operator import add, lshift, sub
from typing import Callable, Iterator, Sequence

_RUN = 1 << 12  # pairs per slice in _walk


# ---------------------------------------------------------------------------
# zeta and Moebius transforms


def _walk(f: list[int], op: Callable[[int, int], int]) -> None:
    """f[V] <- op(f[V], f[V - v]) for each bit v in turn and every V
    holding v.  The pairs go one slice at a time, strided while v is low
    and contiguous once it is high, so at most _RUN new ints are alive
    beside f."""
    size, half = len(f), 1
    while half < size:
        step = 2 * half
        if half * half <= size:
            span = min(size, _RUN * step)
            for base in range(0, size, span):
                end = base + span
                for lo in range(base, base + half):
                    f[lo + half:end:step] = map(op, f[lo + half:end:step], f[lo:end:step])
        else:
            for lo in range(0, size, step):
                for c in range(lo, lo + half, _RUN):
                    end = min(c + _RUN, lo + half)
                    f[c + half:end + half] = map(op, f[c + half:end + half], f[c:end])
        half = step


def zeta(f: list[int]) -> None:
    """The zeta transform in place, f[V] <- sum over S subset of V of f[S]."""
    _walk(f, add)


def moebius(f: list[int]) -> None:
    """The Moebius transform in place, f[V] <- sum over S subset of V of
    (-1)^|V-S| f[S]; it inverts zeta."""
    _walk(f, sub)


# ---------------------------------------------------------------------------
# ranked product of powers


def _powers(base, k: int, mul: Callable) -> Iterator:
    """Every product that base^k by square-and-multiply forms, base^k
    last; k >= 1."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
            yield result
        k >>= 1
        if not k:
            return
        base = mul(base, base)
        yield base


def _chain(zetas: Iterator, ks: Sequence[int], mul: Callable) -> Iterator:
    """Every value the product of the powers zeta_i^k_i forms, in order,
    its zetas included; the product itself last."""
    acc = None
    for z, k in zip(zetas, ks):
        yield z
        for p in _powers(z, k, mul):
            yield p
        acc = p if acc is None else mul(acc, p)
        yield acc


def _truncated_mul(x: list[int], y: list[int]) -> list[int]:
    return [sum(x[e] * y[d - e] for e in range(d + 1)) for d in range(len(x))]


def _ranks(n: int) -> list[int]:
    """|S| for every mask S, by doubling: a new top bit adds one."""
    out = [0]
    for _ in range(n):
        out += [c + 1 for c in out]
    return out


def _ranked(
    factors: Sequence[tuple[Sequence[int], int]], n: int
) -> tuple[list[int], list[int], int]:
    """P(S) packed W bits a degree for every S, the shift W |S| of every
    S, and W, where

        P(S) = prod over (f, k) of (sum over U subset of S of f[U] z^|U|)^k

    truncated to degree n.  Then the product of the powers f^k at V is
    sum over S subset of V of (-1)^|V-S| [z^|V|] P(S): the sum counts the
    tuples of blocks inside V, k of them weighted by each f, whose sizes
    add up to |V|, by inclusion-exclusion on their union; the union is V
    exactly when the blocks are pairwise disjoint and cover V.

    Width.  Every entry is >= 0, so each value the chain forms at S,
    zetas, squares and partial products alike, is coefficientwise at most
    the same value at the full set, and each partial Moebius sum at V (the
    tuples whose union lies inside V and meets the bits done so far in V's
    bits exactly) lies between 0 and P(V).  W is the bit length of the
    largest of those full-set coefficients, which _chain forms once in
    plain coefficient lists first.  So no slot carries into the next,
    every packed product and difference is exact slot by slot, and
    truncation is a mask: a carry out of a slot above n never reaches a
    lower one."""
    tables = [f for f, _ in factors]
    ks = [k for _, k in factors]
    ranks = _ranks(n)

    def coefficients(f: Sequence[int]) -> list[int]:
        z = [0] * (n + 1)
        for c, x in zip(ranks, f):
            z[c] += x
        return z

    top = max(max(p) for p in _chain(map(coefficients, tables), ks, _truncated_mul))
    w = max(top.bit_length(), 1)
    keep = (1 << w * (n + 1)) - 1
    shifts = [w * c for c in ranks]

    def packed(f: Sequence[int]) -> list[int]:
        z = list(map(lshift, f, shifts))
        zeta(z)
        return z

    def mul(xs: list[int], ys: list[int]) -> list[int]:
        return [x * y & keep for x, y in zip(xs, ys)]

    for p in _chain(map(packed, tables), ks, mul):
        pass
    return p, shifts, w


def _factors(factors: Sequence[tuple[Sequence[int], int]]) -> list[tuple[Sequence[int], int]]:
    """The factors with k >= 1, after checking every k and entry."""
    for f, k in factors:
        if k < 0:
            raise ValueError(f"ranked product needs k >= 0, got {k}")
        if k and min(f) < 0:
            raise ValueError("ranked product needs nonnegative tables")
    return [(f, k) for f, k in factors if k]


def ranked_product(factors: Sequence[tuple[Sequence[int], int]], n: int) -> list[int]:
    """The table f_1^k_1 * f_2^k_2 * ... for the (f, k) pairs in factors:
    ordered tuples of k_1 blocks weighted by f_1, then k_2 by f_2, and so
    on.  Every f must be >= 0.  One Moebius pass over the packed P(S) of
    _ranked leaves the product at V in slot |V|."""
    factors = _factors(factors)
    if not factors:
        return [1] + [0] * ((1 << n) - 1)
    if len(factors) == 1 and factors[0][1] == 1:
        return list(factors[0][0])
    p, shifts, w = _ranked(factors, n)
    moebius(p)
    slot = (1 << w) - 1
    return [x >> s & slot for x, s in zip(p, shifts)]


def ranked_entry(factors: Sequence[tuple[Sequence[int], int]], n: int) -> int:
    """ranked_product(factors, n) at the full set, without a Moebius pass:
    slot n of the signed sum of the packed P(S) of _ranked."""
    factors = _factors(factors)
    if not factors:
        return int(n == 0)
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0][-1]
    p, shifts, w = _ranked(factors, n)
    odd = [s & 1 for s in _ranks(n)]
    signed = sum(p) - 2 * sum(compress(p, odd))  # sum of (-1)^|S| P(S)
    return (-signed if n & 1 else signed) >> w * n
