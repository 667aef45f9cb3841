"""Sums over the subset lattice of a vertex set.

A table is a list of length 2^n indexed by vertex masks.  The product of
two tables is the subset convolution

    (f * g)[V] = sum over U subset of V of f[U] g[V \\ U],

so a k-fold product counts ordered k-tuples of pairwise disjoint blocks
covering V, each block weighted by its own table.  One product costs 3^n
steps.

Every subset convolution in the package goes through these functions.
Three other walkers cover the lattice themselves, each with a shape of
its own: symfunc._connected_csf, whose entries are maps from partitions
to coefficients; chromatic._ranked_table, which sums powers of rank
polynomials for chi; and orientations._heap_table, which builds the a and
b tables from one heap-series division per subset and one Moebius pass.
"""
from __future__ import annotations

from typing import Sequence


def identity(n: int) -> list[int]:
    """The unit of the product: 1 at the empty set, 0 elsewhere."""
    out = [0] * (1 << n)
    out[0] = 1
    return out


def convolve(f: Sequence[int], g: Sequence[int], n: int) -> list[int]:
    """h[V] = sum over U subset of V of f[U] g[V \\ U]."""
    if f.count(0) > g.count(0):
        # the product is symmetric: look up the sparser table first, so
        # that its zeros skip the second lookup
        f, g = g, f
    size = 1 << n
    out = [0] * size
    for V in range(size):
        s = 0
        U = V
        while True:
            y = g[V ^ U]
            if y:
                x = f[U]
                if x:
                    s += x * y
            if not U:
                break
            U = (U - 1) & V
        out[V] = s
    return out


def power(f: Sequence[int], k: int, n: int) -> list[int]:
    """k-fold product of f by repeated squaring; k = 0 gives the identity
    table (1 at the empty set), and no product involves it."""
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    result = None
    base = list(f)
    while k:
        if k & 1:
            result = base if result is None else convolve(result, base, n)
        k >>= 1
        if k:
            base = convolve(base, base, n)
    return identity(n) if result is None else result
