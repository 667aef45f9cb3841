"""Exact dense univariate polynomials and a small bivariate companion.

Coefficients are Python ints or fractions.Fraction; arithmetic never
rounds.  Coefficient order is constant term first.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InternalInvariantViolation, VertexOutOfRange


def _normalize(coeffs: Sequence) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Poly:
    """Polynomial in one variable q with exact coefficients, constant first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        self.coeffs = _normalize(coeffs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def q_power(cls, k: int, c=1) -> "Poly":
        return cls((0,) * k + (c,))

    @classmethod
    def falling_factorial(cls, k: int) -> "Poly":
        """q (q-1) ... (q-k+1); the empty product for k=0."""
        p = cls.one()
        for i in range(k):
            p = p * cls((-i, 1))
        return p

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise VertexOutOfRange(f"derivative order d must be nonnegative, got {order}")
        return Poly(tuple(math.perm(k, order) * c for k, c in enumerate(self.coeffs))[order:])

    def evaluate(self, x):
        """Exact Horner evaluation at an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a) -> "Poly":
        """The polynomial P(q + a), expanded exactly."""
        acc = Poly.zero()
        shift = Poly((a, 1))
        for c in reversed(self.coeffs):
            acc = acc * shift + Poly((c,))
        return acc

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; any remainder is an internal error.

        Integer polynomials over a divisor led by +-1 (a falling factorial,
        say) divide in ints; anything else goes through Fraction."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = divisor.coeffs[-1]
        if lead in (1, -1) and all(type(c) is int for c in self.coeffs + divisor.coeffs):
            # 1 / lead is lead itself
            return Poly(_long_divide(list(self.coeffs), divisor.coeffs, lambda c: c * lead))
        d = [Fraction(c) for c in divisor.coeffs]
        out = _long_divide([Fraction(c) for c in self.coeffs], d, lambda c: c / d[-1])
        quotient = Poly(out)
        return quotient.to_int_coeffs() if quotient.is_integral() else quotient

    def is_integral(self) -> bool:
        return all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for c in self.coeffs
        )

    def to_int_coeffs(self) -> "Poly":
        """Convert Fraction coefficients with denominator 1 to ints."""
        return Poly(tuple(int(c) for c in self.coeffs))

    def to_json_dict(self) -> dict:
        return {"coeffs": [_num_str(c) for c in self.coeffs], "var": "q"}

    def pretty(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            elif k == 1:
                body = f"{var}" if mag == 1 else f"{mag}*{var}"
            else:
                body = f"{var}^{k}" if mag == 1 else f"{mag}*{var}^{k}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


def _long_divide(rem: list, d: Sequence, over_lead: Callable) -> list:
    """Quotient of the coefficients rem by d, over_lead dividing by d's
    leading coefficient; rem is left holding the remainder, which must be
    zero."""
    qdeg = len(rem) - len(d)
    out = [0] * max(qdeg + 1, 0)
    for k in range(qdeg, -1, -1):
        factor = out[k] = over_lead(rem[k + len(d) - 1])
        for i, dc in enumerate(d):
            rem[k + i] -= factor * dc
    if any(rem):
        raise InternalInvariantViolation("division left a remainder")
    return out


def _num_str(c) -> str:
    """Decimal string for an int or an integral Fraction."""
    if isinstance(c, Fraction):
        if c.denominator != 1:
            return f"{c.numerator}/{c.denominator}"
        c = c.numerator
    return str(c)


class BivariatePoly:
    """Polynomial in q and r, stored sparsely as {(i, j): coeff} for q^i r^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], object] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    def coefficient(self, i: int, j: int):
        return self.terms.get((i, j), 0)

    def add_term(self, i: int, j: int, c) -> None:
        if c == 0:
            return
        key = (i, j)
        new = self.terms.get(key, 0) + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def evaluate(self, q, r):
        return sum(c * q**i * r**j for (i, j), c in self.terms.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePoly):
            return self.terms == other.terms
        return NotImplemented

    def to_json_list(self) -> list[dict]:
        return [
            {"i": i, "j": j, "c": _num_str(c)}
            for (i, j), c in sorted(self.terms.items())
        ]

    def __repr__(self) -> str:
        if not self.terms:
            return "BivariatePoly(0)"
        bits = [f"{c}*q^{i}*r^{j}" for (i, j), c in sorted(self.terms.items())]
        return "BivariatePoly(" + " + ".join(bits) + ")"
