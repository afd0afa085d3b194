"""Exact complex scalars over the field Q(i, sqrt(2)).

Every coefficient that enters the symbolic operator algebra is an element

    z = (a + b*sqrt(2)) + (c + d*sqrt(2))*i

with a, b, c, d exact rationals.  Plain Gaussian rationals are the b = d = 0
case; the sqrt(2) extension is what makes the ladder-operator normalisation
1/sqrt(2) representable without rounding.

An element is stored as four integer numerators over one shared positive
denominator q, normalised by a single gcd(a, b, c, d, q): every value has one
representation (zero is 0/1), which equality and hashing compare directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np


def _make(a: int, b: int, c: int, d: int, q: int) -> "GaussianRational":
    """The element (a + b*s2 + (c + d*s2)*i)/q, q > 0, in lowest terms."""
    g = gcd(a, b, c, d, q)
    z = object.__new__(GaussianRational)
    z._a, z._b, z._c, z._d, z._q = a // g, b // g, c // g, d // g, q // g
    return z


def mul_parts(a1, b1, c1, d1, a2, b2, c2, d2):
    """Numerators (a, b, c, d) of z1 * z2 from those of z1 and z2; over q1 * q2.

    The formula is elementwise, so it serves ints and numpy object columns of
    ints alike.
    """
    # (p1 + r1*s)(p2 + r2*s) with p, r complex rationals and s^2 = 2:
    # real*real and imag*imag contributions, then the imaginary cross terms
    return (
        a1 * a2 + 2 * (b1 * b2) - c1 * c2 - 2 * (d1 * d2),
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def common_numerators(values) -> np.ndarray:
    """The numerators (a, b, c, d) of `values` over one common denominator.

    Returns a 4 x len(values) object array of Python ints, so arithmetic on
    its columns stays exact at any size.  A sum of such columns is zero exactly
    when the sum of the values is.
    """
    q = lcm(*(z._q for z in values))
    rows = [(z._a * (s := q // z._q), z._b * s, z._c * s, z._d * s) for z in values]
    return np.array(rows, dtype=object).reshape(-1, 4).T


def _operand(value):
    """value as a GaussianRational, or None (the arithmetic answers NotImplemented)."""
    exact = isinstance(value, (int, Fraction, GaussianRational))
    return GaussianRational.coerce(value) if exact else None


class GaussianRational:
    """A complex number (a + b*sqrt2) + (c + d*sqrt2)*i with rational a,b,c,d."""

    __slots__ = ("_a", "_b", "_c", "_d", "_q")

    def __init__(self, a=0, c=0, b=0, d=0):
        # Positional order (re, im) first so GaussianRational(1, 2) reads 1 + 2i.
        parts = (a, b, c, d)
        for v in parts:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(v).__name__}")
        # parts are in lowest terms, so over the lcm of their denominators gcd = 1
        self._q = q = lcm(*(v.denominator for v in parts))
        self._a, self._b, self._c, self._d = (v.numerator * (q // v.denominator) for v in parts)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(value.numerator, 0, 0, 0, value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} into GaussianRational")

    # -- parts and predicates -----------------------------------------

    a = property(lambda self: Fraction(self._a, self._q))
    b = property(lambda self: Fraction(self._b, self._q))
    c = property(lambda self: Fraction(self._c, self._q))
    d = property(lambda self: Fraction(self._d, self._q))

    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._d)

    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    @property
    def re(self) -> Fraction:
        """Rational part of the real component (exact when sqrt2 part vanishes)."""
        if self._b:
            raise ValueError("real part carries a sqrt(2) component; not a plain rational")
        return self.a

    @property
    def im(self) -> Fraction:
        if self._d:
            raise ValueError("imaginary part carries a sqrt(2) component; not a plain rational")
        return self.c

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a plain rational")
        return self.a

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _operand(other)
        if o is None:
            return NotImplemented
        q1, q2 = self._q, o._q
        return _make(self._a * q2 + o._a * q1, self._b * q2 + o._b * q1,
                     self._c * q2 + o._c * q1, self._d * q2 + o._d * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, -self._c, -self._d, self._q)

    def __sub__(self, other):
        return NotImplemented if (o := _operand(other)) is None else self + (-o)

    def __rsub__(self, other):
        return NotImplemented if (o := _operand(other)) is None else o + (-self)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _operand(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = o._a, o._b, o._c, o._d
        if not (b1 or d1 or b2 or d2):
            # plain Gaussian rationals, the common case
            return _make(a1 * a2 - c1 * c2, 0, a1 * c2 + c1 * a2, 0, self._q * o._q)
        return _make(*mul_parts(a1, b1, c1, d1, a2, b2, c2, d2), self._q * o._q)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if self.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        # z = (p + r*s)/q with p = a + ci, r = b + di, so 1/z = q (p - r*s) conj(u) / |u|^2
        # with u = p**2 - 2 r**2 = ure + uim*i, a Gaussian integer that is 0 only if z is
        a, b, c, d, q = self._a, self._b, self._c, self._d, self._q
        ure = a * a - c * c - 2 * (b * b - d * d)
        uim = 2 * a * c - 4 * b * d
        return _make(
            q * (a * ure + c * uim),
            -q * (b * ure + d * uim),
            q * (c * ure - a * uim),
            q * (b * uim - d * ure),
            ure * ure + uim * uim,
        )

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, self._b, -self._c, -self._d, self._q)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return (self._a, self._b, self._c, self._d, self._q) == (o._a, o._b, o._c, o._d, o._q)

    def __hash__(self):
        return hash((self._a, self._b, self._c, self._d, self._q))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering -----------------------------------------------------

    def text(self) -> str:
        """Canonical text form: `a/b+c/d*i`, with `*s2` marking sqrt(2) parts."""
        parts = []
        if self._a:
            parts.append(str(self.a))
        if self._b:
            parts.append(f"{self.b}*s2")
        if self._c:
            parts.append(f"{self.c}*i")
        if self._d:
            parts.append(f"{self.d}*s2*i")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"GaussianRational({self.text()})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
SQRT2 = GaussianRational(0, 0, 1)
INV_SQRT2 = GaussianRational(0, 0, Fraction(1, 2))
