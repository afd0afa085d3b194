"""Exact complex scalars over the field Q(i, sqrt(2)).

Every coefficient that enters the symbolic operator algebra is an element

    z = (a + b*sqrt(2)) + (c + d*sqrt(2))*i

with a, b, c, d exact rationals.  Plain Gaussian rationals are the b = d = 0
case; the sqrt(2) extension is what makes the ladder-operator normalisation
1/sqrt(2) representable without rounding.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """A complex number (a + b*sqrt2) + (c + d*sqrt2)*i with rational a,b,c,d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, c=0, b=0, d=0):
        # Positional order (re, im) first so GaussianRational(1, 2) reads 1 + 2i.
        self.a = _as_fraction(a)
        self.c = _as_fraction(c)
        self.b = _as_fraction(b)
        self.d = _as_fraction(d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into GaussianRational")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    @property
    def re(self) -> Fraction:
        """Rational part of the real component (exact when sqrt2 part vanishes)."""
        if self.b:
            raise ValueError("real part carries a sqrt(2) component; not a plain rational")
        return self.a

    @property
    def im(self) -> Fraction:
        if self.d:
            raise ValueError("imaginary part carries a sqrt(2) component; not a plain rational")
        return self.c

    def as_fraction(self) -> Fraction:
        if not self.is_real() or self.b:
            raise ValueError(f"{self} is not a plain rational")
        return self.a

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.a + o.a, self.c + o.c, self.b + o.b, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.a, -self.c, -self.b, -self.d)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        if not (self.b or self.d or o.b or o.d):
            # plain Gaussian rationals, the common case
            return GaussianRational(
                self.a * o.a - self.c * o.c, self.a * o.c + self.c * o.a
            )
        # (p1 + q1*s)(p2 + q2*s) with p, q complex rationals and s^2 = 2.
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        # real*real and imag*imag contributions
        ra = a1 * a2 + 2 * (b1 * b2) - c1 * c2 - 2 * (d1 * d2)
        rb = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        # cross terms give the imaginary component
        rc = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        rd = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        return GaussianRational(ra, rc, rb, rd)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if self.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        # z = p + q*s with p = a + ci, q = b + di.  Then
        # 1/z = (p - q*s) / (p**2 - 2 q**2), the denominator a Gaussian rational.
        a, b, c, d = self.a, self.b, self.c, self.d
        # p^2 - 2 q^2 = (a + ci)^2 - 2(b + di)^2
        ure = a * a - c * c - 2 * (b * b - d * d)
        uim = 2 * a * c - 4 * b * d
        norm = ure * ure + uim * uim
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (p - q*s) * conj(u) / |u|^2
        w = GaussianRational(a, c, -b, -d)
        uconj = GaussianRational(ure / norm, -uim / norm)
        return w * uconj

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.a, -self.c, self.b, -self.d)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering -----------------------------------------------------

    def text(self) -> str:
        """Canonical text form: `a/b+c/d*i`, with `*s2` marking sqrt(2) parts."""
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}*s2")
        if self.c:
            parts.append(f"{self.c}*i")
        if self.d:
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
