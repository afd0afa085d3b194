"""Field arithmetic of the exact scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lctkit.scalars import GaussianRational, I, INV_SQRT2, ONE, SQRT2, ZERO


def test_construction_and_parts():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-3, 4)
    assert not z.is_zero()
    assert ZERO.is_zero()


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == GaussianRational(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert INV_SQRT2 * INV_SQRT2 == GaussianRational(Fraction(1, 2))


def test_i_squares_to_minus_one():
    assert I * I == GaussianRational(-1)
    assert (I * SQRT2) * (I * SQRT2) == GaussianRational(-2)


def test_field_inverse_random():
    # (a + b s2 + (c + d s2) i) * inverse == 1 for a spread of elements
    samples = [
        GaussianRational(1, 2, 3, 4),
        GaussianRational(Fraction(-2, 3), Fraction(1, 7)),
        GaussianRational(0, 0, 1, 0),
        GaussianRational(0, 1, 0, 0),
        GaussianRational(Fraction(5, 2), Fraction(-1, 3), Fraction(2, 9), Fraction(4, 5)),
    ]
    for z in samples:
        assert z * z.inverse() == ONE
        assert (ONE / z) * z == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation_is_involutive_and_multiplicative():
    z = GaussianRational(1, 2, 3, 4)
    w = GaussianRational(Fraction(-1, 2), Fraction(1, 3), 1, 0)
    assert z.conjugate().conjugate() == z
    assert (z * w).conjugate() == z.conjugate() * w.conjugate()
    assert SQRT2.conjugate() == SQRT2


def test_power():
    assert I ** 4 == ONE
    assert SQRT2 ** 2 == GaussianRational(2)
    assert (SQRT2 ** -1) == INV_SQRT2


def test_text_form():
    assert GaussianRational(Fraction(1, 2), Fraction(3, 4)).text() == "1/2+3/4*i"
    assert GaussianRational(0, -1).text() == "-1*i"
    assert ZERO.text() == "0"
    assert INV_SQRT2.text() == "1/2*s2"


# -- differential check against the four-Fraction representation ---------------


class _FractionGaussianRational:
    """The earlier representation: four normalised Fractions, kept as the reference."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, c=0, b=0, d=0):
        self.a, self.c, self.b, self.d = Fraction(a), Fraction(c), Fraction(b), Fraction(d)

    @staticmethod
    def coerce(value):
        if isinstance(value, _FractionGaussianRational):
            return value
        return _FractionGaussianRational(value)

    def is_zero(self):
        return not (self.a or self.b or self.c or self.d)

    def __add__(self, other):
        o = self.coerce(other)
        return _FractionGaussianRational(self.a + o.a, self.c + o.c, self.b + o.b, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return _FractionGaussianRational(-self.a, -self.c, -self.b, -self.d)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __mul__(self, other):
        o = self.coerce(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        ra = a1 * a2 + 2 * (b1 * b2) - c1 * c2 - 2 * (d1 * d2)
        rb = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        rc = a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)
        rd = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        return _FractionGaussianRational(ra, rc, rb, rd)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, c, d = self.a, self.b, self.c, self.d
        ure = a * a - c * c - 2 * (b * b - d * d)
        uim = 2 * a * c - 4 * b * d
        norm = ure * ure + uim * uim
        w = _FractionGaussianRational(a, c, -b, -d)
        return w * _FractionGaussianRational(ure / norm, -uim / norm)

    def __truediv__(self, other):
        return self * self.coerce(other).inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _FractionGaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return _FractionGaussianRational(self.a, -self.c, self.b, -self.d)

    def text(self):
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


_rational = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=24))
# constructor order (a, c, b, d): re, im, sqrt2*re, sqrt2*im
_parts = st.one_of(
    st.tuples(_rational, _rational),
    st.tuples(_rational, _rational, _rational, _rational),
    st.tuples(st.just(0), st.just(0), _rational, _rational),
)


def _pair(parts):
    return GaussianRational(*parts), _FractionGaussianRational(*parts)


def _assert_same(new, ref):
    assert (new.a, new.b, new.c, new.d) == (ref.a, ref.b, ref.c, ref.d)
    assert all(type(v) is Fraction for v in (new.a, new.b, new.c, new.d))
    assert new.text() == ref.text()


@settings(max_examples=300, deadline=None)
@given(_parts, _parts, st.integers(-3, 4), st.integers(-5, 5))
def test_arithmetic_matches_fraction_reference(px, py, n, k):
    (x, rx), (y, ry) = _pair(px), _pair(py)
    _assert_same(x, rx)
    _assert_same(x + y, rx + ry)
    _assert_same(x - y, rx - ry)
    _assert_same(x * y, rx * ry)
    _assert_same(-x, -rx)
    _assert_same(x.conjugate(), rx.conjugate())
    _assert_same(x + k, rx + k)
    _assert_same(k * x, k * rx)
    if not y.is_zero():
        _assert_same(x / y, rx / ry)
        _assert_same(y.inverse(), ry.inverse())
    if not x.is_zero() or n >= 0:
        _assert_same(x ** n, rx ** n)


@settings(max_examples=200, deadline=None)
@given(_parts, _parts)
def test_equal_values_hash_equal_and_cancellation_is_zero(px, py):
    x, y = GaussianRational(*px), GaussianRational(*py)
    for left, right in ((x * y, y * x), ((x + y) - y, x), (x + y + x, x * 2 + y)):
        assert left == right
        assert hash(left) == hash(right)
    for zero in (x - x, x + (-x), (x * y) - (y * x)):
        assert zero == ZERO
        assert hash(zero) == hash(ZERO)
        assert zero.text() == "0"
    if not x.is_zero():
        one = x * x.inverse()
        assert one == ONE and hash(one) == hash(ONE)


def test_equal_fractions_give_one_representation():
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    assert hash(GaussianRational(Fraction(2, 4))) == hash(GaussianRational(Fraction(1, 2)))
    assert GaussianRational(Fraction(6, 4), 0, Fraction(3, 9)) == GaussianRational(
        Fraction(3, 2), 0, Fraction(1, 3)
    )
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(3) == 3


def test_arithmetic_with_an_uncoercible_operand_is_a_type_error():
    z = GaussianRational(1, 2)
    for other in ("x", 0.5, None, [1]):
        for op in (z.__add__, z.__radd__, z.__sub__, z.__rsub__, z.__mul__, z.__rmul__):
            assert op(other) is NotImplemented
    for expr in (lambda: z * "x", lambda: "x" * z, lambda: z + 0.5, lambda: 0.5 - z, lambda: z - None):
        with pytest.raises(TypeError):
            expr()


def test_non_rational_parts_are_refused():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)
