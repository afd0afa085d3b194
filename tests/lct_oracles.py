"""Oracles and dense views that the tests judge lctkit against.

None of them is part of the library: no command forms the dense U or the
dense U A U+, and the printed-against-engine comparison of the 1D
transformation law is read only by tests.
"""

from fractions import Fraction

import numpy as np

from lctkit.fock import TruncatedOperator
from lctkit.symplectic import DimensionMismatch
from lctkit.weyl import engine_transform_rows, printed_transform_rows


def symmetric_form(label, n):
    """S with Q = z^T S z for the quarter-normalised generator `label`.

    z = (x_0..x_{N-1}, p_0..p_{N-1}).  S is the Weyl-symmetric form, so a
    generator and its image under a linear substitution carry no ordering
    constant.
    """
    kind, mu, nu = label
    s = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]

    def add(a, b, v):
        # symmetric split of v * z_a z_b (ordering constants drop out of brackets)
        s[a][b] += v / 2
        s[b][a] += v / 2

    quarter = Fraction(1, 4)
    if kind in "+-":
        add(n + mu, n + nu, quarter)
        add(mu, nu, quarter if kind == "+" else -quarter)
    else:
        add(n + mu, nu, 2 * quarter)  # (p_mu x_nu + x_nu p_mu)/4
    return s


def hermite_polynomial(n: int, t):
    """Physicists' Hermite polynomial H_n(t) by the three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    t = np.asarray(t, dtype=float)
    h_prev = np.ones_like(t)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * t
    for k in range(1, n):
        h, h_prev = 2.0 * t * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def unitary_matrix(u) -> np.ndarray:
    """The dense cutoff x cutoff U of a built `UnitaryLCT`, from its parity factors."""
    out = np.zeros((u.cutoff, u.cutoff), dtype=complex)
    for parity, block in enumerate(u.leading_rows(u.cutoff)):
        out[parity::2, parity::2] = block
    return out


def conjugate(u, op: TruncatedOperator) -> TruncatedOperator:
    """U A U^dagger at matching cutoff, through the dense U."""
    if op.cutoff != u.cutoff:
        raise DimensionMismatch(f"operator cutoff {op.cutoff} does not match unitary cutoff {u.cutoff}")
    dense = unitary_matrix(u)
    return TruncatedOperator(u.cutoff, dense @ op.matrix @ dense.conj().T, f"conj({op.label})")


def verify_transform_law(S) -> dict:
    """Printed against engine-derived rows of the 1D transformation law."""
    engine = engine_transform_rows(S)
    printed = printed_transform_rows([[Fraction(v) for v in row] for row in S])
    return {kind: {"printed": printed[kind], "engine": engine[kind],
                   "holds": printed[kind] == engine[kind]} for kind in ("+", "-", "x")}
