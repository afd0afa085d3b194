"""Classical side of the correspondence: sl(2,R) / pseudo-symplectic matrices.

Conventions: operators transform as the row vector (p' x') = (p x) S with
block layout S = ((Pi, Xi), (Theta, Lambda)); compositions therefore act
right-to-left through matrix products in that order.  The invariant form is
J_eta = ((0, eta), (-eta, 0)) for a diagonal metric eta, and the Lie-algebra
side obeys M2^t = eta M2 eta, M3^t = eta M3 eta, M4 = -eta M1^t eta.

Angle parametrisation (2N x 2N, half factors throughout):

    N = 1 :  M = 1/2 ((-tx, tp + tm), (tm - tp, tx))
    N > 1 :  M = 1/2 ((eta tx^t, -eta (tp + tm)), (eta (tp - tm), -eta tx))

The N = 1 and N > 1 formulas differ by an overall sign because the two
commutator conventions of the algebra differ there; each is verified against
its own convention's tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weyl import Metric, EUCLIDEAN_1D

CONSTRUCTION_TOL = 1e-12  # block constraints, checked when objects are built
# relative symplectic defect, max|S^T J S - J| / max(1, max|S_ij|)^2, allowed
EXPONENTIAL_TOL = 1e-10  # after an exponential

_SERIES_ORDER = 12
_SCALE_THRESHOLD = 0.5


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions or metrics."""


class ConstraintViolation(ValueError):
    """Algebra-matrix block constraints are violated beyond tolerance."""


def _as_angle_matrix(value, n: int, name: str, symmetric: bool) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if m.shape != (n, n):
        raise DimensionMismatch(f"{name} must be {n}x{n}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if symmetric and not np.array_equal(m, m.T):
        raise ValueError(f"{name} must be exactly symmetric as stored")
    return m


@dataclass(frozen=True)
class ThetaAngles:
    """Real angle parameters; matrices for N > 1, plain numbers for N = 1."""

    dim: int
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    theta_cross: np.ndarray

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise DimensionMismatch("dimension must be >= 1")
        tp = _as_angle_matrix(self.theta_plus, n, "theta_plus", symmetric=True)
        tm = _as_angle_matrix(self.theta_minus, n, "theta_minus", symmetric=True)
        tx = _as_angle_matrix(self.theta_cross, n, "theta_cross", symmetric=False)
        object.__setattr__(self, "theta_plus", tp)
        object.__setattr__(self, "theta_minus", tm)
        object.__setattr__(self, "theta_cross", tx)

    @classmethod
    def one_dim(cls, theta_plus: float, theta_minus: float, theta_cross: float):
        return cls(1, [[theta_plus]], [[theta_minus]], [[theta_cross]])

    def triple(self):
        if self.dim != 1:
            raise DimensionMismatch("scalar angles only exist for N = 1")
        return (
            float(self.theta_plus[0, 0]),
            float(self.theta_minus[0, 0]),
            float(self.theta_cross[0, 0]),
        )


def _eta_matrix(metric: Metric) -> np.ndarray:
    return np.diag(np.array(metric.diag(), dtype=float))


def j_eta(metric: Metric) -> np.ndarray:
    eta = _eta_matrix(metric)
    zero = np.zeros_like(eta)
    return np.block([[zero, eta], [-eta, zero]])


@dataclass(frozen=True)
class AlgebraMatrix:
    """Element of the (pseudo-)symplectic Lie algebra, stored by blocks."""

    metric: Metric
    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    M4: np.ndarray

    def __post_init__(self):
        n = self.metric.dim
        blocks = {}
        for name in ("M1", "M2", "M3", "M4"):
            b = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if b.shape != (n, n):
                raise DimensionMismatch(f"{name} must be {n}x{n}")
            blocks[name] = b
            object.__setattr__(self, name, b)
        eta = _eta_matrix(self.metric)
        checks = (
            np.max(np.abs(blocks["M2"].T - eta @ blocks["M2"] @ eta)),
            np.max(np.abs(blocks["M3"].T - eta @ blocks["M3"] @ eta)),
            np.max(np.abs(blocks["M4"] + eta @ blocks["M1"].T @ eta)),
        )
        if max(checks) > CONSTRUCTION_TOL:
            raise ConstraintViolation(
                f"algebra block constraints violated by {max(checks):.3e}"
            )

    @property
    def dim(self) -> int:
        return self.metric.dim

    def full(self) -> np.ndarray:
        return np.block([[self.M1, self.M3], [self.M2, self.M4]])


@dataclass(frozen=True)
class SymplecticMatrix:
    """Group element in the row convention, stored by blocks."""

    metric: Metric
    Pi: np.ndarray
    Xi: np.ndarray
    Theta: np.ndarray
    Lambda: np.ndarray

    def __post_init__(self):
        n = self.metric.dim
        for name in ("Pi", "Xi", "Theta", "Lambda"):
            b = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if b.shape != (n, n):
                raise DimensionMismatch(f"{name} must be {n}x{n}")
            object.__setattr__(self, name, b)

    @property
    def dim(self) -> int:
        return self.metric.dim

    def full(self) -> np.ndarray:
        return np.block([[self.Pi, self.Xi], [self.Theta, self.Lambda]])

    @classmethod
    def from_full(cls, metric: Metric, m: np.ndarray) -> "SymplecticMatrix":
        n = metric.dim
        return cls(metric, m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])

    def symplectic_defect(self) -> float:
        s = self.full()
        j = j_eta(self.metric)
        return float(np.max(np.abs(s.T @ j @ s - j)))


def from_angles(angles: ThetaAngles, metric: Metric) -> AlgebraMatrix:
    """Algebra element generated by the angles (linear in the angles)."""
    n = metric.dim
    if angles.dim != n:
        raise DimensionMismatch(f"angles have dim {angles.dim}, metric has {n}")
    tp, tm, tx = angles.theta_plus, angles.theta_minus, angles.theta_cross
    if n == 1:
        m1 = -0.5 * tx
        m2 = 0.5 * (tm - tp)
        m3 = 0.5 * (tm + tp)
        m4 = 0.5 * tx
    else:
        eta = _eta_matrix(metric)
        m1 = 0.5 * eta @ tx.T
        m2 = 0.5 * eta @ (tp - tm)
        m3 = -0.5 * eta @ (tp + tm)
        m4 = -0.5 * eta @ tx
    return AlgebraMatrix(metric, m1, m2, m3, m4)


def exp_sp(m: AlgebraMatrix) -> SymplecticMatrix:
    """Scaling-and-squaring exponential with an order-12 series kernel."""
    full = m.full()
    norm = float(np.max(np.abs(full))) * full.shape[0]
    squarings = 0
    while norm > _SCALE_THRESHOLD and squarings < 64:
        norm /= 2.0
        squarings += 1
    scaled = full / (2.0 ** squarings)
    out = np.eye(full.shape[0])
    term = np.eye(full.shape[0])
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    s = SymplecticMatrix.from_full(m.metric, out)
    _require_symplectic(s, EXPONENTIAL_TOL, "exp_sp output")
    return s


def exp_sl2(m: AlgebraMatrix) -> SymplecticMatrix:
    """Exponential of a 2x2 algebra element (the N = 1 case of exp_sp)."""
    if m.dim != 1:
        raise DimensionMismatch("exp_sl2 is the N = 1 path")
    return exp_sp(m)


def _require_symplectic(s: SymplecticMatrix, tol: float, what: str):
    # S^T J S scales like max|S_ij|^2, so roundoff in it does too; a nan defect
    # (overflowed entries) is refused as well.  scale ** 2 raises past 1.3e154
    scale = max(1.0, float(np.max(np.abs(s.full()))))
    defect = s.symplectic_defect() / scale / scale
    if not defect < tol:
        raise ConstraintViolation(f"{what} has relative symplectic defect {defect:.3e} >= {tol}")
