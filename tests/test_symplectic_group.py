"""Group-side checks: parametrisation, exponentials, group operations."""

import numpy as np
import pytest

from lctkit.symplectic import (
    COMPOSITION_TOL,
    EXPONENTIAL_TOL,
    AlgebraMatrix,
    ConstraintViolation,
    DimensionMismatch,
    SymplecticMatrix,
    ThetaAngles,
    compose,
    exp_sl2,
    exp_sp,
    from_angles,
    invert,
    is_symplectic,
    j_eta,
)
from lctkit.weyl import EUCLIDEAN_1D, Metric

M1D = EUCLIDEAN_1D


def _random_angles(metric, rng, scale=1.0):
    n = metric.dim
    tp = rng.uniform(-scale, scale, (n, n))
    tm = rng.uniform(-scale, scale, (n, n))
    return ThetaAngles(n, (tp + tp.T) / 2, (tm + tm.T) / 2, rng.uniform(-scale, scale, (n, n)))


def test_from_angles_zero():
    m = from_angles(ThetaAngles.one_dim(0, 0, 0), M1D)
    assert np.all(m.full() == 0)


def test_from_angles_cross_direction():
    t = 0.37
    m = from_angles(ThetaAngles.one_dim(0, 0, 2 * t), M1D)
    assert np.allclose(m.full(), np.diag([-t, t]), atol=0)


def test_from_angles_is_linear():
    rng = np.random.default_rng(0)
    a = _random_angles(Metric(2, 0), rng)
    b = _random_angles(Metric(2, 0), rng)
    summed = ThetaAngles(
        2, a.theta_plus + b.theta_plus, a.theta_minus + b.theta_minus,
        a.theta_cross + b.theta_cross,
    )
    lhs = from_angles(summed, Metric(2, 0)).full()
    rhs = from_angles(a, Metric(2, 0)).full() + from_angles(b, Metric(2, 0)).full()
    assert np.array_equal(lhs, rhs)


def test_from_angles_satisfies_block_constraints():
    rng = np.random.default_rng(7)
    for sig in [(2, 0), (1, 1), (3, 0), (1, 2)]:
        metric = Metric(*sig)
        m = from_angles(_random_angles(metric, rng), metric)
        eta = np.diag(np.array(metric.diag(), dtype=float))
        assert np.max(np.abs(m.M2.T - eta @ m.M2 @ eta)) < 1e-15
        assert np.max(np.abs(m.M3.T - eta @ m.M3 @ eta)) < 1e-15
        assert np.max(np.abs(m.M4 + eta @ m.M1.T @ eta)) < 1e-15


def test_algebra_matrix_rejects_bad_blocks():
    with pytest.raises(ConstraintViolation):
        AlgebraMatrix(Metric(1, 0), [[1.0]], [[0.0]], [[0.0]], [[1.0]])


def test_theta_angles_validation():
    with pytest.raises(ValueError):
        ThetaAngles(2, [[0, 1], [0, 0]], np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        from_angles(ThetaAngles.one_dim(1, 0, 0), Metric(2, 0))


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_theta_angles_refuse_non_finite_before_symmetry(position, value):
    angles = [0.1, 0.2, 0.3]
    angles[position] = value
    name = ("theta_plus", "theta_minus", "theta_cross")[position]
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        ThetaAngles.one_dim(*angles)


def test_exp_sl2_zero():
    s = exp_sl2(from_angles(ThetaAngles.one_dim(0, 0, 0), M1D))
    assert np.array_equal(s.full(), np.eye(2))


def test_exp_sl2_rotation():
    alpha = 0.9
    s = exp_sl2(from_angles(ThetaAngles.one_dim(2 * alpha, 0, 0), M1D))
    want = np.array([[np.cos(alpha), np.sin(alpha)], [-np.sin(alpha), np.cos(alpha)]])
    assert np.max(np.abs(s.full() - want)) < 1e-15


def test_exp_sl2_squeeze():
    t = 0.45
    s = exp_sl2(from_angles(ThetaAngles.one_dim(0, 0, 2 * t), M1D))
    assert np.max(np.abs(s.full() - np.diag([np.exp(-t), np.exp(t)]))) < 1e-15


def test_exp_sl2_nilpotent_shear():
    s = exp_sl2(from_angles(ThetaAngles.one_dim(0.4, 0.4, 0), M1D))
    assert np.array_equal(s.full(), np.array([[1.0, 0.4], [0.0, 1.0]]))


@pytest.mark.parametrize("seed", range(5))
def test_exp_sl2_determinant_and_sp_agreement(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        angles = ThetaAngles.one_dim(*rng.uniform(-4, 4, 3))
        m = from_angles(angles, M1D)
        s = exp_sl2(m)
        assert abs(np.linalg.det(s.full()) - 1.0) < 1e-12
    for _ in range(40):
        angles = ThetaAngles.one_dim(*rng.uniform(-2, 2, 3))
        m = from_angles(angles, M1D)
        assert np.max(np.abs(exp_sl2(m).full() - exp_sp(m).full())) < 1e-12


def test_exp_sp_zero():
    m = from_angles(ThetaAngles(2, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))), Metric(2, 0))
    assert np.array_equal(exp_sp(m).full(), np.eye(4))


@pytest.mark.parametrize("signature", [(2, 0), (1, 1), (3, 0), (1, 2)])
def test_exp_sp_symplectic_defect(signature):
    metric = Metric(*signature)
    rng = np.random.default_rng(hash(signature) % 2 ** 31)
    for _ in range(25):
        angles = _random_angles(metric, rng, scale=0.3)
        s = exp_sp(from_angles(angles, metric))
        assert s.symplectic_defect() < 1e-10


def test_is_symplectic_examples():
    eye = SymplecticMatrix.from_full(M1D, np.eye(2))
    assert is_symplectic(eye, 1e-12)
    shear = SymplecticMatrix.from_full(M1D, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert is_symplectic(shear, 1e-12)
    scale = SymplecticMatrix.from_full(M1D, np.diag([2.0, 2.0]))
    assert not is_symplectic(scale, 1e-10)


def test_compose_and_invert():
    rng = np.random.default_rng(10)
    metric = Metric(2, 0)
    for _ in range(10):
        s = exp_sp(from_angles(_random_angles(metric, rng, scale=0.4), metric))
        sinv = invert(s)
        assert np.max(np.abs(compose(s, sinv).full() - np.eye(4))) < 1e-10
        t = exp_sp(from_angles(_random_angles(metric, rng, scale=0.4), metric))
        assert is_symplectic(compose(s, t), 1e-9)


def test_rotations_compose_additively():
    a, b = 0.3, 0.5
    sa = exp_sl2(from_angles(ThetaAngles.one_dim(2 * a, 0, 0), M1D))
    sb = exp_sl2(from_angles(ThetaAngles.one_dim(2 * b, 0, 0), M1D))
    sab = exp_sl2(from_angles(ThetaAngles.one_dim(2 * (a + b), 0, 0), M1D))
    assert np.max(np.abs(compose(sa, sb).full() - sab.full())) < 1e-12


def test_inverse_uses_invariant_form():
    # J_eta^-1 S^t J_eta inverts even with an indefinite metric
    metric = Metric(1, 1)
    rng = np.random.default_rng(3)
    s = exp_sp(from_angles(_random_angles(metric, rng, scale=0.5), metric))
    left = invert(s).full() @ s.full()
    assert np.max(np.abs(left - np.eye(4))) < 1e-10
    j = j_eta(metric)
    assert np.array_equal(j @ j, -np.eye(4))


# -- first-order and parameter-count oracles -----------------------------------


def infinitesimal_check(angles: ThetaAngles, metric: Metric, h: float) -> dict:
    """Richardson check that exp(h M) - (1 + h M) shrinks like h^2.

    Evaluates the deviation at h and h/2; the ratio should sit near 4.  Zero
    angles are reported as exact.
    """
    if not 0 < h <= 1e-3:
        raise ValueError("step must satisfy 0 < h <= 1e-3")
    m = from_angles(angles, metric)
    full = m.full()
    eye = np.eye(full.shape[0])

    def deviation(step: float) -> float:
        scaled = AlgebraMatrix(metric, step * m.M1, step * m.M2, step * m.M3, step * m.M4)
        return float(np.max(np.abs(exp_sp(scaled).full() - (eye + step * full))))

    dev_h = deviation(h)
    dev_half = deviation(h / 2.0)
    exact = dev_h == 0.0 and dev_half == 0.0
    ratio = None if exact else dev_h / dev_half if dev_half else float("inf")
    return {
        "h": h,
        "deviation_h": dev_h,
        "deviation_half": dev_half,
        "ratio": ratio,
        "exact": exact,
        "second_order": exact or (ratio is not None and 3.5 <= ratio <= 4.5),
    }


def angle_basis_rank(metric: Metric) -> int:
    """Numerical rank of the linear map angles -> algebra matrices.

    The image should have dimension N(2N+1): N(N+1)/2 from each symmetric
    family plus N^2 from the cross family.
    """
    n = metric.dim
    images = []

    def push(tp, tm, tx):
        angles = ThetaAngles(n, tp, tm, tx)
        images.append(from_angles(angles, metric).full().ravel())

    zero = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            push(e, zero, zero)
            push(zero, e, zero)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            push(zero, zero, e)
    return int(np.linalg.matrix_rank(np.array(images), tol=1e-10))


def test_infinitesimal_check_ratio():
    report = infinitesimal_check(ThetaAngles.one_dim(0.8, -0.6, 0.5), M1D, 1e-3)
    assert report["second_order"]
    assert 3.5 <= report["ratio"] <= 4.5


def test_infinitesimal_check_zero_angles_exact():
    report = infinitesimal_check(ThetaAngles.one_dim(0, 0, 0), M1D, 1e-3)
    assert report["exact"] and report["second_order"]


def test_infinitesimal_shear_has_zero_lower_left():
    # equal plus/minus angles cancel the lower-left first-order block exactly
    m = from_angles(ThetaAngles.one_dim(0.7, 0.7, 0.0), M1D)
    assert m.M2[0, 0] == 0.0
    report = infinitesimal_check(ThetaAngles.one_dim(0.7, 0.7, 0.0), M1D, 1e-3)
    assert report["second_order"]


def test_infinitesimal_check_multidim():
    rng = np.random.default_rng(8)
    metric = Metric(1, 1)
    report = infinitesimal_check(_random_angles(metric, rng), metric, 5e-4)
    assert report["second_order"]


@pytest.mark.parametrize("signature,expected", [((1, 0), 3), ((2, 0), 10), ((1, 1), 10),
                                                ((3, 0), 21), ((1, 2), 21)])
def test_angle_parameter_count(signature, expected):
    assert angle_basis_rank(Metric(*signature)) == expected


# -- relative symplectic gate -------------------------------------------------

_COSH, _SINH = np.cosh(20.0), np.sinh(20.0)


def _squeeze_e20(lam=_COSH):
    # ((cosh, sinh), (sinh, lam)) is exactly symplectic for lam = cosh(20)
    return SymplecticMatrix(M1D, [[_COSH]], [[_SINH]], [[_SINH]], [[lam]])


def _identity_1d():
    return SymplecticMatrix(M1D, [[1.0]], [[0.0]], [[0.0]], [[1.0]])


@pytest.mark.parametrize("op", [lambda s: compose(s, _identity_1d()), invert],
                         ids=["compose", "invert"])
def test_gate_accepts_roundoff_at_e20_scale(op):
    s = _squeeze_e20()
    # roundoff in S^T J S is absolute ~e^40 * 1e-16; relative to max|S|^2 it is tiny
    assert s.symplectic_defect() > COMPOSITION_TOL
    assert np.all(np.isfinite(op(s).full()))


@pytest.mark.parametrize("op", [lambda s: compose(s, _identity_1d()), invert],
                         ids=["compose", "invert"])
@pytest.mark.parametrize(
    "planted",
    [lambda: SymplecticMatrix(M1D, [[2.0]], [[0.0]], [[0.0]], [[2.0]]),
     lambda: _squeeze_e20(_COSH * (1 + 1e-6))],
    ids=["diag-2-2", "e20-perturbed-1e-6"],
)
def test_gate_refuses_planted_defects_at_both_scales(op, planted):
    with pytest.raises(ConstraintViolation, match="relative symplectic defect"):
        op(planted())


def test_exp_sl2_large_squeeze_passes_relative_gate():
    # entries ~4e10: the absolute defect, which the old gate judged, is far above tol
    s = exp_sl2(from_angles(ThetaAngles.one_dim(10.0, 30.0, 40.0), M1D))
    assert s.symplectic_defect() > EXPONENTIAL_TOL


def test_exp_sl2_keeps_the_small_singular_value_of_a_large_squeeze():
    # exp(diag(-20, 20)); cosh(r) + sinhc(r) M would lose Pi to cancellation
    s = exp_sl2(from_angles(ThetaAngles.one_dim(0.0, 0.0, 40.0), M1D))
    assert abs(s.Pi[0, 0] / np.exp(-20.0) - 1.0) < 1e-12
    assert abs(np.linalg.det(s.full()) - 1.0) < 1e-12


def test_overflowed_exponential_is_refused():
    with pytest.raises(ConstraintViolation):
        with np.errstate(over="ignore", invalid="ignore"):
            exp_sl2(from_angles(ThetaAngles.one_dim(0.0, 0.0, 2000.0), M1D))
