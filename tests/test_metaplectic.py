"""Unitary correspondence: U read off S, its rows and branch against the eigh
oracle, both verification routes, and the group law."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lct_oracles import conjugate, eigh_unitary, rows_matrix, unitary_matrix

from lctkit import metaplectic
from lctkit.fock import CutoffTooSmall, _dense, dispersion_matrices
from lctkit.metaplectic import (
    MAX_CUTOFF,
    MetaplecticUnitary,
    build_unitary,
    position_convention_unitary,
    quadrature_bands,
    rationalize_symplectic,
    verify_basis_transformation,
    verify_homomorphism,
)
from lctkit.symplectic import DimensionMismatch, ThetaAngles, exp_sl2, exp_sp, from_angles
from lctkit.weyl import EUCLIDEAN_1D

ANGLE_SAMPLES = [
    (0.0, 0.0, 0.4),
    (0.0, 0.5, 0.0),
    (0.3, -0.2, 0.25),
    (0.5, 0.5, -0.5),
    (0.2, 0.4, 0.1),
    (0.1, -0.5, 0.2),
]
# rotations past a half-turn of u, where the principal u^(-1/2) has the wrong sign
BRANCH_SAMPLES = [(7.0, 0.1, 0.2), (13.0, 1.0, 0.0), (-20.0, 3.0, 2.0), (2 * math.pi, 0.0, 0.0)]


def reduced_quadratures(cutoff):
    return tuple(_dense(q, cutoff) for q in quadrature_bands(cutoff))


def leading_rows(u):
    """The rows the checks judge, U[:cutoff/4, :columns]."""
    return u.check_rows


@functools.lru_cache(maxsize=None)
def oracle_rows(angles, m, cutoff=2048):
    """U[:m, :cutoff] from the eigh route truncated at `cutoff` levels."""
    return rows_matrix(eigh_unitary(ThetaAngles.one_dim(*angles), cutoff).leading_rows(m))


def test_zero_angles_give_identity():
    assert np.array_equal(unitary_matrix(eigh_unitary(ThetaAngles.one_dim(0, 0, 0), 32)), np.eye(32))
    u = build_unitary(ThetaAngles.one_dim(0, 0, 0), 32)
    assert (u.u, u.v, u.vacuum) == (1, 0, 1)
    assert np.array_equal(leading_rows(u), np.eye(8))


def test_plus_direction_is_diagonal_phase():
    t = 0.8
    cutoff = 32
    u = eigh_unitary(ThetaAngles.one_dim(t, 0, 0), cutoff)
    n = np.arange(cutoff - 1)
    want = np.exp(1j * t * (2 * n + 1) / 4)
    got = np.diag(unitary_matrix(u))[: cutoff - 1]
    assert np.max(np.abs(got - want)) < 1e-14
    off = unitary_matrix(u) - np.diag(np.diag(unitary_matrix(u)))
    assert np.max(np.abs(off)) == 0.0
    # the rows read off S: a rotation spreads no row
    rows = leading_rows(build_unitary(ThetaAngles.one_dim(t, 0, 0), 1024))
    assert rows.shape == (256, 256)
    n = np.arange(256)
    # each row's phase is chained from the row before: 255 links of rounding
    assert np.max(np.abs(np.diag(rows) - np.exp(1j * t * (2 * n + 1) / 4))) < 1e-13
    assert np.max(np.abs(rows - np.diag(np.diag(rows)))) == 0.0


@pytest.mark.parametrize("cutoff", [64, 128])
def test_unitarity(cutoff):
    for angles in ANGLE_SAMPLES:
        u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
        defect = np.max(np.abs(unitary_matrix(u).conj().T @ unitary_matrix(u) - np.eye(cutoff)))
        assert defect < 1e-12
        # the judged rows of the true U are orthonormal
        rows = leading_rows(build_unitary(ThetaAngles.one_dim(*angles), cutoff))
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(cutoff // 4))) < 1e-13


def test_reduced_quadratures_canonical_commutator():
    p_hat, x_hat = reduced_quadratures(24)
    comm = x_hat @ p_hat - p_hat @ x_hat
    assert np.max(np.abs(comm[:22, :22] - 1j * np.eye(22))) < 1e-14


def test_conjugation_by_identity():
    u = eigh_unitary(ThetaAngles.one_dim(0, 0, 0), 32)
    jp, _, _ = dispersion_matrices(1.0, 32)
    assert np.array_equal(conjugate(u, jp).matrix, jp.matrix)


def test_conjugation_preserves_hermiticity_and_spectrum():
    u = eigh_unitary(ThetaAngles.one_dim(0.3, 0.1, -0.2), 64)
    _, jm, _ = dispersion_matrices(1.0, 64)
    out = conjugate(u, jm)
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
    got = np.sort(np.linalg.eigvalsh(out.matrix))
    want = np.sort(np.linalg.eigvalsh(jm.matrix))
    assert np.max(np.abs(got - want)) < 1e-10


def test_plus_rotation_fixes_its_own_generator():
    u = eigh_unitary(ThetaAngles.one_dim(0.4, 0, 0), 64)
    jp, _, _ = dispersion_matrices(1.0, 64)
    out = conjugate(u, jp)
    assert np.max(np.abs((out.matrix - jp.matrix)[:32, :32])) < 1e-10


def test_conjugate_cutoff_mismatch():
    u = eigh_unitary(ThetaAngles.one_dim(0, 0, 0), 32)
    jp, _, _ = dispersion_matrices(1.0, 16)
    with pytest.raises(DimensionMismatch):
        conjugate(u, jp)


def test_homomorphism_zero_angles():
    report = verify_homomorphism(build_unitary(ThetaAngles.one_dim(0, 0, 0), 32), 1e-6)
    assert report["max_residual"] == 0.0
    assert report["passed"]


def test_homomorphism_first_order_direction():
    # theta_plus only: U p U+ = cos(t/2) p - sin(t/2) x
    t = 0.2
    report = verify_homomorphism(build_unitary(ThetaAngles.one_dim(t, 0, 0), 64), 1e-6)
    assert report["passed"]
    assert report["matrix"]["Pi"] == pytest.approx(np.cos(t / 2), abs=1e-12)
    assert report["matrix"]["Theta"] == pytest.approx(-np.sin(t / 2), abs=1e-12)
    p_hat, x_hat = reduced_quadratures(64)
    u = eigh_unitary(ThetaAngles.one_dim(t, 0, 0), 64)
    lhs = unitary_matrix(u) @ p_hat @ unitary_matrix(u).conj().T
    rhs = np.cos(t / 2) * p_hat - np.sin(t / 2) * x_hat
    assert np.max(np.abs((lhs - rhs)[:16, :16])) < 1e-6


@pytest.mark.parametrize("angles", ANGLE_SAMPLES)
def test_homomorphism_residual_is_at_rounding_at_every_cutoff(angles):
    # the judged rows are the true rows, so no cutoff leaves a truncation residual
    theta = ThetaAngles.one_dim(*angles)
    for cutoff in (32, 64, 1024):
        assert verify_homomorphism(build_unitary(theta, cutoff), 1e-6)["max_residual"] < 1e-12
    # and the first rows do not depend on how many are judged
    r32, r1024 = leading_rows(build_unitary(theta, 32)), leading_rows(build_unitary(theta, 1024))
    assert np.max(np.abs(r1024[:8, : r32.shape[1]] - r32)) < 1e-14
    assert np.max(np.abs(r1024[:8, r32.shape[1]:])) < np.finfo(float).eps


def test_cross_derivative_matches_bracket():
    # d(U p U+)/d theta_cross at zero angles equals -p/2
    h = 1e-5
    p_hat, _ = reduced_quadratures(64)
    up = eigh_unitary(ThetaAngles.one_dim(0, 0, h), 64)
    dn = eigh_unitary(ThetaAngles.one_dim(0, 0, -h), 64)
    deriv = (
        unitary_matrix(up) @ p_hat @ unitary_matrix(up).conj().T
        - unitary_matrix(dn) @ p_hat @ unitary_matrix(dn).conj().T
    ) / (2 * h)
    assert np.max(np.abs((deriv + 0.5 * p_hat)[:16, :16])) < 1e-5


def test_plus_and_minus_derivatives_match_brackets():
    # d(U p U+)/d theta_plus = -x/2 and /d theta_minus = +x/2 at zero
    h = 1e-5
    p_hat, x_hat = reduced_quadratures(64)
    for direction, want in (((h, 0, 0), -0.5), ((0, h, 0), +0.5)):
        up = eigh_unitary(ThetaAngles.one_dim(*direction), 64)
        dn = eigh_unitary(ThetaAngles.one_dim(*[-v for v in direction]), 64)
        deriv = (
            unitary_matrix(up) @ p_hat @ unitary_matrix(up).conj().T
            - unitary_matrix(dn) @ p_hat @ unitary_matrix(dn).conj().T
        ) / (2 * h)
        assert np.max(np.abs((deriv - want * x_hat)[:16, :16])) < 1e-5


def test_one_parameter_subgroups():
    for direction in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        a = tuple(0.3 * v for v in direction)
        b = tuple(0.45 * v for v in direction)
        ab = tuple(x + y for x, y in zip(a, b))
        ua = eigh_unitary(ThetaAngles.one_dim(*a), 64)
        ub = eigh_unitary(ThetaAngles.one_dim(*b), 64)
        uab = eigh_unitary(ThetaAngles.one_dim(*ab), 64)
        assert np.max(np.abs(unitary_matrix(ua) @ unitary_matrix(ub) - unitary_matrix(uab))) < 1e-10


def test_composition_of_conjugation_actions():
    # conjugating by U1 U2 realises the product of the classical matrices
    t1 = ThetaAngles.one_dim(0.3, 0.0, 0.0)
    t2 = ThetaAngles.one_dim(0.0, 0.0, 0.4)
    u1 = eigh_unitary(t1, 96)
    u2 = eigh_unitary(t2, 96)
    s1 = exp_sl2(from_angles(t1, EUCLIDEAN_1D)).full()
    s2 = exp_sl2(from_angles(t2, EUCLIDEAN_1D)).full()
    s12 = s1 @ s2
    p_hat, x_hat = reduced_quadratures(96)
    u12 = unitary_matrix(u1) @ unitary_matrix(u2)
    lhs = u12 @ p_hat @ u12.conj().T
    rhs = s12[0, 0] * p_hat + s12[1, 0] * x_hat
    assert np.max(np.abs((lhs - rhs)[:24, :24])) < 1e-8


def test_rationalized_matrix_is_exactly_unimodular():
    for angles in ANGLE_SAMPLES:
        s = exp_sl2(from_angles(ThetaAngles.one_dim(*angles), EUCLIDEAN_1D))
        m = rationalize_symplectic(s)
        assert m[0][0] * m[1][1] - m[1][0] * m[0][1] == 1
        assert abs(float(m[0][0]) - float(s.Pi[0, 0])) < 1e-5


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 3))
def test_rationalized_group_element_is_unimodular_and_close(angles):
    s = exp_sp(from_angles(ThetaAngles.one_dim(*angles), EUCLIDEAN_1D))
    m = rationalize_symplectic(s)
    assert all(type(v) is Fraction for row in m for v in row)
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    floats = ((s.Pi, s.Xi), (s.Theta, s.Lambda))
    for got_row, want_row in zip(m, floats):
        for got, want in zip(got_row, want_row):
            assert abs(float(got) - float(want[0, 0])) <= 1e-5, angles


def test_basis_transformation_identity():
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(0, 0, 0), 64), 1e-6)
    assert report["passed"]
    assert report["rows"]["+"]["engine_coefficients"] == (1.0, 0.0, 0.0)
    assert report["rows"]["-"]["engine_coefficients"] == (0.0, 1.0, 0.0)
    assert report["rows"]["x"]["engine_coefficients"] == (0.0, 0.0, 1.0)


def test_basis_transformation_rotation_invariance():
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(0.4, 0, 0), 64), 1e-6)
    assert report["passed"]
    plus = report["rows"]["+"]
    assert abs(plus["engine_coefficients"][0] - 1.0) < 1e-9
    assert abs(plus["engine_coefficients"][1]) < 1e-9
    assert abs(plus["engine_coefficients"][2]) < 1e-9
    assert plus["engine_residual"] < 1e-8


@pytest.mark.parametrize("angles", ANGLE_SAMPLES)
def test_basis_transformation_engine_rows_match_numerics(angles):
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(*angles), 64), 1e-6)
    assert report["passed"], report
    # the published third row is the one that survives the engine check
    assert report["rows"]["x"]["printed_row_holds"]


def test_basis_transformation_printed_first_rows_fail_off_identity():
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(0.4, 0, 0), 64), 1e-6)
    assert not report["rows"]["+"]["printed_row_holds"]
    assert not report["rows"]["-"]["printed_row_holds"]


@pytest.mark.parametrize("angles", ANGLE_SAMPLES + BRANCH_SAMPLES)
def test_leading_rows_match_the_eigh_oracle_at_cutoff_2048(angles):
    # 16 rows of U truncated at 2048 levels are the true rows to rounding;
    # the vacuum's branch sets the sign of every row
    u = build_unitary(ThetaAngles.one_dim(*angles), 64)
    rows, want = leading_rows(u), oracle_rows(angles, 16)
    assert u.vacuum == pytest.approx(want[0, 0], abs=1e-14)
    assert np.max(np.abs(rows - want[:, : rows.shape[1]])) <= 1e-14 * max(1.0, abs(angles[0]))
    assert np.max(np.abs(want[:, rows.shape[1]:])) < 1e-15


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-30.0, 30.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_vacuum_amplitude_continues_from_the_identity(tp, tm, tx):
    # u(s) of exp(i s H), followed in small steps from u(0) = 1, never meets 0;
    # u^(-1/2) continued along it is the closed-form branch
    root, prev = 1.0 + 0j, 1.0 + 0j
    for s in np.arange(1, 601) / 600:
        u = build_unitary(ThetaAngles.one_dim(s * tp, s * tm, s * tx), 16).u
        root *= (u / prev) ** -0.5  # neighbours differ by far less than a half-turn
        prev = u
    got = build_unitary(ThetaAngles.one_dim(tp, tm, tx), 16).vacuum
    assert abs(got - root) <= 1e-9 * abs(root)


def _matmul_rows(r1, r2):
    """r1 r2+ for rows that may end at different columns."""
    width = min(r1.shape[1], r2.shape[1])
    return r1[:, :width] @ r2[:, :width].conj().T


def _product_vacuum(u1: MetaplecticUnitary, u2: MetaplecticUnitary) -> complex:
    """<0|U1 U2|0> = <0|U1|0><0|U2|0> / sqrt(1 - conj(v1)/u1 * (-v2/u2)), principal root.

    The sum over the squeezed vacuum's levels is a binomial series in the
    product of the two Bargmann entries, whose modulus is below 1.
    """
    return u1.vacuum * u2.vacuum / np.sqrt(1 + np.conj(u1.v) / u1.u * u2.v / u2.u)


def _group(u: MetaplecticUnitary) -> np.ndarray:
    """S = ((Pi, Xi), (Theta, Lambda)) from u + v = Pi - i Xi and u - v = Lambda + i Theta."""
    return np.array([[u.u_plus_v.real, -u.u_plus_v.imag], [u.u_minus_v.imag, u.u_minus_v.real]])


def _from_group(s: np.ndarray, cutoff: int, vacuum: complex) -> MetaplecticUnitary:
    """The unitary of the group element s, on the branch that `vacuum` picks."""
    (pi, xi), (th, la) = s
    return MetaplecticUnitary(ThetaAngles.one_dim(0, 0, 0), cutoff, complex(pi, -xi),
                              complex(la, th), vacuum)


_ANGLES = st.tuples(st.floats(-12.0, 12.0), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ANGLES, _ANGLES)
def test_group_law_on_the_leading_block(a1, a2):
    # U(S1) U(S2) = +-U(S1 S2); the product's vacuum, from the two closed-form
    # branches, decides the sign
    u1, u2 = (build_unitary(ThetaAngles.one_dim(*a), 64) for a in (a1, a2))
    u2_inverse = build_unitary(ThetaAngles.one_dim(*(-x for x in a2)), 64)  # U2+ = U(-angles)
    product = _matmul_rows(u1.check_rows, u2_inverse.check_rows)
    vacuum = _product_vacuum(u1, u2)
    u12 = _from_group(_group(u1) @ _group(u2), 64, vacuum)
    assert abs(vacuum ** -2 - u12.u) <= 1e-12 * abs(u12.u)  # vacuum = +-u12^(-1/2)
    assert abs(product[0, 0] - vacuum) <= 1e-13
    assert np.max(np.abs(product - leading_rows(u12)[:, :16])) <= 1e-12


@pytest.mark.parametrize("a1,a2", [((0.3, -0.2, 0.25), (0.5, 0.5, -0.5)),
                                   ((7.0, 0.1, 0.2), (2 * math.pi, 0.0, 0.0))])
def test_group_law_against_the_eigh_oracle(a1, a2):
    u1 = build_unitary(ThetaAngles.one_dim(*a1), 64)
    u2_inverse = build_unitary(ThetaAngles.one_dim(*(-x for x in a2)), 64)
    product = _matmul_rows(u1.check_rows, u2_inverse.check_rows)
    # (U1 U2)[:16, :16] = U1[:16, :] (U2+[:16, :])+
    oracle = oracle_rows(a1, 16) @ oracle_rows(tuple(-x for x in a2), 16).conj().T
    assert np.max(np.abs(product - oracle)) <= 1e-13


def test_position_convention_swaps_the_pair_and_keeps_the_vacuum():
    u = build_unitary(ThetaAngles.one_dim(0.3, -0.2, 0.25), 64)
    bridged = position_convention_unitary(u)
    assert (bridged.u, bridged.v, bridged.vacuum) == (u.u, -u.v, u.vacuum)
    assert position_convention_unitary(bridged) == u
    # a rotation has v = 0, so the bridge leaves it as it is
    rotation = build_unitary(ThetaAngles.one_dim(0.7, 0, 0), 64)
    assert position_convention_unitary(rotation) == rotation


@pytest.mark.parametrize("angles", ANGLE_SAMPLES + [(0.0, -0.6, 0.0), (0.0, 0.0, 0.7), (-1.3, 0.0, 0.0)])
def test_position_convention_rows_are_the_dense_phase_conjugation(angles):
    # D U D+ with D = diag(i^n), from the oracle's rows
    bridged = leading_rows(position_convention_unitary(build_unitary(ThetaAngles.one_dim(*angles), 64)))
    want = oracle_rows(angles, 16, 512)
    want = (1j ** np.arange(16))[:, None] * want * (1j ** -np.arange(512))[None, :]
    assert np.max(np.abs(bridged - want[:, : bridged.shape[1]])) <= 1e-13


def _unreachable(*args, **kwargs):
    raise AssertionError("build_unitary reached the rows for a refused input")


def test_guards(monkeypatch):
    monkeypatch.setattr(metaplectic, "_twisted_rows", _unreachable)
    with pytest.raises(CutoffTooSmall):
        build_unitary(ThetaAngles.one_dim(0, 0, 0), 8)
    with pytest.raises(ValueError, match=f"cutoff must be <= {MAX_CUTOFF}"):
        build_unitary(ThetaAngles.one_dim(0, 0, 0), MAX_CUTOFF + 1)
    with pytest.raises(DimensionMismatch):
        build_unitary(ThetaAngles(2, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))), 32)
    with pytest.raises(CutoffTooSmall):
        verify_homomorphism(build_unitary(ThetaAngles.one_dim(0, 0, 0), 16), 1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("angles", [(1.7e308, 0.0, 0.0), (0.0, 1.7e308, 0.0), (0.0, 0.0, -1.7e308)])
@pytest.mark.parametrize("cutoff", [16, 2048])
def test_an_angle_with_no_finite_group_element_is_refused_by_name(angles, cutoff):
    with pytest.raises(ValueError) as refused:
        build_unitary(ThetaAngles.one_dim(*angles), cutoff)
    assert str(refused.value).startswith(f"angles {angles!r} have no finite group element: ")


@pytest.mark.parametrize("angles,cutoff,rows", [((0.0, 0.0, 40.0), 64, 16), ((0.0, 3.0, 0.0), 1024, 256),
                                                ((2.0, -2.0, 2.0), 2048, 512)])
def test_rows_past_the_column_limit_are_refused_by_name_before_any_is_built(
    monkeypatch, angles, cutoff, rows
):
    u = build_unitary(ThetaAngles.one_dim(*angles), cutoff)  # the pair and vacuum build
    monkeypatch.setattr(metaplectic, "_twisted_rows", _unreachable)
    with pytest.raises(ValueError) as refused:
        u.check_rows
    assert str(refused.value) == (f"angles {angles!r} spread the leading {rows} rows of the "
                                  f"unitary past {MAX_CUTOFF} columns")


def test_a_large_rotation_builds_and_passes_both_checks():
    # a rotation spreads no row, whatever its angle; exp_sp holds it to ~1e-10
    u = build_unitary(ThetaAngles.one_dim(1e6, 0.0, 0.0), 64)
    assert verify_homomorphism(u, 1e-6)["passed"]
    assert verify_basis_transformation(u, 1e-6)["passed"]


@pytest.mark.parametrize("cutoff", [32, 64, 1024])
def test_both_checks_pass_at_every_corner_of_the_half_box(cutoff):
    for angles in itertools.product((-0.5, 0.5), repeat=3):
        u = build_unitary(ThetaAngles.one_dim(*angles), cutoff)
        assert verify_homomorphism(u, 1e-6)["max_residual"] < 1e-12, angles
        assert verify_basis_transformation(u, 1e-6)["passed"], angles


def test_both_checks_pass_at_every_benchmark_warm_up_draw():
    # perfbench/workloads draws its warm-up angles as rng.uniform(-0.5, 0.5, 3)
    # and runs both checks at cutoff 32, tol 1e-6; a unitary truncated at 32
    # levels fails 29 of these 1000 draws (basis-law residual up to 7.6e-6)
    worst = [0.0, 0.0]
    for seed in range(1, 1001):
        angles = np.random.default_rng(seed).uniform(-0.5, 0.5, 3)
        u = build_unitary(ThetaAngles.one_dim(*angles), 32)
        hom, law = verify_homomorphism(u, 1e-6), verify_basis_transformation(u, 1e-6)
        assert hom["passed"] and law["passed"], seed
        worst = [max(worst[0], hom["max_residual"]), max(worst[1], law["max_residual"])]
    # the basis law's floor is the rationalisation of S to denominators <= 1e6
    assert worst[0] < 1e-13 and worst[1] < 1e-7
