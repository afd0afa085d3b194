"""Unitary correspondence: construction, conjugation, both verification routes."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lct_oracles import conjugate, unitary_matrix

from lctkit.fock import CutoffTooSmall, _dense, dispersion_matrices
from lctkit.metaplectic import (
    NonPositiveDispersion,
    UnitaryLCT,
    build_unitary,
    generator_bands,
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


def reduced_quadratures(cutoff):
    return tuple(_dense(q, cutoff) for q in quadrature_bands(cutoff))


def test_zero_angles_give_identity():
    u = build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 32)
    assert np.array_equal(unitary_matrix(u), np.eye(32))


def test_plus_direction_is_diagonal_phase():
    t = 0.8
    cutoff = 32
    u = build_unitary(ThetaAngles.one_dim(t, 0, 0), 2.0, cutoff)
    n = np.arange(cutoff - 1)
    want = np.exp(1j * t * (2 * n + 1) / 4)
    got = np.diag(unitary_matrix(u))[: cutoff - 1]
    assert np.max(np.abs(got - want)) < 1e-14
    off = unitary_matrix(u) - np.diag(np.diag(unitary_matrix(u)))
    assert np.max(np.abs(off)) == 0.0


@pytest.mark.parametrize("cutoff", [64, 128])
def test_unitarity(cutoff):
    for angles in ANGLE_SAMPLES:
        u = build_unitary(ThetaAngles.one_dim(*angles), 1.0, cutoff)
        defect = np.max(np.abs(unitary_matrix(u).conj().T @ unitary_matrix(u) - np.eye(cutoff)))
        assert defect < 1e-12


def test_reduced_quadratures_canonical_commutator():
    p_hat, x_hat = reduced_quadratures(24)
    comm = x_hat @ p_hat - p_hat @ x_hat
    assert np.max(np.abs(comm[:22, :22] - 1j * np.eye(22))) < 1e-14


def test_conjugation_by_identity():
    u = build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 32)
    jp, _, _ = dispersion_matrices(1.0, 32)
    assert np.array_equal(conjugate(u, jp).matrix, jp.matrix)


def test_conjugation_preserves_hermiticity_and_spectrum():
    u = build_unitary(ThetaAngles.one_dim(0.3, 0.1, -0.2), 1.0, 64)
    _, jm, _ = dispersion_matrices(1.0, 64)
    out = conjugate(u, jm)
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
    got = np.sort(np.linalg.eigvalsh(out.matrix))
    want = np.sort(np.linalg.eigvalsh(jm.matrix))
    assert np.max(np.abs(got - want)) < 1e-10


def test_plus_rotation_fixes_its_own_generator():
    u = build_unitary(ThetaAngles.one_dim(0.4, 0, 0), 1.0, 64)
    jp, _, _ = dispersion_matrices(1.0, 64)
    out = conjugate(u, jp)
    assert np.max(np.abs((out.matrix - jp.matrix)[:32, :32])) < 1e-10


def test_conjugate_cutoff_mismatch():
    u = build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 32)
    jp, _, _ = dispersion_matrices(1.0, 16)
    with pytest.raises(DimensionMismatch):
        conjugate(u, jp)


def test_homomorphism_zero_angles():
    report = verify_homomorphism(build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 32), 1e-6)
    assert report["max_residual"] == 0.0
    assert report["passed"]


def test_homomorphism_first_order_direction():
    # theta_plus only: U p U+ = cos(t/2) p - sin(t/2) x
    t = 0.2
    report = verify_homomorphism(build_unitary(ThetaAngles.one_dim(t, 0, 0), 1.0, 64), 1e-6)
    assert report["passed"]
    assert report["matrix"]["Pi"] == pytest.approx(np.cos(t / 2), abs=1e-12)
    assert report["matrix"]["Theta"] == pytest.approx(-np.sin(t / 2), abs=1e-12)
    p_hat, x_hat = reduced_quadratures(64)
    u = build_unitary(ThetaAngles.one_dim(t, 0, 0), 1.0, 64)
    lhs = unitary_matrix(u) @ p_hat @ unitary_matrix(u).conj().T
    rhs = np.cos(t / 2) * p_hat - np.sin(t / 2) * x_hat
    assert np.max(np.abs((lhs - rhs)[:16, :16])) < 1e-6


@pytest.mark.parametrize("angles", ANGLE_SAMPLES)
def test_homomorphism_residual_small_and_decreasing(angles):
    theta = ThetaAngles.one_dim(*angles)
    r64 = verify_homomorphism(build_unitary(theta, 1.0, 64), 1e-6)
    r32 = verify_homomorphism(build_unitary(theta, 1.0, 32), 1e-6)
    assert r64["passed"]
    assert r64["max_residual"] < r32["max_residual"]


def test_homomorphism_independent_of_scale():
    theta = ThetaAngles.one_dim(0.3, -0.2, 0.25)
    r_small = verify_homomorphism(build_unitary(theta, 0.25, 64), 1e-6)
    r_large = verify_homomorphism(build_unitary(theta, 4.0, 64), 1e-6)
    assert r_small["passed"] and r_large["passed"]
    assert abs(r_small["max_residual"] - r_large["max_residual"]) < 1e-12


def test_cross_derivative_matches_bracket():
    # d(U p U+)/d theta_cross at zero angles equals -p/2
    h = 1e-5
    p_hat, _ = reduced_quadratures(64)
    up = build_unitary(ThetaAngles.one_dim(0, 0, h), 1.0, 64)
    dn = build_unitary(ThetaAngles.one_dim(0, 0, -h), 1.0, 64)
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
        up = build_unitary(ThetaAngles.one_dim(*direction), 1.0, 64)
        dn = build_unitary(ThetaAngles.one_dim(*[-v for v in direction]), 1.0, 64)
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
        ua = build_unitary(ThetaAngles.one_dim(*a), 1.0, 64)
        ub = build_unitary(ThetaAngles.one_dim(*b), 1.0, 64)
        uab = build_unitary(ThetaAngles.one_dim(*ab), 1.0, 64)
        assert np.max(np.abs(unitary_matrix(ua) @ unitary_matrix(ub) - unitary_matrix(uab))) < 1e-10


def test_composition_of_conjugation_actions():
    # conjugating by U1 U2 realises the product of the classical matrices
    t1 = ThetaAngles.one_dim(0.3, 0.0, 0.0)
    t2 = ThetaAngles.one_dim(0.0, 0.0, 0.4)
    u1 = build_unitary(t1, 1.0, 96)
    u2 = build_unitary(t2, 1.0, 96)
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
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 64), 1e-6)
    assert report["passed"]
    assert report["rows"]["+"]["engine_coefficients"] == (1.0, 0.0, 0.0)
    assert report["rows"]["-"]["engine_coefficients"] == (0.0, 1.0, 0.0)
    assert report["rows"]["x"]["engine_coefficients"] == (0.0, 0.0, 1.0)


def test_basis_transformation_rotation_invariance():
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(0.4, 0, 0), 1.0, 64), 1e-6)
    assert report["passed"]
    plus = report["rows"]["+"]
    assert abs(plus["engine_coefficients"][0] - 1.0) < 1e-9
    assert abs(plus["engine_coefficients"][1]) < 1e-9
    assert abs(plus["engine_coefficients"][2]) < 1e-9
    assert plus["engine_residual"] < 1e-8


@pytest.mark.parametrize("angles", ANGLE_SAMPLES)
def test_basis_transformation_engine_rows_match_numerics(angles):
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(*angles), 1.0, 64), 1e-6)
    assert report["passed"], report
    # the published third row is the one that survives the engine check
    assert report["rows"]["x"]["printed_row_holds"]


def test_basis_transformation_printed_first_rows_fail_off_identity():
    report = verify_basis_transformation(build_unitary(ThetaAngles.one_dim(0.4, 0, 0), 1.0, 64), 1e-6)
    assert not report["rows"]["+"]["printed_row_holds"]
    assert not report["rows"]["-"]["printed_row_holds"]


def test_position_convention_bridge_is_unitary_and_fixes_diagonal():
    u = build_unitary(ThetaAngles.one_dim(0.7, 0, 0), 1.0, 32)
    bridged = unitary_matrix(position_convention_unitary(u))
    assert np.max(np.abs(bridged.conj().T @ bridged - np.eye(32))) < 1e-12
    # diagonal unitaries are unchanged by the diagonal phase conjugation
    assert np.max(np.abs(bridged - unitary_matrix(u))) < 1e-15


def test_position_convention_bridge_matches_the_dense_phase_conjugation():
    # the pi shift of the band phase stands for D U D+ with D = diag(i^n)
    for cutoff in (16, 17, 33, 256, 257):
        phases = 1j ** np.arange(cutoff)
        for angles in ANGLE_SAMPLES + [(0.0, -0.6, 0.0), (0.0, 0.0, 0.7), (-1.3, 0.0, 0.0)]:
            u = build_unitary(ThetaAngles.one_dim(*angles), 1.0, cutoff)
            want = (phases[:, None] * unitary_matrix(u)) * phases.conj()[None, :]
            got = unitary_matrix(position_convention_unitary(u))
            assert np.max(np.abs(got - want)) <= 1e-12, (cutoff, angles)


def test_position_convention_runs_the_factor_gate_once_and_applies_d_u_d_dagger(monkeypatch):
    gate, gated = UnitaryLCT.__post_init__, []
    monkeypatch.setattr(UnitaryLCT, "__post_init__", lambda self: gated.append(gate(self)))
    u = build_unitary(ThetaAngles.one_dim(0.3, -0.2, 0.25), 1.0, 64)
    u.check_rows  # a cached view of u must not leak into the bridged unitary
    bridged = position_convention_unitary(u)
    assert len(gated) == 1
    phases = 1j ** np.arange(64)
    want = (phases[:, None] * unitary_matrix(u)) * phases.conj()[None, :]
    re, im = np.random.default_rng(5).normal(size=(2, 64))
    v = re + 1j * im
    assert np.max(np.abs(bridged.apply(v) - want @ v)) <= 1e-12
    assert np.array_equal(bridged.check_rows[0], bridged.leading_rows(16)[0])


def test_position_convention_apply_at_the_largest_cutoff_forms_no_dense_unitary():
    # one cutoff x cutoff complex matrix at 2048 is 64 MiB
    u = build_unitary(ThetaAngles.one_dim(0.3, -0.2, 0.25), 1.0, 2048)
    coeffs = np.random.default_rng(3).normal(size=2048) + 0j
    tracemalloc.start()
    try:
        out = position_convention_unitary(u).apply(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert abs(np.linalg.norm(out) - np.linalg.norm(coeffs)) <= 1e-10 * np.linalg.norm(coeffs)


def test_generator_matrices_scale_free():
    a = generator_bands(0.5, 24)
    b = generator_bands(2.0, 24)
    for x, y in zip(a, b):
        assert x.keys() == y.keys()
        for k in x:
            assert np.max(np.abs(x[k] - y[k])) < 1e-15


def test_guards():
    with pytest.raises(CutoffTooSmall):
        build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 8)
    with pytest.raises(NonPositiveDispersion):
        build_unitary(ThetaAngles.one_dim(0, 0, 0), 0.0, 32)
    with pytest.raises(CutoffTooSmall):
        verify_homomorphism(build_unitary(ThetaAngles.one_dim(0, 0, 0), 1.0, 16), 1e-6)
    with pytest.raises(DimensionMismatch):
        build_unitary(
            ThetaAngles(2, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))), 1.0, 32
        )


@pytest.mark.parametrize("cutoff", [64, 1024])
def test_both_checks_pass_at_every_corner_of_the_half_box_from_cutoff_64(cutoff):
    # the module docstring's measured statement: over the corners of
    # |angles| <= 0.5 the worst leading-block residual is 5.7e-10 at cutoff 64
    # and 6.2e-11 at 1024, so the default tol 1e-6 holds there
    for angles in itertools.product((-0.5, 0.5), repeat=3):
        u = build_unitary(ThetaAngles.one_dim(*angles), 1.0, cutoff)
        assert verify_homomorphism(u, 1e-6)["passed"], angles
        assert verify_basis_transformation(u, 1e-6)["passed"], angles
