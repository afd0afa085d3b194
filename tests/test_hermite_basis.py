"""Basis wavefunctions: values, orthonormality, projection, moments."""

import math
import tracemalloc

import numpy as np
import pytest
from lct_oracles import hermite_polynomial, phi_tilde

from lctkit.hermite import (
    BasisParams,
    CoefficientExpansion,
    InsufficientSupport,
    NotNormalized,
    SampledWavefunction,
    dispersion_estimate,
    phi,
    project,
    synthesize,
)

PARAMS = BasisParams(0.0, 0.0, 0.5)


def test_params_derive_coordinate_dispersion():
    p = BasisParams(1.0, -2.0, 0.125)
    assert p.A * p.B == 0.25
    with pytest.raises(ValueError):
        BasisParams(0.0, 0.0, 0.0)
    for fields in ((np.nan, 0.0, 0.5), (0.0, np.inf, 0.5), (0.0, 0.0, np.inf), (0.0, 0.0, np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            BasisParams(*fields)


@pytest.mark.parametrize("b_disp", [1e-320, 1e308])
def test_params_refuse_b_whose_coordinate_dispersion_is_not_finite_and_positive(b_disp):
    # 1/(4B) overflows to inf at the bottom of the range and underflows to 0 at the top
    with pytest.raises(ValueError, match="not finite and positive"):
        BasisParams(0.0, 0.0, b_disp)


def test_hermite_polynomial_low_orders():
    assert hermite_polynomial(0, 3.7) == 1.0
    assert hermite_polynomial(1, 0.5) == 1.0  # H_1(t) = 2t
    assert hermite_polynomial(3, 1.0) == -4.0  # H_3(t) = 8t^3 - 12t


def test_hermite_polynomial_against_numpy():
    ts = np.linspace(-3.0, 3.0, 41)
    for n in range(16):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        want = np.polynomial.hermite.hermval(ts, coeffs)
        got = hermite_polynomial(n, ts)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_ground_state_value():
    assert phi(0, 0.0, PARAMS) == pytest.approx(np.pi ** -0.25, abs=1e-12)
    assert phi_tilde(0, 0.0, PARAMS) == pytest.approx(np.pi ** -0.25, abs=1e-12)


def test_phi_matches_direct_formula():
    # independent route: raw polynomial times explicit normalisation
    params = BasisParams(0.4, 1.3, 1.25)
    xs = np.linspace(-4, 5, 57)
    for n in range(0, 21, 4):
        u = (xs - params.X) / np.sqrt(2 * params.A)
        norm = math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(2 * np.pi * params.A))
        direct = hermite_polynomial(n, u) / norm * np.exp(
            -((xs - params.X) ** 2) / (4 * params.A) + 1j * params.P * xs
        )
        got = phi(n, xs, params)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(got - direct)) < 1e-12 * scale


def test_modulus_independent_of_momentum():
    xs = np.linspace(-5, 5, 101)
    for p_mean in (-3.0, 0.0, 7.5):
        a = np.abs(phi(4, xs, BasisParams(0.0, p_mean, 0.5)))
        b = np.abs(phi(4, xs, BasisParams(0.0, 0.0, 0.5)))
        assert np.max(np.abs(a - b)) < 1e-14


@pytest.mark.parametrize("b_disp", [0.5, 1.0, 2.0])
def test_orthonormality_gauss_hermite(b_disp):
    # <phi_m, phi_n> reduces to the weighted polynomial integral; 64 nodes are
    # exact through degree 127
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    for m in range(13):
        hm = hermite_polynomial(m, nodes)
        for n in range(13):
            hn = hermite_polynomial(n, nodes)
            norm = math.sqrt(2.0 ** (m + n) * math.factorial(m) * math.factorial(n)) * math.sqrt(np.pi)
            val = float(np.sum(weights * hm * hn)) / norm
            assert abs(val - (1.0 if m == n else 0.0)) < 1e-8


def test_momentum_side_orthonormality_by_quadrature():
    params = BasisParams(0.7, -0.4, 1.5)
    ps = np.linspace(params.P - 14 * np.sqrt(params.B), params.P + 14 * np.sqrt(params.B), 4001)
    for m in range(6):
        fm = phi_tilde(m, ps, params)
        for n in range(6):
            fn = phi_tilde(n, ps, params)
            val = np.trapezoid(np.conj(fm) * fn, ps)
            assert abs(val - (1.0 if m == n else 0.0)) < 1e-8


def test_recurrence_consistency_away_from_zeros():
    params = BasisParams(-0.3, 0.9, 0.8)
    xs = np.linspace(-5, 4, 301)
    u = (xs - params.X) / np.sqrt(2 * params.A)
    for n in range(1, 24):
        lhs = phi(n + 1, xs, params)
        rhs = u * math.sqrt(2.0 / (n + 1)) * phi(n, xs, params) - math.sqrt(
            n / (n + 1.0)
        ) * phi(n - 1, xs, params)
        mask = np.abs(lhs) > 1e-3
        rel = np.abs(lhs[mask] - rhs[mask]) / np.abs(lhs[mask])
        assert np.max(rel) < 1e-10


def test_fourier_image_matches_momentum_side_up_to_phase():
    # the discrete transform agrees with the momentum-side family in modulus;
    # the leftover phase per level is measured, not assumed
    grid = np.linspace(-30, 30, 8192)
    dx = grid[1] - grid[0]
    p_grid = 2 * np.pi * np.fft.fftfreq(grid.size, d=dx)
    order = np.argsort(p_grid)
    measured = []
    for n in range(6):
        wf = phi(n, grid, PARAMS)
        spec = np.fft.fft(wf) * dx / np.sqrt(2 * np.pi) * np.exp(-1j * p_grid * grid[0])
        spec = spec[order]
        ana = phi_tilde(n, p_grid[order], PARAMS)
        mask = np.abs(ana) > 1e-6
        assert np.max(np.abs(np.abs(spec[mask]) - np.abs(ana[mask]))) < 1e-6
        k = np.argmax(np.abs(ana))
        gamma = float(np.angle(spec[k] / ana[k]))
        measured.append(gamma)
        # once the measured unimodular phase is divided out, full agreement
        assert np.max(np.abs(spec[mask] - np.exp(1j * gamma) * ana[mask])) < 1e-6
    print("measured transform phases (units of pi):", [round(g / np.pi, 6) for g in measured])


def test_sampled_wavefunction_validation():
    with pytest.raises(ValueError):
        SampledWavefunction(np.array([0.0, 1.0, 1.5]), np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        SampledWavefunction(np.array([1.0, 0.0]), np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        SampledWavefunction(np.array([0.0, 1.0]), np.array([np.nan, 0.0], dtype=complex))


def test_project_recovers_single_mode():
    grid = np.linspace(-10, 10, 2001)
    wf = SampledWavefunction(grid, phi(3, grid, PARAMS))
    exp = project(wf, PARAMS, 8)
    want = np.zeros(8)
    want[3] = 1.0
    assert np.max(np.abs(exp.coeffs - want)) < 1e-6
    assert exp.weight() <= 1 + 1e-8


def test_project_zero_function():
    grid = np.linspace(-10, 10, 501)
    exp = project(SampledWavefunction(grid, np.zeros_like(grid, dtype=complex)), PARAMS, 5)
    assert np.all(exp.coeffs == 0)


def test_project_superposition_is_linear():
    grid = np.linspace(-10, 10, 2001)
    values = (phi(0, grid, PARAMS) + phi(1, grid, PARAMS)) / np.sqrt(2)
    exp = project(SampledWavefunction(grid, values), PARAMS, 4)
    assert abs(exp.coeffs[0] - 1 / np.sqrt(2)) < 1e-6
    assert abs(exp.coeffs[1] - 1 / np.sqrt(2)) < 1e-6
    assert abs(exp.coeffs[2]) < 1e-6


def test_project_requires_support():
    grid = np.linspace(-1.0, 1.0, 101)
    wf = SampledWavefunction(grid, phi(0, grid, PARAMS))
    with pytest.raises(InsufficientSupport):
        project(wf, PARAMS, 4)


def test_synthesize_single_coefficient():
    grid = np.linspace(-8, 8, 801)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[0] = 1.0
    wf = synthesize(CoefficientExpansion(PARAMS, 4, coeffs), grid)
    assert np.max(np.abs(wf.values - phi(0, grid, PARAMS))) < 1e-14


def test_synthesize_zero_coefficients():
    grid = np.linspace(-8, 8, 101)
    wf = synthesize(CoefficientExpansion(PARAMS, 3, np.zeros(3, dtype=complex)), grid)
    assert np.all(wf.values == 0)


@pytest.mark.parametrize("cutoff", [16, 32])
def test_project_synthesize_round_trip(cutoff):
    rng = np.random.default_rng(1234)
    coeffs = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
    coeffs /= np.linalg.norm(coeffs)
    grid = np.linspace(-16, 16, 4001)
    wf = synthesize(CoefficientExpansion(PARAMS, cutoff, coeffs), grid)
    back = project(wf, PARAMS, cutoff)
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-6


def test_dispersion_ground_state():
    grid = np.linspace(-12, 12, 4001)
    wf = SampledWavefunction(grid, phi(0, grid, PARAMS))
    xbar, pbar, dx2, dp2 = dispersion_estimate(wf)
    assert abs(xbar) < 1e-4 and abs(pbar) < 1e-4
    assert abs(dx2 - 0.5) < 1e-4
    assert abs(dp2 - 0.5) < 1e-4


@pytest.mark.parametrize("n", range(6))
def test_dispersion_product_law(n):
    grid = np.linspace(-14, 14, 4001)
    wf = SampledWavefunction(grid, phi(n, grid, PARAMS))
    _, _, dx2, dp2 = dispersion_estimate(wf)
    want = (2 * n + 1) ** 2 / 4
    assert abs(dx2 * dp2 - want) < 1e-3
    assert abs(dx2 - (2 * n + 1) * PARAMS.A) < 1e-3
    assert abs(dp2 - (2 * n + 1) * PARAMS.B) < 1e-3


def test_dispersion_translation_covariance():
    grid = np.linspace(-12, 12, 3001)
    values = phi(2, grid, PARAMS)
    x0 = 3.25
    base = dispersion_estimate(SampledWavefunction(grid, values))
    shifted = dispersion_estimate(SampledWavefunction(grid + x0, values))
    assert abs(shifted[0] - base[0] - x0) < 1e-9
    assert abs(shifted[2] - base[2]) < 1e-9


def test_dispersion_requires_normalisation():
    grid = np.linspace(-12, 12, 1001)
    wf = SampledWavefunction(grid, 0.5 * phi(0, grid, PARAMS))
    with pytest.raises(NotNormalized):
        dispersion_estimate(wf)


def test_large_level_evaluation_does_not_overflow():
    xs = np.linspace(-30, 30, 501)
    vals = phi(200, xs, PARAMS)
    assert np.all(np.isfinite(vals))
    norm = np.trapezoid(np.abs(vals) ** 2, xs)
    assert abs(norm - 1.0) < 1e-6


def _project_per_level(wf, params, cutoff):
    # reference: one phi evaluation and one trapezoid per level
    coeffs = np.empty(cutoff, dtype=complex)
    for n in range(cutoff):
        coeffs[n] = np.trapezoid(np.conj(phi(n, wf.grid, params)) * wf.values, wf.grid)
    return coeffs


def _synthesize_per_level(coeffs, params, grid):
    values = np.zeros(grid.shape, dtype=complex)
    for n, c in enumerate(coeffs):
        if c != 0:
            values += c * phi(n, grid, params)
    return values


@pytest.mark.parametrize("b_disp", [0.25, 0.5, 2.0])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 16, 257])
def test_streamed_project_synthesize_match_per_level_loop(cutoff, b_disp):
    params = BasisParams(0.7, -1.3, b_disp)
    grid = np.linspace(-30.0, 30.0, 1201)
    # wide enough to be non-negligible at the grid ends, where the quadrature weights differ
    packet = np.exp(-((grid - 1.1) ** 2) / 200.0 + 0.9j * grid)
    wf = SampledWavefunction(grid, packet / math.sqrt(np.trapezoid(np.abs(packet) ** 2, grid)))

    want = _project_per_level(wf, params, cutoff)
    got = project(wf, params, cutoff).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    rng = np.random.default_rng(cutoff)
    coeffs = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
    want = _synthesize_per_level(coeffs, params, grid)
    got = synthesize(CoefficientExpansion(params, cutoff, coeffs), grid).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_project_synthesize_stream_the_basis():
    # a materialised 256 x 8001 real basis alone would take 16.4 MB
    params = BasisParams(0.4, 0.8, 0.5)
    grid = np.linspace(-12.0, 12.0, 8001)
    wf = SampledWavefunction(grid, phi(0, grid, params))
    tracemalloc.start()
    try:
        synthesize(project(wf, params, 256), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _unscaled_hermite_function(n, u):
    # the recurrence seeded with exp(-u^2/2) as is, which underflows for |u| > ~38.6
    h_prev = np.pi ** (-0.25) * np.exp(-0.5 * u * u)
    if n == 0:
        return h_prev
    h = np.sqrt(2.0) * u * h_prev
    for k in range(2, n + 1):
        h, h_prev = u * np.sqrt(2.0 / k) * h - np.sqrt((k - 1.0) / k) * h_prev, h
    return h


@pytest.mark.parametrize("n", [500, 1000, 1500, 2000])
def test_high_levels_keep_unit_norm_past_seed_underflow(n):
    # the turning point of level 2000 is sqrt(4001) ~ 63.3, so the grid reaches 70
    xs = np.linspace(-70.0, 70.0, 28001)
    norm = np.trapezoid(np.abs(phi(n, xs, PARAMS)) ** 2, xs)
    assert abs(norm - 1.0) < 1e-10


def test_rescaled_seed_leaves_points_inside_the_floor_unchanged():
    xs = np.linspace(-60.0, 60.0, 2401)
    inner = np.abs(xs) < 37.0
    for n in (0, 1, 7, 300, 1200):
        got = phi(n, xs, PARAMS)[inner]
        want = _unscaled_hermite_function(n, xs[inner])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
