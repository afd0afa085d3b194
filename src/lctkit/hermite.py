"""Hermite-Gaussian basis: evaluation, projection, synthesis and moments.

The basis family is parametrised by a mean coordinate X, mean momentum P and
momentum dispersion B = (dp)^2; the coordinate dispersion A = (dx)^2 is always
derived through A*B = 1/4, which encodes the minimum-uncertainty constraint
structurally.  Member n of the family is

    phi_n(x) = H_n((x-X)/sqrt(2A)) / sqrt(2^n n! sqrt(2 pi A))
               * exp(-(x-X)^2/(4A) + i P x)

and its momentum-side partner swaps (x, X, A) -> (p, P, B) with the plane-wave
factor exp(-i X (p-P)).

All levels come from one pass of the normalised three-term recurrence for the
Hermite functions.  `project` and `synthesize` consume each level as the pass
produces it, so neither holds more than a few grid-sized arrays, whatever the
cutoff.  Where the Gaussian seed exp(-u^2/2) would underflow (|u| > ~37) the
recurrence starts from a rescaled seed and carries the missing factor as a
log-domain offset, so high levels keep their norm on wide grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InsufficientSupport(ValueError):
    """Sample grid does not cover enough of the state's support."""


class NotNormalized(ValueError):
    """Sampled wavefunction is not unit-normalised under trapezoidal quadrature."""


# grid must cover this many standard deviations sqrt(A) around X before a
# projection is trusted; the Gaussian tail beyond is < 1e-14
SUPPORT_SIGMAS = 8.0

_UNIFORM_RTOL = 1e-12

# exp(-700) ~ 1e-304 is still a normal double; seeds below it are rescaled
_LOG_SEED_FLOOR = 700.0


@dataclass(frozen=True)
class BasisParams:
    """Basis family parameters (X, P, B); A is derived, never set."""

    X: float = 0.0
    P: float = 0.0
    B: float = 0.5

    def __post_init__(self):
        for name, value in (("X", self.X), ("P", self.P), ("B", self.B)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.B > 0:
            raise ValueError("momentum dispersion B must be positive")
        if not (math.isfinite(self.A) and self.A > 0):
            raise ValueError(
                f"B = {self.B!r} gives A = 1/(4B) = {self.A!r}, not finite and positive"
            )

    @property
    def A(self) -> float:
        return 1.0 / (4.0 * self.B)


@dataclass(frozen=True)
class SampledWavefunction:
    """Complex amplitudes on a uniform ascending grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1D array with at least two points")
        if values.shape != grid.shape:
            raise ValueError("values and grid must have the same length")
        steps = np.diff(grid)
        if np.any(steps <= 0):
            raise ValueError("grid must be strictly ascending")
        h = steps[0]
        if np.max(np.abs(steps - h)) > _UNIFORM_RTOL * max(abs(h), 1.0):
            raise ValueError("grid spacing is not uniform")
        if not np.all(np.isfinite(values)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def norm_squared(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, self.grid))


@dataclass(frozen=True)
class CoefficientExpansion:
    """Expansion coefficients c_n, 0 <= n < cutoff, over a basis family."""

    params: BasisParams
    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be a positive integer")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.cutoff,):
            raise ValueError("need exactly `cutoff` coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def weight(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def _hermite_functions(levels: int, u: np.ndarray):
    """Yield h_k(u) = H_k(u) exp(-u^2/2) / sqrt(2^k k! sqrt(pi)) for k < levels.

    One pass of the normalised recurrence
    h_k = u sqrt(2/k) h_{k-1} - sqrt((k-1)/k) h_{k-2}, which never forms
    2^k k!, so no level overflows.  Levels have the shape of u; the recurrence
    keeps using them, so callers must not modify them.

    The seed exp(-u^2/2) would underflow where u^2/2 exceeds _LOG_SEED_FLOOR,
    although h_k there grows back to order one once k nears u^2/2.  Those
    points start from exp(-_LOG_SEED_FLOOR) and carry the missing factor
    exp(-offset) apart, applied to each yielded level.  Whenever a scaled value
    there exceeds one, it is divided back down and the offset shrinks by the
    same amount, until the offset is spent.  Points with u^2/2 below the floor
    run the plain recurrence throughout.
    """
    shape = np.shape(u)
    u = np.asarray(u, dtype=float).ravel()
    half_sq = 0.5 * u * u
    offset = np.maximum(half_sq - _LOG_SEED_FLOOR, 0.0)
    far = np.flatnonzero(offset)
    h_prev = np.zeros_like(u)
    h = np.pi ** (-0.25) * np.exp(-np.minimum(half_sq, _LOG_SEED_FLOOR))
    for k in range(levels):
        if k:
            h, h_prev = u * np.sqrt(2.0 / k) * h - np.sqrt((k - 1.0) / k) * h_prev, h
        if not far.size:
            yield h.reshape(shape)
            continue
        shift = np.minimum(np.log(np.maximum(np.abs(h[far]), 1.0)), offset[far])
        shrink = np.exp(-shift)
        h[far] *= shrink
        h_prev[far] *= shrink
        offset[far] -= shift
        level = h.copy()
        level[far] *= np.exp(-offset[far])
        far = far[offset[far] > 0]
        yield level.reshape(shape)


def _hermite_function(n: int, u) -> np.ndarray:
    """h_n(u): the last level of one recurrence pass."""
    for h in _hermite_functions(n + 1, u):
        pass
    return h


def phi(n: int, x, params: BasisParams):
    """Basis wavefunction phi_n at coordinate(s) x."""
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    x = np.asarray(x, dtype=float)
    a = params.A
    u = (x - params.X) / np.sqrt(2.0 * a)
    vals = _hermite_function(n, u) * (2.0 * a) ** (-0.25)
    out = vals * np.exp(1j * params.P * x)
    return out if out.ndim else complex(out)


def phi_tilde(n: int, p, params: BasisParams):
    """Momentum-side basis wavefunction at momentum value(s) p."""
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    p = np.asarray(p, dtype=float)
    b = params.B
    v = (p - params.P) / np.sqrt(2.0 * b)
    vals = _hermite_function(n, v) * (2.0 * b) ** (-0.25)
    out = vals * np.exp(-1j * params.X * (p - params.P))
    return out if out.ndim else complex(out)


def _check_support(grid: np.ndarray, params: BasisParams):
    half_width = SUPPORT_SIGMAS * np.sqrt(params.A)
    if grid[0] > params.X - half_width or grid[-1] < params.X + half_width:
        raise InsufficientSupport(
            f"grid [{grid[0]}, {grid[-1]}] does not cover "
            f"{params.X} +- {half_width} (need {SUPPORT_SIGMAS} sigma)"
        )


def project(wf: SampledWavefunction, params: BasisParams, cutoff: int) -> CoefficientExpansion:
    """Trapezoidal projection c_n = <phi_n | psi> for n < cutoff."""
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    _check_support(wf.grid, params)
    a = params.A
    # trapezoid weights
    steps = np.diff(wf.grid)
    weights = np.zeros_like(wf.grid)
    weights[:-1] += 0.5 * steps
    weights[1:] += 0.5 * steps
    # c_n = sum_j h_n(u_j) g_j: everything but the real Hermite function
    g = np.exp(-1j * params.P * wf.grid) * wf.values * weights * (2.0 * a) ** (-0.25)
    g_parts = np.stack([g.real, g.imag])
    u = (wf.grid - params.X) / np.sqrt(2.0 * a)
    coeffs = np.empty(cutoff, dtype=complex)
    for n, h in enumerate(_hermite_functions(cutoff, u)):
        re, im = g_parts @ h
        coeffs[n] = complex(re, im)
    return CoefficientExpansion(params, cutoff, coeffs)


def synthesize(expansion: CoefficientExpansion, grid) -> SampledWavefunction:
    """Assemble sum_n c_n phi_n on the given uniform grid."""
    grid = np.asarray(grid, dtype=float)
    params = expansion.params
    a = params.A
    u = (grid - params.X) / np.sqrt(2.0 * a)
    total_re = np.zeros(grid.shape)
    total_im = np.zeros(grid.shape)
    for c, h in zip(expansion.coeffs, _hermite_functions(expansion.cutoff, u)):
        total_re += c.real * h
        total_im += c.imag * h
    values = (total_re + 1j * total_im) * ((2.0 * a) ** (-0.25) * np.exp(1j * params.P * grid))
    return SampledWavefunction(grid, values)


def dispersion_estimate(wf: SampledWavefunction):
    """Means and dispersions (Xbar, Pbar, dx2, dp2) of a normalised sample.

    Coordinate moments use trapezoidal quadrature on |psi|^2; momentum moments
    apply the same formulas to the discrete Fourier image taken in the unitary
    1/sqrt(2 pi) convention.
    """
    norm = wf.norm_squared()
    if abs(norm - 1.0) > 1e-6:
        raise NotNormalized(f"norm^2 = {norm!r}, expected 1 within 1e-6")
    density = np.abs(wf.values) ** 2
    xbar = float(np.trapezoid(wf.grid * density, wf.grid))
    dx2 = float(np.trapezoid((wf.grid - xbar) ** 2 * density, wf.grid))

    n = wf.grid.size
    dx = wf.spacing
    p_grid = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    # continuous transform via DFT: psi~(p) = dx/sqrt(2 pi) * sum psi_j e^{-i p x_j}
    spectrum = np.fft.fft(wf.values) * (dx / np.sqrt(2.0 * np.pi))
    order = np.argsort(p_grid)
    p_grid = p_grid[order]
    sdens = np.abs(spectrum[order]) ** 2
    dp = 2.0 * np.pi / (n * dx)
    pbar = float(np.sum(p_grid * sdens) * dp)
    dp2 = float(np.sum((p_grid - pbar) ** 2 * sdens) * dp)
    return xbar, pbar, dx2, dp2
