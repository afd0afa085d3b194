"""Unitary side of the correspondence on the truncated number basis.

U = exp(i (t+ b+ + t- b- + tx bx)) is built from the Hermitian generator in
the quarter normalisation b = J/(4B), which makes the construction independent
of the dispersion scale B; the same angles then exponentiate on the classical
side to a 2x2 matrix ((Pi, Xi), (Theta, Lambda)), and conjugation by U must
reproduce that matrix action on the reduced quadratures

    p_hat = (Zminus + Zplus)/sqrt(2),   x_hat = i (Zminus - Zplus)/sqrt(2).

The generators are quadratic in the ladder operators, so they couple level n
only to n +- 2 and U is block diagonal over even and odd levels.  Within one
parity block the generator is Hermitian tridiagonal and its off-diagonal
carries the single phase phi = arg(t- + i tx); with D = diag(exp(-i k phi))
the block is D T D+ for a real symmetric tridiagonal T, so each block costs one
real eigendecomposition of half the cutoff.

Truncation contaminates the top of the tower, so all residuals are measured
on the leading cutoff/4 block, which stays clean for |angles| <= 1.  They are
formed on that block directly, as U[:b, :] A U[:b, :]+ with A summed from its
bands ({offset: diagonal}, see `fock`); only the b x b reference is dense.
Both checks take a built `UnitaryLCT`, so one U serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import CutoffTooSmall, TruncatedOperator, _dense, dispersion_bands, ladder_bands
from .symplectic import DimensionMismatch, ThetaAngles, exp_sp, from_angles
from .weyl import EUCLIDEAN_1D, WeylAlgebra, printed_transform_rows, transform_generators

UNITARITY_TOL = 1e-12
# smallest cutoff whose leading cutoff/4 block the residual checks judge
CHECK_MIN_CUTOFF = 32
RATIONALIZE_DENOMINATOR = 10 ** 6


class NonPositiveDispersion(ValueError):
    """Dispersion scales must be positive."""


@dataclass(frozen=True)
class UnitaryLCT:
    """Truncated unitary representative of a linear canonical transformation."""

    angles: ThetaAngles
    B: float
    cutoff: int
    U: TruncatedOperator

    def __post_init__(self):
        # a metaplectic unitary commutes with parity; with the off-parity
        # entries exactly zero, U+U - I vanishes off the parity blocks too
        u = self.U.matrix
        if np.any(u[0::2, 1::2]) or np.any(u[1::2, 0::2]):
            raise ValueError("operator mixes even and odd levels")
        defect = max(
            np.max(np.abs(block.conj().T @ block - np.eye(block.shape[0])))
            for block in (u[0::2, 0::2], u[1::2, 1::2])
        )
        if defect > UNITARITY_TOL:
            raise ValueError(f"operator is not unitary: defect {defect:.3e}")


def generator_bands(B: float, cutoff: int):
    """Quarter-normalised generator triple (b+, b-, bx) as {offset: diagonal}."""
    scale = 1.0 / (4.0 * B)
    return tuple({k: d * scale for k, d in j.items()} for j in dispersion_bands(B, cutoff))


def quadrature_bands(cutoff: int):
    """Reduced momentum and coordinate, p_hat and x_hat, as {offset: diagonal}."""
    lower = ladder_bands(cutoff)[1]
    p_band = lower / np.sqrt(2.0)
    x_hat = {-1: 1j * -lower.conj() / np.sqrt(2.0), 1: 1j * lower / np.sqrt(2.0)}
    return {-1: p_band, 1: p_band}, x_hat


def _group_rows(s) -> list:
    """The 1D group element as float rows [[Pi, Xi], [Theta, Lambda]]."""
    return [[float(s.Pi[0, 0]), float(s.Xi[0, 0])],
            [float(s.Theta[0, 0]), float(s.Lambda[0, 0])]]


def build_unitary(angles: ThetaAngles, B: float, cutoff: int) -> UnitaryLCT:
    """Exponentiate the Hermitian angle combination one parity block at a time.

    Each block G_p = D T D+ (see the module docstring) exponentiates to
    D (V cos(L) V^T + i V sin(L) V^T) D+ from the real eigendecomposition
    T = V L V^T.
    """
    if angles.dim != 1:
        raise DimensionMismatch("the truncated representation is one-dimensional")
    if not B > 0:
        raise NonPositiveDispersion("dispersion scale B must be positive")
    if cutoff < 16:
        raise CutoffTooSmall("unitary construction needs cutoff >= 16")
    tp, tm, tx = angles.triple()
    bp, bm, bx = generator_bands(B, cutoff)
    diagonal = tp * bp[0].real
    band = np.abs(tm * bm[2] + tx * bx[2])
    phase = np.angle(complex(tm, tx))
    u = np.zeros((cutoff, cutoff), dtype=complex)
    for parity in (0, 1):
        d, e = diagonal[parity::2], band[parity::2]
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        evals, vecs = np.linalg.eigh(t)
        block = (vecs * np.cos(evals)) @ vecs.T + 1j * ((vecs * np.sin(evals)) @ vecs.T)
        rot = np.exp(-1j * phase * np.arange(d.size))
        block = (rot[:, None] * block) * rot.conj()[None, :]
        u[parity::2, parity::2] = block
    return UnitaryLCT(angles, B, cutoff, TruncatedOperator(cutoff, u, "unitary_lct"))


def conjugate(u: UnitaryLCT, op: TruncatedOperator) -> TruncatedOperator:
    """U A U^dagger at matching cutoff."""
    if op.cutoff != u.cutoff:
        raise DimensionMismatch(
            f"operator cutoff {op.cutoff} does not match unitary cutoff {u.cutoff}"
        )
    m = u.U.matrix @ op.matrix @ u.U.matrix.conj().T
    return TruncatedOperator(u.cutoff, m, f"conj({op.label})")


def _leading_conjugate(u: UnitaryLCT, bands: dict, size: int) -> np.ndarray:
    """The leading size x size block of U A U+, from the leading rows of U only.

    A is given as {offset: diagonal}, so rows @ A is summed one diagonal at a
    time, in increasing offset, instead of as a dense product.
    """
    rows = u.U.matrix[:size]
    n = rows.shape[1]
    rows_a = np.zeros_like(rows)
    for k, diagonal in sorted(bands.items()):
        # column j of rows @ A gains rows[:, j - k] * A[j - k, j]
        if k >= 0:
            rows_a[:, k:] += rows[:, : n - k] * diagonal
        else:
            rows_a[:, :k] += rows[:, -k:] * diagonal
    return rows_a @ rows.conj().T


def _report_head(u: UnitaryLCT, check: str) -> dict:
    """Leading keys of a residual report; refuses a cutoff too small to judge."""
    if u.cutoff < CHECK_MIN_CUTOFF:
        raise CutoffTooSmall(f"{check} check needs cutoff >= {CHECK_MIN_CUTOFF}")
    return {"angles": u.angles.triple(), "B": u.B, "cutoff": u.cutoff, "block": u.cutoff // 4}


def verify_homomorphism(u: UnitaryLCT, tol: float) -> dict:
    """Compare U p U+, U x U+ against the classical matrix action.

    Both sides are computed independently: the quantum side by conjugation
    with the built U, the classical side from the 2x2 matrix exponential of
    its angles.  Residuals are taken on the leading cutoff/4 block.
    """
    head = _report_head(u, "homomorphism")
    block = head["block"]
    p_hat, x_hat = quadrature_bands(u.cutoff)
    (pi, xi), (th, la) = _group_rows(exp_sp(from_angles(u.angles, EUCLIDEAN_1D)))
    lhs_p = _leading_conjugate(u, p_hat, block)
    lhs_x = _leading_conjugate(u, x_hat, block)
    p_lead, x_lead = _dense(p_hat, block), _dense(x_hat, block)
    res_p = float(np.max(np.abs(lhs_p - (pi * p_lead + th * x_lead))))
    res_x = float(np.max(np.abs(lhs_x - (xi * p_lead + la * x_lead))))
    max_res = max(res_p, res_x)
    return {
        **head,
        "matrix": {"Pi": pi, "Xi": xi, "Theta": th, "Lambda": la},
        "residual_p": res_p,
        "residual_x": res_x,
        "max_residual": max_res,
        "tol": tol,
        "passed": max_res < tol,
    }


def rationalize_symplectic(s) -> list:
    """Nearest small-denominator rational matrix that is exactly in SL(2, Q).

    Three entries are rounded to denominator <= 1e6 and the fourth is solved
    exactly from the determinant condition, dividing by the largest available
    partner entry so the completion stays well conditioned.
    """
    (pi, xi), (th, la) = _group_rows(s)

    def rat(v: float) -> Fraction:
        return Fraction(v).limit_denominator(RATIONALIZE_DENOMINATOR)

    if max(abs(pi), abs(la)) >= max(abs(th), abs(xi)):
        rth, rxi = rat(th), rat(xi)
        if abs(pi) >= abs(la):
            rpi = rat(pi)
            rla = (1 + rth * rxi) / rpi
        else:
            rla = rat(la)
            rpi = (1 + rth * rxi) / rla
    else:
        rpi, rla = rat(pi), rat(la)
        if abs(th) >= abs(xi):
            rth = rat(th)
            rxi = (rpi * rla - 1) / rth
        else:
            rxi = rat(xi)
            rth = (rpi * rla - 1) / rxi
    return [[rpi, rxi], [rth, rla]]


def verify_basis_transformation(u: UnitaryLCT, tol: float) -> dict:
    """Check the generator transformation law against numerical conjugation.

    The engine-derived coefficient rows come from the exact symbolic
    substitution at a rational approximant of the group matrix of U's angles;
    the published rows are evaluated alongside so their verdicts are
    recorded.  Residuals are measured on the leading cutoff/4 block.
    """
    report = {**_report_head(u, "basis-law"), "tol": tol, "rows": {}}
    block = report["block"]
    s = exp_sp(from_angles(u.angles, EUCLIDEAN_1D))
    s_rat = rationalize_symplectic(s)
    alg = WeylAlgebra(EUCLIDEAN_1D, +1)
    gens = dict(zip(("+", "-", "x"), generator_bands(u.B, u.cutoff)))
    bp_lead, bm_lead, bx_lead = (_dense(g, block) for g in gens.values())
    printed_rows = printed_transform_rows(_group_rows(s))

    def residual(numeric, c) -> float:
        return float(np.max(np.abs(numeric - (c[0] * bp_lead + c[1] * bm_lead + c[2] * bx_lead))))

    worst = 0.0
    for kind in ("+", "-", "x"):
        numeric = _leading_conjugate(u, gens[kind], block)
        coeffs = tuple(float(c) for c in transform_generators(alg, s_rat, kind).triple())
        res_engine, res_printed = residual(numeric, coeffs), residual(numeric, printed_rows[kind])
        worst = max(worst, res_engine)
        report["rows"][kind] = {
            "engine_coefficients": coeffs,
            "printed_coefficients": printed_rows[kind],
            "engine_residual": res_engine,
            "printed_residual": res_printed,
            "printed_row_holds": res_printed < tol,
        }
    report["max_residual"] = worst
    report["passed"] = worst < tol
    return report


def position_convention_unitary(u: UnitaryLCT) -> np.ndarray:
    """Matrix of U in the phase convention of the real Hermite-Gaussian family.

    The number basis used here fixes its phases by the ladder action
    sqrt(n) |n-1> without any phase factor; relative to the wavefunction
    family (real up to the plane-wave factor) that convention carries an
    extra i^n per level.  Re-expressing U for coefficient vectors obtained by
    projecting onto the wavefunctions is the diagonal conjugation D U D+ with
    D = diag(i^n).  Without it a coordinate squeeze would act as its inverse
    on sampled data.
    """
    phases = 1j ** np.arange(u.cutoff)
    return (phases[:, None] * u.U.matrix) * phases.conj()[None, :]


def rescale_frame(coefficients, B: float, Bprime: float, normalization: str = "J"):
    """Carry generator coefficients from dispersion scale B to Bprime.

    Scale-normalised coefficients (the J family, linear in B) pick up the
    factor Bprime/B; quarter-normalised coefficients (the b family) are scale
    free and pass through unchanged.
    """
    if not (B > 0 and Bprime > 0):
        raise NonPositiveDispersion("dispersion scales must be positive")
    if normalization == "b":
        return tuple(coefficients)
    if normalization == "J":
        factor = Bprime / B
        return tuple(c * factor for c in coefficients)
    raise ValueError("normalization must be 'J' or 'b'")
