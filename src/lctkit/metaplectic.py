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
formed on that block directly, as U[:b, :] A U[:b, :]+, never as a full
conjugation that is then sliced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import CutoffTooSmall, TruncatedOperator, dispersion_matrices, ladder_matrices
from .symplectic import DimensionMismatch, ThetaAngles, exp_sp, from_angles
from .weyl import EUCLIDEAN_1D, WeylAlgebra, printed_transform_rows, transform_generators

UNITARITY_TOL = 1e-12
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


def generator_matrices(B: float, cutoff: int):
    """Quarter-normalised generator triple (b+, b-, bx) as matrices."""
    jp, jm, jx = dispersion_matrices(B, cutoff)
    scale = 1.0 / (4.0 * B)
    return jp.matrix * scale, jm.matrix * scale, jx.matrix * scale


def reduced_quadratures(cutoff: int):
    """Matrices of the reduced momentum and coordinate, p_hat and x_hat."""
    zm, zp = ladder_matrices(cutoff)
    p_hat = (zm.matrix + zp.matrix) / np.sqrt(2.0)
    x_hat = 1j * (zm.matrix - zp.matrix) / np.sqrt(2.0)
    return p_hat, x_hat


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
    bp, bm, bx = generator_matrices(B, cutoff)
    diagonal = tp * bp.diagonal().real
    band = np.abs(tm * bm.diagonal(2) + tx * bx.diagonal(2))
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


def _leading_conjugate(u: UnitaryLCT, a: np.ndarray, size: int) -> np.ndarray:
    """The leading size x size block of U A U+, from the leading rows of U only.

    The operators judged here are banded, so rows @ A is summed one nonzero
    diagonal of A at a time instead of as a dense product.
    """
    rows = u.U.matrix[:size]
    n = rows.shape[1]
    nz_rows, nz_cols = np.nonzero(a)
    rows_a = np.zeros_like(rows)
    for k in sorted(set((nz_cols - nz_rows).tolist())):
        # column j of rows @ A gains rows[:, j - k] * A[j - k, j]
        diagonal = np.diagonal(a, k)
        if k >= 0:
            rows_a[:, k:] += rows[:, : n - k] * diagonal
        else:
            rows_a[:, :k] += rows[:, -k:] * diagonal
    return rows_a @ rows.conj().T


def verify_homomorphism(angles: ThetaAngles, B: float, cutoff: int, tol: float) -> dict:
    """Compare U p U+, U x U+ against the classical matrix action.

    Both sides are computed independently: the quantum side by conjugation,
    the classical side from the 2x2 matrix exponential.  Residuals are
    taken on the leading cutoff/4 block.
    """
    if cutoff < 32:
        raise CutoffTooSmall("homomorphism check needs cutoff >= 32")
    u = build_unitary(angles, B, cutoff)
    p_hat, x_hat = reduced_quadratures(cutoff)
    (pi, xi), (th, la) = _group_rows(exp_sp(from_angles(angles, EUCLIDEAN_1D)))
    block = cutoff // 4
    lhs_p = _leading_conjugate(u, p_hat, block)
    lhs_x = _leading_conjugate(u, x_hat, block)
    p_lead, x_lead = p_hat[:block, :block], x_hat[:block, :block]
    res_p = float(np.max(np.abs(lhs_p - (pi * p_lead + th * x_lead))))
    res_x = float(np.max(np.abs(lhs_x - (xi * p_lead + la * x_lead))))
    max_res = max(res_p, res_x)
    return {
        "angles": angles.triple(),
        "B": B,
        "cutoff": cutoff,
        "block": block,
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


def verify_basis_transformation(angles: ThetaAngles, B: float, cutoff: int, tol: float) -> dict:
    """Check the generator transformation law against numerical conjugation.

    The engine-derived coefficient rows come from the exact symbolic
    substitution at a rational approximant of the group matrix; the published
    rows are evaluated alongside so their verdicts are recorded.  Residuals
    are measured on the leading cutoff/4 block.
    """
    if cutoff < 32:
        raise CutoffTooSmall("basis-law check needs cutoff >= 32")
    u = build_unitary(angles, B, cutoff)
    s = exp_sp(from_angles(angles, EUCLIDEAN_1D))
    s_rat = rationalize_symplectic(s)
    alg = WeylAlgebra(EUCLIDEAN_1D, +1)
    mats = dict(zip(("+", "-", "x"), generator_matrices(B, cutoff)))
    block = cutoff // 4
    bp_lead, bm_lead, bx_lead = (m[:block, :block] for m in mats.values())
    printed_rows = printed_transform_rows(_group_rows(s))

    def residual(numeric, c) -> float:
        return float(np.max(np.abs(numeric - (c[0] * bp_lead + c[1] * bm_lead + c[2] * bx_lead))))

    report = {
        "angles": angles.triple(),
        "B": B,
        "cutoff": cutoff,
        "block": block,
        "tol": tol,
        "rows": {},
    }
    worst = 0.0
    for kind in ("+", "-", "x"):
        numeric = _leading_conjugate(u, mats[kind], block)
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
