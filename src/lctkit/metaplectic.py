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
the block is D T D+ for a real symmetric tridiagonal T = V L V^T, so each block
costs one real eigendecomposition of half the cutoff.  `UnitaryLCT` keeps those
factors and acts with them (`apply`, `leading_rows`); nothing here forms the
cutoff x cutoff U.

Truncation contaminates the top of the tower, so all residuals are measured
on the leading cutoff/4 block.  Over the corners of |angles| <= 0.5 the worst
is 7.1e-6 at cutoff 32, 5.7e-10 at 64 and 6.2e-11 at 1024, so tol 1e-6 holds
from cutoff 64 on.  They are formed from the leading rows of each parity
block, as U[:b, :] A U[:b, :]+ with A summed from its bands ({offset:
diagonal}, see `fock`) one parity pair at a time; only the b x b reference is
dense.  Both checks take a built `UnitaryLCT` and share its leading rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fock import CutoffTooSmall, _dense, dispersion_bands, ladder_bands
from .symplectic import DimensionMismatch, ThetaAngles, exp_sp, from_angles
from .weyl import EUCLIDEAN_1D, engine_transform_rows, printed_transform_rows

UNITARITY_TOL = 1e-12
# smallest cutoff whose leading cutoff/4 block the residual checks judge
CHECK_MIN_CUTOFF = 32
RATIONALIZE_DENOMINATOR = 10 ** 6


class NonPositiveDispersion(ValueError):
    """Dispersion scales must be positive."""


@dataclass(frozen=True)
class UnitaryLCT:
    """Truncated unitary as parity factors: each block is D V e^{iL} V^T D+."""

    angles: ThetaAngles
    B: float
    cutoff: int
    phase: float
    blocks: tuple

    def __post_init__(self):
        # E = V^T V - I bounds max|U+U - I| <= (2 + ||E||_2) ||E||_2 <= (2 + f) f
        sizes = ((self.cutoff + 1) // 2, self.cutoff // 2)
        if [(w.shape, v.shape) for w, v in self.blocks] != [((n,), (n, n)) for n in sizes]:
            raise ValueError("operator mixes even and odd levels")
        for evals, vecs in self.blocks:
            if np.iscomplexobj(vecs) or not np.all(np.isfinite(np.append(evals, self.phase))):
                raise ValueError("operator is not unitary: factors not real and finite")
            f = float(np.linalg.norm(vecs.T @ vecs - np.eye(len(evals))))
            if not (2.0 + f) * f <= UNITARITY_TOL:
                raise ValueError(f"operator is not unitary: defect bound {(2.0 + f) * f:.3e}")

    def leading_rows(self, m: int) -> tuple:
        """U[p:m:2, p::2] for parity p = 0, 1: the first m rows of U, block by block."""
        rows = []
        for parity, (evals, vecs) in enumerate(self.blocks):
            rot = np.exp(-1j * self.phase * np.arange(len(evals)))
            lead = vecs[: (m + 1 - parity) // 2]
            block = (lead * np.cos(evals)) @ vecs.T + 1j * ((lead * np.sin(evals)) @ vecs.T)
            rows.append((rot[: len(lead), None] * block) * rot.conj()[None, :])
        return tuple(rows)

    @cached_property
    def check_rows(self) -> tuple:
        return self.leading_rows(self.cutoff // 4)  # the block the residual checks judge

    def apply(self, v) -> np.ndarray:
        """U v for one vector of `cutoff` entries, per block as D V e^{iL} V^T D+ v."""
        if np.shape(v) != (self.cutoff,):
            raise DimensionMismatch(f"vector shape {np.shape(v)} does not match cutoff {self.cutoff}")
        out = np.empty(self.cutoff, dtype=complex)
        for parity, (evals, vecs) in enumerate(self.blocks):
            rot = np.exp(-1j * self.phase * np.arange(len(evals)))
            inner = np.exp(1j * evals) * (vecs.T @ (rot.conj() * v[parity::2]))
            out[parity::2] = rot * (vecs @ inner)
        return out


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
    """Factor the Hermitian angle combination one parity block at a time."""
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
    blocks = []
    for parity in (0, 1):
        d, e = diagonal[parity::2], band[parity::2]
        blocks.append(np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    return UnitaryLCT(angles, B, cutoff, np.angle(complex(tm, tx)), tuple(blocks))


def _leading_conjugate(u: UnitaryLCT, bands: dict) -> np.ndarray:
    """The leading cutoff/4 block of U A U+, one parity pair (p, q) at a time.

    Rows of parity p meet only columns of parity p.  The band of A at offset k
    joins p to q = p + k (mod 2) as the band at offset (k - q + p)/2 of
    A[p::2, q::2], read from the diagonal at the parity of min(row, column); it
    is summed into rows @ A_pq one diagonal at a time.
    """
    rows, rows_a = u.check_rows, {}
    for k, diagonal in sorted(bands.items()):
        for p, q in ((0, k % 2), (1, 1 - k % 2)):
            acc = rows_a.setdefault((p, q), np.zeros((len(rows[p]), rows[q].shape[1]), complex))
            a, s = max((k - q + p) // 2, 0), max((q - p - k) // 2, 0)
            n = min(acc.shape[1] - a, rows[p].shape[1] - s)
            acc[:, a:a + n] += rows[p][:, s:s + n] * diagonal[(p if k >= 0 else q)::2][:n]
    out = np.zeros((u.cutoff // 4,) * 2, dtype=complex)
    for (p, q), acc in rows_a.items():
        out[p::2, q::2] = acc @ rows[q].conj().T
    return out


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
    lhs_p, lhs_x = _leading_conjugate(u, p_hat), _leading_conjugate(u, x_hat)
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
    engine_rows = engine_transform_rows(rationalize_symplectic(s))
    gens = dict(zip(("+", "-", "x"), generator_bands(u.B, u.cutoff)))
    bp_lead, bm_lead, bx_lead = (_dense(g, block) for g in gens.values())
    printed_rows = printed_transform_rows(_group_rows(s))

    def residual(numeric, c) -> float:
        return float(np.max(np.abs(numeric - (c[0] * bp_lead + c[1] * bm_lead + c[2] * bx_lead))))

    worst = 0.0
    for kind in ("+", "-", "x"):
        numeric = _leading_conjugate(u, gens[kind])
        coeffs = tuple(float(c) for c in engine_rows[kind])
        res_engine, res_printed = residual(numeric, coeffs), residual(numeric, printed_rows[kind])
        worst = max(worst, res_engine)
        report["rows"][kind] = {
            "engine_coefficients": coeffs,
            "printed_coefficients": printed_rows[kind],
            "engine_residual": res_engine,
            "printed_residual": res_printed,
            "printed_row_holds": res_printed < tol,
        }
    report.update(max_residual=worst, passed=worst < tol)
    return report


def position_convention_unitary(u: UnitaryLCT) -> UnitaryLCT:
    """U in the phase convention of the real Hermite-Gaussian family.

    The number basis used here fixes its phases by the ladder action
    sqrt(n) |n-1> without any phase factor; relative to the wavefunction
    family (real up to the plane-wave factor) that convention carries an
    extra i^n per level.  Re-expressing U for coefficient vectors obtained by
    projecting onto the wavefunctions is the diagonal conjugation D U D+ with
    D = diag(i^n).  Without it a coordinate squeeze would act as its inverse
    on sampled data.  In a parity block D U D+ multiplies entry (2j+p, 2k+p)
    by i^(2(j-k)) = exp(-i pi (j-k)): the band phase moved by pi.  The result
    serves `apply`; the verify checks use the number-basis U.
    """
    shifted = object.__new__(UnitaryLCT)  # u's factors, gated when u was built
    vars(shifted).update({f.name: getattr(u, f.name) for f in fields(u)}, phase=u.phase + np.pi)
    return shifted
