"""Unitary side of the correspondence: the metaplectic operator read off S.

U = exp(i (t+ b+ + t- b- + tx bx)) is generated by b = J/(4B), J's matrix at
B = 1/4, so U takes only the angles; they exponentiate classically
(`symplectic.exp_sp`) to S = ((Pi, Xi), (Theta, Lambda)), whose action U must
reproduce on p_hat = (Zminus + Zplus)/sqrt(2), x_hat = i (Zminus - Zplus)/sqrt(2).
S fixes U up to sign: U a U+ = u a + v a+ with u + v = Pi - i Xi and
u - v = Lambda + i Theta, and <0|U|0> = u^(-1/2) on the branch continued from
the identity.  Both commands use that one object, and nothing truncates U:

* `transform` synthesises U phi_n, a rescaled, chirped Hermite family (the
  Hermite-Gaussian ABCD law, Kogelnik & Li, Appl. Opt. 5, 1550 (1966)).
* `verify` judges U A U+ on the leading cutoff/4 block from the true rows
  <m|U: row m is the eigenvector of U+ b+ U for the eigenvalue (2m+1)/4 of b+,
  from one twisted factorisation of a tridiagonal matrix (Dhillon & Parlett,
  Linear Algebra Appl. 387, 1 (2004)).  The rows run until every later entry
  is below the rounding unit, and rows that would need more than `MAX_CUTOFF`
  columns are refused by name.  The Bargmann recurrence of Miatto & Quesada
  (Quantum 4, 366 (2020)) gives the same rows, but its rounding error grows
  with the row: 2.5e-3 at row 255 at angles (0.5, 0.5, -0.5), against 4.6e-14.
  U is even (b+, b-, bx are quadratic in x, p), so row m is zero in every column
  of the other parity: the rows and U A U+ are kept as parity blocks throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fock import CutoffTooSmall, _dense, dispersion_bands, ladder_bands
from .hermite import HermiteFamily
from .symplectic import ConstraintViolation, ThetaAngles, exp_sp, from_angles
from .weyl import EUCLIDEAN_1D, engine_transform_rows, printed_transform_rows

# smallest cutoff whose leading cutoff/4 block the residual checks judge
CHECK_MIN_CUTOFF = 32
RATIONALIZE_DENOMINATOR = 10 ** 6
# bounds the levels asked about and the columns of the judged rows (16 MiB at most)
MAX_CUTOFF = 2048
# a row entry below this is past the row's end: the row's weight beyond it is
# below the rounding of its unit sum
_ROW_END = np.finfo(float).eps


@dataclass(frozen=True)
class MetaplecticUnitary:
    """U from S: U a U+ = u a + v a+, and <0|U|0> on U's own branch."""

    angles: ThetaAngles
    cutoff: int
    u_plus_v: complex
    u_minus_v: complex
    vacuum: complex

    @property
    def u(self) -> complex:
        return (self.u_plus_v + self.u_minus_v) / 2

    @property
    def v(self) -> complex:
        return (self.u_plus_v - self.u_minus_v) / 2

    def family(self) -> HermiteFamily:
        """U phi_n as a Hermite family, read on `position_convention_unitary(u)`: U phi_0
        is annihilated by u a + v a+, so it is exp(-tau xi^2/2), tau = (u + v)/(u - v)."""
        with np.errstate(all="ignore"):  # an output off every grid is refused by the grid
            tau = np.complex128(self.u_plus_v) / self.u_minus_v
            s = abs(self.u_minus_v)  # 1/sqrt(Re tau), as det S = 1
            return HermiteFamily(s, float(-tau.imag / 2), complex(np.conj(self.u_minus_v) / s),
                                 complex(self.vacuum * np.sqrt((1.0 + tau) / 2)))

    @property
    def group_rows(self) -> tuple:
        """S as float rows ((Pi, Xi), (Theta, Lambda)), read off the stored pair."""
        return ((self.u_plus_v.real, -self.u_plus_v.imag), (self.u_minus_v.imag, self.u_minus_v.real))

    @cached_property
    def check_rows(self) -> tuple:
        """(U[0:b:2, 0:c:2], U[1:b:2, 1:c:2]), b = cutoff/4: the judged rows by parity, over the
        c columns they reach.  A row reaches about m (|u| + |v|)^2 columns and then decays by
        |v/u| every two, which sizes the first try; the second runs to MAX_CUTOFF."""
        if self.cutoff < CHECK_MIN_CUTOFF:
            raise CutoffTooSmall(f"to judge cutoff/4 rows, cutoff must be >= {CHECK_MIN_CUTOFF}")
        b, u, v = self.cutoff // 4, self.u, self.v
        decay = math.log(abs(u) / abs(v)) if v else math.inf
        reach = (abs(u) + abs(v)) ** 2 * b + (2 * math.log(1 / _ROW_END) / decay if decay > 0 else math.inf)
        if reach <= MAX_CUTOFF:  # else refused without a try
            for columns in sorted({min(MAX_CUTOFF, 2 * math.ceil(0.625 * reach) + 16), MAX_CUTOFF}):
                even, odd = _twisted_rows(u, v, self.vacuum, b, columns)
                column_max = np.empty(columns)
                column_max[0::2], column_max[1::2] = (np.max(np.abs(r), axis=0) for r in (even, odd))
                end = np.flatnonzero(column_max >= _ROW_END)[-1] + 1
                if end + 8 < columns:  # the rows ended before the truncation could reach them
                    return even[:, :(end + 1) // 2], odd[:, :end // 2]
        raise ValueError(f"angles {self.angles.triple()} spread the leading {b} rows of the "
                         f"unitary past {MAX_CUTOFF} columns")


def _vacuum_amplitude(angles: tuple, u: complex) -> complex:
    """<0|U|0> = u^(-1/2) on the branch continued from the identity along exp(i s H).

    u(s) = cosh(sr) - i (alpha/r) sinh(sr), alpha = t+/2, r^2 = (t-^2 + tx^2)/4 - alpha^2:
    for r^2 >= 0 Re u > 0; else its argument stays within pi/2 of -sign(alpha) s sqrt(-r^2).
    """
    tp, tm, tx = angles
    r2 = (tm * tm + tx * tx - tp * tp) / 4
    reference = -math.copysign(math.sqrt(-r2), tp) if r2 < 0 else 0.0
    arg = math.atan2(u.imag, u.real)
    arg += 2 * math.pi * round((reference - arg) / (2 * math.pi))
    return abs(u) ** -0.5 * complex(math.cos(arg / 2), -math.sin(arg / 2))


def build_unitary(angles: ThetaAngles, cutoff: int) -> MetaplecticUnitary:
    """U of the angles, asked about its first `cutoff` levels."""
    if cutoff < 16:  # the checks' floor is decided in `check_rows`; this names it too
        raise CutoffTooSmall(f"unitary construction needs cutoff >= 16 "
                             f"(to check it, cutoff must be >= {CHECK_MIN_CUTOFF})")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"unitary cutoff must be <= {MAX_CUTOFF}")
    triple = angles.triple()  # refuses angles that are not one-dimensional
    try:
        with np.errstate(all="ignore"):
            s = exp_sp(from_angles(angles, EUCLIDEAN_1D))
            pi, xi, th, la = (float(m[0, 0]) for m in (s.Pi, s.Xi, s.Theta, s.Lambda))
    except ConstraintViolation as exc:
        raise ValueError(f"angles {triple} have no finite group element: {exc}") from exc
    u_plus_v, u_minus_v = complex(pi, -xi), complex(la, th)
    vacuum = _vacuum_amplitude(triple, (u_plus_v + u_minus_v) / 2)
    return MetaplecticUnitary(angles, cutoff, u_plus_v, u_minus_v, vacuum)


def position_convention_unitary(u: MetaplecticUnitary) -> MetaplecticUnitary:
    """U in the phase convention of the real Hermite-Gaussian family: the pair (u, -v).

    The number basis carries an extra i^n per level against the wavefunctions, so
    projected coefficients see D U D+, D = diag(i^n), and D a D+ = -i a.
    """
    return replace(u, u_plus_v=u.u_minus_v, u_minus_v=u.u_plus_v)


def _twisted_rows(u: complex, v: complex, vacuum: complex, b: int, columns: int) -> tuple:
    """The leading b rows of U over an even number of columns, as (even rows over even
    columns, odd rows over odd columns).

    Row m solves x K = (2m+1)/4 x, K = U+ b+ U = (|u|^2 + |v|^2) b+ + w a^2 + conj(w) a+^2,
    w = -conj(uv)/2.  Within a parity K = D T D+, D = diag(exp(-i j arg w)), T real
    tridiagonal, so the row is conj(D z) for T z = (2m+1)/4 z, solved outwards from the
    twist where T - lambda = L D L^T = U R U^T meet best.  Row m's phase follows from
    <m|U = <m-1|U (conj(u) a - v a+)/sqrt(m), a row of the other block; row 0's from <0|U|0>.
    """
    n, m = columns // 2, np.arange(b)
    p, j = m % 2, np.arange(n)[:, None]  # arrays are (j, m)
    a = (abs(u) ** 2 + abs(v) ** 2) * (4 * j + 2 * p + 1) / 4 - (2 * m + 1) / 4
    e2 = abs(u * v) ** 2 / 4 * (2 * j + p + 1.0) * (2 * j + p + 2.0)  # couples j and j + 1
    d, r, tiny = a.copy(), a.copy(), np.finfo(float).tiny  # tiny stands in for a zero pivot
    for i, k in zip(range(1, n), range(n - 2, -1, -1)):  # d downwards, r upwards
        d[i - 1][d[i - 1] == 0] = tiny
        d[i] -= e2[i - 1] / d[i - 1]
        r[k + 1][r[k + 1] == 0] = tiny
        r[k] -= e2[k] / r[k + 1]
    twist, e = np.argmin(np.abs(d + r - a), axis=0), np.sqrt(e2)
    # z is 1 at the twist and gains one factor per step outwards: products of the
    # factors, masked to 1 on the twist's other side, from the top and from the bottom
    down, up = np.ones_like(a), np.ones_like(a)
    down[:-1] = np.where(j[:-1] < twist, -(e[:-1] / d[:-1]), 1.0)
    up[1:] = np.where(j[1:] > twist, -(e[:-1] / r[1:]), 1.0)
    z = np.cumprod(down[::-1], axis=0)[::-1] * np.cumprod(up, axis=0)
    z /= np.linalg.norm(z, axis=0)
    conj_d = np.exp(1j * np.angle(-np.conj(u * v)) * np.arange(n))
    even, odd = z[:, 0::2].T * conj_d, z[:, 1::2].T * conj_d
    # overlap[m - 1] = <image of row m - 1 under conj(u) a - v a+, row m>, from the even
    # and odd one of the two rows, ev and od: sums over column pairs (2j, 2j+1), (2j+2, 2j+1)
    m = np.arange(1, b)
    ev, od, root = even[m // 2], odd[(m - 1) // 2], np.sqrt(np.arange(columns))
    s1 = np.sum(root[1::2] * ev * od.conj(), axis=1)
    s2 = np.sum(root[2::2] * ev[:, 1:] * od[:, :-1].conj(), axis=1)
    overlap = np.where(m % 2, np.conj(u) * s1 - v * s2, np.conj(u * s2) - v * np.conj(s1))
    phase = np.cumprod(np.concatenate([[vacuum / even[0, 0]], overlap / np.abs(overlap)]))
    phase /= np.abs(phase[0])
    return even * phase[0::2, None], odd * phase[1::2, None]


def generator_bands(cutoff: int):
    """Generator triple (b+, b-, bx) = J/(4B) as {offset: diagonal}: J at B = 1/4."""
    return dispersion_bands(0.25, cutoff)


def quadrature_bands(cutoff: int):
    """Reduced momentum and coordinate, p_hat and x_hat, as {offset: diagonal}."""
    lower = ladder_bands(cutoff)[1]
    p_band = lower / np.sqrt(2.0)
    x_hat = {-1: 1j * -lower.conj() / np.sqrt(2.0), 1: 1j * lower / np.sqrt(2.0)}
    return {-1: p_band, 1: p_band}, x_hat


def _leading_conjugate(u: MetaplecticUnitary, bands: dict) -> np.ndarray:
    """The leading cutoff/4 block of U A U+, from the parity blocks R_p of the rows.

    Band k of A takes a column of parity p to one of parity q = (p + k) mod 2, so
    (R_p A) R_q+ fills out[p::2, q::2].  The bands reach two levels past the rows'
    columns (`_band_levels`): the entry a truncation distorts, b+'s last, meets no row.
    """
    rows = u.check_rows
    rows_a = {}  # (p, q): R_p A over the columns of parity q
    for k, diagonal in bands.items():
        for p, r in enumerate(rows):
            q = (p + k) % 2
            shift = (p + k - q) // 2  # column j of block p meets column j + shift of block q
            lo, hi = max(0, -shift), min(r.shape[1], rows[q].shape[1] - shift)
            first = 2 * lo + p + min(k, 0)  # A[i + max(-k, 0), i + max(k, 0)] = diagonal[i]
            out = rows_a.setdefault((p, q), np.zeros((len(r), rows[q].shape[1]), dtype=complex))
            out[:, lo + shift:hi + shift] += r[:, lo:hi] * diagonal[first:first + 2 * (hi - lo):2]
    conjugate = np.zeros((u.cutoff // 4,) * 2, dtype=complex)
    for (p, q), product in rows_a.items():
        conjugate[p::2, q::2] = product @ rows[q].conj().T
    return conjugate


def _band_levels(u: MetaplecticUnitary) -> int:
    return sum(r.shape[1] for r in u.check_rows) + 2


def verify_homomorphism(u: MetaplecticUnitary, tol: float) -> dict:
    """Compare U p U+, U x U+ against the classical matrix action.

    The quantum side conjugates with the leading rows of U, the classical side
    is the S that U was read off.  Residuals are taken on the leading cutoff/4 block.
    """
    p_hat, x_hat = quadrature_bands(_band_levels(u))
    block, ((pi, xi), (th, la)) = u.cutoff // 4, u.group_rows
    lhs_p, lhs_x = _leading_conjugate(u, p_hat), _leading_conjugate(u, x_hat)
    p_lead, x_lead = _dense(p_hat, block), _dense(x_hat, block)
    res_p = float(np.max(np.abs(lhs_p - (pi * p_lead + th * x_lead))))
    res_x = float(np.max(np.abs(lhs_x - (xi * p_lead + la * x_lead))))
    max_res = max(res_p, res_x)
    return {"angles": u.angles.triple(), "cutoff": u.cutoff, "block": block,
            "matrix": {"Pi": pi, "Xi": xi, "Theta": th, "Lambda": la}, "residual_p": res_p,
            "residual_x": res_x, "max_residual": max_res, "tol": tol, "passed": max_res < tol}


def rationalize_symplectic(rows) -> list:
    """Nearest small-denominator rational matrix that is exactly in SL(2, Q).

    Three entries are rounded to denominator <= 1e6 and the fourth is solved
    exactly from the determinant condition, dividing by the largest available
    partner entry so the completion stays well conditioned.  Takes the float
    rows ((Pi, Xi), (Theta, Lambda)).
    """
    (pi, xi), (th, la) = rows

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


def verify_basis_transformation(u: MetaplecticUnitary, tol: float) -> dict:
    """Check the generator transformation law against numerical conjugation.

    The engine-derived coefficient rows come from the exact symbolic
    substitution at a rational approximant of the S that U was read off;
    the published rows are evaluated alongside so their verdicts are
    recorded.  Residuals are measured on the leading cutoff/4 block.
    """
    gens = dict(zip(("+", "-", "x"), generator_bands(_band_levels(u))))
    block = u.cutoff // 4
    report = {"angles": u.angles.triple(), "cutoff": u.cutoff, "block": block, "tol": tol, "rows": {}}
    engine_rows = engine_transform_rows(rationalize_symplectic(u.group_rows))
    bp_lead, bm_lead, bx_lead = (_dense(g, block) for g in gens.values())
    printed_rows = printed_transform_rows(u.group_rows)

    def residual(numeric, c) -> float:
        return float(np.max(np.abs(numeric - (c[0] * bp_lead + c[1] * bm_lead + c[2] * bx_lead))))

    worst = 0.0
    for kind in ("+", "-", "x"):
        numeric = _leading_conjugate(u, gens[kind])
        coeffs = tuple(float(c) for c in engine_rows[kind])
        res_engine, res_printed = residual(numeric, coeffs), residual(numeric, printed_rows[kind])
        worst = max(worst, res_engine)
        report["rows"][kind] = {"engine_coefficients": coeffs, "printed_coefficients": printed_rows[kind],
                                "engine_residual": res_engine, "printed_residual": res_printed,
                                "printed_row_holds": res_printed < tol}
    report.update(max_residual=worst, passed=worst < tol)
    return report
