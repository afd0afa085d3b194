"""Oracles and dense views that the tests judge lctkit against.

None of them is part of the library: no command forms the dense U or the
dense U A U+, the printed-against-engine comparison of the 1D transformation
law is read only by tests, and the truncated commutator identities are checks.
The group operations (`compose`, `invert`, `is_symplectic`) and the
momentum-side basis `phi_tilde` are reached by no command either; the tests
use them to judge `symplectic.exp_sp` and the Hermite basis.

`eigh_unitary` is the independent route to U: it exponentiates the generator
truncated at `cutoff` levels, one real eigendecomposition per parity block.
It is the construction lctkit used before `metaplectic` read U off S, kept as
it was.  The library builds both sides of each check from one S; this route
shares only the generator bands with it.  Its top levels feel the truncation,
and its leading rows agree with the true U to rounding once the cutoff is well
past where those rows end.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

import numpy as np

from lctkit.fock import CutoffTooSmall, TruncatedOperator, dispersion_matrices, ladder_matrices
from lctkit.hermite import BasisParams, _hermite_function, _plane_wave
from lctkit.metaplectic import generator_bands
from lctkit.symplectic import (
    DimensionMismatch,
    SymplecticMatrix,
    ThetaAngles,
    _require_symplectic,
    j_eta,
)
from lctkit.weyl import engine_transform_rows, printed_transform_rows

UNITARITY_TOL = 1e-12
COMPOSITION_TOL = 1e-9  # relative symplectic defect allowed after products/inverses


def is_symplectic(s: SymplecticMatrix, tol: float) -> bool:
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    return s.symplectic_defect() < tol


def compose(s1: SymplecticMatrix, s2: SymplecticMatrix) -> SymplecticMatrix:
    """Matrix product s1 @ s2; in the row convention s2 acts after s1."""
    if s1.metric != s2.metric:
        raise DimensionMismatch("cannot compose across different metrics")
    out = SymplecticMatrix.from_full(s1.metric, s1.full() @ s2.full())
    _require_symplectic(out, COMPOSITION_TOL, "composition")
    return out


def invert(s: SymplecticMatrix) -> SymplecticMatrix:
    """Closed-form inverse J_eta^-1 S^t J_eta from the symplectic condition."""
    j = j_eta(s.metric)
    jinv = -j  # J_eta^2 = -1 for any signature
    out = SymplecticMatrix.from_full(s.metric, jinv @ s.full().T @ j)
    _require_symplectic(out, COMPOSITION_TOL, "inverse")
    return out


def phi_tilde(n: int, p, params: BasisParams):
    """Momentum-side basis wavefunction at momentum value(s) p: phi_n with
    (x, X, A) -> (p, P, B) and the plane-wave factor exp(-i X (p-P))."""
    p = np.asarray(p, dtype=float)
    b = params.B
    v = (p - params.P) / np.sqrt(2.0 * b)
    vals = _hermite_function(n, v) * (2.0 * b) ** (-0.25)
    out = vals * _plane_wave(-params.X, p - params.P, "X")
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class EighUnitary:
    """Truncated unitary as parity factors: each block is D V e^{iL} V^T D+."""

    angles: ThetaAngles
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


def eigh_unitary(angles: ThetaAngles, cutoff: int) -> EighUnitary:
    """Factor the Hermitian angle combination one parity block at a time."""
    if cutoff < 16:
        raise CutoffTooSmall("unitary construction needs cutoff >= 16")
    tp, tm, tx = angles.triple()
    bp, bm, bx = generator_bands(cutoff)
    diagonal, band = tp * bp[0].real, np.abs(tm * bm[2] + tx * bx[2])
    blocks = []
    for parity in (0, 1):
        d, e = diagonal[parity::2], band[parity::2]
        blocks.append(np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    return EighUnitary(angles, cutoff, np.angle(complex(tm, tx)), tuple(blocks))


def eigh_position_convention(u: EighUnitary) -> EighUnitary:
    """D U D+ with D = diag(i^n): in a parity block, the band phase moved by pi."""
    shifted = object.__new__(EighUnitary)  # u's factors, gated when u was built
    vars(shifted).update({f.name: getattr(u, f.name) for f in fields(u)}, phase=u.phase + np.pi)
    return shifted


def truncated_commutator_check(cutoff: int, B: float) -> dict:
    """Residuals of the dispersion-triple and ladder commutators on the
    leading (cutoff-2) block, plus the full-matrix residual for reference.

    The full-matrix residual is expected to be O(cutoff * B) and concentrated
    in the last two rows/columns; the restricted residuals should sit at
    floating-point roundoff.
    """
    if cutoff < 6:
        raise CutoffTooSmall("commutator check needs cutoff >= 6")
    zm, zp = ladder_matrices(cutoff)
    jp, jm, jx = dispersion_matrices(B, cutoff)
    block = cutoff - 2

    def comm(a, b):
        return a @ b - b @ a

    checks = {
        "triple_plus_minus": (comm(jp.matrix, jm.matrix), 4j * B * jx.matrix),
        "triple_minus_cross": (comm(jm.matrix, jx.matrix), -4j * B * jp.matrix),
        "triple_cross_plus": (comm(jx.matrix, jp.matrix), 4j * B * jm.matrix),
        "ladder_lowering": (comm(jp.matrix, zm.matrix), -2.0 * B * zm.matrix),
        "ladder_raising": (comm(jp.matrix, zp.matrix), 2.0 * B * zp.matrix),
    }
    report = {"cutoff": cutoff, "B": B, "block": block, "identities": {}}
    for name, (lhs, rhs) in checks.items():
        full = np.abs(lhs - rhs)
        report["identities"][name] = {
            "restricted_residual": float(np.max(full[:block, :block])),
            "full_residual": float(np.max(full)),
            "boundary_residual": float(max(np.max(full[block:]), np.max(full[:, block:]))),
        }
    report["max_restricted_residual"] = max(
        v["restricted_residual"] for v in report["identities"].values()
    )
    return report


def symmetric_form(label, n):
    """S with Q = z^T S z for the quarter-normalised generator `label`.

    z = (x_0..x_{N-1}, p_0..p_{N-1}).  S is the Weyl-symmetric form, so a
    generator and its image under a linear substitution carry no ordering
    constant.
    """
    kind, mu, nu = label
    s = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]

    def add(a, b, v):
        # symmetric split of v * z_a z_b (ordering constants drop out of brackets)
        s[a][b] += v / 2
        s[b][a] += v / 2

    quarter = Fraction(1, 4)
    if kind in "+-":
        add(n + mu, n + nu, quarter)
        add(mu, nu, quarter if kind == "+" else -quarter)
    else:
        add(n + mu, nu, 2 * quarter)  # (p_mu x_nu + x_nu p_mu)/4
    return s


def hermite_polynomial(n: int, t):
    """Physicists' Hermite polynomial H_n(t) by the three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    t = np.asarray(t, dtype=float)
    h_prev = np.ones_like(t)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * t
    for k in range(1, n):
        h, h_prev = 2.0 * t * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def unitary_matrix(u) -> np.ndarray:
    """The dense cutoff x cutoff U of an `EighUnitary`, from its parity factors."""
    out = np.zeros((u.cutoff, u.cutoff), dtype=complex)
    for parity, block in enumerate(u.leading_rows(u.cutoff)):
        out[parity::2, parity::2] = block
    return out


def rows_matrix(rows) -> np.ndarray:
    """Rows split by parity, (U[0:m:2, 0::2], U[1:m:2, 1::2]), as the dense U[:m, :]."""
    even, odd = rows
    out = np.zeros((len(even) + len(odd), even.shape[1] + odd.shape[1]), dtype=complex)
    out[0::2, 0::2] = even
    out[1::2, 1::2] = odd
    return out


def conjugate(u, op: TruncatedOperator) -> TruncatedOperator:
    """U A U^dagger at matching cutoff, through the dense U."""
    if op.cutoff != u.cutoff:
        raise DimensionMismatch(f"operator cutoff {op.cutoff} does not match unitary cutoff {u.cutoff}")
    dense = unitary_matrix(u)
    return TruncatedOperator(u.cutoff, dense @ op.matrix @ dense.conj().T, f"conj({op.label})")


def verify_transform_law(S) -> dict:
    """Printed against engine-derived rows of the 1D transformation law."""
    engine = engine_transform_rows(S)
    printed = printed_transform_rows([[Fraction(v) for v in row] for row in S])
    return {kind: {"printed": printed[kind], "engine": engine[kind],
                   "holds": printed[kind] == engine[kind]} for kind in ("+", "-", "x")}
