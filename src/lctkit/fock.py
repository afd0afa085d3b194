"""Truncated matrix representations of ladder and dispersion operators.

The number basis carries the standard ladder actions sqrt(n), sqrt(n+1); the
quadratic dispersion operators follow as

    Jplus  diagonal, entries (2n+1) B
    Jminus = B (Zminus^2 + Zplus^2),      +-2 band
    Jcross = i B (Zminus^2 - Zplus^2),    +-2 band

Operators are built as {offset: diagonal} (`ladder_bands`, `dispersion_bands`)
and the numerical engine works on those; the `*_matrices` and `sigma_operators`
are dense views through `_dense`, for output edges and matrix identities.

All matrices are Hermitian exactly as stored.  A cutoff Fock space cannot
represent the top of the tower faithfully: identities are only valid on the
leading (cutoff-2) block, and the boundary rows are deliberately left with
their truncation-distorted values.  The mean coordinate X and momentum P never
enter the entries; the basis is the displaced family itself, so every operator
here is (X, P)-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CutoffTooSmall(ValueError):
    """Requested construction needs a larger truncation."""


@dataclass(frozen=True)
class TruncatedOperator:
    """A cutoff x cutoff complex matrix with a human-readable label."""

    cutoff: int
    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.cutoff, self.cutoff):
            raise ValueError(f"matrix must be {self.cutoff}x{self.cutoff}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)


def _dense(bands: dict, size: int) -> np.ndarray:
    """The leading size x size corner of a banded operator as a dense matrix."""
    m = np.zeros((size, size), dtype=complex)
    for k, diagonal in bands.items():
        idx = np.arange(size - abs(k))
        m[idx + max(-k, 0), idx + max(k, 0)] = diagonal[: idx.size]
    return m


def ladder_bands(cutoff: int) -> dict:
    """Zminus as {offset: diagonal}: sqrt(n) at (n-1, n); Zplus is its adjoint."""
    if cutoff < 2:
        raise CutoffTooSmall("ladder matrices need cutoff >= 2")
    return {1: np.sqrt(np.arange(1, cutoff)).astype(complex)}


def ladder_matrices(cutoff: int):
    """Lowering/raising pair: Zminus has sqrt(n) at (n-1, n), Zplus its adjoint."""
    zm = _dense(ladder_bands(cutoff), cutoff)
    return TruncatedOperator(cutoff, zm, "zminus"), TruncatedOperator(cutoff, zm.conj().T, "zplus")


def dispersion_bands(B: float, cutoff: int):
    """Dispersion triple (Jplus, Jminus, Jcross) at scale B, each as {offset: diagonal}.

    Entries are written directly from the closed-form matrix elements so the
    Jplus diagonal is exactly (2n+1) B for n <= cutoff-2; the last diagonal
    entry keeps its truncated value (cutoff-1) B.
    """
    if not B > 0:
        raise ValueError("dispersion scale B must be positive")
    if cutoff < 4:
        raise CutoffTooSmall("dispersion matrices need cutoff >= 4")
    n = np.arange(cutoff)
    jp = ((2 * n + 1) * B).astype(complex)
    jp[-1] = (cutoff - 1) * B
    amp = (np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) * B).astype(complex)
    return {0: jp}, {-2: amp, 2: amp}, {-2: -1j * amp, 2: 1j * amp}


def dispersion_matrices(B: float, cutoff: int):
    """Dense views of `dispersion_bands`."""
    return tuple(
        TruncatedOperator(cutoff, _dense(bands, cutoff), label)
        for bands, label in zip(dispersion_bands(B, cutoff), ("jplus", "jminus", "jcross"))
    )


def sigma_operators(B: float, cutoff: int):
    """Momentum and coordinate dispersion operators (SigmaP, SigmaX).

    SigmaP is the Jplus diagonal itself; SigmaX rescales it by A/B with
    A = 1/(4B), so the eigenvalues are (2n+1) B and (2n+1) A.
    """
    jp = dispersion_bands(B, cutoff)[0][0]
    a = 1.0 / (4.0 * B)
    return (
        TruncatedOperator(cutoff, _dense({0: jp}, cutoff), "sigma_p"),
        TruncatedOperator(cutoff, _dense({0: jp * (a / B)}, cutoff), "sigma_x"),
    )
