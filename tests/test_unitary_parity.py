"""Parity-split unitary against the dense eigendecomposition it replaced.

The reference exponentiates the full dense generator with one complex
`eigh`, and conjugates with full matrix products.
"""

import numpy as np
import pytest

from lctkit.fock import TruncatedOperator, _dense
from lctkit.metaplectic import (
    UnitaryLCT,
    _leading_conjugate,
    build_unitary,
    generator_bands,
    quadrature_bands,
    verify_basis_transformation,
    verify_homomorphism,
)
from lctkit.symplectic import ThetaAngles

CUTOFFS = [16, 17, 33, 256, 257]
EDGE_ANGLES = [
    (0.0, 0.0, 0.0),
    (0.7, 0.0, 0.0),  # pure theta_plus: tm = tx = 0, diagonal generator
    (-1.3, 0.0, 0.0),  # negative theta_plus reorders the eigenvalues
    (0.0, 0.7, 0.0),  # pure theta_minus: band phase 0
    (0.0, -0.6, 0.0),  # band phase pi
    (0.0, 0.0, 0.7),  # pure theta_cross: band phase pi/2
    (0.5, 0.5, -0.5),
    (0.3, -0.2, 0.25),
]


def dense_unitary(angles, B, cutoff):
    tp, tm, tx = angles
    bp, bm, bx = (_dense(g, cutoff) for g in generator_bands(B, cutoff))
    evals, vecs = np.linalg.eigh(tp * bp + tm * bm + tx * bx)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def dense_leading_conjugate(u, a, block):
    return (u @ a @ u.conj().T)[:block, :block]


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("angles", EDGE_ANGLES)
def test_parity_split_matches_dense(angles, cutoff):
    got = build_unitary(ThetaAngles.one_dim(*angles), 1.0, cutoff).U.matrix
    assert np.max(np.abs(got - dense_unitary(angles, 1.0, cutoff))) <= 1e-12
    assert not np.any(got[0::2, 1::2])
    assert not np.any(got[1::2, 0::2])


def _close(got, want, judged):
    return abs(got - want) <= 1e-12 * float(np.max(np.abs(judged)))


@pytest.mark.parametrize("angles", [(0.4, 0.0, 0.0), (0.3, -0.2, 0.25), (0.5, 0.5, -0.5)])
def test_leading_block_residuals_match_dense_conjugation(angles):
    cutoff, B = 128, 1.0
    u = dense_unitary(angles, B, cutoff)
    p_hat, x_hat = (_dense(q, cutoff) for q in quadrature_bands(cutoff))
    built = build_unitary(ThetaAngles.one_dim(*angles), B, cutoff)

    hom = verify_homomorphism(built, 1e-6)
    block, m = hom["block"], hom["matrix"]
    assert block == cutoff // 4
    p_lead, x_lead = p_hat[:block, :block], x_hat[:block, :block]
    for key, op, want in (
        ("residual_p", p_hat, m["Pi"] * p_lead + m["Theta"] * x_lead),
        ("residual_x", x_hat, m["Xi"] * p_lead + m["Lambda"] * x_lead),
    ):
        lhs = dense_leading_conjugate(u, op, block)
        assert _close(hom[key], np.max(np.abs(lhs - want)), lhs)

    law = verify_basis_transformation(built, 1e-6)
    gens = {k: _dense(g, cutoff) for k, g in zip("+-x", generator_bands(B, cutoff))}
    leads = [g[:block, :block] for g in gens.values()]
    for kind, row in law["rows"].items():
        lhs = dense_leading_conjugate(u, gens[kind], block)
        for coeffs, key in (
            (row["engine_coefficients"], "engine_residual"),
            (row["printed_coefficients"], "printed_residual"),
        ):
            want = sum(c * g for c, g in zip(coeffs, leads))
            assert _close(row[key], np.max(np.abs(lhs - want)), lhs)


def test_parity_mixing_operator_is_rejected():
    swap = np.eye(16, dtype=complex)[[1, 0, *range(2, 16)]]
    with pytest.raises(ValueError, match="mixes even and odd"):
        UnitaryLCT(ThetaAngles.one_dim(0, 0, 0), 1.0, 16, TruncatedOperator(16, swap, "swap"))


def test_non_unitary_block_is_rejected():
    m = np.eye(16, dtype=complex)
    m[3, 3] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryLCT(ThetaAngles.one_dim(0, 0, 0), 1.0, 16, TruncatedOperator(16, m, "scaled"))


def dense_operators(B, cutoff):
    """p_hat, x_hat, b+, b-, bx as the dense formulas the bands replaced."""
    zm = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        zm[n - 1, n] = np.sqrt(n)
    zp = zm.conj().T
    jp = np.diag((2 * np.arange(cutoff) + 1) * B).astype(complex)
    jp[-1, -1] = (cutoff - 1) * B
    jm = B * (zm @ zm + zp @ zp)
    jx = 1j * B * (zm @ zm - zp @ zp)
    scale = 1.0 / (4.0 * B)
    return {
        "p_hat": (zm + zp) / np.sqrt(2.0),
        "x_hat": 1j * (zm - zp) / np.sqrt(2.0),
        "b+": jp * scale,
        "b-": jm * scale,
        "bx": jx * scale,
    }


def band_operators(B, cutoff):
    return dict(zip(("p_hat", "x_hat", "b+", "b-", "bx"),
                    (*quadrature_bands(cutoff), *generator_bands(B, cutoff))))


@pytest.mark.parametrize("cutoff", [32, 33, 128])
@pytest.mark.parametrize("angles", [(0.4, 0.0, 0.0), (0.3, -0.2, 0.25), (0.0, 0.7, -0.5)])
def test_leading_conjugate_of_every_band_operator_matches_dense(angles, cutoff):
    B = 1.3
    u = build_unitary(ThetaAngles.one_dim(*angles), B, cutoff)
    block = cutoff // 4
    dense = dense_operators(B, cutoff)
    for name, bands in band_operators(B, cutoff).items():
        a = dense[name]
        assert np.max(np.abs(_dense(bands, cutoff) - a)) <= 1e-15 * np.max(np.abs(a)), name
        got = _leading_conjugate(u, bands, block)
        want = dense_leading_conjugate(u.U.matrix, a, block)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(a)), name
