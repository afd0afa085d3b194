"""Truncated Fock-space operators: entries, bands, truncation behaviour."""

import numpy as np
import pytest
from lct_oracles import truncated_commutator_check

from lctkit.fock import (
    CutoffTooSmall,
    TruncatedOperator,
    dispersion_bands,
    dispersion_matrices,
    ladder_bands,
    ladder_matrices,
    sigma_operators,
)


def loop_ladder_matrices(cutoff):
    """The entry-by-entry construction the banded builders replaced."""
    zm = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        zm[n - 1, n] = np.sqrt(n)
    return zm, zm.conj().T


def loop_dispersion_matrices(B, cutoff):
    jp = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(cutoff - 1):
        jp[n, n] = (2 * n + 1) * B
    jp[cutoff - 1, cutoff - 1] = (cutoff - 1) * B
    jm = np.zeros((cutoff, cutoff), dtype=complex)
    jx = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(cutoff - 2):
        amp = np.sqrt((n + 1) * (n + 2)) * B
        jm[n, n + 2] = amp
        jm[n + 2, n] = amp
        jx[n, n + 2] = 1j * amp
        jx[n + 2, n] = -1j * amp
    return jp, jm, jx


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


@pytest.mark.parametrize("cutoff", [4, 5, 16, 33])
@pytest.mark.parametrize("B", [0.25, 1.0, 2.5])
def test_dense_views_and_bands_match_loop_construction_bitwise(B, cutoff):
    zm, zp = ladder_matrices(cutoff)
    views = [zm, zp, *dispersion_matrices(B, cutoff)]
    loops = [*loop_ladder_matrices(cutoff), *loop_dispersion_matrices(B, cutoff)]
    for view, want in zip(views, loops):
        assert_bitwise_equal(view.matrix, want)
    bands = [ladder_bands(cutoff), *dispersion_bands(B, cutoff)]
    for op, want in zip(bands, [loops[0], *loops[2:]]):
        offsets = {k for k in range(1 - cutoff, cutoff) if np.any(np.diagonal(want, k))}
        assert set(op) == offsets
        for k, diagonal in op.items():
            assert_bitwise_equal(diagonal, np.diagonal(want, k))


def test_ladder_matrix_entries_cutoff_three():
    zm, zp = ladder_matrices(3)
    want = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
    assert np.array_equal(zm.matrix, want)
    assert np.array_equal(zp.matrix, want.conj().T)


def test_lowering_annihilates_ground_state():
    zm, _ = ladder_matrices(8)
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert np.all(zm.matrix @ e0 == 0)


def test_ladder_commutator_truncation_artifact():
    cutoff = 9
    zm, zp = ladder_matrices(cutoff)
    comm = zm.matrix @ zp.matrix - zp.matrix @ zm.matrix
    assert np.max(np.abs(comm[: cutoff - 1, : cutoff - 1] - np.eye(cutoff - 1))) < 1e-14
    assert comm[cutoff - 1, cutoff - 1] == pytest.approx(-(cutoff - 1), rel=1e-14)


def test_dispersion_diagonal():
    jp, _, _ = dispersion_matrices(1.0, 5)
    assert np.array_equal(np.diag(jp.matrix).real, [1, 3, 5, 7, 4])
    jp2, _, _ = dispersion_matrices(2.5, 6)
    assert np.array_equal(np.diag(jp2.matrix).real[:5], 2.5 * np.array([1, 3, 5, 7, 9]))


def test_band_entries_match_ladder_products():
    B, cutoff = 1.7, 12
    zm, zp = ladder_matrices(cutoff)
    jp, jm, jx = dispersion_matrices(B, cutoff)
    jm_prod = B * (zm.matrix @ zm.matrix + zp.matrix @ zp.matrix)
    jx_prod = 1j * B * (zm.matrix @ zm.matrix - zp.matrix @ zp.matrix)
    scale = np.max(np.abs(jm_prod))
    assert np.max(np.abs(jm.matrix - jm_prod)) < 1e-14 * scale
    assert np.max(np.abs(jx.matrix - jx_prod)) < 1e-14 * scale
    for n in range(cutoff - 2):
        want = np.sqrt((n + 1) * (n + 2)) * B
        assert jm.matrix[n, n + 2] == pytest.approx(want, rel=1e-15)
        assert jm.matrix[n + 2, n] == pytest.approx(want, rel=1e-15)


def test_lowering_raising_combinations():
    B, cutoff = 0.8, 10
    _, jm, jx = dispersion_matrices(B, cutoff)
    lower = jm.matrix - 1j * jx.matrix
    raise_ = jm.matrix + 1j * jx.matrix
    for n in range(2, cutoff):
        e = np.zeros(cutoff)
        e[n] = 1.0
        out = lower @ e
        want = np.zeros(cutoff)
        want[n - 2] = 2 * np.sqrt(n * (n - 1)) * B
        assert np.max(np.abs(out - want)) < 1e-13
    for n in range(cutoff - 2):
        e = np.zeros(cutoff)
        e[n] = 1.0
        out = raise_ @ e
        want = np.zeros(cutoff)
        want[n + 2] = 2 * np.sqrt((n + 1) * (n + 2)) * B
        assert np.max(np.abs(out - want)) < 1e-13


def _is_hermitian(op, tol: float = 0.0) -> bool:
    return np.max(np.abs(op.matrix - op.matrix.conj().T)) <= tol


def test_hermiticity_exact_as_stored():
    for op in (*ladder_matrices(16), *dispersion_matrices(1.3, 16), *sigma_operators(1.3, 16)):
        if op.label.startswith("z"):
            continue
        assert _is_hermitian(op, tol=0.0)


def test_band_structure():
    jp, jm, jx = dispersion_matrices(1.0, 16)
    n = np.arange(16)
    off = np.abs(n[:, None] - n[None, :])
    assert np.all(jp.matrix[off != 0] == 0)
    assert np.all(jm.matrix[off != 2] == 0)
    assert np.all(jx.matrix[off != 2] == 0)


def test_leading_block_spectrum_exact():
    B, cutoff = 2.0, 12
    jp, _, _ = dispersion_matrices(B, cutoff)
    lead = np.sort(np.diag(jp.matrix[: cutoff - 2, : cutoff - 2]).real)
    assert np.array_equal(lead, (2 * np.arange(cutoff - 2) + 1) * B)


def test_sigma_operators():
    sp, sx = sigma_operators(0.5, 4)
    assert np.array_equal(np.diag(sx.matrix).real[:3], [0.5, 1.5, 2.5])
    sp1, sx1 = sigma_operators(1.0, 8)
    prod = np.diag(sp1.matrix @ sx1.matrix).real
    n = np.arange(6)
    assert np.max(np.abs(prod[:6] - (2 * n + 1) ** 2 / 4)) < 1e-14
    assert prod[0] == 0.25


def test_truncated_commutator_check():
    report = truncated_commutator_check(16, 1.0)
    assert report["block"] == 14
    assert report["max_restricted_residual"] < 1e-12
    for name, entry in report["identities"].items():
        assert entry["restricted_residual"] < 1e-12, name
        # the untruncated identity fails, and only at the boundary
        assert entry["full_residual"] > 1.0
        assert entry["full_residual"] == entry["boundary_residual"]


def test_cutoff_guards():
    with pytest.raises(CutoffTooSmall):
        ladder_matrices(1)
    with pytest.raises(CutoffTooSmall):
        dispersion_matrices(1.0, 3)
    with pytest.raises(CutoffTooSmall):
        truncated_commutator_check(5, 1.0)
    with pytest.raises(ValueError):
        dispersion_matrices(-1.0, 8)


def test_operator_validation():
    with pytest.raises(ValueError):
        TruncatedOperator(3, np.zeros((2, 2)), "bad")
    with pytest.raises(ValueError):
        TruncatedOperator(2, np.array([[np.inf, 0], [0, 0]]), "bad")
