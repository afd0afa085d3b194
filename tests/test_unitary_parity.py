"""The eigh oracle's parity split, and the unitary read off S against it.

`lct_oracles.eigh_unitary` exponentiates the truncated generator one real
eigendecomposition per parity block.  Its factor form is checked here against
the dense matrix it stands for (assembly, leading rows, `apply`, and its
unitarity gate against the dense max|U+U - I| check on planted defects), and
against one complex `eigh` of the dense generator formed at its own B, so the
quarter normalisation of `generator_bands` is checked too.  The unitary of
`metaplectic` is then judged against it: the residuals of both checks against
dense conjugation, the parity bookkeeping of the leading conjugate, and the
transformed family of `transform` against the oracle's `apply`.
"""

import dataclasses

import numpy as np
import pytest
from lct_oracles import (
    UNITARITY_TOL,
    EighUnitary,
    eigh_position_convention,
    eigh_unitary,
    rows_matrix,
    unitary_matrix,
)

from lctkit.fock import _dense, dispersion_bands
from lctkit.hermite import BasisParams, CoefficientExpansion, synthesize
from lctkit.metaplectic import (
    _leading_conjugate,
    build_unitary,
    generator_bands,
    position_convention_unitary,
    quadrature_bands,
    verify_basis_transformation,
    verify_homomorphism,
)
from lctkit.symplectic import DimensionMismatch, ThetaAngles

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


def quarter_normalised(B, cutoff):
    """b = J/(4B) at scale B, formed independently of `generator_bands`."""
    return tuple({k: d / (4.0 * B) for k, d in j.items()} for j in dispersion_bands(B, cutoff))


def dense_unitary(angles, B, cutoff):
    tp, tm, tx = angles
    bp, bm, bx = (_dense(g, cutoff) for g in quarter_normalised(B, cutoff))
    evals, vecs = np.linalg.eigh(tp * bp + tm * bm + tx * bx)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def dense_leading_conjugate(u, a, block):
    return (u @ a @ u.conj().T)[:block, :block]


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("angles", EDGE_ANGLES)
def test_parity_split_matches_dense(angles, cutoff):
    got = unitary_matrix(eigh_unitary(ThetaAngles.one_dim(*angles), cutoff))
    assert np.max(np.abs(got - dense_unitary(angles, 1.3, cutoff))) <= 1e-12
    assert not np.any(got[0::2, 1::2])
    assert not np.any(got[1::2, 0::2])


def _close(got, want, judged):
    return abs(got - want) <= 1e-12 * float(np.max(np.abs(judged)))


@pytest.mark.parametrize("angles", [(0.4, 0.0, 0.0), (0.3, -0.2, 0.25), (0.5, 0.5, -0.5)])
def test_leading_block_residuals_match_dense_conjugation(angles):
    # the dense U is truncated at 512 levels, far past where the 32 judged rows end
    cutoff, dense_cutoff, B = 128, 512, 1.0
    u = dense_unitary(angles, B, dense_cutoff)
    p_hat, x_hat = (_dense(q, dense_cutoff) for q in quadrature_bands(dense_cutoff))
    built = build_unitary(ThetaAngles.one_dim(*angles), cutoff)

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
    gens = {k: _dense(g, dense_cutoff) for k, g in zip("+-x", quarter_normalised(B, dense_cutoff))}
    leads = [g[:block, :block] for g in gens.values()]
    for kind, row in law["rows"].items():
        lhs = dense_leading_conjugate(u, gens[kind], block)
        for coeffs, key in (
            (row["engine_coefficients"], "engine_residual"),
            (row["printed_coefficients"], "printed_residual"),
        ):
            want = sum(c * g for c, g in zip(coeffs, leads))
            assert _close(row[key], np.max(np.abs(lhs - want)), lhs)


def identity_factors(cutoff):
    """Parity factors (eigenvalues, eigenvectors) of the identity at cutoff."""
    return [(np.zeros(n), np.eye(n)) for n in ((cutoff + 1) // 2, cutoff // 2)]


def _factor_unitary(cutoff, blocks, phase=0.0):
    return EighUnitary(ThetaAngles.one_dim(0, 0, 0), cutoff, phase, tuple(blocks))


def test_parity_mixing_operator_is_rejected():
    # an operator that mixes even and odd levels (the level swap 0 <-> 1) has
    # no factors of parity-block sizes ceil(c/2), floor(c/2)
    _factor_unitary(16, identity_factors(16))
    whole = (np.zeros(16), np.eye(16)[[1, 0, *range(2, 16)]])
    empty = (np.zeros(0), np.eye(0))
    even, odd = identity_factors(17)
    for cutoff, blocks in (
        (16, [whole, empty]),
        (16, [whole]),
        (17, [odd, even]),
        (16, [(np.zeros(8), np.eye(8)[:, :7]), identity_factors(16)[1]]),
        (16, [(np.zeros(7), np.eye(8)), identity_factors(16)[1]]),
    ):
        with pytest.raises(ValueError, match="mixes even and odd"):
            _factor_unitary(cutoff, blocks)


def test_non_unitary_block_is_rejected():
    # level 3 is entry (1, 1) of the odd block; this plants U[3, 3] = 1 + 1e-9
    blocks = identity_factors(16)
    blocks[1][1][1, 1] = np.sqrt(1.0 + 1e-9)
    assert np.isclose(assemble_blocks(0.0, blocks)[1][1, 1], 1.0 + 1e-9, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="not unitary"):
        _factor_unitary(16, blocks)
    for bad in (np.nan, np.inf):
        blocks = identity_factors(16)
        blocks[0][0][2] = bad
        with pytest.raises(ValueError, match="not unitary"):
            _factor_unitary(16, blocks)
    with pytest.raises(ValueError, match="not unitary"):
        _factor_unitary(16, identity_factors(16), phase=np.nan)
    with pytest.raises(ValueError, match="not unitary"):
        _factor_unitary(16, [(w, v.astype(complex)) for w, v in identity_factors(16)])


def assemble_blocks(phase, blocks):
    """The dense parity blocks D V exp(iL) V^T D+ of a factor form."""
    out = []
    for evals, vecs in blocks:
        rot = np.exp(-1j * phase * np.arange(vecs.shape[0]))
        with np.errstate(invalid="ignore"):
            out.append((rot[:, None] * ((vecs * np.exp(1j * evals)) @ vecs.T)) * rot.conj())
    return out


def dense_refuses(phase, blocks):
    """The dense gate: refuse unless max|U+U - I| <= tol on both blocks."""
    return any(
        not np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))) <= UNITARITY_TOL
        for b in assemble_blocks(phase, blocks)
    )


def planted_defects(blocks):
    """(name, parity, factors) with one defect planted in one factor of one block."""
    for parity, (evals, vecs) in enumerate(blocks):
        n = vecs.shape[0]
        for j in sorted({0, n // 2, n - 1}):
            i = int(np.argmax(np.abs(vecs[:, j])))
            for scale in (0.1, 0.25, 0.3, 0.45, 0.55, 1.0, 3.0, 10.0):
                eps = scale * UNITARITY_TOL
                for name, i_row in (("entry", i), ("entry-off", (i + 1) % n)):
                    v = vecs.copy()
                    v[i_row, j] += eps
                    yield f"{name} {parity} ({i_row},{j}) {scale}", parity, (evals, v)
                v = vecs.copy()
                v[:, j] *= 1.0 + eps
                yield f"column {parity} {j} x(1+{scale} tol)", parity, (evals, v)
            for bad in (np.nan, np.inf, -np.inf):
                w = evals.copy()
                w[j] = bad
                yield f"eigenvalue {parity} {j} {bad}", parity, (w, vecs)


@pytest.mark.parametrize("cutoff", [16, 33, 256])
@pytest.mark.parametrize("angles", [(0.7, 0.0, 0.0), (0.0, 0.7, 0.0), (0.3, -0.2, 0.25)])
def test_factor_gate_refuses_every_defect_the_dense_check_refuses(angles, cutoff):
    u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
    assert not dense_refuses(u.phase, u.blocks)
    refused = 0
    for name, parity, block in planted_defects(u.blocks):
        blocks = list(u.blocks)
        blocks[parity] = block
        if dense_refuses(u.phase, blocks):
            refused += 1
            try:
                dataclasses.replace(u, blocks=tuple(blocks))
            except ValueError as exc:
                assert "not unitary" in str(exc), name
            else:
                pytest.fail(f"the factor gate accepts a defect the dense check refuses: {name}")
    # the planted sizes straddle the tolerance: the dense check refuses most
    assert refused >= 30


@pytest.mark.parametrize("cutoff", [16, 33, 256])
@pytest.mark.parametrize("angles", [(0.0, 0.0, 0.7), (0.3, -0.2, 0.25)])
def test_flipped_band_phase_passes_both_gates_and_the_true_rows_tell_it_apart(angles, cutoff):
    u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
    flipped = dataclasses.replace(u, phase=-u.phase)
    assert not dense_refuses(flipped.phase, flipped.blocks)
    assert np.max(np.abs(unitary_matrix(flipped) - unitary_matrix(u))) > 1e-3
    # the flipped first rows are not the true ones; at 256 levels the oracle's are
    true = build_unitary(ThetaAngles.one_dim(*angles), 16).check_rows
    width = min(true.shape[1], cutoff)
    for oracle, differs in ((flipped, True), (u, False)):
        gap = np.max(np.abs(rows_matrix(oracle.leading_rows(4))[:, :width] - true[:, :width]))
        assert gap > 1e-3 if differs else (cutoff < 256 or gap <= 1e-13)


@pytest.mark.parametrize("cutoff", [16, 17, 33, 64, 255, 256, 511, 1024])
def test_every_built_unitary_passes_the_factor_gate(cutoff):
    rng = np.random.default_rng(cutoff)
    angle_sets = EDGE_ANGLES + [(2.0, -2.0, 2.0)] + [tuple(rng.uniform(-2, 2, 3)) for _ in range(3)]
    for angles in angle_sets:
        u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
        if cutoff <= 256:
            assert not dense_refuses(u.phase, u.blocks), angles


def reference_unitary(angles, cutoff):
    """The dense assembly the eigh route made before its factor form, verbatim."""
    tp, tm, tx = angles
    bp, bm, bx = generator_bands(cutoff)
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
    return u


UNEVEN_CUTOFFS = [17, 33, 36, 45, 257]


@pytest.mark.parametrize("cutoff", UNEVEN_CUTOFFS + [16, 1024])
@pytest.mark.parametrize("angles", EDGE_ANGLES)
def test_dense_view_is_the_reference_assembly_byte_for_byte(angles, cutoff):
    u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
    assert np.array_equal(unitary_matrix(u), reference_unitary(angles, cutoff))


@pytest.mark.parametrize("cutoff", UNEVEN_CUTOFFS)
@pytest.mark.parametrize("angles", [(0.3, -0.2, 0.25), (0.5, 0.5, -0.5), (2.0, -1.5, 1.7)])
def test_leading_rows_match_the_dense_view(angles, cutoff):
    u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
    dense = unitary_matrix(u)
    for m in sorted({1, 2, 3, 8, 9, cutoff // 4, cutoff // 2 + 1, cutoff - 1, cutoff}):
        rows = np.zeros((m, cutoff), dtype=complex)
        for parity, r in enumerate(u.leading_rows(m)):
            rows[parity::2, parity::2] = r
        assert np.max(np.abs(rows - dense[:m])) <= 1e-15 * np.max(np.abs(dense[:m])), m
    assert all(a is b for a, b in zip(u.check_rows, u.check_rows))


@pytest.mark.parametrize("cutoff", [16, 17, 33, 36, 45, 256, 257])
@pytest.mark.parametrize("angles", EDGE_ANGLES)
def test_apply_matches_the_dense_view(angles, cutoff):
    u = eigh_unitary(ThetaAngles.one_dim(*angles), cutoff)
    rng = np.random.default_rng(cutoff)
    for v in (rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff), np.eye(cutoff)[cutoff - 1]):
        got = u.apply(v)
        assert np.max(np.abs(got - unitary_matrix(u) @ v)) <= 1e-12 * np.linalg.norm(v)


def test_apply_refuses_a_vector_of_another_length():
    u = eigh_unitary(ThetaAngles.one_dim(0.3, -0.2, 0.25), 33)
    for v in (np.ones(32), np.ones(34), np.ones((1, 33)), np.ones(0)):
        with pytest.raises(DimensionMismatch, match="does not match cutoff 33"):
            u.apply(v)


@pytest.mark.parametrize("cutoff", [16, 17, 33, 256])
@pytest.mark.parametrize("angles", EDGE_ANGLES)
def test_transformed_family_matches_the_oracle_apply(angles, cutoff):
    # what `transform` synthesises, sum_n c_n U phi_n in the transformed family,
    # against U c from the oracle, truncated far past the levels U c reaches
    params = BasisParams(0.3, 0.2, 0.5)
    rng = np.random.default_rng(cutoff)
    coeffs = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
    coeffs /= np.linalg.norm(coeffs)
    grid = np.linspace(-45.0, 45.0, 4501)
    family = position_convention_unitary(build_unitary(ThetaAngles.one_dim(*angles), cutoff)).family()
    got = synthesize(CoefficientExpansion(params, cutoff, coeffs), grid, family).values
    wide = 4 * cutoff + 64
    oracle = eigh_position_convention(eigh_unitary(ThetaAngles.one_dim(*angles), wide))
    image = oracle.apply(np.concatenate([coeffs, np.zeros(wide - cutoff)]))
    want = synthesize(CoefficientExpansion(params, wide, image), grid).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


def band_operators(cutoff):
    return dict(zip(("p_hat", "x_hat", "b+", "b-", "bx"),
                    (*quadrature_bands(cutoff), *generator_bands(cutoff))))


@pytest.mark.parametrize("cutoff", [32, 33, 128, 17, 36, 45, 257])
@pytest.mark.parametrize("angles", [(0.4, 0.0, 0.0), (0.3, -0.2, 0.25), (0.0, 0.7, -0.5)])
def test_leading_conjugate_of_every_band_operator_matches_dense(angles, cutoff):
    # the parity bookkeeping against dense products of the same rows
    B = 1.3
    u = build_unitary(ThetaAngles.one_dim(*angles), cutoff)
    block, columns = cutoff // 4, u.check_rows.shape[1] + 2
    rows = np.pad(u.check_rows, ((0, 0), (0, 2)))
    dense = dense_operators(B, columns)
    for name, bands in band_operators(columns).items():
        a = dense[name]
        assert np.max(np.abs(_dense(bands, columns) - a)) <= 1e-15 * np.max(np.abs(a)), name
        got = _leading_conjugate(u, bands)
        want = (rows @ a @ rows.conj().T)[:block, :block]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(a)), name
