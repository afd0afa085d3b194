"""Acceptance gate: one test per contract criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line.  Run with `pytest -v` (add -s to
see the lines for passing criteria as they happen).

Known red: the tensor-table clause of criterion 1 asserts that every printed
line of tables Eq67-Eq73 verifies with zero residual.  Five printed lines
cannot hold as printed -- each equates a left side with a definite index
symmetry to a right side with the opposite symmetry (or carries the other
convention's sign), so no implementation can make them pass.  The failure
message carries the engine's analysis and corrected forms; the corrected
forms themselves verify exactly (see test_tables.py).  The test is kept
faithful to the stated criterion rather than weakened around the misprints.
"""

import math
import time

import numpy as np
import pytest

from lctkit import fock, metaplectic, symplectic, tables, weyl
from lct_oracles import hermite_polynomial, rows_matrix, truncated_commutator_check, verify_transform_law

from lctkit.hermite import BasisParams, SampledWavefunction, dispersion_estimate, phi
from lctkit.symplectic import ThetaAngles, exp_sl2, exp_sp, from_angles
from lctkit.weyl import Metric


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)


SECTION_TWO_TABLES = ("Eq10", "Eq15", "Eq16", "Eq17", "Eq18", "Eq19", "Eq20",
                      "Eq22", "Eq23", "Eq24", "Eq27", "Eq28")
TENSOR_SWEEP = [Metric(1, 0), Metric(2, 0), Metric(1, 1), Metric(3, 0), Metric(1, 2)]


def test_criterion_1_one_dimensional_tables_exact_under_10s():
    """Every 1D table line verifies with exactly zero residual in under 10 s."""
    started = time.perf_counter()
    bad = []
    checked = 0
    for table in SECTION_TWO_TABLES:
        report = tables.verify_table(table)
        checked += report.checked
        bad.extend((table, f.line, f.residual) for f in report.failed)
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 10.0
    _report("criterion-1a one-dimensional symbolic tables",
            ok, f"{checked} identities, {elapsed:.2f}s")
    assert elapsed < 10.0
    assert not bad, bad


def test_criterion_1_tensor_tables_exact_under_60s():
    """Stated criterion: every line of Eq67-Eq73 holds with zero residual for
    N in {1,2,3}, signatures (N,0) and (1,N-1).

    The engine verdict is that this is unattainable as printed; see the module
    docstring.  The assertion is kept faithful to the stated criterion.
    """
    started = time.perf_counter()
    failures = {}
    checked = 0
    for metric in TENSOR_SWEEP:
        for table in ("Eq67", "Eq68", "Eq69", "Eq70", "Eq71", "Eq72", "Eq73"):
            report = tables.verify_table(table, metric=metric)
            checked += report.checked
            for f in report.failed:
                key = (table, f.line)
                failures.setdefault(key, {"count": 0, "example": None})
                failures[key]["count"] += 1
                if failures[key]["example"] is None:
                    failures[key]["example"] = (
                        f"metric {metric.diag()}, indices {f.indices}: "
                        f"residual {f.residual}, engine value {f.corrected_rhs['normal_form']}"
                    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok = not failures
    _report("criterion-1b tensor symbolic tables", ok,
            f"{checked} identities, {elapsed:.2f}s, defective printed lines: "
            f"{sorted(failures) if failures else 'none'}")
    if failures:
        lines = [
            "printed lines that cannot hold (left/right symmetry mismatch "
            "or the other convention's sign); engine-corrected forms verify "
            "exactly and are exercised in test_tables.py:"
        ]
        for (table, line), info in sorted(failures.items()):
            lines.append(f"  {table} line {line}: {info['count']} index tuples fail; "
                         f"e.g. {info['example']}")
        pytest.fail("\n".join(lines))


def test_criterion_2_errata_detection():
    """Transformation-law rows 1-2 fail at the identity; engine rows replace
    them and match numerics; quadratic tables get per-tuple verdicts."""
    rows = verify_transform_law([[1, 0], [0, 1]])
    sanity = (
        not rows["+"]["holds"]
        and rows["+"]["printed"] == (0.5, -0.5, 0)
        and rows["+"]["engine"] == (1, 0, 0)
        and not rows["-"]["holds"]
        and rows["x"]["holds"]
    )
    numeric_ok = True
    for angles in [(0.4, 0.0, 0.0), (0.3, -0.2, 0.25), (0.0, 0.0, 0.5)]:
        rep = metaplectic.verify_basis_transformation(
            metaplectic.build_unitary(ThetaAngles.one_dim(*angles), 64), 1e-6
        )
        numeric_ok = numeric_ok and rep["passed"]
    verdicts_ok = True
    for table in ("Eq74", "Eq75"):
        report = tables.verify_table(table, metric=Metric(2, 0))
        verdicts_ok = verdicts_ok and report.checked == 48
        for f in report.failed:
            verdicts_ok = verdicts_ok and f.corrected_rhs["expansion"] is not None
    ok = sanity and numeric_ok and verdicts_ok
    _report("criterion-2 errata detection with corrected forms", ok)
    assert sanity
    assert numeric_ok
    assert verdicts_ok


def test_criterion_3_algebra_dimensions():
    """Closure dimensions N(2N+1) for N = 1..4; exact Jacobi through N = 3."""
    dims = {}
    for n in (1, 2, 3, 4):
        dims[n] = weyl.closure_and_constants(Metric(n, 0)).dimension
    jacobi_ok = all(
        not weyl.closure_and_constants(Metric(n, 0)).jacobi_violations() for n in (1, 2, 3)
    )
    expected = {1: 3, 2: 10, 3: 21, 4: 36}
    ok = dims == expected and jacobi_ok
    _report("criterion-3 algebra dimension and Jacobi", ok, f"dims {dims}")
    assert dims == expected
    assert jacobi_ok


def test_criterion_4_fock_representation():
    """Exact diagonal, band elements to 1e-14 relative, restricted residuals
    below 1e-12 at cutoff 16."""
    B, cutoff = 1.7, 16
    jp, jm, jx = fock.dispersion_matrices(B, cutoff)
    diag_ok = all(jp.matrix[n, n] == (2 * n + 1) * B for n in range(cutoff - 1))
    elements_ok = True
    for n in range(cutoff - 2):
        want = math.sqrt((n + 1) * (n + 2)) * B
        for got in (jm.matrix[n, n + 2].real, jm.matrix[n + 2, n].real,
                    jx.matrix[n, n + 2].imag, -jx.matrix[n + 2, n].imag):
            elements_ok = elements_ok and abs(got - want) <= 1e-14 * want
    lower = jm.matrix - 1j * jx.matrix
    for n in range(2, cutoff):
        want = 2 * math.sqrt(n * (n - 1)) * B
        elements_ok = elements_ok and abs(lower[n - 2, n].real - want) <= 1e-14 * want
    report = truncated_commutator_check(cutoff, B)
    residual_ok = report["max_restricted_residual"] < 1e-12
    ok = diag_ok and elements_ok and residual_ok
    _report("criterion-4 truncated representation", ok,
            f"max restricted residual {report['max_restricted_residual']:.2e}")
    assert diag_ok
    assert elements_ok
    assert residual_ok


def test_criterion_5_basis_analytics():
    """Orthonormality to 1e-8 for m,n <= 12; dispersion product law to 1e-3."""
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    worst = 0.0
    for m in range(13):
        hm = hermite_polynomial(m, nodes)
        for n in range(13):
            hn = hermite_polynomial(n, nodes)
            norm = math.sqrt(2.0 ** (m + n) * math.factorial(m) * math.factorial(n)) * math.sqrt(math.pi)
            val = float(np.sum(weights * hm * hn)) / norm
            worst = max(worst, abs(val - (1.0 if m == n else 0.0)))
    ortho_ok = worst < 1e-8
    params = BasisParams(0.0, 0.0, 0.5)
    grid = np.linspace(-14, 14, 4001)
    product_ok = True
    for n in range(6):
        wf = SampledWavefunction(grid, phi(n, grid, params))
        _, _, dx2, dp2 = dispersion_estimate(wf)
        product_ok = product_ok and abs(dx2 * dp2 - (2 * n + 1) ** 2 / 4) < 1e-3
    ok = ortho_ok and product_ok
    _report("criterion-5 basis analytics", ok, f"orthonormality worst {worst:.2e}")
    assert ortho_ok
    assert product_ok


def test_criterion_6_group_side():
    """Determinant-1 to 1e-12 over |angles| <= 4; symplectic defect < 1e-10
    for N <= 3 at both signatures with norm-bounded inputs; the two
    exponential routes agree to 1e-12 at N = 1."""
    rng = np.random.default_rng(2024)
    m1d = Metric(1, 0)
    det_ok = True
    agree_ok = True
    for _ in range(150):
        angles = ThetaAngles.one_dim(*rng.uniform(-4, 4, 3))
        s = exp_sl2(from_angles(angles, m1d))
        det_ok = det_ok and abs(np.linalg.det(s.full()) - 1.0) < 1e-12
    for _ in range(150):
        angles = ThetaAngles.one_dim(*rng.uniform(-2, 2, 3))
        m = from_angles(angles, m1d)
        agree_ok = agree_ok and np.max(np.abs(exp_sl2(m).full() - exp_sp(m).full())) < 1e-12
    defect_ok = True
    for n in (1, 2, 3):
        for signature in {(n, 0), (1, n - 1)}:
            if signature[1] < 0 or sum(signature) != n:
                continue
            metric = Metric(*signature)
            for _ in range(25):
                tp = rng.uniform(-1, 1, (n, n))
                tm = rng.uniform(-1, 1, (n, n))
                angles = ThetaAngles(n, (tp + tp.T) / 2, (tm + tm.T) / 2,
                                     rng.uniform(-1, 1, (n, n)))
                m = from_angles(angles, metric)
                norm = np.linalg.norm(m.full(), np.inf)
                if norm > 1.0:
                    scale = 1.0 / norm
                    angles = ThetaAngles(n, angles.theta_plus * scale,
                                         angles.theta_minus * scale,
                                         angles.theta_cross * scale)
                    m = from_angles(angles, metric)
                defect_ok = defect_ok and exp_sp(m).symplectic_defect() < 1e-10
    ok = det_ok and agree_ok and defect_ok
    _report("criterion-6 group exponentials", ok)
    assert det_ok
    assert agree_ok
    assert defect_ok


METAPLECTIC_SAMPLES = [
    (0.0, 0.0, 0.4),
    (0.0, 0.0, 0.5),
    (0.0, 0.5, 0.0),
    (0.3, -0.2, 0.25),
    (0.5, 0.5, -0.5),
    (0.2, 0.4, 0.1),
    (-0.4, 0.3, 0.3),
    (0.1, -0.5, 0.2),
    (0.5, 0.0, 0.5),
    (0.0, 0.4, -0.4),
]


def test_criterion_7_metaplectic_correspondence():
    """Residual < 1e-6 for |angles| <= 0.5 at cutoffs 32 and 64, from the true
    leading rows, which are orthonormal to 1e-12."""
    residual_ok = True
    unitary_ok = True
    worst = 0.0
    for sample in METAPLECTIC_SAMPLES:
        theta = ThetaAngles.one_dim(*sample)
        for cutoff in (32, 64):
            u = metaplectic.build_unitary(theta, cutoff)
            rows = rows_matrix(u.check_rows)
            defect = np.max(np.abs(rows @ rows.conj().T - np.eye(len(rows))))
            unitary_ok = unitary_ok and defect < 1e-12
            rep = metaplectic.verify_homomorphism(u, 1e-6)
            residual_ok = residual_ok and rep["passed"]
            worst = max(worst, rep["max_residual"])
    ok = residual_ok and unitary_ok
    _report("criterion-7 metaplectic correspondence", ok,
            f"worst cutoff-32/64 residual {worst:.2e}")
    assert residual_ok
    assert unitary_ok


def test_criterion_8_property_based_coverage():
    """No empirical result tables exist to replay; the contract is the
    property suite above, so this criterion only asserts that stance."""
    _report("criterion-8 property-based acceptance", True)
