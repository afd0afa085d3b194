"""Output checks for every benchmark job, independent of lctkit's code.

* Exact tables and closure: compared exactly with a golden corpus recorded at
  the commit that introduced the benchmark (`golden/`), misprint residual
  texts included.
* Homomorphism and basis-law floats: recomputed from `scipy.linalg.expm` of
  the angle matrix, within tolerances scaled to the size of what they judge.
* Transforms: recomputed from this package's own Hermite basis, a generator
  written from the closed-form matrix elements, and `scipy.linalg.expm`.

Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import basis_matrix

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TABLE_COUNT = 21  # Eq10 ... Eq75
EXACT_COUNTS = {"pass": 19, "warn": 5, "fail": 0}
# basis-law: the printed rows for b+ and b- never hold, the bx row always does
UNITARY_COUNTS = {"pass": 1, "warn": 1, "fail": 0}
# floats computed along two different but exact-in-principle paths
MATRIX_RTOL = 1e-12
# engine rows are exact at a rational approximant of S (denominators <= 1e6)
ROW_RTOL = 1e-6
# eigh-based vs expm-based unitary, projection and synthesis by different sums
AMPLITUDE_RTOL = 1e-9
CAPTURED_WEIGHT_TOL = 1e-9


def golden_path(signature) -> Path:
    return GOLDEN_DIR / f"verify-all-{signature[0]}-{signature[1]}.json"


def load_golden(signature) -> list:
    return json.loads(golden_path(signature).read_text(encoding="utf-8"))


def symplectic_from_angles(angles) -> np.ndarray:
    """S = expm(M), M = 1/2 ((-tx, tp + tm), (tm - tp, tx)), blocks ((Pi, Xi), (Theta, Lambda))."""
    tp, tm, tx = angles
    return scipy.linalg.expm(0.5 * np.array([[-tx, tp + tm], [tm - tp, tx]]))


def generator_rows(s: np.ndarray) -> dict:
    """Coefficient rows of the substituted generators over (b+, b-, bx).

    b = v Q v^T / 4 with v = (p, x); under v -> v S it becomes v S Q S^T v^T / 4,
    and a symmetric form Q' re-expands as ((Q'11 + Q'22)/2, (Q'11 - Q'22)/2, Q'12).
    """
    forms = {"+": np.eye(2), "-": np.diag([1.0, -1.0]), "x": np.array([[0.0, 1.0], [1.0, 0.0]])}
    rows = {}
    for kind, q in forms.items():
        t = s @ q @ s.T
        rows[kind] = ((t[0, 0] + t[1, 1]) / 2, (t[0, 0] - t[1, 1]) / 2, t[0, 1])
    return rows


def printed_rows(s: np.ndarray) -> dict:
    """The published coefficient rows of the 1D transformation law."""
    (pi, xi), (th, la) = s
    return {
        "+": (0.5 * (pi * pi + th * th), 0.5 * (xi * xi - la * la), pi * th + xi * la),
        "-": (0.5 * (pi * pi + th * th), -0.5 * (xi * xi - la * la), pi * th - xi * la),
        "x": (pi * xi + th * la, pi * xi - th * la, pi * la + th * xi),
    }


def _close(a, b, rtol, scale) -> bool:
    return abs(a - b) <= rtol * max(1.0, scale)


def check_homomorphism(check: dict, angles, tol: float) -> list:
    problems = []
    rep = check["report"]
    if check["status"] != "pass" or rep["failed"]:
        problems.append(f"homomorphism status {check['status']}")
    if not rep["max_residual"] < tol:
        problems.append(f"homomorphism residual {rep['max_residual']!r} >= tol {tol!r}")
    s = symplectic_from_angles(angles)
    scale = float(np.max(np.abs(s)))
    got = np.array([[rep["matrix"]["Pi"], rep["matrix"]["Xi"]],
                    [rep["matrix"]["Theta"], rep["matrix"]["Lambda"]]])
    if not np.all(np.abs(got - s) <= MATRIX_RTOL * max(1.0, scale)):
        problems.append(f"homomorphism matrix {got.tolist()} != expm {s.tolist()}")
    det = got[0, 0] * got[1, 1] - got[0, 1] * got[1, 0]
    if not _close(det, 1.0, MATRIX_RTOL, scale * scale):
        problems.append(f"homomorphism matrix determinant {det!r}")
    return problems


def check_basis_law(check: dict, angles, tol: float) -> list:
    problems = []
    rep = check["report"]
    if not rep["max_residual"] < tol:
        problems.append(f"basis-law engine residual {rep['max_residual']!r} >= tol {tol!r}")
    s = symplectic_from_angles(angles)
    engine, printed = generator_rows(s), printed_rows(s)
    scale = float(np.max(np.abs(s))) ** 2
    expected_warn = [k for k in ("+", "-", "x")
                     if not all(_close(a, b, ROW_RTOL, scale) for a, b in zip(printed[k], engine[k]))]
    warned = [f["indices"][0] for f in rep["failed"]]
    if warned != expected_warn:
        problems.append(f"basis-law warned rows {warned}, expected {expected_warn}")
    if check["status"] != ("warn" if expected_warn else "pass"):
        problems.append(f"basis-law status {check['status']}")
    for f in rep["failed"]:
        kind = f["indices"][0]
        got = [float(c) for c in f["corrected_rhs"]["coefficients"]]
        if kind in engine and not all(_close(a, b, ROW_RTOL, scale) for a, b in zip(got, engine[kind])):
            problems.append(f"basis-law row {kind}: {got} != {list(engine[kind])}")
        if not float(f["residual"]) >= tol:
            problems.append(f"basis-law row {kind} warned with residual {f['residual']} < tol")
    return problems


def check_verify(expect: dict, payload: dict, golden=None) -> list:
    """A `verify` report: inputs echoed, counts, golden tables, float checks."""
    problems = []
    inputs = payload.get("inputs", {})
    sig = expect["signature"] or (2, 0)
    if inputs.get("metric") != list(sig) or inputs.get("angles") != list(expect["angles"]) \
            or inputs.get("cutoff") != expect["cutoff"]:
        problems.append(f"inputs echoed as {inputs}")
    checks = {c["name"]: c for c in payload["checks"]}
    if golden is not None:
        if payload["counts"] != EXACT_COUNTS:
            problems.append(f"counts {payload['counts']} != {EXACT_COUNTS}")
        exact = payload["checks"][:TABLE_COUNT + 1]
        if exact != golden:
            bad = [g["name"] for g, c in zip(golden, exact) if g != c]
            problems.append(f"exact reports differ from golden corpus: {bad or 'length'}")
    elif payload["counts"] != UNITARY_COUNTS:
        problems.append(f"counts {payload['counts']} != {UNITARY_COUNTS}")
    for name, judge in (("homomorphism", check_homomorphism), ("basis-law", check_basis_law)):
        if name not in checks:
            problems.append(f"missing check {name}")
        else:
            problems += judge(checks[name], expect["angles"], expect["tol"])
    return problems


def read_wavefunction(path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "x,re,im":
        raise ValueError(f"{path}: header {lines[0]!r}")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def reference_transform(grid, values, spec) -> tuple[np.ndarray, float]:
    """Project, act with expm(i G), synthesise; returns (amplitudes, captured weight)."""
    cutoff = spec["cutoff"]
    basis = basis_matrix(cutoff, grid, spec["X"], spec["P"], spec["B"])
    weights = np.full(grid.size, grid[1] - grid[0])
    weights[0] = weights[-1] = weights[0] / 2
    coeffs = basis.conj() @ (values * weights)
    # quarter-normalised generators: b+ = (2n+1)/4 on the diagonal, b- and bx
    # couple n and n+2 with sqrt((n+1)(n+2))/4 (times i for bx)
    n = np.arange(cutoff)
    amp = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 4
    gen = np.diag((2 * n + 1) / 4 * spec["theta_plus"]).astype(complex)
    upper = spec["theta_minus"] * amp + 1j * spec["theta_cross"] * amp
    gen += np.diag(upper, 2) + np.diag(upper.conj(), -2)
    # the number basis carries an extra i^n per level relative to the
    # real Hermite-Gaussian wavefunctions
    phase = 1j ** n
    unitary = (phase[:, None] * scipy.linalg.expm(1j * gen)) * phase.conj()[None, :]
    return (unitary @ coeffs) @ basis, float(np.sum(np.abs(coeffs) ** 2))


def check_transform(expect: dict, out_path) -> list:
    problems = []
    grid, values = read_wavefunction(expect["input"])
    out_grid, out_values = read_wavefunction(out_path)
    if not np.array_equal(grid, out_grid):
        return ["output grid differs from input grid"]
    ref, weight = reference_transform(grid, values, expect["spec"])
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(out_values - ref)))
    if not err <= AMPLITUDE_RTOL * scale:
        problems.append(f"amplitudes differ from reference by {err:.3e} (scale {scale:.3e})")
    moments = json.loads(Path(str(out_path) + ".meta.json").read_text(encoding="utf-8"))
    if not abs(moments["captured_weight"] - 1.0) <= CAPTURED_WEIGHT_TOL:
        problems.append(f"captured_weight {moments['captured_weight']!r}")
    if not abs(weight - 1.0) <= CAPTURED_WEIGHT_TOL:
        problems.append(f"input weight in the reference basis is {weight!r}")
    return problems


def check_job(expect: dict, record: dict, golden_cache: dict) -> list:
    """All problems with one executed job; an exception while checking is one too."""
    if record["exit"] != 0:
        return [f"exit {record['exit']}: {record['error']}"]
    try:
        if expect["kind"] == "transform":
            return check_transform(expect, record["out"])
        payload = json.loads(Path(record["out"]).read_text(encoding="utf-8"))
        golden = None
        if expect["all"]:
            sig = tuple(expect["signature"])
            if sig not in golden_cache:
                golden_cache[sig] = load_golden(sig)
            golden = golden_cache[sig]
        return check_verify(expect, payload, golden)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
