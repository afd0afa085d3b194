"""Seeded job lists and input files for the benchmark workloads.

Nothing here imports lctkit: the wavefunction samples come from this file's own
Hermite recurrence, so a defect in `lctkit.hermite` cannot leak into the
inputs it is judged on.  The same seed always produces byte-identical files.

Why each workload exists:

* exact-sweep      -- `verify --all` over five metric signatures up to N=4.
                      Almost all of its time is the exact stack (scalar op,
                      monomial product, commutator, table line, table and
                      closure sweep); the numerical checks run at cutoff 64.
* transform-stream -- `transform` at cutoff 256 on 8001-point grids.  Hermite
                      projection/synthesis and CSV I/O dominate; the unitary is
                      built once per job and nothing is conjugated.
* unitary-large    -- `verify --homomorphism --basis-law` at cutoff 1024.
                      `eigh` and dense conjugations dominate; the Hermite layer
                      is never called.  A change to the unitary construction
                      moves this workload and leaves transform-stream flat; a
                      change to the Hermite basis does the reverse.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SIGNATURES = ((2, 0), (1, 1), (3, 0), (2, 1), (4, 0))
ANGLE_LIMIT = 0.5
TRANSFORM_CUTOFF = 256
TRANSFORM_POINTS = 8001
TRANSFORM_JOBS = 4
UNITARY_CUTOFF = 1024
UNITARY_JOBS = 2
EXACT_SWEEP_CUTOFF = 64
# smallest cutoff the homomorphism and basis-law checks accept
SMALLEST_VERIFY_CUTOFF = 32
SMALLEST_TRANSFORM_CUTOFF = 16
# highest Hermite level mixed into an input state
INPUT_LEVELS = 4
# half-width of the sample grid in units of the coordinate spread sqrt(A);
# the CLI needs 8, the squeezed output of a low level needs about 12
GRID_HALF_WIDTH_SIGMAS = 16.0
TOL = 1e-6


def hermite_functions(levels: int, u: np.ndarray) -> np.ndarray:
    """Rows h_0..h_{levels-1} of the normalised Hermite functions at u.

    h_n(u) = H_n(u) exp(-u^2/2) / sqrt(2^n n! sqrt(pi)), from the three-term
    recurrence in normalised form, one pass for all levels.
    """
    out = np.empty((levels, u.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if levels > 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(2, levels):
        out[k] = math.sqrt(2.0 / k) * u * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out


def basis_matrix(levels: int, grid: np.ndarray, X: float, P: float, B: float) -> np.ndarray:
    """phi_n(x) of the family (X, P, B), n < levels, as a (levels, grid) array."""
    A = 1.0 / (4.0 * B)
    u = (grid - X) / math.sqrt(2.0 * A)
    return hermite_functions(levels, u) * (2.0 * A) ** -0.25 * np.exp(1j * P * grid)


def write_wavefunction(path: Path, grid: np.ndarray, values: np.ndarray) -> None:
    rows = ["x,re,im"]
    rows += [f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}" for x, v in zip(grid, values)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _angles(rng) -> list[float]:
    return [float(v) for v in rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT, 3)]


def _angles_arg(angles) -> str:
    # `=` keeps a leading minus sign from reading as an option
    return "--angles=" + ",".join(repr(a) for a in angles)


def verify_job(signature, angles, cutoff, flags) -> dict:
    argv = ["verify", *flags, "--cutoff", str(cutoff), _angles_arg(angles)]
    if signature is not None:
        argv[1:1] = ["--signature", f"{signature[0]},{signature[1]}"]
    return {
        "argv": argv,
        "suffix": ".json",
        "expect": {"kind": "verify", "signature": signature, "angles": angles,
                   "cutoff": cutoff, "tol": TOL, "all": "--all" in flags},
    }


def transform_job(rng, workdir: Path, name: str, cutoff: int, points: int) -> dict:
    X, P = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
    B = float(rng.uniform(0.25, 1.0))
    angles = _angles(rng)
    coeffs = rng.normal(size=INPUT_LEVELS) + 1j * rng.normal(size=INPUT_LEVELS)
    coeffs /= np.linalg.norm(coeffs)
    half = GRID_HALF_WIDTH_SIGMAS * math.sqrt(1.0 / (4.0 * B))
    grid = np.linspace(X - half, X + half, points)
    values = coeffs @ basis_matrix(INPUT_LEVELS, grid, X, P, B)
    spec = {"X": X, "P": P, "B": B, "cutoff": cutoff, "theta_plus": angles[0],
            "theta_minus": angles[1], "theta_cross": angles[2]}
    wf_path, spec_path = workdir / f"{name}.csv", workdir / f"{name}.spec.json"
    write_wavefunction(wf_path, grid, values)
    spec_path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    return {
        "argv": ["transform", "--input", str(wf_path), "--spec", str(spec_path)],
        "suffix": ".csv",
        "expect": {"kind": "transform", "input": str(wf_path), "spec": spec},
    }


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under workdir; return its warm-up job and job list.

    Each job is {"argv": CLI arguments after --output, "suffix": output file
    suffix, "expect": what the oracle needs to judge the output}.
    """
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "exact-sweep":
        warmup = verify_job((1, 0), _angles(rng), SMALLEST_VERIFY_CUTOFF, ["--all"])
        order = rng.permutation(len(SIGNATURES))
        jobs = [verify_job(SIGNATURES[i], _angles(rng), EXACT_SWEEP_CUTOFF, ["--all"])
                for i in order]
    elif workload == "transform-stream":
        warmup = transform_job(rng, workdir, "warmup", SMALLEST_TRANSFORM_CUTOFF, 401)
        jobs = [transform_job(rng, workdir, f"in{j}", TRANSFORM_CUTOFF, TRANSFORM_POINTS)
                for j in range(TRANSFORM_JOBS)]
    elif workload == "unitary-large":
        flags = ["--homomorphism", "--basis-law"]
        warmup = verify_job(None, _angles(rng), SMALLEST_VERIFY_CUTOFF, flags)
        jobs = [verify_job(None, _angles(rng), UNITARY_CUTOFF, flags)
                for _ in range(UNITARY_JOBS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "warmup": warmup, "jobs": jobs}
