"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Each oracle must accept a real output and reject the same output with one
defect planted; the input generator must be deterministic per seed; the
per-layer counts must repeat exactly across two traced runs.  Jobs run at
small sizes, so the whole file takes seconds.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lctkit.cli  # noqa: E402
import lctkit.tables  # noqa: E402
import lctkit.weyl  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

ANGLES = [0.31, -0.27, 0.42]


def run_one(job, tmp_path, tag="t"):
    _, records = run_pass(lctkit.cli.main, [job], tmp_path, tag)
    return records[0]


def verify_output(job, tmp_path):
    record = run_one(job, tmp_path)
    assert record["exit"] == 0, record
    return record, json.loads(Path(record["out"]).read_text(encoding="utf-8"))


def small_jobs(tmp_path):
    rng = np.random.default_rng(5)
    return [
        workloads.verify_job((2, 0), ANGLES, 32, ["--all"]),
        workloads.transform_job(rng, tmp_path, "small", 128, 1001),
        workloads.verify_job(None, ANGLES, 64, ["--homomorphism", "--basis-law"]),
    ]


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in ("exact-sweep", "transform-stream", "unitary-large"):
        a, b, c = tmp_path / f"{name}-a", tmp_path / f"{name}-b", tmp_path / f"{name}-c"
        plan_a = workloads.build(name, 7, a)
        plan_b = workloads.build(name, 7, b)
        plan_c = workloads.build(name, 8, c)
        assert json.dumps(plan_a).replace(str(a), "") == json.dumps(plan_b).replace(str(b), "")
        assert json.dumps(plan_a).replace(str(a), "") != json.dumps(plan_c).replace(str(c), "")
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes()


def test_generated_state_is_normalised_and_inside_the_grid(tmp_path):
    job = workloads.transform_job(np.random.default_rng(1), tmp_path, "w", 256, 8001)
    grid, values = oracles.read_wavefunction(job["expect"]["input"])
    assert abs(np.trapezoid(np.abs(values) ** 2, grid) - 1.0) < 1e-12
    assert np.max(np.abs(values[[0, -1]])) < 1e-12


def test_exact_oracle_accepts_real_output_and_rejects_one_flipped_sign(tmp_path):
    job = workloads.verify_job((2, 0), ANGLES, 32, ["--all"])
    record, payload = verify_output(job, tmp_path)
    golden = oracles.load_golden((2, 0))
    assert oracles.check_verify(job["expect"], payload, golden) == []
    bad = copy.deepcopy(payload)
    eq69 = next(c for c in bad["checks"] if c["name"] == "Eq69")
    residual = eq69["report"]["failed"][0]["residual"]
    assert residual.startswith("(-")
    eq69["report"]["failed"][0]["residual"] = "(" + residual[2:]
    problems = oracles.check_verify(job["expect"], bad, golden)
    assert any("Eq69" in p for p in problems)


def test_unitary_oracle_rejects_residual_above_tol(tmp_path):
    job = workloads.verify_job(None, ANGLES, 64, ["--homomorphism", "--basis-law"])
    record, payload = verify_output(job, tmp_path)
    assert oracles.check_verify(job["expect"], payload) == []
    for name in ("homomorphism", "basis-law"):
        bad = copy.deepcopy(payload)
        check = next(c for c in bad["checks"] if c["name"] == name)
        check["report"]["max_residual"] = 2 * workloads.TOL
        assert any("residual" in p for p in oracles.check_verify(job["expect"], bad))


def test_unitary_oracle_rejects_a_wrong_matrix_entry(tmp_path):
    job = workloads.verify_job(None, ANGLES, 64, ["--homomorphism", "--basis-law"])
    _, payload = verify_output(job, tmp_path)
    check = next(c for c in payload["checks"] if c["name"] == "homomorphism")
    check["report"]["matrix"]["Xi"] *= -1
    assert any("matrix" in p for p in oracles.check_verify(job["expect"], payload))


def test_transform_oracle_rejects_one_perturbed_sample(tmp_path):
    job = workloads.transform_job(np.random.default_rng(3), tmp_path, "in", 128, 1001)
    record = run_one(job, tmp_path)
    assert oracles.check_job(job["expect"], record, {}) == []
    out = Path(record["out"])
    lines = out.read_text(encoding="utf-8").splitlines()
    grid, values = oracles.read_wavefunction(out)
    k = int(np.argmax(np.abs(values))) + 1  # +1 skips the header
    x, re, im = lines[k].split(",")
    lines[k] = f"{x},{float(re) * (1 + 1e-6)!r},{im}"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = oracles.check_job(job["expect"], record, {})
    assert any("amplitudes" in p for p in problems)


def test_failed_exit_is_a_failed_job(tmp_path):
    job = workloads.verify_job(None, ANGLES, 8, ["--homomorphism"])  # cutoff below 32
    record = run_one(job, tmp_path)
    assert record["exit"] == 2
    assert oracles.check_job(job["expect"], record, {})


def test_layer_counts_repeat_exactly_across_traced_runs(tmp_path):
    jobs = small_jobs(tmp_path)
    original = lctkit.tables.commutator
    counts = []
    for run in range(2):
        with Tracer() as tracer:
            assert lctkit.tables.commutator is lctkit.weyl.commutator is not original
            _, records = run_pass(lctkit.cli.main, jobs, tmp_path, f"r{run}", tracer)
        assert all(r["exit"] == 0 for r in records)
        metrics = tracer.layer_metrics(0.0)
        assert set(metrics) == set(PER_LAYER)
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")
                       and "_s." not in k})
    assert lctkit.tables.commutator is original
    assert counts[0] == counts[1]
    for key in ("tables.verify_table_calls", "tables.lines_checked", "weyl.commutator_calls",
                "scalars.mul_calls", "metaplectic.eigh_calls", "metaplectic.eigh_n3",
                "hermite.phi_calls", "hermite.recurrence_steps", "fock.build_calls"):
        assert counts[0][key] > 0, key


def test_self_times_never_exceed_inclusive_times():
    tracer = Tracer()
    outer = tracer.open_span("cli.main")
    inner = tracer.open_span("tables.verify_table", "Eq10")
    tracer.close_span(inner)
    tracer.close_span(outer)
    m = tracer.layer_metrics(0.0)
    assert 0 <= m["cli.self_s"] <= outer[2] - outer[1]
    assert m["tables.self_s"] == pytest.approx(m["tables.verify_table_s"])
    assert m["tables.verify_table_calls"] == 1
