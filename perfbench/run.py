"""Benchmark of the lctkit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload (see workloads.py for why each exists) runs in a fresh worker
process that calls `lctkit.cli.main` in-process, one job at a time: a closed
loop with one client and BLAS/OpenMP pinned to one thread, so a second tenant
on a small host disturbs the timings as little as possible.  Every job's
output is judged by oracles.py, which uses no lctkit code.

--trace 0 prints the end-to-end metrics, timed with tracing off:
  setup_s      median over five fresh processes of importing lctkit.cli plus
               one warm-up job at the smallest valid size
  wall_s       median wall time of one pass over the job list; passes repeat
               until --seconds have elapsed
  job_p50_s    median job latency (too few jobs for a tail percentile)
  peak_rss_mb  peak resident memory of the worker process
and, by name only, failed_frac: failed jobs over attempted jobs.

--trace 1 runs two untraced passes and one pass under tracer.py and prints
the per-layer metrics and the tracing overhead: the traced pass minus the
second untraced pass, its base.  The spans are written to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status is 0 when a result was printed, even with failures.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-sweep", "transform-stream", "unitary-large")
SETUP_PROBES = 4  # plus the worker's own set-up: five samples
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version}


def run_worker(plan_path: Path, outdir: Path, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(outdir), mode, str(seconds)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(plan: dict, result: dict) -> list:
    """(job record, problems) for every timed job whose output does not hold."""
    golden: dict = {}
    bad = []
    for record in result["jobs"]:
        problems = oracles.check_job(plan["jobs"][record["job"]]["expect"], record, golden)
        if problems:
            bad.append((record, problems))
    return bad


def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    return "s" if re.search(r"_s(\.|$)", metric) else "count"


def run_workload(name: str, seed: int, seconds: float, traced: bool, env: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        plan = workloads.build(name, seed, work / "inputs")
        plan["trace_path"] = str(ROOT / ".perfbench_out" / f"trace-{name}-seed{seed}.jsonl")
        plan["env"] = env
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        probes = 0 if traced else SETUP_PROBES

        def probe(k):
            return run_worker(plan_path, work / f"probe{k}", "setup", 0.0, deadline)["setup_s"]

        # half the set-up probes run before the worker and half after, so
        # their median spans the run rather than its first seconds
        setup = [probe(k) for k in range(probes // 2)]
        result = run_worker(plan_path, work / "out", "traced" if traced else "timed",
                            seconds, deadline)
        setup += [probe(k) for k in range(probes // 2, probes)]
        bad = judge(plan, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    jobs = result["jobs"]
    if result["warmup"]["exit"] != 0:
        raise BenchError(f"warm-up job failed: {result['warmup']}")
    out = {"workload": name, "correct": not bad, "attempted": len(jobs), "failed": len(bad),
           "problems": bad}
    if traced:
        out["metrics"] = result["layer_metrics"]
        out["detail"] = f"{len(jobs)} jobs: two untraced passes, one traced, {result['spans']} spans"
    else:
        setup.append(result["setup_s"])
        passes = result["passes"]
        out["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(passes),
            "job_p50_s": statistics.median(r["seconds"] for r in jobs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        out["detail"] = (f"{len(jobs)} jobs in {len(passes)} passes of {len(plan['jobs'])}; "
                         f"setup_s median of {len(setup)} processes")
    return out


def report(out: dict) -> None:
    print(f"{out['workload']}: {out['detail']}; closed loop, 1 client, "
          f"{BLAS_THREADS} BLAS thread")
    for metric, value in out["metrics"].items():
        print(f"  {metric:36s} {value!r} {unit(metric)}")
    frac = out["failed"] / out["attempted"]
    print(f"  {'failed_frac':36s} {frac!r} ({out['failed']} of {out['attempted']} jobs)")
    for record, problems in out["problems"][:5]:
        print(f"  FAILED {record['out']}: {'; '.join(problems)[:500]}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "lctkit" / "cli.py").is_file():
        print(f"no lctkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = [run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for out in outs:
        report(out)
    print("env: " + json.dumps(env))
    prefix = len(outs) > 1
    metrics = {}
    for out in outs:
        for metric, value in out["metrics"].items():
            key = f"{out['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit(metric)}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
