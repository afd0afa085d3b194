"""Runs one workload's jobs inside a fresh process.

    python3 perfbench/worker.py PLAN.json OUTDIR MODE [SECONDS]

MODE is `setup` (import and warm-up only), `timed` (whole passes over the job
list until SECONDS have elapsed) or `traced` (two untraced passes, then one
pass under the tracer).  Each job is one in-process call of `lctkit.cli.main`,
the console-script entry point, writing its output to a file under OUTDIR.
The last line of stdout is a JSON object with the timings; the parent process
judges the outputs.
"""

import json
import resource
import sys
import time
from pathlib import Path


def run_job(main, argv):
    """One closed-loop CLI call; returns (exit code, error text, seconds)."""
    start = time.perf_counter()
    error = None
    try:
        main.main(args=argv, prog_name="lctkit", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, error, time.perf_counter() - start


def run_pass(main, jobs, outdir: Path, tag: str, tracer=None):
    """Run the job list once; returns (pass seconds, per-job records)."""
    records = []
    start = time.perf_counter()
    for j, job in enumerate(jobs):
        out = outdir / f"{tag}-j{j}{job['suffix']}"
        argv = ["--output", str(out), *job["argv"]]
        if tracer is None:
            code, error, seconds = run_job(main, argv)
        else:
            tracer.job = f"{tag}-j{j}"
            row = tracer.open_span("cli.main")
            try:
                code, error, seconds = run_job(main, argv)
            finally:
                tracer.close_span(row)
        records.append({"job": j, "out": str(out), "exit": code, "error": error,
                        "seconds": seconds})
    return time.perf_counter() - start, records


def main_entry(argv):
    plan_path, outdir, mode = argv[0], Path(argv[1]), argv[2]
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    t0 = time.perf_counter()
    import lctkit.cli as cli
    import_s = time.perf_counter() - t0
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    outdir.mkdir(parents=True, exist_ok=True)
    _, warm = run_pass(cli.main, [plan["warmup"]], outdir, "warmup")
    setup_s = time.perf_counter() - t0
    result = {"import_s": import_s, "setup_s": setup_s, "warmup": warm[0]}
    if mode == "timed":
        passes, jobs = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            wall, records = run_pass(cli.main, plan["jobs"], outdir, f"p{len(passes)}")
            passes.append(wall)
            jobs += records
        result.update(passes=passes, jobs=jobs)
    elif mode == "traced":
        from tracer import Tracer

        # the first full-size pass pays one-off costs (page faults on the first
        # large arrays), so the base for the overhead is the second pass
        _, first_jobs = run_pass(cli.main, plan["jobs"], outdir, "first")
        untraced_wall, untraced_jobs = run_pass(cli.main, plan["jobs"], outdir, "untraced")
        with Tracer() as tracer:
            traced_wall, traced_jobs = run_pass(cli.main, plan["jobs"], outdir, "traced", tracer)
        metrics = tracer.layer_metrics(import_s)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        trace_path = Path(plan["trace_path"])
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_path, plan.get("env", {}))
        result.update(jobs=first_jobs + untraced_jobs + traced_jobs, layer_metrics=metrics, spans=len(tracer.spans))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main_entry(sys.argv[1:])
