"""Command-line front end: basis evaluation, verification suites, exponential
maps, transforms of sampled wavefunctions, and dispersion tables.

Output contract: identical inputs produce byte-identical stdout.  Floats are
rendered with Python's shortest round-trip representation (at most 17
significant digits).  Timing and progress never go to stdout.

Exit codes: 0 success, 1 failed verification, 2 malformed input or usage.
Printed-table mismatches that come with an engine-verified correction are
warnings, not failures: the derivation, not the typography, is the contract.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time

import click
import numpy as np

from . import fock, hermite, metaplectic, symplectic, tables, weyl


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_output(ctx, text: str):
    path = ctx.obj.get("output")
    if path is None:
        click.echo(text, nl=False)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(ctx, payload) -> None:
    _write_output(ctx, json.dumps(payload, indent=2) + "\n")


def _wavefunction_csv(grid, values) -> str:
    rows = zip(grid.tolist(), values.real.tolist(), values.imag.tolist())
    return "\n".join(["x,re,im", *(f"{x!r},{r!r},{i!r}" for x, r, i in rows)]) + "\n"


def _rows_payload(grid, values) -> dict:
    rows = zip(grid.tolist(), values.real.tolist(), values.imag.tolist())
    return {"columns": ["x", "re", "im"], "rows": [list(r) for r in rows]}


def _read_text(path: str) -> str:
    """Contents of path, or of stdin for "-"."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _read_wavefunction(path: str) -> hermite.SampledWavefunction:
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "x,re,im":
        raise click.UsageError("wavefunction CSV must start with header 'x,re,im'")
    xs, vals = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise click.UsageError(f"malformed CSV row: {ln!r}")
        try:
            xs.append(float(parts[0]))
            vals.append(complex(float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise click.UsageError(f"malformed CSV row {ln!r}: {exc}")
    try:
        return hermite.SampledWavefunction(np.array(xs), np.array(vals))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _parse_grid(spec: str, params: hermite.BasisParams):
    if spec:
        try:
            lo, hi, npts = spec.split(":")
            lo, hi, npts = float(lo), float(hi), int(npts)
        except ValueError:
            raise click.UsageError("grid must be MIN:MAX:POINTS")
        _require_finite(lo, "grid MIN")
        _require_finite(hi, "grid MAX")
        if npts < 2 or not hi > lo:
            raise click.UsageError("grid needs MAX > MIN and at least two points")
        return np.linspace(lo, hi, npts)
    half = 10.0 * np.sqrt(params.A)
    return np.linspace(params.X - half, params.X + half, 1001)


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise click.UsageError(f"{name} must be finite, got {value!r}")


def _number(value, name: str) -> float:
    """A JSON number as a float; true, "1" and any other JSON type are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise click.UsageError(f"{name} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def _integer(value, name: str) -> int:
    """A JSON number as an int when it is integral: 1 and 1.0 are; 1.5 is refused."""
    number = _number(value, name)
    if not number.is_integer():
        raise click.UsageError(f"{name} must be an integer")
    return int(number)


def _angle_matrix(value, name: str):
    """value when it is a JSON number or a list of rows of JSON numbers."""
    for row in value if isinstance(value, list) else [value]:
        for entry in row if isinstance(row, list) else [row]:
            _number(entry, name)
    return value


def _parse_angles(text: str) -> symplectic.ThetaAngles:
    try:
        tp, tm, tx = (float(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError("angles must be three comma-separated reals a,b,c")
    for name, value in zip(("theta_plus", "theta_minus", "theta_cross"), (tp, tm, tx)):
        _require_finite(value, name)
    return symplectic.ThetaAngles.one_dim(tp, tm, tx)


def _parse_signature(text: str) -> weyl.Metric:
    try:
        n_plus, n_minus = (int(v) for v in text.split(","))
        return weyl.Metric(n_plus, n_minus)
    except ValueError as exc:
        raise click.UsageError(f"signature must be N_PLUS,N_MINUS: {exc}")


@click.group()
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write results to this path instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
              help="Payload format where a command supports both.")
@click.pass_context
def main(ctx, output, fmt):
    """Dispersion-operator algebra and linear canonical transform toolkit."""
    ctx.ensure_object(dict)
    ctx.obj["output"] = output
    ctx.obj["format"] = fmt


@main.command()
@click.option("-n", "level", type=int, default=0, show_default=True,
              help="Basis index (quantum number).")
@click.option("--grid", default="", help="Sample grid as MIN:MAX:POINTS.")
@click.option("--x0", type=float, default=0.0, show_default=True, help="Mean coordinate X.")
@click.option("--p0", type=float, default=0.0, show_default=True, help="Mean momentum P.")
@click.option("--b", type=float, default=0.5, show_default=True,
              help="Momentum dispersion B = (dp)^2.")
@click.pass_context
def basis(ctx, level, grid, x0, p0, b):
    """Emit samples of a basis wavefunction as x,re,im rows."""
    if level < 0:
        raise click.UsageError("basis index must be non-negative")
    for name, value in (("--x0", x0), ("--p0", p0), ("--b", b)):
        _require_finite(value, name)
    try:
        params = hermite.BasisParams(x0, p0, b)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    xs = _parse_grid(grid, params)
    values = hermite.phi(level, xs, params)
    if ctx.obj.get("format") == "json":
        _emit_json(ctx, _rows_payload(xs, values))
    else:
        _write_output(ctx, _wavefunction_csv(xs, values))


_SPEC_FIELDS = ("X", "P", "B", "cutoff", "theta_plus", "theta_minus", "theta_cross")
# bounds the eigh time and the real parity factors (2 x 8 MiB at 2048)
_MAX_CUTOFF = 2048


@main.command()
@click.option("--input", "input_path", required=True,
              help="Wavefunction CSV (x,re,im), or - for stdin.")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="JSON transform spec with X, P, B, cutoff and the three angles.")
@click.pass_context
def transform(ctx, input_path, spec_path):
    """Apply a linear canonical transform to a sampled wavefunction.

    Pipeline: project onto the basis, act with the truncated unitary, then
    synthesise back on the input grid.  Before/after dispersion estimates go
    to a .meta.json sidecar (stderr when writing to stdout).
    """
    wf = _read_wavefunction(input_path)
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        spec = {key: _number(raw[key], f"transform spec field {key}") for key in _SPEC_FIELDS}
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad transform spec: {exc}")
    for key, value in spec.items():
        _require_finite(value, f"transform spec field {key}")
    cutoff = _integer(spec["cutoff"], "transform spec cutoff")
    try:
        params = hermite.BasisParams(spec["X"], spec["P"], spec["B"])
        angles = symplectic.ThetaAngles.one_dim(
            spec["theta_plus"], spec["theta_minus"], spec["theta_cross"]
        )
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad transform spec: {exc}")
    if cutoff < 16:
        raise click.UsageError("transform spec needs cutoff >= 16")
    if cutoff > _MAX_CUTOFF:
        raise click.UsageError(f"transform spec cutoff must be <= {_MAX_CUTOFF}")
    try:
        before = hermite.dispersion_estimate(wf)
        expansion = hermite.project(wf, params, cutoff)
    except (hermite.InsufficientSupport, hermite.NotNormalized) as exc:
        raise click.UsageError(str(exc))
    unitary = metaplectic.build_unitary(angles, params.B, cutoff)
    new_coeffs = metaplectic.position_convention_unitary(unitary).apply(expansion.coeffs)
    out_wf = hermite.synthesize(
        hermite.CoefficientExpansion(params, cutoff, new_coeffs), wf.grid
    )
    try:
        after = hermite.dispersion_estimate(out_wf)
    except hermite.NotNormalized as exc:
        raise click.UsageError(f"output left the truncated space: {exc}")
    moments = {
        "before": dict(zip(("Xbar", "Pbar", "dx2", "dp2"), before)),
        "after": dict(zip(("Xbar", "Pbar", "dx2", "dp2"), after)),
        "captured_weight": expansion.weight(),
    }
    if ctx.obj.get("format") == "json":
        payload = _rows_payload(out_wf.grid, out_wf.values)
        payload["moments"] = moments
        _emit_json(ctx, payload)
    else:
        _write_output(ctx, _wavefunction_csv(out_wf.grid, out_wf.values))
        sidecar = json.dumps(moments, indent=2) + "\n"
        if ctx.obj.get("output"):
            with open(ctx.obj["output"] + ".meta.json", "w", encoding="utf-8") as fh:
                fh.write(sidecar)
        else:
            click.echo(sidecar, err=True, nl=False)


def _table_check(name: str, metric, make_context) -> dict:
    report = tables.verify_table(name, metric=metric, make_context=make_context)
    status = "pass" if report.ok() else "warn"
    return {"name": name, "status": status, "report": report.to_json()}


def _closure_check(metric: weyl.Metric, make_context) -> dict:
    try:
        sc = weyl.closure_and_constants(metric, make_context=make_context)
        expected = metric.dim * (2 * metric.dim + 1)
        jacobi_exact = not sc.jacobi_violations()
        ok = sc.dimension == expected and jacobi_exact
        return {
            "name": "closure",
            "status": "pass" if ok else "fail",
            "report": {
                "metric": [metric.n_plus, metric.n_minus],
                "dimension": sc.dimension,
                "expected_dimension": expected,
                "jacobi_exact": jacobi_exact,
            },
        }
    except weyl.ClosureFailure as exc:
        return {"name": "closure", "status": "fail", "report": {"error": str(exc)}}


def _numeric_check(name: str, rep: dict, checked: int, failed: list, **extra) -> dict:
    """Envelope of a numerical check: fail if it did not pass, warn if printed
    rows failed, pass otherwise."""
    status = "fail" if not rep["passed"] else "warn" if failed else "pass"
    return {
        "name": name,
        "status": status,
        "report": {
            "table": name,
            "metric": [1, 0],
            "checked": checked,
            "failed": failed,
            "max_residual": rep["max_residual"],
            "block": rep["block"],
            **extra,
        },
    }


def _homomorphism_check(u, tol) -> dict:
    rep = metaplectic.verify_homomorphism(u, tol)
    failed = [] if rep["passed"] else [
        {"indices": [], "residual": _fmt(rep["max_residual"]), "corrected_rhs": {}}
    ]
    return _numeric_check("homomorphism", rep, 2, failed, matrix=rep["matrix"])


def _basis_law_check(u, tol) -> dict:
    rep = metaplectic.verify_basis_transformation(u, tol)
    failed = [
        {
            "indices": [kind],
            "residual": _fmt(row["printed_residual"]),
            "corrected_rhs": {"coefficients": [_fmt(c) for c in row["engine_coefficients"]]},
        }
        for kind, row in rep["rows"].items()
        if not row["printed_row_holds"]
    ]
    return _numeric_check("basis-law", rep, 3, failed)


@main.command()
@click.option("--table", "table_names", multiple=True,
              help="Verify one identity table (repeatable), e.g. Eq10 or Eq74.")
@click.option("--all", "run_all", is_flag=True, help="Run every registered check.")
@click.option("--dim", type=int, default=2, show_default=True,
              help="Dimension for tensor tables (signature overrides).")
@click.option("--signature", default=None, help="Metric signature N_PLUS,N_MINUS.")
@click.option("--homomorphism", is_flag=True, help="Check conjugation against the matrix action.")
@click.option("--basis-law", is_flag=True, help="Check the generator transformation rows.")
@click.option("--cutoff", type=int, default=64, show_default=True)
@click.option("--angles", default="0,0,0", show_default=True,
              help="theta_plus,theta_minus,theta_cross.")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.pass_context
def verify(ctx, table_names, run_all, dim, signature, homomorphism, basis_law, cutoff, angles, tol):
    """Run verification suites; exit 0 only if nothing fails.

    Printed-table lines that disagree with the engine derivation are reported
    as warnings together with corrected forms; genuine residual or closure
    failures exit 1.
    """
    theta = _parse_angles(angles)
    _require_finite(tol, "tol")
    if tol <= 0:
        raise click.UsageError(f"tol must be positive, got {tol!r}")
    homomorphism, basis_law = homomorphism or run_all, basis_law or run_all
    if (homomorphism or basis_law) and cutoff > _MAX_CUTOFF:
        raise click.UsageError(f"cutoff must be <= {_MAX_CUTOFF}")
    if (homomorphism or basis_law) and cutoff < metaplectic.CHECK_MIN_CUTOFF:
        raise click.UsageError(f"cutoff must be >= {metaplectic.CHECK_MIN_CUTOFF}")
    started = time.perf_counter()
    checks = []
    try:
        metric = _parse_signature(signature) if signature else weyl.Metric(dim, 0)
        # one exact context per (metric, sign), made on first use, for this call only
        make_context = functools.cache(weyl.ExactContext)
        for name in tables.TABLE_IDS if run_all else table_names:
            if name not in tables.TABLE_IDS:
                raise click.UsageError(
                    f"unknown table {name!r}; known: {', '.join(tables.TABLE_IDS)}"
                )
            checks.append(_table_check(name, metric, make_context))
        if run_all:
            checks.append(_closure_check(metric, make_context))
        u = metaplectic.build_unitary(theta, 1.0, cutoff) if homomorphism or basis_law else None
        if homomorphism:
            checks.append(_homomorphism_check(u, tol))
        if basis_law:
            checks.append(_basis_law_check(u, tol))
    except (fock.CutoffTooSmall, ValueError) as exc:
        raise click.UsageError(str(exc))
    if not checks:
        raise click.UsageError("nothing selected; use --table, --homomorphism, --basis-law or --all")
    counts = {"pass": 0, "warn": 0, "fail": 0}
    for c in checks:
        counts[c["status"]] += 1
    inputs = {
        "tables": sorted(table_names) if not run_all else "all",
        "metric": [metric.n_plus, metric.n_minus],
        "angles": theta.triple(),
        "cutoff": cutoff,
        "tol": tol,
        "homomorphism": homomorphism,
        "basis_law": basis_law,
    }
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]
    payload = {"command": "verify", "inputs": inputs, "inputs_digest": digest,
               "checks": checks, "counts": counts}
    _emit_json(ctx, payload)
    click.echo(f"verify: {time.perf_counter() - started:.3f}s", err=True)
    if counts["fail"]:
        ctx.exit(1)


@main.command()
@click.option("--input", "input_path", default="-",
              help="JSON with dim, signature and the three angle matrices; - for stdin.")
@click.pass_context
def expmap(ctx, input_path):
    """Exponentiate angle parameters to a (pseudo-)symplectic matrix."""
    try:
        raw = json.loads(_read_text(input_path))
        n = _integer(raw["dim"], "bad expmap input: dim")
        sig = raw.get("signature", [n, 0])
        if not isinstance(sig, list) or len(sig) != 2:
            raise ValueError(f"signature must be [n_plus, n_minus], got {sig!r}")
        metric = weyl.Metric(*(_integer(v, "bad expmap input: each signature entry") for v in sig))
        theta = symplectic.ThetaAngles(n, *(
            _angle_matrix(raw[key], f"bad expmap input: {key}")
            for key in ("theta_plus", "theta_minus", "theta_cross")
        ))
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad expmap input: {exc}")
    if metric.dim != n:
        raise click.UsageError("signature does not match dim")
    try:
        m = symplectic.from_angles(theta, metric)
        s = symplectic.exp_sp(m)
    except (symplectic.DimensionMismatch, symplectic.ConstraintViolation) as exc:
        raise click.UsageError(str(exc))
    payload = {
        "dim": n,
        "signature": [metric.n_plus, metric.n_minus],
        "Pi": s.Pi.tolist(),
        "Xi": s.Xi.tolist(),
        "Theta": s.Theta.tolist(),
        "Lambda": s.Lambda.tolist(),
        "symplectic_residual": s.symplectic_defect(),
    }
    _emit_json(ctx, payload)


def _operator_payload(op: fock.TruncatedOperator) -> dict:
    return {
        "label": op.label,
        "cutoff": op.cutoff,
        "entries": [[[v.real, v.imag] for v in row] for row in op.matrix],
    }


_REP_MAX_CUTOFF = 1024


@main.command()
@click.option("--b", type=float, default=1.0, show_default=True,
              help="Dispersion scale B.")
@click.option("--cutoff", type=int, default=16, show_default=True)
@click.option("--which", type=click.Choice(
    ["all", "zminus", "zplus", "jplus", "jminus", "jcross", "sigmap", "sigmax"]),
    default="all", show_default=True)
@click.pass_context
def rep(ctx, b, cutoff, which):
    """Emit truncated operator matrices as JSON."""
    if cutoff > _REP_MAX_CUTOFF:
        raise click.UsageError(f"rep prints dense matrices; cutoff must be <= {_REP_MAX_CUTOFF}")
    try:
        zminus, zplus = fock.ladder_matrices(cutoff)
        jplus, jminus, jcross = fock.dispersion_matrices(b, cutoff)
        sigma_p, sigma_x = fock.sigma_operators(b, cutoff)
    except (fock.CutoffTooSmall, ValueError) as exc:
        raise click.UsageError(str(exc))
    ops = {
        "zminus": zminus, "zplus": zplus, "jplus": jplus, "jminus": jminus,
        "jcross": jcross, "sigmap": sigma_p, "sigmax": sigma_x,
    }
    if which == "all":
        payload = {"operators": [_operator_payload(op) for op in ops.values()]}
    else:
        payload = _operator_payload(ops[which])
    _emit_json(ctx, payload)


@main.command()
@click.option("--input", "input_path", required=True,
              help="Wavefunction CSV (x,re,im), or - for stdin.")
@click.pass_context
def dispersion(ctx, input_path):
    """Estimate means and dispersions of a sampled wavefunction."""
    wf = _read_wavefunction(input_path)
    try:
        xbar, pbar, dx2, dp2 = hermite.dispersion_estimate(wf)
    except hermite.NotNormalized as exc:
        raise click.UsageError(str(exc))
    _emit_json(ctx, {"Xbar": xbar, "Pbar": pbar, "dx2": dx2, "dp2": dp2,
                     "uncertainty_product": dx2 * dp2})


if __name__ == "__main__":
    main()
