"""Command-line behaviour: formats, exit codes, determinism, pipelines."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import lctkit
from lctkit import fock, hermite, metaplectic
from lctkit.cli import _wavefunction_csv, main


@pytest.fixture()
def runner():
    return CliRunner()


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,re,im"
    out = []
    for ln in lines[1:]:
        x, re, im = (float(v) for v in ln.split(","))
        out.append((x, complex(re, im)))
    return out


def _write_ground_state(runner, path, grid="-12:12:2001", b=0.5, n=0):
    result = runner.invoke(
        main, ["--output", path, "basis", "-n", str(n), "--grid", grid, "--b", str(b)]
    )
    assert result.exit_code == 0, result.output
    return path


def test_help_exits_zero(runner):
    for args in ([], ["basis"], ["verify"], ["transform"], ["expmap"], ["rep"], ["dispersion"]):
        result = runner.invoke(main, args + ["--help"])
        assert result.exit_code == 0


def test_basis_ground_state_peaks_at_mean(runner):
    result = runner.invoke(main, ["basis", "-n", "0", "--grid=-6:6:241", "--x0", "1.5"])
    assert result.exit_code == 0
    rows = _rows(result.output)
    peak_x = max(rows, key=lambda r: abs(r[1]))[0]
    assert abs(peak_x - 1.5) < 0.06


def test_basis_first_excited_has_single_interior_zero(runner):
    result = runner.invoke(main, ["basis", "-n", "1", "--grid=-6:6:1201"])
    rows = _rows(result.output)
    mods = np.array([abs(v) for _, v in rows])
    xs = np.array([x for x, _ in rows])
    interior = (xs > -4) & (xs < 4)
    minima = xs[interior][np.argmin(mods[interior])]
    assert abs(minima) < 0.01
    # modulus vanishes only once: count strict local minima near zero level
    low = mods[interior] < 1e-3
    assert low.sum() <= 3


def test_basis_json_format(runner):
    result = runner.invoke(main, ["--format", "json", "basis", "-n", "0", "--grid=-5:5:11"])
    payload = json.loads(result.output)
    assert payload["columns"] == ["x", "re", "im"]
    assert len(payload["rows"]) == 11


def test_basis_output_round_trips_through_projection(runner, tmp_path):
    path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, path, n=2)
    from lctkit.hermite import BasisParams, SampledWavefunction, project

    rows = _rows(open(path).read())
    wf = SampledWavefunction(np.array([x for x, _ in rows]),
                             np.array([v for _, v in rows]))
    exp = project(wf, BasisParams(0.0, 0.0, 0.5), 6)
    assert abs(exp.coeffs[2] - 1.0) < 1e-6


def test_byte_identical_reruns(runner):
    args = ["basis", "-n", "3", "--grid=-8:8:301", "--b", "0.7"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output
    v1 = runner.invoke(main, ["verify", "--table", "Eq74"])
    v2 = runner.invoke(main, ["verify", "--table", "Eq74"])
    assert v1.stdout_bytes == v2.stdout_bytes


def test_malformed_grid_is_usage_error(runner):
    result = runner.invoke(main, ["basis", "--grid", "oops"])
    assert result.exit_code == 2


def test_verify_single_table_passes(runner):
    result = runner.invoke(main, ["verify", "--table", "Eq10"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["counts"] == {"pass": 1, "warn": 0, "fail": 0}


def test_verify_erratum_is_warning_not_failure(runner):
    result = runner.invoke(main, ["verify", "--table", "Eq74", "--signature", "2,0"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["counts"]["warn"] == 1
    failed = payload["checks"][0]["report"]["failed"]
    assert failed and all(f["corrected_rhs"]["normal_form"] for f in failed)


def test_verify_unknown_table_usage_error(runner):
    result = runner.invoke(main, ["verify", "--table", "Eq999"])
    assert result.exit_code == 2


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_verify_nonpositive_dim_is_usage_error(runner, dim):
    result = runner.invoke(main, ["verify", "--dim", dim, "--table", "Eq67"])
    assert result.exit_code == 2
    assert "N = n_plus + n_minus >= 1" in result.output


@pytest.mark.parametrize("dim", ["100000", "1" + "0" * 400])
def test_verify_large_dim_builds_nothing_that_no_check_uses(runner, dim):
    # exact objects are made per check: a tensor table refuses N > 4 first,
    # and the 1-D tables and the numerical checks never read the metric's size
    result = runner.invoke(main, ["verify", "--dim", dim, "--table", "Eq74"])
    assert result.exit_code == 2
    assert "tables are verified for N <= 4" in result.output
    result = runner.invoke(main, ["verify", "--dim", dim, "--table", "Eq10",
                                  "--homomorphism", "--cutoff", "32"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["counts"] == {"pass": 2, "warn": 0, "fail": 0}


def test_verify_homomorphism_zero_angles(runner):
    result = runner.invoke(main, ["verify", "--homomorphism", "--angles", "0,0,0",
                                  "--cutoff", "32"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["checks"][0]["report"]["max_residual"] == 0.0


@pytest.mark.parametrize("args", [["--homomorphism", "--basis-law"], ["--all"]])
def test_verify_builds_one_unitary_for_both_numerical_checks(runner, monkeypatch, args):
    calls = []
    original = metaplectic.build_unitary

    def counting(*a):
        calls.append(a)
        return original(*a)

    monkeypatch.setattr(metaplectic, "build_unitary", counting)
    result = runner.invoke(main, ["verify", *args, "--angles", "0.3,-0.2,0.25", "--cutoff", "32"])
    assert result.exit_code == 0, result.output
    names = [c["name"] for c in json.loads(result.stdout)["checks"]]
    assert "homomorphism" in names and "basis-law" in names
    assert len(calls) == 1


@pytest.mark.parametrize("cutoff", ["8", "20"])
def test_verify_numerical_cutoff_below_check_block_is_usage_error(runner, cutoff):
    result = runner.invoke(main, ["verify", "--homomorphism", "--basis-law", "--cutoff", cutoff])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "cutoff must be >= 32" in result.output
    assert "Traceback" not in result.output


def test_verify_failure_exit_code(runner):
    result = runner.invoke(main, ["verify", "--homomorphism", "--angles", "0.5,0.5,-0.5",
                                  "--cutoff", "32", "--tol", "1e-12"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["counts"]["fail"] == 1


def test_verify_basis_law_reports_corrections(runner):
    result = runner.invoke(main, ["verify", "--basis-law", "--angles", "0.4,0,0",
                                  "--cutoff", "64"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    check = payload["checks"][0]
    assert check["status"] == "warn"
    kinds = {f["indices"][0] for f in check["report"]["failed"]}
    assert kinds == {"+", "-"}


def test_verify_all_runs_everything(runner):
    result = runner.invoke(main, ["verify", "--all", "--dim", "2", "--signature", "2,0",
                                  "--cutoff", "32", "--angles", "0.1,0.1,0.1"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    names = [c["name"] for c in payload["checks"]]
    assert "Eq10" in names and "Eq74" in names and "closure" in names
    assert "homomorphism" in names and "basis-law" in names
    assert payload["counts"]["fail"] == 0
    # the known misprints surface as warnings
    assert payload["counts"]["warn"] >= 4


def test_transform_zero_angles_is_identity(runner, tmp_path):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"X": 0.0, "P": 0.0, "B": 0.5, "cutoff": 32,
                                "theta_plus": 0.0, "theta_minus": 0.0, "theta_cross": 0.0}))
    out_path = str(tmp_path / "out.csv")
    result = runner.invoke(main, ["--output", out_path, "transform", "--input", wf_path,
                                  "--spec", str(spec)])
    assert result.exit_code == 0, result.output
    before = _rows(open(wf_path).read())
    after = _rows(open(out_path).read())
    dev = max(abs(a[1] - b[1]) for a, b in zip(after, before))
    assert dev < 1e-6


def test_transform_half_period_keeps_ground_state_modulus(runner, tmp_path):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"X": 0.0, "P": 0.0, "B": 0.5, "cutoff": 64,
                                "theta_plus": math.pi, "theta_minus": 0.0,
                                "theta_cross": 0.0}))
    out_path = str(tmp_path / "out.csv")
    result = runner.invoke(main, ["--output", out_path, "transform", "--input", wf_path,
                                  "--spec", str(spec)])
    assert result.exit_code == 0
    before = _rows(open(wf_path).read())
    after = _rows(open(out_path).read())
    dev = max(abs(abs(a[1]) - abs(b[1])) for a, b in zip(after, before))
    assert dev < 1e-4


def test_transform_squeeze_scales_dispersions(runner, tmp_path):
    t = 0.2
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"X": 0.0, "P": 0.0, "B": 0.5, "cutoff": 64,
                                "theta_plus": 0.0, "theta_minus": 0.0,
                                "theta_cross": 2 * t}))
    out_path = str(tmp_path / "out.csv")
    result = runner.invoke(main, ["--output", out_path, "transform", "--input", wf_path,
                                  "--spec", str(spec)])
    assert result.exit_code == 0
    meta = json.loads(open(out_path + ".meta.json").read())
    ratio_x = meta["after"]["dx2"] / meta["before"]["dx2"]
    ratio_p = meta["after"]["dp2"] / meta["before"]["dp2"]
    assert abs(ratio_x - math.exp(-2 * t)) / math.exp(-2 * t) < 0.05
    assert abs(ratio_p - math.exp(2 * t)) / math.exp(2 * t) < 0.05


def test_transform_insufficient_support_is_usage_error(runner, tmp_path):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path, grid="-2:2:101")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"X": 0.0, "P": 0.0, "B": 0.5, "cutoff": 32,
                                "theta_plus": 0.0, "theta_minus": 0.0,
                                "theta_cross": 0.0}))
    result = runner.invoke(main, ["transform", "--input", wf_path, "--spec", str(spec)])
    assert result.exit_code == 2


def test_transform_bad_spec_is_usage_error(runner, tmp_path):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"X": 0.0}))
    result = runner.invoke(main, ["transform", "--input", wf_path, "--spec", str(spec)])
    assert result.exit_code == 2


def test_malformed_csv_is_usage_error(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    result = runner.invoke(main, ["dispersion", "--input", str(bad)])
    assert result.exit_code == 2


def test_non_utf8_csv_is_usage_error(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfex,re,im\n")
    result = runner.invoke(main, ["dispersion", "--input", str(bad)])
    assert result.exit_code == 2
    assert "cannot read" in result.output


def test_dispersion_command(runner, tmp_path):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path, n=2)
    result = runner.invoke(main, ["dispersion", "--input", wf_path])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert abs(payload["dx2"] - 5 * 0.5) < 1e-3
    assert abs(payload["dp2"] - 5 * 0.5) < 1e-3


def test_expmap_zero_angles(runner):
    blob = json.dumps({"dim": 1, "signature": [1, 0], "theta_plus": 0.0,
                       "theta_minus": 0.0, "theta_cross": 0.0})
    result = runner.invoke(main, ["expmap"], input=blob)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["Pi"] == [[1.0]] and payload["Lambda"] == [[1.0]]
    assert payload["symplectic_residual"] == 0.0


def test_expmap_multidim(runner):
    blob = json.dumps({
        "dim": 2, "signature": [1, 1],
        "theta_plus": [[0.2, 0.1], [0.1, -0.3]],
        "theta_minus": [[0.0, 0.05], [0.05, 0.1]],
        "theta_cross": [[0.1, 0.0], [0.2, -0.1]],
    })
    result = runner.invoke(main, ["expmap"], input=blob)
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["symplectic_residual"] < 1e-10


def test_expmap_malformed(runner):
    result = runner.invoke(main, ["expmap"], input="{}")
    assert result.exit_code == 2


@pytest.mark.parametrize("field,value,message", [
    ("signature", [1], "signature must be [n_plus, n_minus]"),
    ("signature", [], "signature must be [n_plus, n_minus]"),
    ("signature", [1, 0, 7], "signature must be [n_plus, n_minus]"),
    ("signature", "10", "signature must be [n_plus, n_minus]"),
    ("signature", [0.9, 0.2], "each signature entry must be an integer"),
    ("signature", [1, "x"], "bad expmap input"),
    ("signature", [True, False], "each signature entry must be a JSON number, got true"),
    ("signature", ["1", "0"], 'each signature entry must be a JSON number, got "1"'),
    ("dim", 1.5, "dim must be an integer"),
    ("dim", "1.5", 'dim must be a JSON number, got "1.5"'),
    ("dim", "1", 'dim must be a JSON number, got "1"'),
    ("dim", True, "dim must be a JSON number, got true"),
    ("dim", [1], "dim must be a JSON number, got [1]"),
    ("theta_plus", "1", 'theta_plus must be a JSON number, got "1"'),
    ("theta_minus", [[False]], "theta_minus must be a JSON number, got false"),
    ("theta_cross", [[0.1, None]], "theta_cross must be a JSON number, got null"),
    ("theta_cross", [[[0.1]]], "theta_cross must be a JSON number, got [0.1]"),
])
def test_expmap_signature_and_dim_must_be_integral(runner, field, value, message):
    spec = {"dim": 1, "signature": [1, 0], "theta_plus": 0.0, "theta_minus": 0.0,
            "theta_cross": 0.0, field: value}
    result = runner.invoke(main, ["expmap"], input=json.dumps(spec))
    assert result.exit_code == 2, result.output
    assert "bad expmap input" in result.output and message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("dim,signature", [(1, [1, 0]), (1.0, [1.0, 0.0]), (2, [1, 1]),
                                           (2.0, [1, 1.0])])
def test_expmap_accepts_integral_spellings(runner, dim, signature):
    n = int(float(dim))
    spec = {"dim": dim, "signature": signature, "theta_plus": [[0.0] * n] * n,
            "theta_minus": [[0.0] * n] * n, "theta_cross": [[0.0] * n] * n}
    result = runner.invoke(main, ["expmap"], input=json.dumps(spec))
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["signature"] == [int(float(v)) for v in signature]


def test_expmap_missing_input_file_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["expmap", "--input", str(tmp_path / "missing.json")])
    assert result.exit_code == 2
    assert "cannot read" in result.output


def test_rep_jplus_diagonal(runner):
    result = runner.invoke(main, ["rep", "--b", "1.0", "--cutoff", "5", "--which", "jplus"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    diag = [payload["entries"][k][k][0] for k in range(5)]
    assert diag == [1.0, 3.0, 5.0, 7.0, 4.0]


def test_rep_all_operators(runner):
    result = runner.invoke(main, ["rep", "--cutoff", "6"])
    payload = json.loads(result.stdout)
    labels = [op["label"] for op in payload["operators"]]
    assert labels == ["zminus", "zplus", "jplus", "jminus", "jcross", "sigma_p", "sigma_x"]


def test_rep_cutoff_guard(runner):
    result = runner.invoke(main, ["rep", "--cutoff", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("cutoff", ["1025", "100000"])
def test_rep_cutoff_above_limit_is_refused_before_building(runner, monkeypatch, cutoff):
    def unreachable(*args):
        raise AssertionError("rep built matrices for a refused cutoff")

    monkeypatch.setattr(fock, "ladder_matrices", unreachable)
    result = runner.invoke(main, ["rep", "--cutoff", cutoff])
    assert result.exit_code == 2
    assert "cutoff must be <= 1024" in result.output


_VALID_SPEC = {"X": 0.0, "P": 0.0, "B": 0.5, "cutoff": 32,
               "theta_plus": 0.1, "theta_minus": 0.0, "theta_cross": 0.0}


class _Built(Exception):
    """Raised by a patched builder: the command got past its cutoff check."""


@pytest.mark.parametrize("command", ["homomorphism", "basis-law", "transform"])
@pytest.mark.parametrize("cutoff", [2048, 2049, 100000])
def test_numeric_cutoff_above_limit_is_refused_before_building(
    runner, monkeypatch, tmp_path, command, cutoff
):
    def builder(*args):
        raise _Built

    monkeypatch.setattr(metaplectic, "build_unitary", builder)
    monkeypatch.setattr(hermite, "project", builder)
    if command == "transform":
        wf_path = str(tmp_path / "wf.csv")
        _write_ground_state(runner, wf_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(_VALID_SPEC, cutoff=cutoff)))
        args = ["transform", "--input", wf_path, "--spec", str(spec)]
    else:
        args = ["verify", f"--{command}", "--cutoff", str(cutoff)]
    result = runner.invoke(main, args)
    if cutoff <= 2048:
        assert isinstance(result.exception, _Built), result.output
    else:
        assert result.exit_code == 2, result.output
        assert "cutoff must be <= 2048" in result.output


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "position",
    ["angle:0", "angle:1", "angle:2", "tol", *(f"spec:{k}" for k in _VALID_SPEC),
     "basis:--x0", "basis:--p0", "basis:--b", "grid:min", "grid:max"],
)
def test_non_finite_input_is_usage_error(runner, tmp_path, position, value):
    kind, _, where = position.partition(":")
    if kind == "basis":
        args = ["basis", "--grid=-1:1:3", where, value]
    elif kind == "grid":
        lo, hi = ("-" + value, "1") if where == "min" else ("-1", value)
        args = ["basis", f"--grid={lo}:{hi}:3"]
    elif kind == "spec":
        wf_path = str(tmp_path / "wf.csv")
        _write_ground_state(runner, wf_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(_VALID_SPEC, **{where: float(value)})))
        args = ["transform", "--input", wf_path, "--spec", str(spec)]
    elif kind == "tol":
        args = ["verify", "--homomorphism", "--cutoff", "32", "--tol", value]
    else:
        angles = ["0.1", "0.1", "0.1"]
        angles[int(where)] = value
        args = ["verify", "--homomorphism", "--cutoff", "32", "--angles", ",".join(angles)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "must be finite" in result.output


@pytest.mark.parametrize("tol", ["0", "-1e-9"])
@pytest.mark.parametrize("check", ["--homomorphism", "--table=Eq10"])
def test_non_positive_tol_is_usage_error(runner, check, tol):
    result = runner.invoke(main, ["verify", check, "--tol", tol])
    assert result.exit_code == 2, result.output
    assert "tol must be positive" in result.output


# the cutoff as written in the spec file, the exit code it must give and the
# refusal's message
@pytest.mark.parametrize("cutoff,code,message", [
    ("64.5", 2, "cutoff must be an integer"),
    ('"64.5"', 2, 'field cutoff must be a JSON number, got "64.5"'),
    ('"64"', 2, 'field cutoff must be a JSON number, got "64"'),
    ("true", 2, "field cutoff must be a JSON number, got true"),
    ("64", 0, None),
    ("64.0", 0, None),
    ("1e2", 0, None),
])
def test_transform_spec_cutoff_must_be_an_integer(runner, tmp_path, cutoff, code, message):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_VALID_SPEC, cutoff="@")).replace('"@"', cutoff))
    result = runner.invoke(main, ["transform", "--input", wf_path, "--spec", str(spec)])
    assert result.exit_code == code, result.output
    if code:
        assert message in result.output


@pytest.mark.parametrize("field", [k for k in _VALID_SPEC if k != "cutoff"])
@pytest.mark.parametrize("value", ["0.5", True, False, None, [0.5], {"v": 0.5}])
def test_transform_spec_fields_must_be_json_numbers(runner, tmp_path, field, value):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_VALID_SPEC, **{field: value})))
    result = runner.invoke(main, ["transform", "--input", wf_path, "--spec", str(spec)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    want = f"transform spec field {field} must be a JSON number, got {json.dumps(value)}"
    assert want in result.output


def test_transform_spec_integer_too_large_for_a_float_is_usage_error(runner, tmp_path):
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_VALID_SPEC, X="@")).replace('"@"', "1" + "0" * 400))
    result = runner.invoke(main, ["transform", "--input", wf_path, "--spec", str(spec)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "bad transform spec" in result.output


@pytest.mark.parametrize("grid", ["--grid=-1:1:3", None])
@pytest.mark.parametrize("b", ["1e-320", "1e308"])
def test_basis_b_out_of_range_is_usage_error(runner, b, grid):
    args = ["basis", "--b", b] + ([grid] if grid else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "not finite and positive" in result.output


_LARGE_SQUEEZE = json.dumps({"dim": 1, "theta_plus": 10.0, "theta_minus": 30.0,
                             "theta_cross": 40.0})


def test_expmap_large_squeeze_passes_relative_gate(runner):
    result = runner.invoke(main, ["expmap"], input=_LARGE_SQUEEZE)
    assert result.exit_code == 0, result.output
    # the printed residual stays absolute
    assert json.loads(result.stdout)["symplectic_residual"] > 1.0


def test_verify_large_squeeze_is_a_failed_check_not_a_usage_error(runner):
    result = runner.invoke(main, ["verify", "--homomorphism", "--angles", "0,0,40"])
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert [c["status"] for c in payload["checks"]] == ["fail"]


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.linalg alone costs more than the whole CLI set-up
    src = str(Path(lctkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, lctkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _peak_traced_bytes(runner, args):
    tracemalloc.start()
    try:
        result = runner.invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak


# one cutoff x cutoff complex array at cutoff 1024 is 16 MiB; the parity
# factors and the leading rows stay below it, a dense U (or U A U+) on top of
# them does not.  The verify peak was 14.4 MiB, so the headroom is only ~10%,
# and it does not grow with the cutoff (the factors, the leading rows and a
# dense U all scale as cutoff^2): a failure may be unrelated memory growth on
# the verify path rather than a dense unitary.
_DENSE_CUTOFF = 1024
_DENSE_BYTES = _DENSE_CUTOFF ** 2 * np.dtype(complex).itemsize


@pytest.mark.parametrize("angles", ["0,0,0", "0.3,-0.2,0.25"])
def test_verify_never_forms_the_dense_unitary(runner, angles):
    # the checks judge the leading cutoff/4 block from the parity factors
    args = ["verify", "--homomorphism", "--basis-law", "--cutoff", str(_DENSE_CUTOFF),
            "--angles", angles]
    peak = _peak_traced_bytes(runner, args)
    assert peak < _DENSE_BYTES, f"traced peak {peak / 2**20:.1f} MiB >= bound {_DENSE_BYTES / 2**20:.0f} MiB"


def test_transform_never_forms_the_dense_unitary(runner, tmp_path):
    # transform applies U to the coefficient vector from the parity factors
    wf_path = str(tmp_path / "wf.csv")
    _write_ground_state(runner, wf_path, n=1)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"X": 0.0, "P": 0.0, "B": 0.5, "cutoff": _DENSE_CUTOFF,
                                "theta_plus": 0.3, "theta_minus": -0.2, "theta_cross": 0.25}))
    args = ["--format", "json", "transform", "--input", wf_path, "--spec", str(spec)]
    peak = _peak_traced_bytes(runner, args)
    assert peak < _DENSE_BYTES, f"traced peak {peak / 2**20:.1f} MiB >= bound {_DENSE_BYTES / 2**20:.0f} MiB"


def test_wavefunction_csv_renders_each_field_as_its_float_repr():
    grid = np.array([-0.0, 0.1, 1e-300, np.nan, np.inf])
    values = np.array([complex(-0.0, 0.0), complex(np.nan, -0.0), 1 / 3 + 2j, complex(0, np.inf), -1e22])
    want = ["x,re,im"] + [
        f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}" for x, v in zip(grid, values)
    ]
    assert _wavefunction_csv(grid, values) == "\n".join(want) + "\n"
    assert _wavefunction_csv(grid, values.real) == "\n".join(
        ["x,re,im"] + [f"{float(x)!r},{float(v)!r},0.0" for x, v in zip(grid, values.real)]
    ) + "\n"
