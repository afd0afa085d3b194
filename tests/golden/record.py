"""Record the golden corpus of CLI stdout.

    python3 tests/golden/record.py

Runs every case in CASES through `python -m lctkit.cli` (the package under
`src/`) and writes `cases/<name>.stdout` and `cases/<name>.exit`; a case that
writes files through `--output` also stores each of them as
`cases/<name>.<file>`.  Inputs the cases read live in `inputs/`.
`tests/test_golden.py` replays every case and compares the bytes.

    python3 tests/golden/record.py tables

records instead `table_digests.json`: one sha256 per `verify_table(...)`
report (its `to_json()` as `json.dumps`) over every key of
`table_report_keys`.  `tests/test_tables.py` recomputes them.

The corpus is a lock on behaviour: re-record it only for a deliberate,
documented change of output, never to make a failing comparison pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
CASES_DIR = HERE / "cases"
SRC = HERE.parent.parent / "src"
TABLE_DIGESTS = HERE / "table_digests.json"

# name -> CLI arguments; "{in}" expands to the inputs directory and "{out}" to
# a scratch directory whose files become part of the case
CASES = {
    "basis-csv": ["basis", "-n", "3", "--grid=-6:6:121", "--x0", "0.5", "--p0", "0.25",
                  "--b", "0.7"],
    "basis-json": ["--format", "json", "basis", "-n", "2", "--grid=-5:5:41", "--b", "0.5"],
    # the default grid is fixed at 1001 points around X
    "basis-default-grid": ["basis", "-n", "1", "--b", "2.0"],
    "verify-table": ["verify", "--table", "Eq10", "--table", "Eq27"],
    "verify-table-warn": ["verify", "--table", "Eq74", "--signature", "1,1"],
    "verify-all-2-0": ["verify", "--all", "--signature", "2,0", "--cutoff", "32",
                       "--angles", "0.1,0.1,0.1"],
    "verify-all-1-1": ["verify", "--all", "--signature", "1,1", "--cutoff", "64",
                       "--angles", "0.3,-0.2,0.25"],
    # the benchmark warm-up's shape: at N = 1 every index tuple is its own orbit
    "verify-all-1-0": ["verify", "--signature", "1,0", "--all", "--cutoff", "32",
                       "--angles=0.2,-0.1,0.3"],
    # the largest orbit reduction: 256 index tuples, 15 orbits
    "verify-all-4-0": ["verify", "--all", "--signature", "4,0", "--cutoff", "32"],
    # the exact-sweep signatures without another case: at (2,1) block-keeping
    # perms and mirrored label pairs shape most orbits
    "verify-all-2-1": ["verify", "--all", "--signature", "2,1", "--cutoff", "64",
                       "--angles", "0.25,-0.15,0.2"],
    "verify-all-3-0": ["verify", "--all", "--signature", "3,0", "--cutoff", "64",
                       "--angles", "-0.3,0.2,0.1"],
    "verify-homomorphism": ["verify", "--homomorphism", "--angles", "0.3,-0.2,0.25",
                            "--cutoff", "64"],
    "verify-basis-law": ["verify", "--basis-law", "--angles", "0.4,0,0", "--cutoff", "64"],
    "verify-homomorphism-fail": ["verify", "--homomorphism", "--angles", "0.5,0.5,-0.5",
                                 "--cutoff", "32", "--tol", "1e-12"],
    "verify-basis-law-fail": ["verify", "--basis-law", "--angles", "0.4,0.3,-0.2",
                              "--cutoff", "96", "--tol", "1e-12"],
    "expmap-1d": ["expmap", "--input", "{in}/expmap-1d.json"],
    "expmap-2d-1-1": ["expmap", "--input", "{in}/expmap-2d-1-1.json"],
    "rep-all": ["rep", "--b", "0.8", "--cutoff", "6"],
    "rep-jcross": ["rep", "--b", "1.0", "--cutoff", "8", "--which", "jcross"],
    "transform-csv-output": ["--output", "{out}/out.csv", "transform", "--input", "{in}/wf.csv",
                             "--spec", "{in}/spec.json"],
    "transform-json": ["--format", "json", "transform", "--input", "{in}/wf.csv",
                       "--spec", "{in}/spec-squeeze.json"],
    "dispersion": ["dispersion", "--input", "{in}/wf.csv"],
}


def run_case(name: str) -> dict[str, bytes]:
    """Run one case; map each corpus file suffix to the bytes it should hold."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    with tempfile.TemporaryDirectory() as out:
        args = [a.replace("{in}", str(INPUTS)).replace("{out}", out) for a in CASES[name]]
        proc = subprocess.run([sys.executable, "-m", "lctkit.cli", *args], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
        files = {"stdout": proc.stdout, "exit": f"{proc.returncode}\n".encode()}
        for path in sorted(Path(out).iterdir()):
            files[path.name] = path.read_bytes()
    return files


def corpus_path(name: str, suffix: str) -> Path:
    return CASES_DIR / f"{name}.{suffix}"


def table_report_keys():
    """(table, n_plus, n_minus, sign) of every report the digest lock holds.

    Each one-dimensional table under both signs, and each tensor table at
    every signature with 1 <= N <= 4 under both signs.
    """
    from lctkit.tables import ONE_DIMENSIONAL_TABLES, TENSOR_TABLES

    keys = [(t, 1, 0, sign) for t in ONE_DIMENSIONAL_TABLES for sign in (1, -1)]
    for table in TENSOR_TABLES:
        for n in range(1, 5):
            for n_plus in range(n, -1, -1):
                keys += [(table, n_plus, n - n_plus, sign) for sign in (1, -1)]
    return keys


def table_report_digest(table: str, n_plus: int, n_minus: int, sign: int) -> str:
    from lctkit.tables import verify_table
    from lctkit.weyl import Metric

    report = verify_table(table, metric=Metric(n_plus, n_minus), sign=sign)
    return hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()


def record_table_digests():
    digests = {" ".join(map(str, key)): table_report_digest(*key) for key in table_report_keys()}
    TABLE_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{TABLE_DIGESTS.name}: {len(digests)} reports")


def main():
    if sys.argv[1:] == ["tables"]:
        sys.path.insert(0, str(SRC))
        record_table_digests()
        return
    CASES_DIR.mkdir(exist_ok=True)
    for name in CASES:
        files = run_case(name)
        for suffix, data in files.items():
            corpus_path(name, suffix).write_bytes(data)
        print(f"{name}: exit {files['exit'].decode().strip()}, {len(files['stdout'])} bytes")


if __name__ == "__main__":
    main()
