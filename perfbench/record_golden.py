"""Record the golden corpus of exact verification reports.

    python3 perfbench/record_golden.py

Runs `lctkit verify --all` once per exact-sweep signature and stores the 21
table reports and the closure report (one check per line) under `golden/`.
The corpus is a lock on behaviour: re-record it only at a commit whose table
verdicts are known to be right, never to make a failing benchmark pass.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from oracles import EXACT_COUNTS, TABLE_COUNT, golden_path
from workloads import SIGNATURES

ROOT = Path(__file__).resolve().parent.parent


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    golden_path(SIGNATURES[0]).parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for sig in SIGNATURES:
            out = Path(tmp) / "report.json"
            subprocess.run([sys.executable, "-m", "lctkit.cli", "--output", str(out), "verify",
                            "--all", "--signature", f"{sig[0]},{sig[1]}"], env=env, check=True)
            payload = json.loads(out.read_text(encoding="utf-8"))
            if payload["counts"] != EXACT_COUNTS:
                raise SystemExit(f"signature {sig}: counts {payload['counts']}")
            checks = payload["checks"][:TABLE_COUNT + 1]
            text = "[\n" + ",\n".join(json.dumps(c) for c in checks) + "\n]\n"
            golden_path(sig).write_text(text, encoding="utf-8")
            print(f"{golden_path(sig).name}: {len(checks)} checks")


if __name__ == "__main__":
    main()
