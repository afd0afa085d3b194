"""Golden corpus: every recorded CLI case reproduces its stdout, exit code and
output files byte for byte (re-record with `python3 tests/golden/record.py`)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).resolve().parent / "golden" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("name", sorted(record.CASES))
def test_cli_output_matches_golden_corpus(name):
    files = record.run_case(name)
    recorded = sorted(p.name for p in record.CASES_DIR.glob(f"{name}.*"))
    assert sorted(f"{name}.{suffix}" for suffix in files) == recorded
    for suffix, data in files.items():
        assert data == record.corpus_path(name, suffix).read_bytes(), f"{name}.{suffix} differs"


def test_corpus_has_no_stray_files():
    names = {p.name.split(".", 1)[0] for p in record.CASES_DIR.iterdir()}
    assert names == set(record.CASES)
