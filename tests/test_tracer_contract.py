"""Every function the benchmark tracer wraps still exists under its name.

`perfbench/tracer.py` resolves its targets by module and attribute path, so a
rename or removal in lctkit breaks `perfbench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module,path",
    [(module, path) for module, path, _ in tracer.SPANS + tracer.COUNTED],
    ids=[f"{module}:{path}" for module, path, _ in tracer.SPANS + tracer.COUNTED],
)
def test_traced_target_resolves(module, path):
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr, None)), f"{module}.{path} is missing"
