"""Per-layer spans and counters, recorded from outside lctkit.

The tracer wraps public functions of each lctkit module (and `numpy.linalg.eigh`,
which `metaplectic` reaches through `np`).  A function is replaced under every
name that refers to it, so a module that imported it by name (`tables` imports
`commutator` and `build_generator`, `metaplectic` imports `dispersion_matrices`
and `exp_sl2`) calls the wrapper too.  Methods are replaced on their class.

Spans are (name, start, end, parent index, job id, detail) rows kept in memory
and written out when the run ends.  Scalar arithmetic and polynomial products
run millions of times at N=4, so they are aggregated counters, not spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); one span name may cover several functions
SPANS = (
    ("lctkit.tables", "verify_table", "tables.verify_table"),
    ("lctkit.weyl", "commutator", "weyl.commutator"),
    ("lctkit.weyl", "build_generator", "weyl.build_generator"),
    ("lctkit.weyl", "ExactSpanSolver.__init__", "weyl.span_solver_build"),
    ("lctkit.weyl", "ExactSpanSolver.solve", "weyl.span_solve"),
    ("lctkit.weyl", "closure_and_constants", "weyl.closure"),
    ("lctkit.weyl", "StructureConstants.jacobi_violations", "weyl.jacobi"),
    ("lctkit.weyl", "transform_generators", "weyl.transform_generators"),
    ("lctkit.fock", "ladder_matrices", "fock.build"),
    ("lctkit.fock", "dispersion_matrices", "fock.build"),
    ("lctkit.symplectic", "exp_sl2", "symplectic.exp"),
    ("lctkit.symplectic", "exp_sp", "symplectic.exp"),
    ("lctkit.metaplectic", "build_unitary", "metaplectic.build_unitary"),
    ("lctkit.metaplectic", "verify_homomorphism", "metaplectic.verify"),
    ("lctkit.metaplectic", "verify_basis_transformation", "metaplectic.verify"),
    ("lctkit.metaplectic", "position_convention_unitary", "metaplectic.position_convention"),
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("lctkit.hermite", "project", "hermite.project"),
    ("lctkit.hermite", "synthesize", "hermite.synthesize"),
    ("lctkit.hermite", "dispersion_estimate", "hermite.dispersion_estimate"),
    ("lctkit.hermite", "phi", "hermite.phi"),
)

# (module, attribute, counter); counted, and for scalars timed, without spans
COUNTED = (
    ("lctkit.scalars", "GaussianRational.__mul__", "scalars.mul"),
    ("lctkit.scalars", "GaussianRational.__rmul__", "scalars.mul"),
    ("lctkit.scalars", "GaussianRational.__add__", "scalars.add"),
    ("lctkit.scalars", "GaussianRational.__radd__", "scalars.add"),
    ("lctkit.scalars", "GaussianRational.inverse", "scalars.inverse"),
    ("lctkit.weyl", "WeylPolynomial.__mul__", "weyl.poly_mul"),
)

# metric -> (kind, key); kinds: incl/calls over spans, self over a layer's
# spans, count over counters
PER_LAYER = {
    "cli.import_s": ("import", None),
    "cli.self_s": ("self", "cli"),
    "tables.verify_table_calls": ("calls", "tables.verify_table"),
    "tables.verify_table_s": ("incl", "tables.verify_table"),
    "tables.self_s": ("self", "tables"),
    "tables.verify_table_s.Eq73": ("incl", "tables.verify_table.Eq73"),
    "tables.verify_table_s.Eq74": ("incl", "tables.verify_table.Eq74"),
    "tables.verify_table_s.Eq75": ("incl", "tables.verify_table.Eq75"),
    "tables.lines_checked": ("count", "tables.lines_checked"),
    "tables.lines_failed": ("count", "tables.lines_failed"),
    "weyl.commutator_calls": ("calls", "weyl.commutator"),
    "weyl.commutator_s": ("incl", "weyl.commutator"),
    "weyl.poly_mul_calls": ("count", "weyl.poly_mul"),
    "weyl.build_generator_calls": ("calls", "weyl.build_generator"),
    "weyl.build_generator_s": ("incl", "weyl.build_generator"),
    "weyl.span_solver_builds": ("calls", "weyl.span_solver_build"),
    "weyl.span_solver_build_s": ("incl", "weyl.span_solver_build"),
    "weyl.span_solve_calls": ("calls", "weyl.span_solve"),
    "weyl.span_solve_s": ("incl", "weyl.span_solve"),
    "weyl.closure_s": ("incl", "weyl.closure"),
    "weyl.jacobi_s": ("incl", "weyl.jacobi"),
    "weyl.transform_generators_s": ("incl", "weyl.transform_generators"),
    "scalars.mul_calls": ("count", "scalars.mul"),
    "scalars.add_calls": ("count", "scalars.add"),
    "scalars.inverse_calls": ("count", "scalars.inverse"),
    "scalars.arith_s": ("count", "scalars.arith_s"),
    "fock.build_calls": ("calls", "fock.build"),
    "fock.build_s": ("incl", "fock.build"),
    "symplectic.exp_calls": ("calls", "symplectic.exp"),
    "symplectic.exp_s": ("incl", "symplectic.exp"),
    "metaplectic.build_unitary_calls": ("calls", "metaplectic.build_unitary"),
    "metaplectic.build_unitary_s": ("incl", "metaplectic.build_unitary"),
    "metaplectic.eigh_calls": ("calls", "numpy.eigh"),
    "metaplectic.eigh_s": ("incl", "numpy.eigh"),
    "metaplectic.eigh_n3": ("count", "metaplectic.eigh_n3"),
    "metaplectic.verify_s": ("incl", "metaplectic.verify"),
    "metaplectic.self_s": ("self", "metaplectic"),
    "metaplectic.position_convention_s": ("incl", "metaplectic.position_convention"),
    "hermite.project_s": ("incl", "hermite.project"),
    "hermite.synthesize_s": ("incl", "hermite.synthesize"),
    "hermite.dispersion_estimate_s": ("incl", "hermite.dispersion_estimate"),
    "hermite.phi_calls": ("calls", "hermite.phi"),
    "hermite.recurrence_steps": ("count", "hermite.recurrence_steps"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter({"scalars.arith_s": 0.0})
        self.job = None
        self._stack: list[int] = []
        self._arith_depth = 0
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def open_span(self, name: str, detail=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent, self.job, detail]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def close_span(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._stack.pop()

    def _note(self, name, args, result):
        if name == "tables.verify_table":
            self.counters["tables.lines_checked"] += result.checked
            self.counters["tables.lines_failed"] += len(result.failed)
        elif name == "numpy.eigh":
            self.counters["metaplectic.eigh_n3"] += args[0].shape[-1] ** 3
        elif name == "hermite.phi":
            self.counters["hermite.recurrence_steps"] += args[0] + 1

    def _span_wrapper(self, name, fn):
        detail_of = (lambda args: args[0]) if name == "tables.verify_table" else (lambda args: None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self.open_span(name, detail_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(row)
            self._note(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters
        if not name.startswith("scalars."):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args):
            counters[name] += 1
            if self._arith_depth:  # inverse() multiplies; time the outer op once
                return fn(*args)
            self._arith_depth = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                counters["scalars.arith_s"] += clock() - start
                self._arith_depth = 0

        return timed

    # -- installation ---------------------------------------------------

    def _replace(self, module: str, path: str, make):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        targets = [(owner, attr)]
        if "." not in path:
            # every module that imported the function by name
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if not name.startswith("lctkit") or mod is owner:
                    continue
                targets += [(mod, k) for k, v in vars(mod).items() if v is original]
        for tgt, key in targets:
            self._restore.append((tgt, key, getattr(tgt, key)))
            setattr(tgt, key, wrapper)

    def __enter__(self):
        for module, path, name in SPANS:
            self._replace(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for module, path, name in COUNTED:
            self._replace(module, path, lambda fn, name=name: self._count_wrapper(name, fn))
        return self

    def __exit__(self, *exc):
        for tgt, key, value in reversed(self._restore):
            setattr(tgt, key, value)
        self._restore.clear()
        return False

    # -- results --------------------------------------------------------

    def layer_metrics(self, import_s: float) -> dict:
        """Every PER_LAYER metric; a layer that never ran reports 0."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _job, _detail in spans:
            if parent >= 0:
                covered[parent] += end - start
        incl: dict = defaultdict(float)
        calls: Counter = Counter()
        layer_self: dict = defaultdict(float)
        for i, (name, start, end, _parent, _job, detail) in enumerate(spans):
            incl[name] += end - start
            calls[name] += 1
            if detail is not None:
                incl[f"{name}.{detail}"] += end - start
            layer_self[name.split(".")[0]] += end - start - covered[i]
        out = {}
        for metric, (kind, key) in PER_LAYER.items():
            if kind == "import":
                out[metric] = import_s
            elif kind == "self":
                out[metric] = layer_self[key]
            elif kind == "incl":
                out[metric] = incl[key]
            elif kind == "calls":
                out[metric] = calls[key]
            else:
                out[metric] = self.counters[key]
        return out

    def dump(self, path, env: dict) -> None:
        """Write the spans, one JSON array per line after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job", "detail"],
                                 "env": env, "counters": dict(self.counters)}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
