"""Verdicts of the published identity tables under the verification engine.

Most lines verify with exactly zero residual.  Five printed lines cannot hold
as printed: their right-hand sides break a symmetry that the corresponding
left-hand side possesses (or carry a sign from the other commutator
convention).  Those verdicts, with the engine's corrected forms, are locked
in here so any registry or engine change that disturbs them is caught.
"""

import functools
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from lctkit import tables, weyl
from lctkit.scalars import GaussianRational
from lctkit.tables import (
    ONE_DIMENSIONAL_TABLES,
    TABLE_IDS,
    TENSOR_TABLES,
    verify_table,
)
from lctkit.weyl import (
    ExactContext,
    Metric,
    WeylAlgebra,
    build_generator,
    closure_and_constants,
    commutator,
    generator_labels,
    mode_orbit,
    relabel_modes,
)

TWO_I = GaussianRational(0, 2)

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).resolve().parent / "golden" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

TENSOR_METRICS = [Metric(1, 0), Metric(2, 0), Metric(1, 1), Metric(3, 0), Metric(1, 2)]

# printed lines that are arithmetically impossible, with the index predicate
# describing exactly which tuples expose the defect
ERRATA_PREDICATES = {
    ("Eq69", 1): lambda idx, eta: eta(idx[0], idx[2]) != 0,
    ("Eq73", 4): lambda idx, eta: eta(idx[2], idx[0]) != 0,
    ("Eq73", 5): lambda idx, eta: eta(idx[3], idx[0]) != 0,
    ("Eq73", 6): lambda idx, eta: eta(idx[3], idx[0]) != 0,
    ("Eq73", 7): lambda idx, eta: eta(idx[2], idx[0]) != 0,
}


def test_registry_is_complete():
    assert set(TABLE_IDS) == set(ONE_DIMENSIONAL_TABLES) | set(TENSOR_TABLES)
    assert len(TABLE_IDS) == 21


@pytest.mark.parametrize("table", ONE_DIMENSIONAL_TABLES)
def test_one_dimensional_tables_hold_exactly(table):
    report = verify_table(table)
    assert report.checked >= 1
    assert report.ok(), [f.__dict__ for f in report.failed]


@pytest.mark.parametrize("table", ["Eq67", "Eq68", "Eq70", "Eq71", "Eq72"])
@pytest.mark.parametrize("metric", TENSOR_METRICS, ids=str)
def test_clean_tensor_tables_hold_exactly(table, metric):
    report = verify_table(table, metric=metric)
    assert report.ok(), [f.__dict__ for f in report.failed]


@pytest.mark.parametrize("metric", TENSOR_METRICS, ids=str)
def test_product_rule_table_fails_only_on_documented_lines(metric):
    report = verify_table("Eq69", metric=metric)
    assert report.failed_lines == {1}
    _check_failures_match_predicate("Eq69", report, metric)


@pytest.mark.parametrize("metric", TENSOR_METRICS, ids=str)
def test_word_bracket_table_fails_only_on_documented_lines(metric):
    report = verify_table("Eq73", metric=metric)
    assert report.failed_lines == {4, 5, 6, 7}
    _check_failures_match_predicate("Eq73", report, metric)


def _check_failures_match_predicate(table, report, metric):
    failed = {(f.line, f.indices) for f in report.failed}
    expected = set()
    n = metric.dim
    arity = len(next(iter(failed))[1])
    for line in report.failed_lines:
        pred = ERRATA_PREDICATES[(table, line)]
        for idx in itertools.product(range(n), repeat=arity):
            if pred(idx, metric.eta):
                expected.add((line, idx))
    assert failed == expected


def test_symmetric_product_residual_closed_form():
    # the defective line pairs a symmetric left side with an antisymmetric
    # right side; the discrepancy is exactly -2i eta_{mu rho} x_nu
    metric = Metric(1, 1)
    alg = WeylAlgebra(metric, -1)
    report = verify_table("Eq69", metric=metric)
    failures = {f.indices: f for f in report.failed}
    for (mu, nu, rho), failure in failures.items():
        expected = -(alg.x(nu) * metric.eta(mu, rho) * TWO_I)
        assert failure.residual == expected.text()
        assert failure.corrected_rhs["expansion"] is not None


@pytest.mark.parametrize("metric", [Metric(2, 0), Metric(1, 1)], ids=str)
def test_quadratic_bracket_tables_verdicts(metric):
    r74 = verify_table("Eq74", metric=metric)
    assert r74.failed_lines == {3}
    r75 = verify_table("Eq75", metric=metric)
    assert r75.failed_lines == {1}
    # every correction lies in the generator span
    for failure in r74.failed + r75.failed:
        assert failure.corrected_rhs["expansion"] is not None


def test_cross_cross_bracket_corrected_form():
    # engine value of [bx_{mu nu}, bx_{rho lam}] is
    # (i/2) (eta_{mu lam} bx_{rho nu} - eta_{nu rho} bx_{mu lam})
    metric = Metric(2, 0)
    alg = WeylAlgebra(metric, -1)
    half_i = GaussianRational(0, 1) * GaussianRational(1) / 2

    def bx(a, b):
        return build_generator(alg, "x", a, b)

    report = verify_table("Eq74", metric=metric)
    for f in report.failed:
        mu, nu, rho, lam = f.indices
        true_rhs = (bx(rho, nu) * metric.eta(mu, lam) - bx(mu, lam) * metric.eta(nu, rho)) * half_i
        lhs = commutator(bx(mu, nu), bx(rho, lam))
        assert lhs == true_rhs
        assert f.corrected_rhs["normal_form"] == lhs.text()


def test_mixed_bracket_sign_flips_with_convention():
    # the plus/minus bracket line carries the one-dimensional convention's
    # sign: under the tensor convention it fails wherever it is nonzero, and
    # flipping the convention flips which lines of the table survive
    assert verify_table("Eq75", metric=Metric(2, 0)).failed_lines == {1}
    assert verify_table("Eq75", metric=Metric(2, 0), sign=+1).failed_lines == {2, 3}


def test_ladder_normalisation_flips_with_convention():
    assert verify_table("Eq17").ok()
    assert not verify_table("Eq17", sign=-1).ok()
    assert verify_table("Eq68", metric=Metric(2, 0)).ok()
    assert not verify_table("Eq68", metric=Metric(2, 0), sign=+1).ok()


def test_report_json_schema():
    report = verify_table("Eq74", metric=Metric(2, 0))
    payload = report.to_json()
    assert payload["table"] == "Eq74"
    assert payload["metric"] == [2, 0]
    assert payload["checked"] == 48
    entry = payload["failed"][0]
    assert set(entry) == {"line", "indices", "residual", "corrected_rhs"}


def test_unknown_table_rejected():
    with pytest.raises(ValueError, match="unknown table 'Eq99'; known: Eq10, "):
        verify_table("Eq99")


def test_generators_are_built_once_per_call_and_not_kept_between_calls(monkeypatch):
    # Eq75 at N=4 names 3 kinds x 4 x 4 indices = 48 distinct generators over
    # 768 lines, and its failing line builds the correction basis too
    calls = []
    original = weyl.build_generator

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(weyl, "build_generator", counted)
    first = verify_table("Eq75", metric=Metric(4, 0))
    n_first = len(calls)
    assert 0 < n_first <= 48
    assert len(set(calls)) == n_first
    second = verify_table("Eq75", metric=Metric(4, 0))
    assert len(calls) == 2 * n_first
    assert second.to_json() == first.to_json()


def test_eq73_builds_each_quadratic_word_once_per_call(monkeypatch):
    # Eq73 at N=4 names 4 word shapes x 4 x 4 indices = 64 distinct quadratic
    # words over 2048 lines; each word costs two x/p calls, the correction
    # basis 8 and its 36 generators 4 each, 280 in all (a rebuild per line
    # made 17560)
    calls = []
    for name in ("x", "p"):
        original = getattr(WeylAlgebra, name)

        def counted(self, mu=0, _original=original):
            calls.append(mu)
            return _original(self, mu)

        monkeypatch.setattr(WeylAlgebra, name, counted)
    first = verify_table("Eq73", metric=Metric(4, 0))
    n_first = len(calls)
    assert n_first <= 2 * 64 + 8 + 4 * 36
    second = verify_table("Eq73", metric=Metric(4, 0))
    assert len(calls) == 2 * n_first
    assert second.to_json() == first.to_json()


@pytest.mark.parametrize("table", TABLE_IDS)
def test_every_report_matches_its_recorded_digest(table):
    # one sha256 per report over both signs and, for tensor tables, every
    # signature with N <= 4 (re-record with `python3 tests/golden/record.py
    # tables` only for a deliberate change of a report)
    recorded = json.loads(record.TABLE_DIGESTS.read_text())
    keys = {" ".join(map(str, key)): key for key in record.table_report_keys() if key[0] == table}
    assert keys and set(keys) == {k for k in recorded if k.split()[0] == table}
    for name, key in keys.items():
        assert record.table_report_digest(*key) == recorded[name], name


# every signature with 1 <= N <= 4
ALL_METRICS = [Metric(n_plus, n - n_plus) for n in range(1, 5) for n_plus in range(n, -1, -1)]


def _covariance_breaks(table, metric, sign):
    """(indices, line) where the builder's line is not its orbit
    representative's line relabelled, building every index tuple."""
    arity, builder = tables._REGISTRY[table]
    gen = ExactContext(metric, sign)
    breaks = []
    for indices in itertools.product(range(metric.dim), repeat=arity):
        rep, perm = mode_orbit(indices, metric)
        lines = builder(gen.alg, gen, *indices)
        for (line, lhs, rhs), (_, rep_lhs, rep_rhs) in zip(lines, builder(gen.alg, gen, *rep), strict=True):
            if lhs != relabel_modes(rep_lhs, perm) or rhs != relabel_modes(rep_rhs, perm):
                breaks.append((indices, line))
    return breaks


@pytest.mark.parametrize("table", TENSOR_TABLES)
def test_every_tensor_line_is_its_orbit_representative_relabelled(table):
    # the exhaustive check that lets verify_table build one tuple per orbit
    for metric, sign in itertools.product(ALL_METRICS, (1, -1)):
        assert _covariance_breaks(table, metric, sign) == [], (metric, sign)


def test_covariance_check_catches_a_right_hand_side_that_singles_out_a_mode(monkeypatch):
    def planted(alg, gen, mu, nu, rho):
        for line, lhs, rhs in tables._eq69(alg, gen, mu, nu, rho):
            yield line, lhs, rhs + alg.one() if mu == 1 else rhs

    monkeypatch.setitem(tables._REGISTRY, "Eq69", (3, planted))
    assert _covariance_breaks("Eq69", Metric(2, 0), -1)
    assert not _covariance_breaks("Eq69", Metric(1, 0), -1)


@pytest.mark.parametrize(
    "metric,orbits",
    [(Metric(1, 0), 1), (Metric(1, 1), 16), (Metric(2, 1), 41), (Metric(3, 0), 14), (Metric(4, 0), 15)],
    ids=str,
)
def test_four_index_tuples_fall_into_the_documented_orbits(metric, orbits):
    tuples = list(itertools.product(range(metric.dim), repeat=4))
    reps = {mode_orbit(t, metric)[0] for t in tuples}
    assert len(reps) == orbits
    for t in tuples:
        rep, perm = mode_orbit(t, metric)
        assert tuple(perm[r] for r in rep) == t
    assert mode_orbit((), Metric(1, 0)) == ((), (0,))


@pytest.mark.parametrize("metric", ALL_METRICS, ids=str)
def test_one_shared_context_gives_the_reports_and_closure_of_fresh_calls(metric):
    # `verify --all` runs every tensor table and then the closure on one context
    for sign in (-1, 1):
        make_context = functools.cache(ExactContext)
        for table in TENSOR_TABLES:
            shared = verify_table(table, metric=metric, sign=sign, make_context=make_context)
            assert shared.to_json() == verify_table(table, metric=metric, sign=sign).to_json(), (table, sign)
        shared = closure_and_constants(metric, sign, make_context=make_context).table
        assert make_context.cache_info().currsize == 1
        fresh = closure_and_constants(metric, sign).table
        assert [(p, list(r.items())) for p, r in shared.items()] == [(p, list(r.items())) for p, r in fresh.items()]


def test_a_shared_context_builds_each_generator_once_for_all_tables_and_the_closure(monkeypatch):
    calls = []
    original = weyl.build_generator

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(weyl, "build_generator", counted)
    make_context = functools.cache(ExactContext)
    for table in TENSOR_TABLES:
        verify_table(table, metric=Metric(2, 1), make_context=make_context)
    closure_and_constants(Metric(2, 1), make_context=make_context)
    assert sorted(calls) == sorted(generator_labels(3))
    assert make_context.cache_info().currsize == 1
