"""Registry of the published commutator tables and their machine verification.

Each table stores the identities exactly as printed, line by line.  The
normal-ordering engine recomputes every left-hand side from first principles,
so a table line is a claim under test: lines that fail are reported together
with the engine-derived correct right-hand side (exact, re-expanded over x,
p, the generators and 1).  One-dimensional tables use the sign=+1 convention,
tensor tables the sign=-1 convention; `verify_table` applies the owning
convention automatically.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import GaussianRational, I
from .weyl import (
    EUCLIDEAN_1D,
    ExactSpanSolver,
    Metric,
    WeylAlgebra,
    build_generator,
    build_ladder,
    commutator,
    dispersion_generators,
    generator_labels,
    label_text,
    raw_ladder,
)

HALF_I = GaussianRational(0, Fraction(1, 2))
QUARTER_I = GaussianRational(0, Fraction(1, 4))
EIGHTH_I = GaussianRational(0, Fraction(1, 8))
TWO_I = GaussianRational(0, 2)


# -- one-dimensional tables (sign = +1) ------------------------------------


def _eq10(alg, gen):
    g = dispersion_generators(alg)
    four_i_b = alg.dispersion_scale(2) * GaussianRational(0, 4)
    yield 1, (), commutator(g["+"], g["-"]), four_i_b * g["x"]
    yield 2, (), commutator(g["-"], g["x"]), -(four_i_b * g["+"])
    yield 3, (), commutator(g["x"], g["+"]), four_i_b * g["-"]


def _eq15(alg, gen):
    zm, zp = raw_ladder(alg, "-"), raw_ladder(alg, "+")
    yield 1, (), commutator(zm, zp), alg.dispersion_scale(2) * 2


def _eq16(alg, gen):
    yield 1, (), commutator(alg.x(), alg.p()), alg.scalar(I)


def _eq17(alg, gen):
    yield 1, (), commutator(build_ladder(alg, "-"), build_ladder(alg, "+")), alg.one()


def _eq18(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, (), commutator(x * x, p), x * TWO_I
    yield 2, (), commutator(alg.word("p", "x"), p), p * I
    yield 3, (), commutator(alg.word("x", "p"), p), p * I


def _eq19(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, (), commutator(p * p, x), -(p * TWO_I)
    yield 2, (), commutator(alg.word("p", "x"), x), -(x * I)
    yield 3, (), commutator(alg.word("x", "p"), x), -(x * I)


def _eq20(alg, gen):
    x, p = alg.x(), alg.p()
    px, xp = alg.word("p", "x"), alg.word("x", "p")
    yield 1, (), commutator(p * p, x * x), -((px + xp) * TWO_I)
    yield 2, (), commutator(p * p, px), -(p * p * TWO_I)
    yield 3, (), commutator(x * x, px), x * x * TWO_I


def _eq22(alg, gen):
    bp, bm, bx = gen("+"), gen("-"), gen("x")
    yield 1, (), commutator(bp, bm), bx * I
    yield 2, (), commutator(bm, bx), -(bp * I)
    yield 3, (), commutator(bx, bp), bm * I


def _eq23(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, (), commutator(gen("+"), p), x * HALF_I
    yield 2, (), commutator(gen("-"), p), -(x * HALF_I)
    yield 3, (), commutator(gen("x"), p), p * HALF_I


def _eq24(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, (), commutator(gen("+"), x), -(p * HALF_I)
    yield 2, (), commutator(gen("-"), x), -(p * HALF_I)
    yield 3, (), commutator(gen("x"), x), -(x * HALF_I)


def _eq27(alg, gen):
    jp = dispersion_generators(alg)["+"]
    b = alg.dispersion_scale(2)
    zm, zp = build_ladder(alg, "-"), build_ladder(alg, "+")
    yield 1, (), jp, b * (zm * zp + zp * zm)
    yield 2, (), jp, b * (zp * zm * 2 + 1)
    yield 3, (), jp, b * (zm * zp * 2 - 1)


def _eq28(alg, gen):
    jp = dispersion_generators(alg)["+"]
    zm, zp = raw_ladder(alg, "-"), raw_ladder(alg, "+")
    two_b = alg.dispersion_scale(2) * 2
    yield 1, (), commutator(jp, zm), -(two_b * zm)
    yield 2, (), commutator(jp, zp), two_b * zp


# -- tensor tables (sign = -1) ----------------------------------------------


def _eq67(alg, gen):
    n = alg.dim
    for mu, nu in itertools.product(range(n), repeat=2):
        rhs = alg.scalar(I * alg.metric.eta(mu, nu))
        yield 1, (mu, nu), commutator(alg.p(mu), alg.x(nu)), rhs


def _eq68(alg, gen):
    n = alg.dim
    for mu, nu in itertools.product(range(n), repeat=2):
        lhs = commutator(build_ladder(alg, "+", mu), build_ladder(alg, "-", nu))
        yield 1, (mu, nu), lhs, alg.scalar(alg.metric.eta(mu, nu))


def _eq69(alg, gen):
    n = alg.dim
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    for mu, nu, rho in itertools.product(range(n), repeat=3):
        yield 1, (mu, nu, rho), commutator(x(mu) * x(nu), p(rho)), -(
            (x(mu) * eta(nu, rho) - x(nu) * eta(mu, rho)) * I
        )
        yield 2, (mu, nu, rho), commutator(p(mu) * x(nu), p(rho)), -(p(mu) * eta(nu, rho) * I)
        yield 3, (mu, nu, rho), commutator(x(mu) * p(nu), p(rho)), -(p(nu) * eta(mu, rho) * I)


def _eq70(alg, gen):
    n = alg.dim
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    for mu, nu, rho in itertools.product(range(n), repeat=3):
        yield 1, (mu, nu, rho), commutator(p(mu) * p(nu), x(rho)), (
            (p(mu) * eta(nu, rho) + p(nu) * eta(mu, rho)) * I
        )
        yield 2, (mu, nu, rho), commutator(p(mu) * x(nu), x(rho)), x(nu) * eta(mu, rho) * I
        yield 3, (mu, nu, rho), commutator(x(mu) * p(nu), x(rho)), x(mu) * eta(nu, rho) * I


def _eq71(alg, gen):
    n = alg.dim
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    for mu, nu, rho in itertools.product(range(n), repeat=3):
        sym = (x(mu) * eta(nu, rho) + x(nu) * eta(mu, rho)) * QUARTER_I
        yield 1, (mu, nu, rho), commutator(gen("+", mu, nu), p(rho)), -sym
        yield 2, (mu, nu, rho), commutator(gen("-", mu, nu), p(rho)), sym
        yield 3, (mu, nu, rho), commutator(gen("x", mu, nu), p(rho)), -(
            p(mu) * eta(nu, rho) * HALF_I
        )


def _eq72(alg, gen):
    n = alg.dim
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    for mu, nu, rho in itertools.product(range(n), repeat=3):
        sym = (p(mu) * eta(nu, rho) + p(nu) * eta(mu, rho)) * QUARTER_I
        yield 1, (mu, nu, rho), commutator(gen("+", mu, nu), x(rho)), sym
        yield 2, (mu, nu, rho), commutator(gen("-", mu, nu), x(rho)), sym
        yield 3, (mu, nu, rho), commutator(gen("x", mu, nu), x(rho)), (
            x(nu) * eta(mu, rho) * HALF_I
        )


def _eq73(alg, gen):
    n = alg.dim
    eta = alg.metric.eta
    x, p = alg.x, alg.p

    @functools.cache  # one build per word and table pass, like `gen`
    def w(kind_a, a, kind_b, b):
        first = x(a) if kind_a == "x" else p(a)
        second = x(b) if kind_b == "x" else p(b)
        return first * second

    for mu, nu, rho, lam in itertools.product(range(n), repeat=4):
        yield 1, (mu, nu, rho, lam), commutator(w("p", mu, "p", nu), w("x", rho, "x", lam)), (
            w("p", mu, "x", rho) * eta(lam, nu)
            + w("p", mu, "x", lam) * eta(rho, nu)
            + w("x", rho, "p", nu) * eta(lam, mu)
            + w("x", lam, "p", nu) * eta(rho, mu)
        ) * I
        yield 2, (mu, nu, rho, lam), commutator(w("p", mu, "p", nu), w("p", rho, "x", lam)), (
            w("p", mu, "p", rho) * eta(lam, nu) + w("p", rho, "p", nu) * eta(lam, mu)
        ) * I
        yield 3, (mu, nu, rho, lam), commutator(w("p", mu, "p", nu), w("x", rho, "p", lam)), (
            w("p", mu, "p", lam) * eta(rho, nu) + w("p", lam, "p", nu) * eta(rho, mu)
        ) * I
        yield 4, (mu, nu, rho, lam), commutator(w("x", mu, "x", nu), w("p", rho, "x", lam)), -(
            (w("x", mu, "x", lam) * eta(rho, nu) - w("x", lam, "x", nu) * eta(rho, mu)) * I
        )
        yield 5, (mu, nu, rho, lam), commutator(w("x", mu, "x", nu), w("x", rho, "p", lam)), -(
            (w("x", mu, "x", rho) * eta(lam, nu) - w("x", rho, "x", nu) * eta(lam, mu)) * I
        )
        yield 6, (mu, nu, rho, lam), commutator(w("p", mu, "x", nu), w("p", rho, "x", lam)), -(
            (w("p", mu, "x", lam) * eta(rho, nu) + w("p", rho, "x", nu) * eta(lam, mu)) * I
        )
        yield 7, (mu, nu, rho, lam), commutator(w("p", mu, "x", nu), w("x", rho, "p", lam)), -(
            (w("p", mu, "x", rho) * eta(lam, nu) + w("p", lam, "x", nu) * eta(rho, mu)) * I
        )
        yield 8, (mu, nu, rho, lam), commutator(w("x", mu, "p", nu), w("x", rho, "p", lam)), (
            (w("x", mu, "p", lam) * eta(rho, nu) - w("x", rho, "p", nu) * eta(lam, mu)) * I
        )


def _eq74(alg, gen):
    n = alg.dim
    eta = alg.metric.eta

    for mu, nu, rho, lam in itertools.product(range(n), repeat=4):
        antis = (
            (gen("x", mu, rho) - gen("x", rho, mu)) * eta(nu, lam)
            + (gen("x", mu, lam) - gen("x", lam, mu)) * eta(nu, rho)
            + (gen("x", nu, rho) - gen("x", rho, nu)) * eta(mu, lam)
            + (gen("x", nu, lam) - gen("x", lam, nu)) * eta(mu, rho)
        )
        rhs = antis * EIGHTH_I
        yield 1, (mu, nu, rho, lam), commutator(gen("+", mu, nu), gen("+", rho, lam)), rhs
        yield 2, (mu, nu, rho, lam), commutator(gen("-", mu, nu), gen("-", rho, lam)), -rhs
        yield 3, (mu, nu, rho, lam), commutator(gen("x", mu, nu), gen("x", rho, lam)), (
            (gen("x", rho, lam) * eta(nu, mu) - gen("x", mu, nu) * eta(rho, lam)) * HALF_I
        )


def _eq75(alg, gen):
    n = alg.dim
    eta = alg.metric.eta

    for mu, nu, rho, lam in itertools.product(range(n), repeat=4):
        sym_cross = (
            (gen("x", mu, rho) + gen("x", rho, mu)) * eta(nu, lam)
            + (gen("x", mu, lam) + gen("x", lam, mu)) * eta(nu, rho)
            + (gen("x", nu, rho) + gen("x", rho, nu)) * eta(mu, lam)
            + (gen("x", nu, lam) + gen("x", lam, nu)) * eta(mu, rho)
        )
        yield 1, (mu, nu, rho, lam), commutator(gen("+", mu, nu), gen("-", rho, lam)), (
            sym_cross * EIGHTH_I
        )
        yield 2, (mu, nu, rho, lam), commutator(gen("-", mu, nu), gen("x", rho, lam)), (
            (gen("+", mu, rho) + gen("-", rho, mu)) * eta(lam, nu)
            + (gen("+", rho, nu) + gen("-", nu, rho)) * eta(lam, mu)
            + (gen("+", mu, lam) - gen("-", lam, mu)) * eta(rho, nu)
            + (gen("+", lam, nu) - gen("-", nu, lam)) * eta(rho, mu)
        ) * QUARTER_I
        yield 3, (mu, nu, rho, lam), commutator(gen("x", mu, nu), gen("+", rho, lam)), -(
            (
                (gen("+", mu, rho) + gen("-", rho, mu)) * eta(nu, lam)
                + (gen("+", mu, lam) + gen("-", lam, mu)) * eta(nu, rho)
                - (gen("+", rho, nu) - gen("-", nu, rho)) * eta(mu, lam)
                - (gen("+", nu, lam) - gen("-", lam, nu)) * eta(mu, rho)
            )
            * QUARTER_I
        )


_REGISTRY = {
    "Eq10": (+1, True, _eq10),
    "Eq15": (+1, True, _eq15),
    "Eq16": (+1, True, _eq16),
    "Eq17": (+1, True, _eq17),
    "Eq18": (+1, True, _eq18),
    "Eq19": (+1, True, _eq19),
    "Eq20": (+1, True, _eq20),
    "Eq22": (+1, True, _eq22),
    "Eq23": (+1, True, _eq23),
    "Eq24": (+1, True, _eq24),
    "Eq27": (+1, True, _eq27),
    "Eq28": (+1, True, _eq28),
    "Eq67": (-1, False, _eq67),
    "Eq68": (-1, False, _eq68),
    "Eq69": (-1, False, _eq69),
    "Eq70": (-1, False, _eq70),
    "Eq71": (-1, False, _eq71),
    "Eq72": (-1, False, _eq72),
    "Eq73": (-1, False, _eq73),
    "Eq74": (-1, False, _eq74),
    "Eq75": (-1, False, _eq75),
}

TABLE_IDS = tuple(_REGISTRY)
ONE_DIMENSIONAL_TABLES = tuple(t for t, (_, fixed, _f) in _REGISTRY.items() if fixed)
TENSOR_TABLES = tuple(t for t, (_, fixed, _f) in _REGISTRY.items() if not fixed)


@dataclass
class FailedIdentity:
    line: int
    indices: tuple
    residual: str
    corrected_rhs: dict


@dataclass
class TableReport:
    table: str
    metric: Metric
    sign: int
    checked: int = 0
    failed: list = field(default_factory=list)
    failed_lines: set = field(default_factory=set)

    def ok(self) -> bool:
        return not self.failed

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "metric": [self.metric.n_plus, self.metric.n_minus],
            "sign": self.sign,
            "checked": self.checked,
            "failed": [
                {
                    "line": f.line,
                    "indices": list(f.indices),
                    "residual": f.residual,
                    "corrected_rhs": f.corrected_rhs,
                }
                for f in self.failed
            ],
        }


def correction_basis(alg: WeylAlgebra, gen):
    """Labels and polynomials of x, p, the generators, then 1.

    `gen(kind, mu, nu)` returns the quadratic generator.  Every table
    left-hand side has homogeneous parity, so a degree <= 1 form expands over
    x, p and 1 alone and a quadratic one over the generators and 1.
    """
    n = alg.dim
    gen_labels = generator_labels(n)
    labels = [f"x{mu}" for mu in range(n)] + [f"p{mu}" for mu in range(n)]
    labels += [label_text(l) for l in gen_labels] + ["1"]
    polys = [alg.x(mu) for mu in range(n)] + [alg.p(mu) for mu in range(n)]
    return labels, polys + [gen(*l) for l in gen_labels] + [alg.one()]


def verify_table(table: str, metric: Metric | None = None, sign: int | None = None) -> TableReport:
    """Check every printed line of a table over all index combinations.

    The owning convention sign is applied by default; passing `sign` overrides
    it (used to record how a table behaves under the other convention).  Each
    quadratic generator is built once per call and shared by every line; the
    memo is local, so nothing is kept between calls.
    """
    if table not in _REGISTRY:
        raise KeyError(f"unknown table {table!r}; known: {', '.join(TABLE_IDS)}")
    default_sign, one_dim, builder = _REGISTRY[table]
    if one_dim:
        metric = EUCLIDEAN_1D
    elif metric is None:
        metric = Metric(2, 0)
    if metric.dim > 4:
        raise ValueError("tables are verified for N <= 4")
    use_sign = default_sign if sign is None else sign
    alg = WeylAlgebra(metric, use_sign)
    report = TableReport(table, metric, use_sign)
    memo = {}

    def gen(kind, mu=0, nu=0):
        if (kind, mu, nu) not in memo:
            memo[kind, mu, nu] = build_generator(alg, kind, mu, nu)
        return memo[kind, mu, nu]

    solver = None
    for line, indices, lhs, rhs in builder(alg, gen):
        report.checked += 1
        residual = lhs - rhs
        if residual.is_zero():
            continue
        if solver is None:
            labels, polys = correction_basis(alg, gen)
            solver = ExactSpanSolver(polys)
        coeffs = solver.solve(lhs)
        expansion = None if coeffs is None else {
            lab: c.text() for lab, c in zip(labels, coeffs) if not c.is_zero()
        }
        corrected = {"normal_form": lhs.text(), "expansion": expansion}
        report.failed.append(FailedIdentity(line, indices, residual.text(), corrected))
        report.failed_lines.add(line)
    return report
