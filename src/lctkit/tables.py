"""Registry of the published commutator tables and their machine verification.

Each table stores the identities exactly as printed, line by line.  The
normal-ordering engine recomputes every left-hand side from first principles,
so a table line is a claim under test: lines that fail are reported together
with the engine-derived correct right-hand side (exact, re-expanded over x,
p, the generators and 1).  A table is registered with its arity and a
builder that yields its printed lines at one index tuple: arity 0 is a
one-dimensional table (sign=+1 convention), arity 2, 3 or 4 a tensor table
(sign=-1 convention).  `verify_table` runs the index loop over all tuples,
applies the owning convention and passes the builders a `weyl.ExactContext`.

The index tuples fall into orbits under the permutations of modes that keep
each signature block, and every tensor-table line is covariant under them
(eta is diagonal).  So a builder runs only at each orbit's representative
tuple, and each failed line is expanded only there; every other tuple of the
orbit replays them with `weyl.relabel_modes` and relabelled expansion labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import GaussianRational, I
from .weyl import (
    EUCLIDEAN_1D,
    ExactContext,
    Metric,
    build_ladder,
    commutator,
    dispersion_generators,
    raw_ladder,
    relabel_modes,
)

HALF_I = GaussianRational(0, Fraction(1, 2))
QUARTER_I = GaussianRational(0, Fraction(1, 4))
EIGHTH_I = GaussianRational(0, Fraction(1, 8))
TWO_I = GaussianRational(0, 2)


# -- one-dimensional tables (sign = +1) ------------------------------------


def _eq10(alg, gen):
    g = dispersion_generators(alg)
    four_i_b = alg.dispersion_scale(2) * GaussianRational(0, 4)
    yield 1, commutator(g["+"], g["-"]), four_i_b * g["x"]
    yield 2, commutator(g["-"], g["x"]), -(four_i_b * g["+"])
    yield 3, commutator(g["x"], g["+"]), four_i_b * g["-"]


def _eq15(alg, gen):
    zm, zp = raw_ladder(alg, "-"), raw_ladder(alg, "+")
    yield 1, commutator(zm, zp), alg.dispersion_scale(2) * 2


def _eq16(alg, gen):
    yield 1, commutator(alg.x(), alg.p()), alg.scalar(I)


def _eq17(alg, gen):
    yield 1, commutator(build_ladder(alg, "-"), build_ladder(alg, "+")), alg.one()


def _eq18(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, commutator(gen("xx"), p), x * TWO_I
    yield 2, commutator(gen("px"), p), p * I
    yield 3, commutator(gen("xp"), p), p * I


def _eq19(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, commutator(gen("pp"), x), -(p * TWO_I)
    yield 2, commutator(gen("px"), x), -(x * I)
    yield 3, commutator(gen("xp"), x), -(x * I)


def _eq20(alg, gen):
    pp, xx, px = gen("pp"), gen("xx"), gen("px")
    yield 1, commutator(pp, xx), -((px + gen("xp")) * TWO_I)
    yield 2, commutator(pp, px), -(pp * TWO_I)
    yield 3, commutator(xx, px), xx * TWO_I


def _eq22(alg, gen):
    bp, bm, bx = gen("+"), gen("-"), gen("x")
    yield 1, commutator(bp, bm), bx * I
    yield 2, commutator(bm, bx), -(bp * I)
    yield 3, commutator(bx, bp), bm * I


def _eq23(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, commutator(gen("+"), p), x * HALF_I
    yield 2, commutator(gen("-"), p), -(x * HALF_I)
    yield 3, commutator(gen("x"), p), p * HALF_I


def _eq24(alg, gen):
    x, p = alg.x(), alg.p()
    yield 1, commutator(gen("+"), x), -(p * HALF_I)
    yield 2, commutator(gen("-"), x), -(p * HALF_I)
    yield 3, commutator(gen("x"), x), -(x * HALF_I)


def _eq27(alg, gen):
    jp = dispersion_generators(alg)["+"]
    b = alg.dispersion_scale(2)
    zm, zp = build_ladder(alg, "-"), build_ladder(alg, "+")
    yield 1, jp, b * (zm * zp + zp * zm)
    yield 2, jp, b * (zp * zm * 2 + 1)
    yield 3, jp, b * (zm * zp * 2 - 1)


def _eq28(alg, gen):
    jp = dispersion_generators(alg)["+"]
    zm, zp = raw_ladder(alg, "-"), raw_ladder(alg, "+")
    two_b = alg.dispersion_scale(2) * 2
    yield 1, commutator(jp, zm), -(two_b * zm)
    yield 2, commutator(jp, zp), two_b * zp


# -- tensor tables (sign = -1), the lines at one index tuple ---------------


def _eq67(alg, gen, mu, nu):
    yield 1, commutator(alg.p(mu), alg.x(nu)), alg.scalar(I * alg.metric.eta(mu, nu))


def _eq68(alg, gen, mu, nu):
    lhs = commutator(build_ladder(alg, "+", mu), build_ladder(alg, "-", nu))
    yield 1, lhs, alg.scalar(alg.metric.eta(mu, nu))


def _eq69(alg, gen, mu, nu, rho):
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    yield 1, commutator(gen("xx", mu, nu), p(rho)), -(
        (x(mu) * eta(nu, rho) - x(nu) * eta(mu, rho)) * I
    )
    yield 2, commutator(gen("px", mu, nu), p(rho)), -(p(mu) * eta(nu, rho) * I)
    yield 3, commutator(gen("xp", mu, nu), p(rho)), -(p(nu) * eta(mu, rho) * I)


def _eq70(alg, gen, mu, nu, rho):
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    yield 1, commutator(gen("pp", mu, nu), x(rho)), (
        (p(mu) * eta(nu, rho) + p(nu) * eta(mu, rho)) * I
    )
    yield 2, commutator(gen("px", mu, nu), x(rho)), x(nu) * eta(mu, rho) * I
    yield 3, commutator(gen("xp", mu, nu), x(rho)), x(mu) * eta(nu, rho) * I


def _eq71(alg, gen, mu, nu, rho):
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    sym = (x(mu) * eta(nu, rho) + x(nu) * eta(mu, rho)) * QUARTER_I
    yield 1, commutator(gen("+", mu, nu), p(rho)), -sym
    yield 2, commutator(gen("-", mu, nu), p(rho)), sym
    yield 3, commutator(gen("x", mu, nu), p(rho)), -(p(mu) * eta(nu, rho) * HALF_I)


def _eq72(alg, gen, mu, nu, rho):
    eta = alg.metric.eta
    x, p = alg.x, alg.p
    sym = (p(mu) * eta(nu, rho) + p(nu) * eta(mu, rho)) * QUARTER_I
    yield 1, commutator(gen("+", mu, nu), x(rho)), sym
    yield 2, commutator(gen("-", mu, nu), x(rho)), sym
    yield 3, commutator(gen("x", mu, nu), x(rho)), x(nu) * eta(mu, rho) * HALF_I


def _eq73(alg, gen, mu, nu, rho, lam):
    eta = alg.metric.eta
    yield 1, commutator(gen("pp", mu, nu), gen("xx", rho, lam)), (
        gen("px", mu, rho) * eta(lam, nu)
        + gen("px", mu, lam) * eta(rho, nu)
        + gen("xp", rho, nu) * eta(lam, mu)
        + gen("xp", lam, nu) * eta(rho, mu)
    ) * I
    yield 2, commutator(gen("pp", mu, nu), gen("px", rho, lam)), (
        gen("pp", mu, rho) * eta(lam, nu) + gen("pp", rho, nu) * eta(lam, mu)
    ) * I
    yield 3, commutator(gen("pp", mu, nu), gen("xp", rho, lam)), (
        gen("pp", mu, lam) * eta(rho, nu) + gen("pp", lam, nu) * eta(rho, mu)
    ) * I
    yield 4, commutator(gen("xx", mu, nu), gen("px", rho, lam)), -(
        (gen("xx", mu, lam) * eta(rho, nu) - gen("xx", lam, nu) * eta(rho, mu)) * I
    )
    yield 5, commutator(gen("xx", mu, nu), gen("xp", rho, lam)), -(
        (gen("xx", mu, rho) * eta(lam, nu) - gen("xx", rho, nu) * eta(lam, mu)) * I
    )
    yield 6, commutator(gen("px", mu, nu), gen("px", rho, lam)), -(
        (gen("px", mu, lam) * eta(rho, nu) + gen("px", rho, nu) * eta(lam, mu)) * I
    )
    yield 7, commutator(gen("px", mu, nu), gen("xp", rho, lam)), -(
        (gen("px", mu, rho) * eta(lam, nu) + gen("px", lam, nu) * eta(rho, mu)) * I
    )
    yield 8, commutator(gen("xp", mu, nu), gen("xp", rho, lam)), (
        (gen("xp", mu, lam) * eta(rho, nu) - gen("xp", rho, nu) * eta(lam, mu)) * I
    )


def _eq74(alg, gen, mu, nu, rho, lam):
    eta = alg.metric.eta
    antis = (
        (gen("x", mu, rho) - gen("x", rho, mu)) * eta(nu, lam)
        + (gen("x", mu, lam) - gen("x", lam, mu)) * eta(nu, rho)
        + (gen("x", nu, rho) - gen("x", rho, nu)) * eta(mu, lam)
        + (gen("x", nu, lam) - gen("x", lam, nu)) * eta(mu, rho)
    )
    rhs = antis * EIGHTH_I
    yield 1, gen.bracket(("+", mu, nu), ("+", rho, lam)), rhs
    yield 2, gen.bracket(("-", mu, nu), ("-", rho, lam)), -rhs
    yield 3, gen.bracket(("x", mu, nu), ("x", rho, lam)), (
        (gen("x", rho, lam) * eta(nu, mu) - gen("x", mu, nu) * eta(rho, lam)) * HALF_I
    )


def _eq75(alg, gen, mu, nu, rho, lam):
    eta = alg.metric.eta
    sym_cross = (
        (gen("x", mu, rho) + gen("x", rho, mu)) * eta(nu, lam)
        + (gen("x", mu, lam) + gen("x", lam, mu)) * eta(nu, rho)
        + (gen("x", nu, rho) + gen("x", rho, nu)) * eta(mu, lam)
        + (gen("x", nu, lam) + gen("x", lam, nu)) * eta(mu, rho)
    )
    yield 1, gen.bracket(("+", mu, nu), ("-", rho, lam)), sym_cross * EIGHTH_I
    yield 2, gen.bracket(("-", mu, nu), ("x", rho, lam)), (
        (gen("+", mu, rho) + gen("-", rho, mu)) * eta(lam, nu)
        + (gen("+", rho, nu) + gen("-", nu, rho)) * eta(lam, mu)
        + (gen("+", mu, lam) - gen("-", lam, mu)) * eta(rho, nu)
        + (gen("+", lam, nu) - gen("-", nu, lam)) * eta(rho, mu)
    ) * QUARTER_I
    yield 3, gen.bracket(("x", mu, nu), ("+", rho, lam)), -(
        (
            (gen("+", mu, rho) + gen("-", rho, mu)) * eta(nu, lam)
            + (gen("+", mu, lam) + gen("-", lam, mu)) * eta(nu, rho)
            - (gen("+", rho, nu) - gen("-", nu, rho)) * eta(mu, lam)
            - (gen("+", nu, lam) - gen("-", lam, nu)) * eta(mu, rho)
        )
        * QUARTER_I
    )


_REGISTRY = {
    "Eq10": (0, _eq10),
    "Eq15": (0, _eq15),
    "Eq16": (0, _eq16),
    "Eq17": (0, _eq17),
    "Eq18": (0, _eq18),
    "Eq19": (0, _eq19),
    "Eq20": (0, _eq20),
    "Eq22": (0, _eq22),
    "Eq23": (0, _eq23),
    "Eq24": (0, _eq24),
    "Eq27": (0, _eq27),
    "Eq28": (0, _eq28),
    "Eq67": (2, _eq67),
    "Eq68": (2, _eq68),
    "Eq69": (3, _eq69),
    "Eq70": (3, _eq70),
    "Eq71": (3, _eq71),
    "Eq72": (3, _eq72),
    "Eq73": (4, _eq73),
    "Eq74": (4, _eq74),
    "Eq75": (4, _eq75),
}

TABLE_IDS = tuple(_REGISTRY)
ONE_DIMENSIONAL_TABLES = tuple(t for t, (arity, _) in _REGISTRY.items() if not arity)
TENSOR_TABLES = tuple(t for t, (arity, _) in _REGISTRY.items() if arity)


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

    @property
    def failed_lines(self) -> set:
        return {f.line for f in self.failed}

    def ok(self) -> bool:
        return not self.failed

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "metric": [self.metric.n_plus, self.metric.n_minus],
            "sign": self.sign,
            "checked": self.checked,
            "failed": [{**vars(f), "indices": list(f.indices)} for f in self.failed],
        }


def verify_table(table: str, metric: Metric | None = None, sign: int | None = None,
                 make_context=ExactContext) -> TableReport:
    """Check every printed line of a table at every index tuple.

    A table of arity k is checked at every k-tuple over 0..N-1, in
    `itertools.product` order; arity 0 is the empty tuple at N = 1.  Lines
    are built, and a failed line expanded over the correction basis, only at
    each mode-permutation orbit's representative (`weyl.mode_orbit`): every
    line is a tensor expression in the diagonal eta, so the other tuples
    relabel the representative's polynomials and expansion labels, and render
    their texts at their own indices.  The owning convention sign applies
    unless `sign` overrides it.  Builders get `make_context(metric, sign)` as
    `gen`: fresh by default, shared when the caller passes a cached maker.
    """
    if table not in _REGISTRY:
        raise KeyError(f"unknown table {table!r}; known: {', '.join(TABLE_IDS)}")
    arity, builder = _REGISTRY[table]
    if not arity:
        metric = EUCLIDEAN_1D
    elif metric is None:
        metric = Metric(2, 0)
    if metric.dim > 4:
        raise ValueError("tables are verified for N <= 4")
    use_sign = (-1 if arity else +1) if sign is None else sign
    ctx = make_context(metric, use_sign)
    report = TableReport(table, metric, use_sign)
    lines = {}  # orbit representative -> its (line, lhs, residual) triples
    expansions = {}  # (representative, line) -> {basis index: coefficient text}, or None
    for indices in itertools.product(range(metric.dim), repeat=arity):
        rep, perm = ctx.orbit(indices)
        if rep not in lines:
            lines[rep] = [(line, lhs, lhs - rhs) for line, lhs, rhs in builder(ctx.alg, ctx, *rep)]
        for line, lhs, residual in lines[rep]:
            report.checked += 1
            if residual.is_zero():
                continue
            if (rep, line) not in expansions:
                coeffs = ctx.solver.solve(lhs)
                expansions[(rep, line)] = None if coeffs is None else {
                    k: c.text() for k, c in enumerate(coeffs) if not c.is_zero()
                }
            found, moved = expansions[(rep, line)], ctx.image(perm)
            expansion = None if found is None else {
                ctx.basis_labels[m]: text for m, text in sorted((moved[k], t) for k, t in found.items())
            }
            corrected = {"normal_form": relabel_modes(lhs, perm).text(), "expansion": expansion}
            residual_text = relabel_modes(residual, perm).text()
            report.failed.append(FailedIdentity(line, indices, residual_text, corrected))
    return report
