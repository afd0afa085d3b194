"""Exact normal-ordered polynomial algebra over position/momentum generators.

The algebra is generated by reduced coordinates x_mu and momenta p_mu subject
to the single-index commutation relation

    [x_mu, p_nu] = i * sign * eta_{mu nu}

with a diagonal metric eta of signature (n_plus, n_minus) and a convention
sign in {+1, -1}.  sign=+1 reproduces the one-dimensional relation
[x, p] = i; sign=-1 reproduces the tensor relation [p_mu, x_nu] = i eta_{mu nu}.
Both conventions appear in the verified identity tables, so the sign is a
constructor parameter of the algebra rather than a global.

Polynomials are stored in canonical normal order (all x factors left of all
p factors, indices ascending) with coefficients in Q(i, sqrt2), plus integer
half-powers of a central dispersion scale B.  All arithmetic is exact; one
`ExactContext` per (metric, sign) builds each generator, bracket and solver once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .scalars import GaussianRational, I, INV_SQRT2, ONE, ZERO, common_numerators, mul_parts


class ConventionMismatch(ValueError):
    """Operands belong to algebras with different dim, metric or sign."""


class IndexOutOfRange(IndexError):
    """Generator index outside 0..N-1."""


class ClosureFailure(ValueError):
    """A bracket left the span of the generator basis."""


class SpanFailure(ValueError):
    """Exact linear solve over a polynomial basis has no solution."""


class NotSymplectic(ValueError):
    """Matrix fails the exact symplectic block condition."""


@dataclass(frozen=True)
class Metric:
    """Diagonal metric with n_plus entries +1 followed by n_minus entries -1."""

    n_plus: int
    n_minus: int = 0

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0 or self.dim < 1:
            raise ValueError("metric signature must have N = n_plus + n_minus >= 1")

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus

    def eta(self, mu: int, nu: int) -> int:
        if mu != nu:
            return 0
        return 1 if mu < self.n_plus else -1

    def diag(self) -> tuple[int, ...]:
        return tuple(1 if mu < self.n_plus else -1 for mu in range(self.dim))


EUCLIDEAN_1D = Metric(1, 0)


class WeylAlgebra:
    """Context object fixing dimension, metric and commutator sign."""

    def __init__(self, metric: Metric = EUCLIDEAN_1D, sign: int = +1):
        if sign not in (+1, -1):
            raise ValueError("sign convention must be +1 or -1")
        self.metric = metric
        self.dim = metric.dim
        self.sign = sign
        # [p_mu, x_mu] = -i * sign * eta_mu, the c-number used in reordering
        self._pc = tuple(GaussianRational(0, -sign * e) for e in metric.diag())
        self._zero_exp = (0,) * self.dim

    # -- identity of the convention ------------------------------------

    def key(self):
        return (self.dim, self.metric, self.sign)

    def compatible(self, other: "WeylAlgebra") -> bool:
        return self.key() == other.key()

    # -- element constructors --------------------------------------------

    def zero(self) -> "WeylPolynomial":
        return WeylPolynomial(self, {})

    def scalar(self, value) -> "WeylPolynomial":
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return self.zero()
        return WeylPolynomial(self, {(0, self._zero_exp, self._zero_exp): c})

    def one(self) -> "WeylPolynomial":
        return self.scalar(1)

    def x(self, mu: int = 0) -> "WeylPolynomial":
        self._check_index(mu)
        xs = tuple(1 if k == mu else 0 for k in range(self.dim))
        return WeylPolynomial(self, {(0, xs, self._zero_exp): ONE})

    def p(self, mu: int = 0) -> "WeylPolynomial":
        self._check_index(mu)
        ps = tuple(1 if k == mu else 0 for k in range(self.dim))
        return WeylPolynomial(self, {(0, self._zero_exp, ps): ONE})

    def dispersion_scale(self, half_power: int = 2) -> "WeylPolynomial":
        """Central symbol B^(half_power/2); half_power=2 is B itself."""
        return WeylPolynomial(self, {(half_power, self._zero_exp, self._zero_exp): ONE})

    def word(self, *factors) -> "WeylPolynomial":
        """Product of single generators taken in the given order.

        Factors are "x"/"p" (index 0) or ("x", mu)/("p", mu).  The product is
        normal-ordered on the fly, so word("p", "x") is how the non-canonical
        monomial p*x enters the algebra.
        """
        out = self.one()
        for f in factors:
            if isinstance(f, str):
                kind, mu = f, 0
            else:
                kind, mu = f
            out = out * (self.x(mu) if kind == "x" else self.p(mu))
        return out

    def _check_index(self, mu: int):
        if not 0 <= mu < self.dim:
            raise IndexOutOfRange(f"index {mu} outside 0..{self.dim - 1}")


def _mono_sort_key(mono):
    b2, xs, ps = mono
    return (sum(xs) + sum(ps), xs, ps, b2)


class WeylPolynomial:
    """Normal-ordered noncommutative polynomial; treat instances as immutable."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: WeylAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- ring operations ----------------------------------------------

    def _require_compatible(self, other: "WeylPolynomial"):
        if not self.algebra.compatible(other.algebra):
            raise ConventionMismatch(
                f"operands from different algebras: {self.algebra.key()} vs {other.algebra.key()}"
            )

    def __add__(self, other):
        other = self._lift(other)
        self._require_compatible(other)
        if not other.terms or not self.terms:
            return self if self.terms else other
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return WeylPolynomial(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylPolynomial(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if c.is_zero():
                return self.algebra.zero()
            return WeylPolynomial(self.algebra, {m: v * c for m, v in self.terms.items()})
        self._require_compatible(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _mul_monomials(self.algebra, acc, m1, c1, m2, c2)
        return WeylPolynomial(self.algebra, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("the Weyl algebra has no inverses; exponent must be >= 0")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def _lift(self, other):
        if isinstance(other, WeylPolynomial):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.algebra.scalar(other)
        raise TypeError(f"cannot combine WeylPolynomial with {type(other).__name__}")

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self.algebra.key() == other.algebra.key() and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra.key(), frozenset(self.terms.items())))

    def adjoint(self) -> "WeylPolynomial":
        """Formal adjoint: i -> -i on coefficients, factor order reversed."""
        alg = self.algebra
        acc: dict = {}
        for (b2, xs, ps), c in self.terms.items():
            _mul_monomials(
                alg, acc, (b2, alg._zero_exp, ps), c.conjugate(), (0, xs, alg._zero_exp), ONE
            )
        return WeylPolynomial(alg, acc)

    # -- rendering -------------------------------------------------------

    def text(self) -> str:
        """Canonical text: terms sorted by monomial order, exact coefficients."""
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            c = self.terms[mono]
            factors = []
            b2, xs, ps = mono
            if b2:
                factors.append("B" if b2 == 2 else f"B^({Fraction(b2, 2)})")
            for mu, e in enumerate(xs):
                if e:
                    name = "x" if self.algebra.dim == 1 else f"x{mu}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            for mu, e in enumerate(ps):
                if e:
                    name = "p" if self.algebra.dim == 1 else f"p{mu}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            coeff = c.text()
            if body:
                piece = body if coeff == "1" else f"({coeff})*{body}"
            else:
                piece = f"({coeff})"
            pieces.append(piece)
        return " + ".join(pieces)

    def __repr__(self):
        return f"WeylPolynomial({self.text()})"


def _mul_monomials(alg: WeylAlgebra, acc: dict, m1, c1, m2, c2, contracted_only=False):
    """Accumulate the normal-ordered product of two canonical monomials.

    contracted_only drops the term without contractions (Wick's theorem)."""
    b2 = m1[0] + m2[0]
    xs1, ps1 = m1[1], m1[2]
    xs2, ps2 = m2[1], m2[2]
    if not any(ps1[mu] and xs2[mu] for mu in range(alg.dim)):
        # nothing to reorder
        if contracted_only:
            return
        xs = tuple(a + b for a, b in zip(xs1, xs2))
        ps = tuple(a + b for a, b in zip(ps1, ps2))
        key = (b2, xs, ps)
        acc[key] = acc.get(key, ZERO) + c1 * c2
        return
    options = []
    for mu in range(alg.dim):
        k, l = ps1[mu], xs2[mu]
        jmax = min(k, l)
        if jmax == 0:
            options.append(((0, ONE),))
            continue
        c_num = alg._pc[mu]
        opts = []
        power = ONE
        for j in range(jmax + 1):
            opts.append((j, power * (comb(k, j) * comb(l, j) * factorial(j))))
            power = power * c_num
        options.append(tuple(opts))
    base = c1 * c2
    # the first combination is the one without contractions
    for combo in itertools.islice(itertools.product(*options), int(contracted_only), None):
        coeff = base
        for _, w in combo:
            coeff = coeff * w
        xs = tuple(xs1[mu] + xs2[mu] - combo[mu][0] for mu in range(alg.dim))
        ps = tuple(ps1[mu] + ps2[mu] - combo[mu][0] for mu in range(alg.dim))
        key = (b2, xs, ps)
        acc[key] = acc.get(key, ZERO) + coeff


# -- canonical operations ---------------------------------------------------


def commutator(a: WeylPolynomial, b: WeylPolynomial) -> WeylPolynomial:
    """[a, b] = ab - ba, exact and normal-ordered, from contracted terms only:
    m1*m2 and m2*m1 share their uncontracted term, so it cancels unformed."""
    a._require_compatible(b)
    alg, acc = a.algebra, {}
    for m1, c1 in a.terms.items():
        neg = -c1
        for m2, c2 in b.terms.items():
            _mul_monomials(alg, acc, m1, c1, m2, c2, contracted_only=True)
            _mul_monomials(alg, acc, m2, c2, m1, neg, contracted_only=True)
    return WeylPolynomial(alg, acc)


def relabel_modes(poly: WeylPolynomial, perm) -> WeylPolynomial:
    """The image of poly under x_mu -> x_perm[mu], p_mu -> p_perm[mu].

    perm must permute 0..N-1 without moving a mode across the signature
    blocks, so eta and the commutation relations are kept and relabelling is
    an automorphism of the algebra.  Normal order survives: x's commute with
    x's and p's with p's, so only the exponent tuples are permuted.
    """
    alg = poly.algebra
    n, n_plus = alg.dim, alg.metric.n_plus
    if sorted(perm) != list(range(n)) or any((mu < n_plus) != (perm[mu] < n_plus) for mu in range(n)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{n - 1} within the signature blocks")
    source = [perm.index(mu) for mu in range(n)]  # mode that lands on each mode
    return WeylPolynomial(alg, {
        (b2, tuple(xs[mu] for mu in source), tuple(ps[mu] for mu in source)): c
        for (b2, xs, ps), c in poly.terms.items()
    })


def mode_orbit(indices: tuple, metric: Metric):
    """The representative of the index tuple's orbit and the perm back to it.

    Modes are relabelled in order of first appearance: the first new index in
    each signature block takes the next free mode of that block.  perm[r] is
    the mode that mode r of the representative stands for (unused modes fill
    the rest of each block in order), so relabel_modes by perm takes an
    expression at the representative to the one at `indices`.
    """
    seen = list(dict.fromkeys(indices))
    perm = []
    for block in (range(metric.n_plus), range(metric.n_plus, metric.dim)):
        perm += [mu for mu in seen if mu in block] + [mu for mu in block if mu not in seen]
    return tuple(perm.index(mu) for mu in indices), tuple(perm)


def build_generator(alg: WeylAlgebra, kind: str, mu: int = 0, nu: int = 0) -> WeylPolynomial:
    """Quadratic generator in the quarter normalisation.

    kind "+" : (p_mu p_nu + x_mu x_nu)/4
    kind "-" : (p_mu p_nu - x_mu x_nu)/4
    kind "x" : (p_mu x_nu + x_nu p_mu)/4   (not symmetric in mu, nu)
    """
    alg._check_index(mu)
    alg._check_index(nu)
    return _quadratic(kind, alg.p(mu), alg.p(nu), alg.x(mu), alg.x(nu))


def _quadratic(kind: str, pm, pn, xm, xn) -> WeylPolynomial:
    """The quarter-normalised generator of `kind` over the given p and x factors."""
    quarter = GaussianRational(Fraction(1, 4))
    if kind == "+":
        return (pm * pn + xm * xn) * quarter
    if kind == "-":
        return (pm * pn - xm * xn) * quarter
    if kind == "x":
        return (pm * xn + xn * pm) * quarter
    raise ValueError(f"unknown generator kind {kind!r}")


def build_ladder(alg: WeylAlgebra, sign: str, mu: int = 0) -> WeylPolynomial:
    """Normalised ladder operator (p_mu -+ i x_mu)/sqrt(2); "-" lowers."""
    alg._check_index(mu)
    if sign == "-":
        core = alg.p(mu) - alg.x(mu) * I
    elif sign == "+":
        core = alg.p(mu) + alg.x(mu) * I
    else:
        raise ValueError(f"ladder sign must be '-' or '+', got {sign!r}")
    return core * INV_SQRT2


def raw_ladder(alg: WeylAlgebra, sign: str, mu: int = 0) -> WeylPolynomial:
    """Unnormalised ladder sqrt(B)*(p -+ i x); satisfies [z-, z+] = 2B at sign +1."""
    return build_ladder(alg, sign, mu) * alg.dispersion_scale(1) * GaussianRational(0, 0, 1)


def dispersion_generators(alg: WeylAlgebra) -> dict:
    """One-dimensional generators carrying the symbolic dispersion scale B.

    plus  = B (p^2 + x^2)
    minus = B (p^2 - x^2)
    cross = B (p x + x p)
    """
    if alg.dim != 1:
        raise ConventionMismatch("dispersion_generators is the 1D family")
    B = alg.dispersion_scale(2)
    p, x = alg.p(0), alg.x(0)
    return {
        "+": B * (p * p + x * x),
        "-": B * (p * p - x * x),
        "x": B * (p * x + x * p),
    }


# -- exact linear algebra over the coefficient field ----------------------


class ExactSpanSolver:
    """Solve target = sum_k c_k basis_k exactly over Q(i, sqrt2).

    The basis must be linearly independent.  Each basis polynomial is reduced
    against the earlier rows and kept as a sparse echelon row: its pivot
    monomial, its reduced terms scaled so the pivot coefficient is 1, and the
    combination of basis indices it equals.  A solve reduces the target through
    the rows in order and touches only the monomials it meets.
    """

    def __init__(self, basis: list[WeylPolynomial]):
        if not basis:
            raise ValueError("empty basis")
        self.basis = list(basis)
        self._rows = []
        for k, q in enumerate(self.basis):
            terms, combo = self._reduce(q.terms, {k: ONE})
            if not terms:
                raise SpanFailure("basis polynomials are linearly dependent")
            pivot, lead = next(iter(terms.items()))
            inv = lead.inverse()
            self._rows.append((
                pivot,
                {m: v * inv for m, v in terms.items()},
                {j: v * inv for j, v in combo.items()},
            ))

    def _reduce(self, terms: dict, combo: dict):
        """Subtract the rows' multiples that clear each pivot from terms, in order."""
        terms = dict(terms)
        for pivot, row_terms, row_combo in self._rows:
            c = terms.get(pivot)
            if c is not None:
                _subtract(terms, row_terms, c)
                _subtract(combo, row_combo, c)
        return terms, combo

    def solve(self, target: WeylPolynomial):
        """Exact coefficients over the basis, or None if target is outside the span."""
        left, combo = self._reduce(target.terms, {})
        if left:
            return None
        return [-combo[k] if k in combo else ZERO for k in range(len(self.basis))]


def _subtract(acc: dict, row: dict, c: GaussianRational):
    """acc -= c * row, dropping entries that cancel."""
    for key, v in row.items():
        w = acc.get(key, ZERO) - c * v
        if w.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = w


def generator_labels(n: int) -> list:
    """Ordered basis labels (kind, mu, nu): b+ (mu<=nu), b- (mu<=nu), bx (all)."""
    labels = [(kind, mu, nu) for kind in ("+", "-") for mu in range(n) for nu in range(mu, n)]
    return labels + [("x", mu, nu) for mu in range(n) for nu in range(n)]


def label_text(label) -> str:
    kind, mu, nu = label
    return f"b{kind}[{mu},{nu}]"


def canonical_label(kind: str, mu: int = 0, nu: int = 0) -> tuple:
    """The key of a generator or word: "+" and "-" are symmetric in mu, nu
    (`build_generator`), so theirs is put back in mu <= nu order."""
    return (kind, min(mu, nu), max(mu, nu)) if kind in ("+", "-") else (kind, mu, nu)


class ExactContext:
    """The exact objects of one (metric, sign), each built once per owner.

    Calling it is the polynomial memo: kinds "+", "-", "x" give the quadratic
    generator, "pp", "px", "xp", "xx" the word (ctx("px", mu, nu) = p_mu x_nu).
    `bracket` memoises generator commutators and `orbit` mode orbits.
    `solver` spans the correction basis `basis_labels` (x, p, the generators,
    then 1: a table left-hand side has one parity, so it expands over x, p
    and 1 or over the generators and 1), and `image` relabels its indices.
    """

    def __init__(self, metric: Metric, sign: int):
        self.alg = WeylAlgebra(metric, sign)
        self.labels = generator_labels(metric.dim)
        coordinates = [f"{q}{mu}" for q in "xp" for mu in range(metric.dim)]
        self.basis_labels = coordinates + [label_text(label) for label in self.labels] + ["1"]
        # memos that live as long as this context
        self.orbit = functools.cache(lambda indices: mode_orbit(indices, metric))
        self.image = functools.cache(functools.partial(self._image, self.labels))
        self._polys, self._brackets = {}, {}

    def __call__(self, kind: str, mu: int = 0, nu: int = 0) -> WeylPolynomial:
        key = canonical_label(kind, mu, nu)
        if key not in self._polys:
            self._polys[key] = (self.alg.word((kind[0], mu), (kind[1], nu)) if len(kind) == 2
                                else build_generator(self.alg, *key))
        return self._polys[key]

    def bracket(self, a: tuple, b: tuple) -> WeylPolynomial:
        """[ctx(*a), ctx(*b)]; the mirror of a memoised pair is its negation."""
        a, b = canonical_label(*a), canonical_label(*b)
        if (b, a) in self._brackets:
            return -self._brackets[(b, a)]
        if (a, b) not in self._brackets:
            self._brackets[(a, b)] = commutator(self(*a), self(*b))
        return self._brackets[(a, b)]

    @functools.cached_property
    def solver(self) -> "ExactSpanSolver":
        alg, n = self.alg, range(self.alg.dim)
        gens = [self(*label) for label in self.labels]
        return ExactSpanSolver([*map(alg.x, n), *map(alg.p, n), *gens, alg.one()])

    def generator_row(self, poly: WeylPolynomial):
        """poly's nonzero coefficients over the generators, keyed by label index,
        or None when poly is outside the span of the generators alone."""
        coeffs = self.solver.solve(poly) if poly.terms else []
        if coeffs is None:
            return None
        n = 2 * self.alg.dim
        row = {k - n: c for k, c in enumerate(coeffs) if not c.is_zero()}
        return row if all(0 <= k < len(self.labels) for k in row) else None

    @staticmethod
    def _image(labels: list, perm: tuple) -> list:
        """Where each correction-basis index goes under the modes' relabelling by perm."""
        n = len(perm)
        gens = [2 * n + labels.index(canonical_label(k, perm[mu], perm[nu])) for k, mu, nu in labels]
        return [*perm, *(n + mu for mu in perm), *gens, 2 * n + len(gens)]


@dataclass
class StructureConstants:
    """Exact structure constants over the quadratic generator basis."""

    metric: Metric
    sign: int
    labels: list
    table: dict  # (i, j) -> {k: GaussianRational}, antisymmetric in (i, j)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def bracket(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if (i, j) in self.table:
            return self.table[(i, j)]
        return {k: -v for k, v in self.table[(j, i)].items()}

    def jacobi_violations(self):
        """Exact Jacobi check over all basis triples i < j < k, as one contraction.

        Every entry (a, b) -> m of the table, with the mirror (b, a) read as
        `bracket(b, a)` reads it, is paired with every entry (m, c) -> l.  The
        pair is one product C[a,b]_m C[m,c]_l of the triple sorted(a, b, c)
        when (a, b, c) is one of its cyclic orders (i,j,k), (j,k,i), (k,i,j);
        the products are summed per (triple, l) and a triple is reported when
        any sum is not zero.  The constants enter as integer numerators over
        one common denominator, held as Python ints, so every sum is exact.
        """
        d = self.dimension
        # bracket() for both orders of every pair, built once for this call
        lookup = {(j, i): {k: -v for k, v in row.items()} for (i, j), row in self.table.items()}
        lookup.update(self.table)
        entries = [(a, b, m) for (a, b), row in lookup.items() if a != b for m in row]
        nums = common_numerators([lookup[(a, b)][m] for a, b, m in entries])
        a, b, m = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        # entry e meets the entries f = (m_e, c) -> l: one run of the entries
        # sorted by their first index, which starts at start[m_e]
        by_first = np.argsort(a, kind="stable")
        count = np.bincount(a, minlength=d)
        fan = count[m]
        e = np.repeat(np.arange(len(entries)), fan)
        start = np.cumsum(count) - count
        f = by_first[np.repeat(start[m] - (np.cumsum(fan) - fan), fan) + np.arange(len(e))]
        # (a < b) + (b < c) + (c < a) is 2 for a cyclic order of distinct a, b, c
        # and 1 for an anticyclic one or for c in {a, b}
        a, b, c, l = a[e], b[e], b[f], m[f]
        keep = (a < b).astype(np.int64) + (b < c) + (c < a) == 2
        a, b, c, l, e, f = a[keep], b[keep], c[keep], l[keep], e[keep], f[keep]
        # one key per (sorted triple, l); d**4 fits int64 for any d < 55000
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        key = ((lo * d + (a + b + c - lo - hi)) * d + hi) * d + l
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        products = mul_parts(*nums[:, e[order]], *nums[:, f[order]])
        nonzero = np.zeros(len(starts), dtype=bool)
        for column in products:
            nonzero |= np.add.reduceat(column, starts) != 0
        codes = key[starts[nonzero]] // d  # ascending; np.unique would import numpy.ma
        triples = codes[np.diff(codes, prepend=-1) != 0]
        i, j, k = triples // (d * d), triples // d % d, triples % d
        return list(zip(i.tolist(), j.tolist(), k.tolist()))


def closure_and_constants(metric: Metric, sign: int = -1,
                          make_context=ExactContext) -> StructureConstants:
    """Verify the generator basis closes under brackets; return exact constants.

    One bracket per orbit representative of the label pairs (`mode_orbit` of
    the pair's four indices, "+" and "-" labels back in mu <= nu order) is
    expanded over the correction basis of `make_context(metric, sign)`, and
    each pair maps that row through its relabelling.  A bracket outside the
    span of the generators alone is a ClosureFailure named at the pair's
    labels.  The default makes a fresh context; `verify` passes a cached
    maker so that the tensor tables and the closure share one.
    """
    ctx = make_context(metric, sign)
    labels, n = ctx.labels, 2 * metric.dim
    rows, table = {}, {}  # representative label pair -> {generator index: c}
    for i, j in itertools.combinations(range(len(labels)), 2):
        (ka, *a), (kb, *b) = labels[i], labels[j]
        rep, perm = ctx.orbit((*a, *b))
        key = canonical_label(ka, *rep[:2]), canonical_label(kb, *rep[2:])
        if key not in rows:
            br = ctx.bracket(*key)
            rows[key] = ctx.generator_row(br)
            if rows[key] is None:
                raise ClosureFailure(
                    f"[{label_text(labels[i])}, {label_text(labels[j])}] = "
                    f"{relabel_modes(br, perm).text()} is outside the generator span"
                )
        moved = ctx.image(perm)
        table[(i, j)] = dict(sorted((moved[n + k] - n, c) for k, c in rows[key].items()))
    return StructureConstants(metric, sign, labels, table)


# -- symplectic substitution ----------------------------------------------


def _frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def symplectic_defect_exact(S, metric: Metric):
    """Entries of S^T J_eta S - J_eta over exact rationals (row convention)."""
    n = metric.dim
    S = _frac_matrix(S)
    if len(S) != 2 * n or any(len(r) != 2 * n for r in S):
        raise ValueError(f"expected a {2 * n}x{2 * n} matrix")
    eta = metric.diag()
    j = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for mu in range(n):
        j[mu][n + mu] = Fraction(eta[mu])
        j[n + mu][mu] = Fraction(-eta[mu])
    js = [[sum(j[i][k] * S[k][col] for k in range(2 * n)) for col in range(2 * n)] for i in range(2 * n)]
    sjs = [[sum(S[k][i] * js[k][col] for k in range(2 * n)) for col in range(2 * n)] for i in range(2 * n)]
    return [[sjs[i][col] - j[i][col] for col in range(2 * n)] for i in range(2 * n)]


def is_symplectic_exact(S, metric: Metric) -> bool:
    return all(v == 0 for row in symplectic_defect_exact(S, metric) for v in row)


@dataclass
class AlgebraElement:
    """Coefficients of an algebra element over the generator basis.

    theta_plus and theta_minus are symmetric N x N rational matrices, and
    theta_cross a full N x N rational matrix; for N = 1 the element is the
    plain coefficient triple.
    """

    metric: Metric
    theta_plus: list
    theta_minus: list
    theta_cross: list

    def __post_init__(self):
        n = self.metric.dim
        for name in ("theta_plus", "theta_minus"):
            m = getattr(self, name)
            for mu in range(n):
                for nu in range(n):
                    if m[mu][nu] != m[nu][mu]:
                        raise ValueError(f"{name} must be exactly symmetric")

    def triple(self):
        if self.metric.dim != 1:
            raise ValueError("coefficient triple is only defined for N = 1")
        return (self.theta_plus[0][0], self.theta_minus[0][0], self.theta_cross[0][0])


def transform_generators(ctx: ExactContext, S, kind: str, mu: int = 0, nu: int = 0) -> AlgebraElement:
    """Exact image of a generator under the linear substitution given by S.

    S is a 2N x 2N rational matrix in the row convention (p' x') = (p x) S with
    blocks ((Pi, Xi), (Theta, Lambda)); it must satisfy the symplectic condition
    exactly over the rationals.  The substituted generator is re-expanded over
    the generators of ctx, at its metric and sign.
    """
    alg = ctx.alg
    n = alg.dim
    S = _frac_matrix(S)
    if not is_symplectic_exact(S, alg.metric):
        raise NotSymplectic("substitution matrix fails the exact symplectic condition")

    def column(j):  # the image of p_j (j < N) or of x_{j-N}
        return sum((alg.p(i) * S[i][j] + alg.x(i) * S[n + i][j] for i in range(n)), alg.zero())

    row = ctx.generator_row(_quadratic(kind, column(mu), column(nu), column(n + mu), column(n + nu)))
    if row is None:
        raise SpanFailure("transformed generator left the algebra span")
    theta = {k: [[Fraction(0)] * n for _ in range(n)] for k in "+-x"}
    for index, c in row.items():
        if not c.is_rational():
            raise SpanFailure("transformed coefficients are not real rationals")
        k, a, b = ctx.labels[index]
        if k == "x" or a == b:
            theta[k][a][b] = c.as_fraction()
        else:
            # theta matrices use the full tensor-sum convention, so a basis
            # coefficient on the off-diagonal pair (a, b) splits evenly
            theta[k][a][b] = theta[k][b][a] = c.as_fraction() / 2
    return AlgebraElement(alg.metric, theta["+"], theta["-"], theta["x"])


def engine_transform_rows(S):
    """Exact 1D transformation law of the generator triple under S (row per kind),
    the three kinds expanded in one context."""
    ctx = ExactContext(EUCLIDEAN_1D, +1)
    return {kind: transform_generators(ctx, S, kind).triple() for kind in ("+", "-", "x")}


def printed_transform_rows(S):
    """The published coefficient rows of the 1D transformation law, as printed.

    Entries are used as given: Fractions give exact rows, floats give float
    rows (Fraction(1, 2) * x on a float is exactly 0.5 * x).
    """
    (pi, xi), (th, la) = S
    half = Fraction(1, 2)
    return {
        "+": (half * (pi * pi + th * th), half * (xi * xi - la * la), pi * th + xi * la),
        "-": (half * (pi * pi + th * th), -half * (xi * xi - la * la), pi * th - xi * la),
        "x": (pi * xi + th * la, pi * xi - th * la, pi * la + th * xi),
    }
