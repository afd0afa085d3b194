"""Structure constants of sp(2N) from 2N x 2N Hamiltonian matrices.

An independent oracle for the exact engine.  A quadratic form Q = z^T S z in
z = (x_0..x_{N-1}, p_0..p_{N-1}) with S symmetric acts on linear forms by
ad_Q(z_c) = [Q, z_c] = 2i sum_a (S Omega)_{ac} z_a, where [z_a, z_b] = i Omega_ab.
So ad_Q = i M_Q with the rational matrix M_Q = 2 S Omega, and since
ad_[Q1,Q2] = [ad_Q1, ad_Q2], a bracket [Q_i, Q_j] = sum_k c_ijk Q_k has
c_ijk = i r_ijk where [M_i, M_j] = sum_k r_ijk M_k.

Everything here is Fraction matrix arithmetic: no GaussianRational operation
and no polynomial product enters the expected constants, so they check the
scalar and normal-ordering layers from outside.
"""

from fractions import Fraction

import pytest

from lct_oracles import symmetric_form

from lctkit.weyl import Metric, closure_and_constants

SIGNATURES = [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1)]


def _omega(metric, sign):
    """[z_a, z_b] = i Omega_ab, from [x_mu, p_nu] = i sign eta_{mu nu}."""
    n = metric.dim
    om = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for mu, e in enumerate(metric.diag()):
        om[mu][n + mu] = Fraction(sign * e)
        om[n + mu][mu] = Fraction(-sign * e)
    return om


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _bracket(a, b):
    ab, ba = _matmul(a, b), _matmul(b, a)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


class _FractionSolver:
    """Exact coordinates of a matrix over linearly independent basis matrices."""

    def __init__(self, basis):
        cols = [[v for row in m for v in row] for m in basis]
        self.rows, self.dim = len(cols[0]), len(cols)
        # Gauss-Jordan on [A | I] gives E with E A = [I_dim; 0]
        aug = [[cols[k][r] for k in range(self.dim)]
               + [Fraction(int(r == c)) for c in range(self.rows)] for r in range(self.rows)]
        pivot_row = 0
        for col in range(self.dim):
            pr = next((r for r in range(pivot_row, self.rows) if aug[r][col]), None)
            assert pr is not None, "basis matrices are linearly dependent"
            aug[pivot_row], aug[pr] = aug[pr], aug[pivot_row]
            lead = aug[pivot_row][col]
            aug[pivot_row] = [v / lead for v in aug[pivot_row]]
            for r in range(self.rows):
                if r != pivot_row and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [v - f * w for v, w in zip(aug[r], aug[pivot_row])]
            pivot_row += 1
        self.elim = [row[self.dim:] for row in aug]

    def solve(self, m):
        b = [v for row in m for v in row]
        y = [sum(e * v for e, v in zip(row, b) if v) for row in self.elim]
        assert not any(y[self.dim:]), "bracket left the span of the basis matrices"
        return y[:self.dim]


@pytest.mark.parametrize("signature", SIGNATURES, ids=str)
def test_structure_constants_match_hamiltonian_matrix_commutators(signature):
    metric = Metric(*signature)
    sc = closure_and_constants(metric)
    n = metric.dim
    assert sc.dimension == n * (2 * n + 1)
    om = _omega(metric, sc.sign)
    mats = [[[2 * v for v in row] for row in _matmul(symmetric_form(label, n), om)]
            for label in sc.labels]
    solver = _FractionSolver(mats)
    for i in range(sc.dimension):
        for j in range(i + 1, sc.dimension):
            r = solver.solve(_bracket(mats[i], mats[j]))
            expected = {k: (Fraction(0), v) for k, v in enumerate(r) if v}
            engine = {k: (c.re, c.im) for k, c in sc.bracket(i, j).items()}
            assert engine == expected, (sc.labels[i], sc.labels[j])
