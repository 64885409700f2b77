import pytest

from covar import (
    Matrix,
    Poly,
    make_finite_group,
    symbolic_general_linear,
    verified,
)
from covar.exactalg import (
    ExactAlgError,
    coeff_div,
    int_rank_det,
    lift_coeff,
    qmat_identity,
    qmat_mul,
)
from covar.forge import _Kept

SWAP = [["0", "1"], ["1", "0"]]
CYCLE3 = [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
SWAP3 = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]


def qmat_inv(a, field=None):
    """Gauss-Jordan inverse of a scalar matrix: the reference inverse of the
    closure tests, which the library never forms."""
    n = len(a)
    ident = qmat_identity(n)
    m = [list(row) + list(ident_row) for row, ident_row in zip(a, ident)]
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k]:
                pivot = i
                break
        if pivot is None:
            raise ExactAlgError("scalar matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        pv = m[k][k]
        m[k] = [coeff_div(x, pv, field) for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [lift_coeff(x - f * y, field) for x, y in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


class EagerKept(_Kept):
    """The reference for generate's trials: each keep evaluates the new
    transfer at every candidate point where the kept ones had full rank and
    keeps the points where they still do, with their value vectors; a
    trial reads the first of those points."""

    def __init__(self, G, points):
        super().__init__(G, points)
        self.full = list(range(len(points)))
        self.values = [[] for _ in points]

    def raises(self, t):
        if self.full:
            j = self.full[0]
            if int_rank_det(self.values[j] + [self._at(t, j)], self.p)[0] > len(self.kept):
                return True
        return not self._in_span(t)

    def keep(self, t):
        full = []
        for j in self.full:
            vec = self._at(t, j)
            if int_rank_det(self.values[j] + [vec], self.p)[0] > len(self.kept):
                self.values[j].append(vec)
                full.append(j)
        self.full = full
        super().keep(t)


def group_mul(G, g, h):
    """Index of the product of elements g and h of a finite group."""
    return G.x_mats.index(qmat_mul(G.x_mats[g], G.x_mats[h], G.field))


@pytest.fixture
def s2():
    return make_finite_group([(SWAP, SWAP)])


@pytest.fixture
def s3():
    return make_finite_group([(CYCLE3, CYCLE3), (SWAP3, SWAP3)])


@pytest.fixture
def vandermonde_pair(s2):
    x1, x2 = Poly.gens(s2.x_vars)
    return [verified(s2, [x1, x2]), verified(s2, [x1**2, x2**2])]


@pytest.fixture
def scalar_action():
    return symbolic_general_linear(1, "scalar", "scalar", x_copies=2, w_copies=1)


@pytest.fixture
def conj2():
    return symbolic_general_linear(2, "gl_conjugation", "gl_conjugation",
                                   x_copies=2, w_copies=1)


def evaluate_matrix(Fs, point):
    """The reference route to the coordinate matrix at a point (rows = W
    basis): each covariant evaluated coordinate by coordinate."""
    cols = [F.evaluate(point) for F in Fs]
    return [[cols[j][i] for j in range(len(Fs))] for i in range(len(cols[0]))]


def word_covariants(action, words):
    """Covariants (A, B) -> A^i B^j built directly on the given action."""
    v = {name: Poly.var(name, action.x_vars) for name in action.x_vars}
    n = action.n
    labels = "ab"
    mats = []
    for copy in range(2):
        mats.append(Matrix([[v[f"{labels[copy]}{i}{j}"] for j in range(1, n + 1)]
                            for i in range(1, n + 1)]))
    out = []
    for i, j in words:
        M = Matrix.identity(n, next(iter(v.values())))
        for _ in range(i):
            M = M * mats[0]
        for _ in range(j):
            M = M * mats[1]
        out.append(verified(action, [M.entries[r][c]
                                     for r in range(n) for c in range(n)]))
    return out
