"""Row reduction kernel and the linear algebra derived from it."""

import random
from fractions import Fraction

from twkit import exactla
from twkit.exactla import _pure


def F(n, d=1):
    return Fraction(n, d)


def random_matrix(rng, nr, nc, density=0.6):
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if rng.random() < density
            else Fraction(0)
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def assert_rref(rref, pivots):
    """Staircase shape, unit pivots, zeros above and below each pivot."""
    prev = -1
    for r, c in enumerate(pivots):
        assert c > prev
        prev = c
        assert rref[r][c] == 1
        assert all(rref[i][c] == 0 for i in range(len(rref)) if i != r)
        assert all(rref[r][j] == 0 for j in range(c))
    for r in range(len(pivots), len(rref)):
        assert all(x == 0 for x in rref[r])


def test_row_reduce_pinned():
    rows = [[F(2), F(4), F(-2)], [F(1), F(2), F(0)], [F(0), F(0), F(3)]]
    rref, pivots = exactla.row_reduce(rows)
    assert pivots == [0, 2]
    assert rref == [
        [F(1), F(2), F(0)],
        [F(0), F(0), F(1)],
        [F(0), F(0), F(0)],
    ]
    # input untouched
    assert rows[0] == [F(2), F(4), F(-2)]


def test_row_reduce_accepts_ints():
    rref, pivots = exactla.row_reduce([[1, 2], [2, 4]])
    assert pivots == [0]
    assert rref == [[F(1), F(2)], [F(0), F(0)]]
    assert isinstance(rref[0][0], Fraction)


def test_row_reduce_shapes():
    rng = random.Random(5)
    for _ in range(40):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        mat = random_matrix(rng, nr, nc)
        rref, pivots = exactla.row_reduce(mat)
        assert_rref(rref, pivots)


def test_rank_examples():
    assert exactla.rank([]) == 0
    assert exactla.rank([[F(0), F(0)]]) == 0
    assert exactla.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert exactla.rank([[F(1), F(0)], [F(0), F(1)]]) == 2


def test_kernel_basis_annihilates():
    rng = random.Random(11)
    for _ in range(30):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        mat = random_matrix(rng, nr, nc)
        basis = exactla.kernel_basis(mat)
        assert len(basis) == nc - exactla.rank(mat)
        for v in basis:
            assert all(
                sum(mat[r][c] * v[c] for c in range(nc)) == 0 for r in range(nr)
            )


def test_kernel_basis_empty_matrix():
    # a 0 x n matrix has full kernel; n must be passed explicitly
    basis = exactla.kernel_basis([], ncols=3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert exactla.kernel_basis([], ncols=0) == []


def test_image_basis_spans_columns():
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(0), F(1)]]
    img = exactla.image_basis(mat)
    assert img == [[F(1), F(2), F(0)], [F(3), F(6), F(1)]]


def test_solve_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        mat = random_matrix(rng, nr, nc)
        xs = [[Fraction(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(2)]
        rhs = [
            [sum(mat[r][c] * x[c] for c in range(nc)) for r in range(nr)]
            for x in xs
        ]
        sols = exactla.solve(mat, rhs)
        assert sols is not None
        for x, b in zip(sols, rhs):
            assert [
                sum(mat[r][c] * x[c] for c in range(nc)) for r in range(nr)
            ] == b


def test_solve_detects_inconsistency():
    mat = [[F(1), F(0)], [F(0), F(0)]]
    assert exactla.solve(mat, [[F(0), F(1)]]) is None


def test_solve_zero_rows():
    assert exactla.solve([], [[], []], ncols=2) == [[0, 0], [0, 0]]


# -- differential tests against the dense code the kernel replaced ------


def dense_row_reduce(rows):
    """The dense Gauss-Jordan elimination the zero-skipping kernel
    replaced, frozen as the reference."""
    mat = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        prow = mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], prow)]
        pivots.append(c)
        r += 1
    return mat, pivots


def dense_matmul(a, b, ncols):
    return [
        [sum((a[r][j] * b[j][c] for j in range(len(b))), Fraction(0)) for c in range(ncols)]
        for r in range(len(a))
    ]


def dense_matvec(rows, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in rows]


def sparse_matrix(rng, nr, nc):
    """Seeded matrix at a random density in [0, 1], with Fraction and
    int entries, and sometimes a zeroed or a duplicated row."""
    density = rng.choice((0.0, 1.0, rng.random()))
    rows = [
        [
            rng.choice((Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4)), rng.randint(-2, 2)))
            if rng.random() < density
            else rng.choice((0, Fraction(0)))
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]
    if nr and rng.random() < 0.3:
        rows[rng.randrange(nr)] = [Fraction(0)] * nc
    if nr > 1 and rng.random() < 0.3:
        rows[rng.randrange(nr)] = list(rows[rng.randrange(nr)])
    return rows


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_row_reduce_matches_dense_reference():
    rng = random.Random(77)
    for _ in range(2000):
        mat = sparse_matrix(rng, rng.randint(0, 9), rng.randint(0, 9))
        frozen = [list(row) for row in mat]
        want = dense_row_reduce(mat)
        for kernel in (_pure.row_reduce, exactla.row_reduce):
            rref, pivots = kernel(mat)
            assert (rref, pivots) == want
            assert all_fractions(rref)
        assert mat == frozen


def test_products_match_dense_reference():
    rng = random.Random(78)
    for _ in range(2000):
        m, n, p = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        a = sparse_matrix(rng, m, n)
        b = sparse_matrix(rng, n, p)
        product = exactla.matmul(a, b, p)
        assert product == dense_matmul(a, b, p)
        assert all_fractions(product)
        v = [row[0] for row in sparse_matrix(rng, n, 1)]
        image = exactla.matvec(a, v)
        assert image == dense_matvec(a, v)
        assert all_fractions([image])
