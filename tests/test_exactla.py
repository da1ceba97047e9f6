"""Row reduction kernel and the linear algebra derived from it.

twkit.exactla works on sparse rows ({col: value} maps of the nonzeros)
and sparse vectors; the tests write matrices densely, convert them with
sparse(), and read results back with dense() against the frozen dense
references in dense_la.
"""

import random
from fractions import Fraction

from dense_la import (
    dense_image_basis,
    dense_kernel_basis,
    dense_matmul,
    dense_pivot_columns,
    dense_rank,
    dense_row_reduce,
    dense_solve,
)
from twkit import exactla


def F(n, d=1):
    return Fraction(n, d)


def sparse(rows):
    """Dense rows as {col: value} maps of their nonzeros."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense(rows, ncols):
    """Sparse rows as dense lists, checking that no zero is stored."""
    assert all(x for row in rows for x in row.values()), rows
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def is_canonical(x):
    """A nonzero int, or a Fraction that is not integral."""
    return (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)


def vec(v, n):
    """A sparse vector as a dense list."""
    return dense([v], n)[0]


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
    rows = [{0: F(2), 1: F(4), 2: F(-2)}, {0: F(1), 1: F(2)}, {2: F(3)}]
    rref, pivots = exactla.row_reduce(rows)
    assert pivots == [0, 2]
    assert rref == [{0: F(1), 1: F(2)}, {2: F(1)}, {}]
    # input untouched
    assert rows[0] == {0: F(2), 1: F(4), 2: F(-2)}


def test_row_reduce_accepts_ints():
    rref, pivots = exactla.row_reduce([{0: 1, 1: 2}, {0: 2, 1: 4}])
    assert pivots == [0]
    assert rref == [{0: 1, 1: 2}, {}]
    assert all(type(x) is int for x in rref[0].values())


def test_row_reduce_writes_canonical_values():
    # integral Fractions in, ints out; the third row only turns
    # integral by cancellation
    rows = [{0: F(2), 1: F(3)}, {1: F(1, 2), 2: F(4)}, {0: F(1, 3), 2: F(5, 3)}]
    rref, pivots = exactla.row_reduce(rows)
    assert pivots == [0, 1, 2]
    assert rref == [{0: 1}, {1: 1}, {2: 1}]
    assert all(is_canonical(x) for row in rref for x in row.values())
    rref, _ = exactla.row_reduce([{0: F(2), 1: F(1), 2: F(4)}, {1: F(1, 2), 2: F(-1)}])
    assert rref == [{0: 1, 2: 3}, {1: 1, 2: -2}]
    assert all(is_canonical(x) for row in rref for x in row.values())


def test_clear_column_in_place():
    """One pivot step: the other holders of the column lose the
    multiple of the pivot row that clears it, fill-in joins the index,
    cancelled entries leave it, and the ratios come back."""
    rows = [{0: 2, 1: 1, 3: F(1, 2)}, {0: 4, 1: 2, 2: 1}, {0: 1, 3: F(-1, 4)}, {2: 5}]
    holders = exactla.column_index(rows)
    ratios = exactla.clear_column(rows, holders, 0, 0)
    assert sorted(ratios) == [(1, 2), (2, F(1, 2))]
    assert all(is_canonical(r) for _, r in ratios)
    # row 1 cancels at column 1 and fills in at 3; row 2 fills in at
    # 1 and its -1/4 - 1/4 turns integral
    assert rows == [{0: 2, 1: 1, 3: F(1, 2)}, {2: 1, 3: -1}, {1: F(-1, 2), 3: F(-1, 2)}, {2: 5}]
    assert all(is_canonical(x) for row in rows for x in row.values())
    assert type(rows[1][3]) is int
    assert {j: h for j, h in holders.items() if h} == exactla.column_index(rows)
    # a unit pivot clears with the row's own entries as ratios
    rows = [{0: -1, 1: 3}, {0: F(3, 2), 1: 1}]
    holders = exactla.column_index(rows)
    assert exactla.clear_column(rows, holders, 0, 0) == [(1, F(-3, 2))]
    assert rows == [{0: -1, 1: 3}, {1: F(11, 2)}]
    assert {j: h for j, h in holders.items() if h} == exactla.column_index(rows)


def test_row_reduce_shapes():
    rng = random.Random(5)
    for _ in range(40):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        rref, pivots = exactla.row_reduce(sparse(random_matrix(rng, nr, nc)))
        assert_rref(dense(rref, nc), pivots)


def test_rank_examples():
    assert exactla.rank([]) == 0
    assert exactla.rank([{}]) == 0
    assert exactla.rank([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == 1
    assert exactla.rank([{0: F(1)}, {1: F(1)}]) == 2
    # an empty first row says nothing about the rows below it
    assert exactla.rank([{}, {1: F(1)}]) == 1


def test_kernel_basis_annihilates():
    rng = random.Random(11)
    for _ in range(30):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        mat = random_matrix(rng, nr, nc)
        basis = exactla.kernel_basis(sparse(mat), nc)
        assert len(basis) == nc - exactla.rank(sparse(mat))
        for v in basis:
            assert all(sum(mat[r][c] * x for c, x in v.items()) == 0 for r in range(nr))


def test_kernel_basis_empty_matrix():
    # a 0 x n matrix has full kernel
    assert exactla.kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert exactla.kernel_basis([], 0) == []


def test_image_basis_spans_columns():
    mat = [{0: F(1), 1: F(2), 2: F(3)}, {0: F(2), 1: F(4), 2: F(6)}, {2: F(1)}]
    assert exactla.image_basis(mat) == [{0: F(1), 1: F(2)}, {0: F(3), 1: F(6), 2: F(1)}]


def test_solve_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        mat = random_matrix(rng, nr, nc)
        xs = [[Fraction(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(2)]
        rhs = [[sum(mat[r][c] * x[c] for c in range(nc)) for r in range(nr)] for x in xs]
        sols = exactla.solve(sparse(mat), sparse(rhs), nc)
        assert sols is not None
        for x, b in zip(sols, rhs):
            assert [sum(mat[r][c] * y for c, y in x.items()) for r in range(nr)] == b


def test_solve_detects_inconsistency():
    assert exactla.solve([{0: F(1)}, {}], [{1: F(1)}], 2) is None


def test_solve_zero_rows():
    assert exactla.solve([], [{}, {}], 2) == [{}, {}]


def test_columns_round_trip():
    rows = [{0: 1, 2: F(1, 2)}, {}, {1: -3}]
    assert exactla.columns(rows, [2, 0]) == [{0: F(1, 2)}, {0: 1}]
    assert exactla.from_columns(exactla.columns(rows, range(3)), 3) == rows


# -- differential tests against the frozen dense references ------------


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


def seeded_matrices(seed, count=2000):
    """(matrix, ncols): count seeded matrices of up to 9 x 9, each
    followed by its copy with the first row zeroed when a later row is
    nonzero, then every 0 x n and m x 0 shape up to 4."""
    rng = random.Random(seed)
    for _ in range(count):
        nr, nc = rng.randint(0, 9), rng.randint(0, 9)
        mat = sparse_matrix(rng, nr, nc)
        yield mat, nc
        if any(x for row in mat[1:] for x in row):
            yield [[0] * nc] + mat[1:], nc
    for n in range(5):
        yield [], n
        yield [[]] * n, 0


def test_row_reduce_matches_dense_reference():
    first_row_empty = 0
    for mat, nc in seeded_matrices(77):
        rows = sparse(mat)
        frozen = [dict(row) for row in rows]
        rref, pivots = exactla.row_reduce(rows)
        assert (dense(rref, nc), pivots) == dense_row_reduce(mat)
        assert all(is_canonical(x) for row in rref for x in row.values())
        assert len(rref) == len(rows)
        assert rows == frozen
        first_row_empty += bool(rows and not rows[0] and pivots)
    assert first_row_empty > 100


def test_derived_helpers_match_dense_reference():
    """rank, pivot_columns, kernel_basis, image_basis and solve against
    the dense helpers they replaced, on the same matrices."""
    rng = random.Random(81)
    solvable = 0
    for mat, nc in seeded_matrices(80):
        rows, nr = sparse(mat), len(mat)
        assert exactla.rank(rows) == dense_rank(mat)
        assert exactla.pivot_columns(rows) == dense_pivot_columns(mat)
        kernel = exactla.kernel_basis(rows, nc)
        assert [vec(v, nc) for v in kernel] == dense_kernel_basis(mat, nc)
        assert all(is_canonical(x) for v in kernel for x in v.values())
        assert [vec(v, nr) for v in exactla.image_basis(rows)] == dense_image_basis(mat)
        # right-hand sides in the column space and drawn at random
        xs = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(rng.randint(0, 2))]
        rhs = [[sum((mat[r][c] * x[c] for c in range(nc)), 0) for r in range(nr)] for x in xs]
        rhs += [[rng.choice((0, 1, F(-1, 2))) for _ in range(nr)] for _ in range(rng.randint(0, 2))]
        got = exactla.solve(rows, sparse(rhs), nc)
        want = dense_solve(mat, rhs, nc)
        assert (got is None) == (want is None)
        if got is not None:
            assert [vec(x, nc) for x in got] == want
            solvable += bool(xs)
    assert solvable > 500


def test_products_match_dense_reference():
    rng = random.Random(78)
    for _ in range(2000):
        m, n, p = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        a = sparse_matrix(rng, m, n)
        b = sparse_matrix(rng, n, p)
        if m > 1 and rng.random() < 0.2:
            a[0] = [0] * n
        product = exactla.matmul(sparse(a), sparse(b))
        assert len(product) == m
        assert dense(product, p) == dense_matmul(a, b, p)
        assert not any(isinstance(x, float) for row in product for x in row.values())


def identity_stack(n=600, block=24):
    """[I_n | B] with B the n // block identity blocks I_block stacked,
    as int 0/1 rows: the shape of the 2-braid kernel stack at N = 25."""
    return [
        [int(j == i) for j in range(n)] + [int(j == i % block) for j in range(block)]
        for i in range(n)
    ]


def permuted(rows, rng, columns=False):
    rows = [list(row) for row in rows]
    rng.shuffle(rows)
    if columns:
        order = list(range(len(rows[0])))
        rng.shuffle(order)
        rows = [[row[j] for j in order] for row in rows]
    return rows


def with_duplicate_and_zero_rows(rows, rng):
    rows = [list(row) for row in rows]
    for _ in range(len(rows) // 10):
        rows[rng.randrange(len(rows))] = list(rows[rng.randrange(len(rows))])
    for _ in range(len(rows) // 20):
        rows[rng.randrange(len(rows))] = [0] * len(rows[0])
    return rows


def with_zero_columns(rows, rng):
    """A zero column before every third column, and a zero block at
    the right, in Fraction zeros."""
    out = []
    for row in rows:
        wide = []
        for j, x in enumerate(row):
            if j % 3 == 0:
                wide.append(Fraction(0))
            wide.append(Fraction(x) * rng.choice((1, -2, Fraction(1, 3))) if x else x)
        out.append(wide + [Fraction(0)] * 24)
    return out


def test_row_reduce_identity_stack():
    """At full size the RREF is known, so the dense reference (seconds
    here) is not needed: each row of the stack has its own pivot, so
    the RREF is the distinct nonzero rows in pivot order, then zero
    rows, whatever the row order."""
    stack = identity_stack()
    rng = random.Random(79)
    for mat in (stack, permuted(stack, rng), with_duplicate_and_zero_rows(permuted(stack, rng), rng)):
        kept = sorted({tuple(row) for row in mat if any(row)}, reverse=True)
        rows = sparse(mat)
        frozen = [dict(row) for row in rows]
        rref, pivots = exactla.row_reduce(rows)
        assert pivots == [row.index(1) for row in kept]
        assert dense(rref, 624) == [list(row) for row in kept] + [[0] * 624] * (600 - len(kept))
        assert all(is_canonical(x) for row in rref for x in row.values())
        assert rows == frozen


def sparse_shapes():
    rng = random.Random(80)
    stack = identity_stack(120, 12)
    return {
        "permuted rows and columns": permuted(stack, rng, columns=True),
        "duplicate and zero rows": with_duplicate_and_zero_rows(permuted(stack, rng, columns=True), rng),
        "all-zero columns": with_zero_columns(permuted(stack, rng, columns=True), rng),
        "tuple rows": [tuple(row) for row in permuted(stack, rng, columns=True)],
    }


def test_row_reduce_large_sparse_shapes():
    for name, mat in sparse_shapes().items():
        rows = sparse(mat)
        frozen = [dict(row) for row in rows]
        rref, pivots = exactla.row_reduce(rows)
        want_rref, want_pivots = dense_row_reduce(mat)
        assert pivots == want_pivots, name
        assert dense(rref, len(mat[0])) == want_rref, name
        assert all(is_canonical(x) for row in rref for x in row.values()), name
        assert rows == frozen, name
