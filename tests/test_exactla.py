"""Row reduction kernel and the linear algebra derived from it.

twkit.exactla works on sparse rows ({col: value} maps of the nonzeros)
and sparse vectors; the tests write matrices densely, convert them with
sparse(), and read results back with dense() against the frozen dense
references in dense_la.
"""

import random
from fractions import Fraction

from builders import is_canonical
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


def less(a, row, b, prow):
    """a row - b prow, on its nonzeros."""
    out = {j: a * row.get(j, 0) - b * prow.get(j, 0) for j in row.keys() | prow.keys()}
    return {j: x for j, x in out.items() if x}


def test_clear_column_in_place():
    """One pivot step: the other holders of the column become a times
    themselves less b times the pivot row, fill-in joins the index,
    cancelled entries leave it, and the (row, a) steps come back.
    An int entry under an int pivot steps fraction-free; divided by a,
    each row is the rational step's row."""
    rows = [{0: 2, 1: 1, 3: F(1, 2)}, {0: 4, 1: 2, 2: 1}, {0: 1, 3: F(-1, 4)}, {2: 5}]
    old = [dict(row) for row in rows]
    holders = exactla.column_index(rows)
    steps = exactla.clear_column(rows, holders, 0, 0)
    # 2 divides 4, so row 1 is not scaled and loses b = 2 pivot rows;
    # gcd(2, 1) = 1 scales row 2 by a = 2, and b = 1
    assert sorted(steps) == [(1, 1), (2, 2)]
    assert all(type(a) is int for _, a in steps)
    assert rows[1] == less(1, old[1], 2, old[0]) and rows[2] == less(2, old[2], 1, old[0])
    # row 1 cancels at column 1 and fills in at 3; row 2 fills in at
    # 1 and its 2 (-1/4) - 1/2 turns integral
    assert rows == [{0: 2, 1: 1, 3: F(1, 2)}, {2: 1, 3: -1}, {1: -1, 3: -1}, {2: 5}]
    assert all(is_canonical(x) for row in rows for x in row.values())
    assert type(rows[1][3]) is int and type(rows[2][3]) is int
    assert {j: h for j, h in holders.items() if h} == exactla.column_index(rows)
    assert exactla.divided(rows[2], 2) == {1: F(-1, 2), 3: F(-1, 2)}
    assert all(is_canonical(x) for x in exactla.divided(rows[2], 2).values())
    # a unit pivot clears with a = 1 and the row's own entries as b
    rows = [{0: -1, 1: 3}, {0: F(3, 2), 1: 1}]
    old = [dict(row) for row in rows]
    holders = exactla.column_index(rows)
    assert exactla.clear_column(rows, holders, 0, 0) == [(1, 1)]
    assert rows[1] == less(1, old[1], F(-3, 2), old[0])
    assert rows == [{0: -1, 1: 3}, {1: F(11, 2)}]
    assert {j: h for j, h in holders.items() if h} == exactla.column_index(rows)
    # a Fraction pivot takes the rational step, a = 1 and b = y / x
    rows = [{0: F(1, 2), 1: 1}, {0: 3, 1: 1, 2: F(1, 3)}]
    old = [dict(row) for row in rows]
    holders = exactla.column_index(rows)
    assert exactla.clear_column(rows, holders, 0, 0) == [(1, 1)]
    assert rows[1] == less(1, old[1], 6, old[0])
    assert rows[1] == {1: -5, 2: F(1, 3)} and type(rows[1][1]) is int
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


def wide_matrices():
    """(matrix, ncols): seeded_matrices(83, 200), then 40 seeded
    matrices of 10 to 24 rows and columns."""
    rng = random.Random(84)
    matrices = list(seeded_matrices(83, 200))
    for _ in range(40):
        nr, nc = rng.randint(10, 24), rng.randint(10, 24)
        matrices.append((sparse_matrix(rng, nr, nc), nc))
    return matrices


def assert_row_reduce_matches(mat, nc):
    """exactla.row_reduce of mat against dense_row_reduce; returns the
    pivots."""
    rows = sparse(mat)
    frozen = [dict(row) for row in rows]
    rref, pivots = exactla.row_reduce(rows)
    assert (dense(rref, nc), pivots) == dense_row_reduce(mat)
    assert all(is_canonical(x) for row in rref for x in row.values())
    assert len(rref) == len(rows)
    assert rows == frozen
    return pivots


def test_row_reduce_matches_dense_reference():
    first_row_empty = 0
    for mat, nc in seeded_matrices(77):
        pivots = assert_row_reduce_matches(mat, nc)
        first_row_empty += bool(mat and not any(mat[0]) and pivots)
    assert first_row_empty > 100
    seen = {"empty": 0, "zero row": 0, "pivots": 0}
    for mat, nc in wide_matrices():
        seen["pivots"] += bool(assert_row_reduce_matches(mat, nc))
        seen["empty"] += not mat or not nc
        seen["zero row"] += nc > 0 and any(not any(row) for row in mat)
    assert seen["empty"] >= 10 and seen["zero row"] >= 100 and seen["pivots"] >= 200, seen


# non-unit pivots: ints from ±2, ±3, ±6 and near 10^12, some units
NON_UNITS = (2, -2, 3, -3, 6, -6)
LARGE = (10**12 + 1, -(10**12) + 3, 10**12 - 7)


def non_unit_matrix(rng, nr, nc, mixed):
    """Seeded dense rows of mostly non-unit ints; mixed, a quarter of
    the entries become Fractions over 2, 3, 4 or 9."""

    def entry():
        x = rng.choice(NON_UNITS * 4 + (1, -1) + LARGE)
        return Fraction(x, rng.choice((2, 3, 4, 9))) if mixed and rng.random() < 0.25 else x

    return [[entry() if rng.random() < 0.6 else 0 for _ in range(nc)] for _ in range(nr)]


def typed(rows):
    """Dense rows as (value, type) cells."""
    return [[(x, type(x)) for x in row] for row in rows]


def integral_as_int(rows):
    """The dense reference's Fraction rows with integral cells as ints."""
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]


def recording_steps(monkeypatch):
    """Patch exactla.clear_column to record each call's pivot value and
    its steps' scales a."""
    pivots, scales = [], []
    clear_column = exactla.clear_column

    def recording(rows, holders, p, c):
        pivots.append(rows[p][c])
        steps = clear_column(rows, holders, p, c)
        scales.extend(a for _, a in steps)
        return steps

    monkeypatch.setattr(exactla, "clear_column", recording)
    return pivots, scales


def assert_rref_matches_dense(mat, nc):
    rows = sparse(mat)
    frozen = [dict(row) for row in rows]
    rref, pivots = exactla.row_reduce(rows)
    want, want_pivots = dense_row_reduce(mat)
    assert pivots == want_pivots
    assert typed(dense(rref, nc)) == typed(integral_as_int(want))
    assert rows == frozen


def test_row_reduce_on_non_unit_pivots_matches_dense_reference(monkeypatch):
    """Integer and mixed int/Fraction matrices rich in non-unit pivots:
    the fraction-free elimination gives the dense reference's RREF,
    value for value and type for type."""
    pivots, scales = recording_steps(monkeypatch)
    rng = random.Random(25)
    for n in range(1500):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        assert_rref_matches_dense(non_unit_matrix(rng, nr, nc, mixed=n % 2), nc)
    assert sum(p not in (1, -1) for p in pivots) > 1000
    assert sum(a != 1 for a in scales) > 1000


def test_row_reduce_every_pivot_two(monkeypatch):
    """A pinned matrix whose every pivot is 2: the rows above each pivot
    are scaled by 2 before the subtraction, and divided by their pivots
    at the end."""
    mat = [[2, 1, 0, 3, 10**12 + 1], [0, 2, 1, 0, 3], [0, 0, 2, 1, -6], [0, 0, 0, 2, 5]]
    pivots, scales = recording_steps(monkeypatch)
    assert_rref_matches_dense(mat, 5)
    assert pivots == [2, 2, 2, 2]
    assert scales == [2] * 6
    rref, _ = exactla.row_reduce(sparse(mat))
    assert rref == [{0: 1, 4: F(7999999999919, 16)}, {1: 1, 4: F(29, 8)}, {2: 1, 4: F(-17, 4)}, {3: 1, 4: F(5, 2)}]


def test_integral_rref_builds_no_fraction(monkeypatch):
    """An integer matrix whose RREF is integral reduces without a
    Fraction, whatever its pivots: unit pivots never divide, and the
    read-off divides exactly."""
    rng = random.Random(8)
    monkeypatch.setattr(exactla, "Fraction", None)
    for _ in range(300):
        n, extra = rng.randint(1, 6), rng.randint(0, 3)
        # [I | X] under seeded integer row operations
        mat = [[int(i == j) for j in range(n)] + [rng.choice(NON_UNITS + (0, 1)) for _ in range(extra)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                c = rng.choice(NON_UNITS + (1, -1))
                mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
        rng.shuffle(mat)
        rref, pivots = exactla.row_reduce(sparse(mat))
        assert pivots == list(range(n))
        assert all(type(x) is int for row in rref for x in row.values())


def assert_derived_helpers_match(mat, nc, rng):
    """rank, pivot_columns, kernel_basis, image_basis and solve of mat
    against the dense helpers; returns whether a right-hand side drawn
    in the column space was solved."""
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
    return got is not None and bool(xs)


def test_derived_helpers_match_dense_reference():
    """rank, pivot_columns, kernel_basis, image_basis and solve against
    the dense helpers they replaced, on the same matrices:
    seeded_matrices(80), then wide_matrices()."""
    rng = random.Random(81)
    assert sum(assert_derived_helpers_match(mat, nc, rng) for mat, nc in seeded_matrices(80)) > 500
    for mat, nc in wide_matrices():
        assert_derived_helpers_match(mat, nc, rng)


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
        # a dense and a tall random matrix
        "20 x 20 at density 0.9": random_matrix(rng, 20, 20, 0.9),
        "160 x 40 at density 0.3": random_matrix(rng, 160, 40, 0.3),
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


# -- the subquotient read-off against the dense reference -----------------


def chain_pair(rng, case):
    """(d_in, d_out, n) dense, d_out @ d_in = 0 at a middle space of
    dimension n: d_out is seeded, and d_in's columns are seeded
    combinations of a basis of its kernel.  case "empty boundaries"
    gives d_in no columns, "empty kernel" an injective d_out, and
    "spanning" boundaries that span the whole kernel."""
    n = rng.randint(1, 8)
    if case == "empty kernel":
        d_out = [[int(i == j) for j in range(n)] for i in range(n)] + sparse_matrix(rng, rng.randint(0, 2), n)
        rng.shuffle(d_out)
    else:
        d_out = sparse_matrix(rng, rng.randint(0, 7), n)
    kernel = dense_kernel_basis(d_out, n)
    if case == "empty boundaries":
        coefficients = []
    else:
        coefficients = [[rng.choice((0, 0, 1, -1, 2, F(1, 3))) for _ in kernel] for _ in range(rng.randint(0, 5))]
        if case == "spanning":
            coefficients += [[int(r == s) for r in range(len(kernel))] for s in range(len(kernel))]
        rng.shuffle(coefficients)
    columns = [[sum((a * v[c] for a, v in zip(co, kernel)), 0) for c in range(n)] for co in coefficients]
    d_in = [[col[c] for col in columns] for c in range(n)]
    return d_in, d_out, n


def test_subquotient_matches_dense_reference():
    """representatives are the greedy pivot columns of [boundaries |
    kernel], and coordinates the dense solve on [boundaries |
    representatives], on seeded chain pairs."""
    rng = random.Random(83)
    seen = {"empty boundaries": 0, "empty kernel": 0, "spanning": 0, "mixed": 0}
    for case in ("empty boundaries", "empty kernel", "spanning", "random") * 150:
        d_in, d_out, n = chain_pair(rng, case)
        kernel = dense_kernel_basis(d_out, n)
        boundaries = dense_image_basis(d_in) if d_in[0] else []
        stacked = [[v[c] for v in boundaries + kernel] for c in range(n)]
        want = [kernel[p - len(boundaries)] for p in dense_pivot_columns(stacked) if p >= len(boundaries)]
        q = exactla.homology({0: sparse(d_in), 1: sparse(d_out)}, {1: n})[1]
        assert [vec(v, n) for v in q.representatives] == want
        assert [vec(v, n) for v in q.boundaries] == boundaries
        # seeded cycles, with a part in the boundaries
        mixes = [[rng.randint(-2, 2) for _ in kernel] for _ in range(rng.randint(0, 4))]
        cycles = [[sum((a * v[c] for a, v in zip(mix, kernel)), 0) for c in range(n)] for mix in mixes]
        got = q.coordinates(sparse(cycles))
        assert len(got) == len(want)
        assert all(is_canonical(x) for row in got for x in row.values())
        solved = dense_solve([[v[c] for v in boundaries + want] for c in range(n)], cycles, len(boundaries) + len(want))
        assert [[row.get(j, 0) for j in range(len(cycles))] for row in got] == [
            [x[len(boundaries) + r] for x in solved] for r in range(len(want))
        ]
        if case == "random":
            case = "mixed" if boundaries and want and any(any(x[: len(boundaries)]) for x in solved) else None
        elif case == "empty boundaries":
            case = case if want else None
        elif case == "empty kernel":
            case = case if not kernel else None
        elif case == "spanning":
            case = case if kernel and not want else None
        if case:
            seen[case] += 1
    assert min(seen.values()) > 30, seen
