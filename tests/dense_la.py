"""Frozen dense exact linear algebra, the reference for the tests.

Matrices are lists of equal-length rows of rationals; vectors are
lists.  dense_row_reduce is the dense Gauss-Jordan elimination (leftmost
column, topmost nonzero row) the sparse kernel in twkit.exactla
replaced, kept as the tests had it.  The products, rank, kernel, image
and solve below are the dense ones twkit.exactla once had, the last
four read off dense_row_reduce.  Nothing in here imports twkit, so the
references that use these helpers stay independent of the code they
check.
"""

from fractions import Fraction


def dense_row_reduce(rows):
    """The dense Gauss-Jordan elimination (leftmost column, topmost
    nonzero row) the sparse kernel replaced, frozen as the reference.
    Scaling the pivot row and subtracting it skip the pivot row's zero
    cells, where the full-row update would leave every cell as it is
    (x * inv stays a Fraction zero, x - f * 0 stays x)."""
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
        prow = mat[r]
        inv = 1 / prow[c]
        support = [j for j, x in enumerate(prow) if x]
        for j in support:
            prow[j] *= inv
        for i in range(nrows):
            if i != r and mat[i][c]:
                row = mat[i]
                f = row[c]
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return mat, pivots


def dense_matmul(a, b, ncols):
    """a @ b, ncols being b's column count: Fraction rows, with the
    products of zero entries skipped."""
    b_support = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        acc = [Fraction(0)] * ncols
        for j, x in enumerate(arow):
            if x:
                for c, y in b_support[j]:
                    acc[c] += x * y
        out.append(acc)
    return out


def dense_matvec(rows, v):
    """rows @ v as a list of Fraction, zero entries of v skipped."""
    support = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in support if row[j]), Fraction(0)) for row in rows]


def dense_rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(dense_row_reduce(rows)[1])


def dense_pivot_columns(rows):
    if not rows or not rows[0]:
        return []
    return dense_row_reduce(rows)[1]


def dense_kernel_basis(rows, ncols=None):
    """One vector per free column, 1 there and minus the rref entries
    on the pivot columns; ncols is needed when rows is empty."""
    if not rows:
        return [[1 if j == i else 0 for j in range(ncols or 0)] for i in range(ncols or 0)]
    ncols = len(rows[0])
    rref, pivots = dense_row_reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def dense_image_basis(rows):
    """The matrix's own pivot columns."""
    return [[row[c] for row in rows] for c in dense_pivot_columns(rows)]


def dense_solve(rows, rhs_columns, ncols=None):
    """Solutions of A @ x = b, one per column b (free variables 0), or
    None when some b is outside the column space; ncols is needed when
    rows is empty."""
    ncols = len(rows[0]) if rows else (ncols or 0)
    if not rhs_columns:
        return []
    if not rows:
        return [[0] * ncols for _ in rhs_columns]
    aug = [list(rows[r]) + [b[r] for b in rhs_columns] for r in range(len(rows))]
    rref, pivots = dense_row_reduce(aug)
    if any(p >= ncols for p in pivots):
        return None
    sols = []
    for j in range(len(rhs_columns)):
        x = [0] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = rref[r][ncols + j]
        sols.append(x)
    return sols


def sparse_rows(rows):
    """Dense rows as {col: value} maps of their nonzero cells, the one
    row form twkit's matrix types take."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, ncols):
    """{col: value} rows as dense lists of ncols cells, zeros included."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]
