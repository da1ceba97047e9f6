"""Frozen dense exact linear algebra, the reference for the tests.

Matrices are lists of equal-length rows of rationals; vectors are
lists.  dense_row_reduce is the dense Gauss-Jordan elimination (leftmost
column, topmost nonzero row) the sparse kernel in twkit.exactla
replaced, kept as the tests had it.  integer_row_reduce gives its
answer fraction-free, through integer_echelon.  The products, rank,
kernel, image and solve below are the dense ones twkit.exactla once
had, the last four now built on integer_echelon.  Nothing in here
imports twkit, so the references that use these helpers stay
independent of the code they check.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter, itemgetter


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


def integer_row_reduce(rows):
    """dense_row_reduce without Fraction arithmetic: integer_echelon,
    then each pivot row divided by its pivot, cell for cell the same
    Fraction rref, since the rref of a matrix is unique."""
    mat, pivots = integer_echelon(rows)
    zero = Fraction(0)
    rref = [[Fraction(x, row[c]) if x else zero for x in row] for row, c in zip(mat, pivots)]
    return rref + [[zero] * len(row) for row in mat[len(pivots):]], pivots


def integer_echelon(rows, reduced=True):
    """(integer rows, pivot columns) of the dense Gauss-Jordan elimination
    of rows of ints or Fractions, fraction-free.  Each row is scaled to
    coprime integers.  For column c, the sparsest row from r on with a
    nonzero there becomes pivot row r; each other row with a nonzero b
    there becomes a * row - b * pivot row, for the pivot a (a and b over
    their gcd, a > 0), and is divided by the gcd of its cells when
    a > 1.  None of this changes the row space, and the rref of a
    matrix is unique: pivot row r is its rref row times its pivot, at
    column pivots[r], and the rows after the pivot rows are zero.
    Unless reduced, the rows above a pivot row are left as they are:
    the pivot columns are the same, the rows an echelon form."""
    mat = []
    for row in rows:
        den = lcm(*map(_denominator, row))
        mat.append(_primitive(list(map(_numerator, row)) if den == 1 else [
            x.numerator * (den // x.denominator) for x in row]))
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # the rows with a nonzero in column c, those from r on first
        held = list(compress(range(nrows), map(itemgetter(c), mat)))
        split = bisect_left(held, r)
        if split == len(held):
            continue
        # the rref is the same for any choice; the sparsest fills in least
        pr = min(held[split:], key=lambda i: ncols - mat[i].count(0))
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        support = list(compress(range(ncols), prow))
        # the row that was at r is at pr now
        below = [pr if i == r else i for i in held[split:] if i != pr]
        for i in (held[:split] if reduced else []) + below:
            g = gcd(prow[c], mat[i][c])
            a, b = prow[c] // g, mat[i][c] // g
            if a < 0:
                a, b = -a, -b
            row = mat[i] = list(map(a.__mul__, mat[i])) if a > 1 else mat[i]
            for j in support:
                row[j] -= b * prow[j]
            if a > 1:
                mat[i] = _primitive(row)
        pivots.append(c)
        r += 1
    return mat, pivots


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def _primitive(row):
    """row divided by the gcd of its cells."""
    g = gcd(*row)
    return list(map(g.__rfloordiv__, row)) if g > 1 else row


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
    return len(integer_echelon(rows, False)[1])


def dense_pivot_columns(rows):
    if not rows or not rows[0]:
        return []
    return integer_echelon(rows, False)[1]


def dense_kernel_basis(rows, ncols=None):
    """One vector per free column, 1 there and minus the rref entries
    on the pivot columns; ncols is needed when rows is empty."""
    if not rows:
        return [[1 if j == i else 0 for j in range(ncols or 0)] for i in range(ncols or 0)]
    ncols = len(rows[0])
    mat, pivots = integer_echelon(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(mat, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
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
    mat, pivots = integer_echelon(aug)
    if any(p >= ncols for p in pivots):
        return None
    sols = []
    for j in range(ncols, len(aug[0])):
        x = [0] * ncols
        for row, pc in zip(mat, pivots):
            if row[j]:
                x[pc] = Fraction(row[j], row[pc])
        sols.append(x)
    return sols


def sparse_rows(rows):
    """Dense rows as {col: value} maps of their nonzero cells, the one
    row form twkit's matrix types take."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, ncols):
    """{col: value} rows as dense lists of ncols cells, zeros included."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]
