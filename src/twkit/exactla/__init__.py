"""Exact rational linear algebra kernel.

row_reduce (elimination, on sparse rows) and matmul / matvec
(products) skip zero entries; everything else here derives from them.
row_reduce takes dense rows, or sparse ones ({col: value} maps of the
nonzeros) together with the column count ncols, and returns the rref in
the form it was given; matmul, too, takes and gives dense or sparse
rows.  Integer entries meet a Fraction inverse, never true division.
column_index builds the {col: rows} index that row_reduce (and
decompose's splitting) follow.  The other helpers take dense rows.
Helpers look row_reduce up in this module when called, so replacing
the module attribute (e.g. to count calls) reaches them too; callers
elsewhere go through the module attribute as well.  There is one
kernel, in pure Python; BACKEND names it.
"""

from fractions import Fraction

from ._pure import column_index, row_reduce

BACKEND = "pure"


def matmul(a, b, ncols):
    """a @ b, ncols being b's column count: Fraction row lists from dense
    rows, sparse rows of the nonzero sums from sparse rows."""
    if a and isinstance(a[0], dict):
        out = []
        for arow in a:
            acc = {}
            for j, x in arow.items():
                for c, y in b[j].items():
                    acc[c] = acc.get(c, 0) + x * y
            out.append({c: v for c, v in acc.items() if v})
        return out
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


def matvec(rows, v):
    """rows @ v as a list of Fraction."""
    support = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in support if row[j]), Fraction(0)) for row in rows]


def rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(row_reduce(rows)[1])


def pivot_columns(rows):
    """Column indices c such that column c adds new rank left to right."""
    if not rows or not rows[0]:
        return []
    return row_reduce(rows)[1]


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel, one vector per non-pivot column.

    For the kernel of an (m x n) matrix acting on column vectors,
    returns vectors of length n in the standard RREF parametrization
    (free column gets 1), ordered by free column index.  Deterministic.
    ncols is required when rows is empty (a 0 x n matrix, full kernel).
    """
    if not rows:
        if not ncols:
            return []
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    if ncols == 0:
        return []
    return kernel_from_reduction(row_reduce(rows), ncols)


def kernel_from_reduction(reduction, ncols):
    """kernel_basis read off row_reduce's (rref, pivots) of a matrix
    with ncols > 0 columns."""
    rref, pivots = reduction
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def image_basis(rows):
    """The pivot columns of the matrix itself: a basis of the column space."""
    if not rows or not rows[0]:
        return []
    cols = pivot_columns(rows)
    return [[row[c] for row in rows] for c in cols]


def solve(rows, rhs_columns, ncols=None):
    """Solve A @ X = B columnwise; B given as a list of column vectors.

    Returns the list of solution vectors (length = #columns of A), or
    None if any column of B is outside the column space.  When A has a
    nontrivial kernel the particular solution with free variables 0 is
    returned.  ncols is required when rows is empty (a 0 x n matrix).
    """
    nb = len(rhs_columns)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else (ncols or 0)
    if nb == 0:
        return []
    for b in rhs_columns:
        if len(b) != nrows:
            raise ValueError("right-hand side length mismatch")
    if nrows == 0:
        return [[0] * ncols for _ in range(nb)]
    aug = [list(rows[i]) + [b[i] for b in rhs_columns] for i in range(nrows)]
    return solution_from_reduction(row_reduce(aug), ncols, nb)


def solution_from_reduction(reduction, ncols, nb):
    """solve's answer read off row_reduce's (rref, pivots) of [A | B],
    A with ncols columns and B with nb > 0."""
    rref, pivots = reduction
    if any(p >= ncols for p in pivots):
        return None
    sols = []
    for j in range(nb):
        x = [0] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = rref[r][ncols + j]
        sols.append(x)
    return sols
