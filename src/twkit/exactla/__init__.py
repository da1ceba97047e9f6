"""Exact rational linear algebra kernel, on sparse rows.

A matrix is a sequence of rows, each a {col: value} map of its
nonzeros; a vector is one such map, keyed by coordinate.  Every value
this kernel writes is canonical (an int when integral, a Fraction
otherwise; see canonical), and integer entries meet a Fraction
inverse, never true division.  clear_column is the one sparse pivot
step: row_reduce (elimination), decompose's splitting and Gaussian
elimination of a contractible pair all call it, on the {col: rows}
index that column_index builds.  matmul (products) follows the
nonzeros too.  kernel_from_reduction and solution_from_reduction read
the right kernel and the solutions of a linear system off an
elimination, given the column counts the rows leave implicit, so a
caller that keeps eliminations (as the couple memo does) reads them
the same way.  rank, pivot_columns, kernel_basis, image_basis and
solve are built on these.  columns and from_columns turn rows into
column vectors and back.  Helpers look row_reduce up in this module
when called, so replacing the module attribute (e.g. to count calls)
reaches them too; callers elsewhere go through the module attribute
as well.  There is one kernel, in pure Python; BACKEND names it.
"""

from ._pure import canonical, clear_column, column_index, row_reduce

BACKEND = "pure"


def matmul(a, b):
    """a @ b: sparse rows of the nonzero sums, canonical."""
    out = []
    for arow in a:
        acc = {}
        for j, x in arow.items():
            for c, y in b[j].items():
                acc[c] = acc.get(c, 0) + x * y
        out.append({c: canonical(v) for c, v in acc.items() if v})
    return out


def columns(rows, cols):
    """The given columns of the matrix, in order, as vectors keyed by row."""
    out = {c: {} for c in cols}
    for r, row in enumerate(rows):
        for c, x in row.items():
            if c in out:
                out[c][r] = x
    return list(out.values())


def from_columns(vectors, nrows):
    """Rows of the nrows-row matrix whose columns are the given vectors."""
    rows = [{} for _ in range(nrows)]
    for j, v in enumerate(vectors):
        for r, x in v.items():
            rows[r][j] = x
    return rows


def rank(rows):
    return len(row_reduce(rows)[1])


def pivot_columns(rows):
    """Column indices c such that column c adds new rank left to right."""
    return row_reduce(rows)[1]


def kernel_basis(rows, ncols):
    """Basis of the right kernel of a matrix with ncols columns, one
    vector per non-pivot column, in the standard RREF parametrization
    (free column gets 1), ordered by free column index.  Deterministic."""
    return kernel_from_reduction(row_reduce(rows), ncols)


def kernel_from_reduction(reduction, ncols):
    """kernel_basis read off row_reduce's (rref, pivots): for each free
    column j, 1 at j and minus the rref entry at j on each pivot column.
    Values are canonical, as in the rref."""
    rref, pivots = reduction
    minus = {}
    for pc, prow in zip(pivots, rref):
        for j, x in prow.items():
            if j != pc:
                minus.setdefault(j, {})[pc] = -x
    is_pivot = set(pivots)
    return [{j: 1, **minus.get(j, {})} for j in range(ncols) if j not in is_pivot]


def image_basis(rows):
    """The pivot columns of the matrix itself: a basis of the column space."""
    return columns(rows, pivot_columns(rows))


def solve(rows, rhs_columns, ncols):
    """Solve A @ X = B columnwise, A given by its rows (ncols columns)
    and B as a list of column vectors.

    Returns the list of solution vectors, or None if any column of B is
    outside the column space.  When A has a nontrivial kernel the
    particular solution with free variables 0 is returned.
    """
    nb = len(rhs_columns)
    aug = [dict(row) for row in rows]
    for j, b in enumerate(rhs_columns):
        for r, x in b.items():
            aug[r][ncols + j] = x
    return solution_from_reduction(row_reduce(aug), ncols, nb)


def solution_from_reduction(reduction, ncols, nb):
    """solve's answer read off row_reduce's (rref, pivots) of [A | B],
    A with ncols columns and B with nb: the solution vectors, or None."""
    rref, pivots = reduction
    if any(p >= ncols for p in pivots):
        return None
    sols = [{} for _ in range(nb)]
    for pc, prow in zip(pivots, rref):
        for j, x in prow.items():
            if j >= ncols:
                sols[j - ncols][pc] = x
    return sols
