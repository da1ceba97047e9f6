"""Reduced row echelon form over exact rationals, reference implementation.

Elimination does arithmetic only on the nonzero columns of each pivot
row; finding pivots and supports still scans the dense rows.  The
optional compiled twin in _speedups.pyx must produce bit-identical
output.
"""

from fractions import Fraction


def row_reduce(rows):
    """RREF of a rational matrix.

    rows: sequence of equal-length sequences of Fraction (or int).
    Returns (rref, pivots): rref as a list of lists of Fraction, pivots
    the list of pivot column indices in row order.  The input is not
    modified.  Pivot choice is leftmost column, topmost nonzero row, so
    the result is canonical.
    """
    mat = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
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
        # rows r.. are zero left of column c, so the pivot row's
        # support starts there
        support = [j for j in range(c, ncols) if prow[j]]
        inv = 1 / prow[c]
        for j in support:
            prow[j] *= inv
        for i in range(nrows):
            row = mat[i]
            f = row[c]
            if f and i != r:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return mat, pivots
