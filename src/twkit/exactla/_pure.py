"""Reduced row echelon form over exact rationals, on sparse rows.

Each row is held as {col: Fraction} with its nonzeros only, and a
column index {col: ids of the rows with a nonzero there} names the rows
a pivot step must touch; fill-in enters the index and cancelled entries
leave both the row and the index.  Dense input cells are scanned once,
to find the nonzeros; sparse input is taken as it is.  After that the
work follows the nonzeros alone.
"""

from collections import defaultdict
from fractions import Fraction


def column_index(rows):
    """{col: set of the ids of the sparse rows with a nonzero there}."""
    holders = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    return holders


def row_reduce(rows, ncols=None):
    """RREF of a rational matrix.

    rows: sequence of equal-length sequences of Fraction (or int); or,
    when ncols is given, {col: value} maps of each row's nonzeros
    (Fraction or int), with every col < ncols.  Returns (rref, pivots):
    rref in the form of the input (lists of Fraction, or {col: value}
    maps of the nonzeros, exact throughout), pivots the list of pivot
    column indices in row order.  The input is not modified.  RREF is
    unique, so the pivot row chosen in each column (the sparsest row
    that holds it, after Markowitz) does not change the result.
    """
    if ncols is None:
        dense = True
        ncols = len(rows[0]) if rows else 0
        sparse = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
            sparse.append({j: x if isinstance(x, Fraction) else Fraction(x) for j, x in enumerate(row) if x})
    else:
        dense = False
        sparse = [dict(row) for row in rows]
    holders = column_index(sparse)
    pending = set(range(len(rows)))
    order = []
    pivots = []
    one = Fraction(1)
    # pivot rows only subtract at their own columns, all right of the
    # current one, so no new column ever gains a nonzero
    for c in sorted(holders):
        if not pending:
            break
        hold = holders[c]
        candidates = hold & pending
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(sparse[i]), i))
        prow = sparse[p]
        inv = one / prow[c]
        tail = [(j, x * inv) for j, x in prow.items() if j != c]
        prow.update(tail)
        prow[c] = one
        for i in hold:
            if i == p:
                continue
            row = sparse[i]
            f = row.pop(c)
            for j, x in tail:
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    holders[j].add(i)
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        holders[j].discard(i)
        pending.discard(p)
        order.append(p)
        pivots.append(c)
    if not dense:
        rref = [sparse[i] for i in order]
        rref.extend({} for _ in range(len(rows) - len(order)))
        return rref, pivots
    zero = Fraction(0)
    rref = []
    for i in order:
        dense_row = [zero] * ncols
        for j, x in sparse[i].items():
            dense_row[j] = x
        rref.append(dense_row)
    rref.extend([zero] * ncols for _ in range(len(rows) - len(order)))
    return rref, pivots
