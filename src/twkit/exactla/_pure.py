"""Reduced row echelon form over exact rationals, on sparse rows.

Each row is held as {col: Fraction} with its nonzeros only, and a
column index {col: ids of the rows with a nonzero there} names the rows
a pivot step must touch; fill-in enters the index and cancelled entries
leave both the row and the index.  Input cells are scanned once, to
find the nonzeros; after that the work follows the nonzeros alone.
"""

from collections import defaultdict
from fractions import Fraction


def row_reduce(rows):
    """RREF of a rational matrix.

    rows: sequence of equal-length sequences of Fraction (or int).
    Returns (rref, pivots): rref as a list of lists of Fraction, pivots
    the list of pivot column indices in row order.  The input is not
    modified.  RREF is unique, so the pivot row chosen in each column
    (the sparsest row that holds it, after Markowitz) does not change
    the result.
    """
    ncols = len(rows[0]) if rows else 0
    sparse = []
    holders = defaultdict(set)
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        entries = {}
        for j, x in enumerate(row):
            if x:
                entries[j] = x if isinstance(x, Fraction) else Fraction(x)
                holders[j].add(i)
        sparse.append(entries)
    pending = set(range(len(rows)))
    order = []
    pivots = []
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
        inv = 1 / prow[c]
        tail = [(j, x * inv) for j, x in prow.items() if j != c]
        prow.update(tail)
        prow[c] = Fraction(1)
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
    zero = Fraction(0)
    rref = []
    for i in order:
        dense = [zero] * ncols
        for j, x in sparse[i].items():
            dense[j] = x
        rref.append(dense)
    rref.extend([zero] * ncols for _ in range(len(rows) - len(order)))
    return rref, pivots
