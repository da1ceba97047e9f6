"""Reduced row echelon form over exact rationals, on sparse rows.

Each row is held as {col: Fraction} with its nonzeros only, and a
column index {col: ids of the rows with a nonzero there} names the rows
a pivot step must touch; fill-in enters the index and cancelled entries
leave both the row and the index, so the work follows the nonzeros
alone.
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


def row_reduce(rows):
    """RREF of a rational matrix.

    rows: {col: value} maps of each row's nonzeros (Fraction or int).
    Returns (rref, pivots): rref as {col: Fraction} maps of the
    nonzeros, one per input row (zero rows last), pivots the list of
    pivot column indices in row order.  Only nonzeros are visited, so
    the column count is never needed.  The input is not modified.  RREF
    is unique, so the pivot row chosen in each column (the sparsest row
    that holds it, after Markowitz) does not change the result.
    """
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
    rref = [sparse[i] for i in order]
    rref.extend({} for _ in range(len(rows) - len(order)))
    return rref, pivots
