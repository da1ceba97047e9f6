"""Reduced row echelon form over exact rationals, on sparse rows.

Each row is held as {col: value} with its nonzeros only, every value
canonical (an int when integral, a Fraction otherwise), and a column
index {col: ids of the rows with a nonzero there} names the rows a
pivot step must touch; fill-in enters the index and cancelled entries
leave both the row and the index, so the work follows the nonzeros
alone.
"""

from collections import defaultdict
from fractions import Fraction


def canonical(x):
    """An exact scalar as an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = x if type(x) is Fraction else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def column_index(rows):
    """{col: set of the ids of the sparse rows with a nonzero there}."""
    holders = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    return holders


def clear_column(rows, holders, p, c):
    """Subtract from every other row holding column c the multiple of
    row p that clears it, in place.

    rows are sparse, holders their column index (see column_index),
    which is kept in step.  Written values are canonical.  Returns the
    (row id, ratio) pairs: row id lost ratio times row p.
    """
    prow = rows[p]
    pivot = prow[c]
    inv = pivot if pivot == 1 or pivot == -1 else Fraction(1) / pivot
    ratios = []
    for i in holders[c] - {p}:
        row = rows[i]
        ratio = canonical(row[c] * inv)
        ratios.append((i, ratio))
        for j, y in prow.items():
            x = row.get(j)
            if x is None:
                row[j] = canonical(-ratio * y)
                holders[j].add(i)
            else:
                x -= ratio * y
                if x:
                    row[j] = canonical(x)
                else:
                    del row[j]
                    holders[j].discard(i)
    return ratios


def row_reduce(rows):
    """RREF of a rational matrix.

    rows: {col: value} maps of each row's nonzeros.  Returns (rref,
    pivots): rref as {col: value} maps of the nonzeros with canonical
    values, one per input row (zero rows last), pivots the list of
    pivot column indices in row order.  Only nonzeros are visited, so
    the column count is never needed.  The input is not modified.  RREF
    is unique, so the pivot row chosen in each column (the sparsest row
    that holds it, after Markowitz) does not change the result.
    """
    sparse = [{j: canonical(x) for j, x in row.items()} for row in rows]
    holders = column_index(sparse)
    pending = set(range(len(rows)))
    order = []
    pivots = []
    # pivot rows only subtract at their own columns, all right of the
    # current one, so no new column ever gains a nonzero
    for c in sorted(holders):
        if not pending:
            break
        candidates = holders[c] & pending
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(sparse[i]), i))
        pivot = sparse[p][c]
        if pivot != 1:
            inv = Fraction(1) / pivot
            sparse[p] = {j: canonical(x * inv) for j, x in sparse[p].items()}
        clear_column(sparse, holders, p, c)
        pending.discard(p)
        order.append(p)
        pivots.append(c)
    rref = [sparse[i] for i in order]
    rref.extend({} for _ in range(len(rows) - len(order)))
    return rref, pivots
