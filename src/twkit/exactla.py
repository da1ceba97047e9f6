"""Exact rational linear algebra kernel, on sparse rows.

A matrix is a sequence of rows, each a {col: value} map of its
nonzeros; a vector is one such map, keyed by coordinate.  Every value
this kernel writes is canonical (an int when integral, a Fraction
otherwise; see canonical), and two ints never meet in true division.
clear_column is the one sparse pivot step, fraction-free on ints:
row_reduce (elimination), decompose's splitting and Gaussian
elimination of a contractible pair all call it, on the {col: rows}
index that column_index builds.  matmul (products) follows the
nonzeros too.  kernel_from_reduction and solution_from_reduction read
the right kernel and the solutions of a linear system off an
elimination, given the column counts the rows leave implicit, so a
caller that keeps eliminations (as the couple memo does) reads them
the same way.  rank, pivot_columns, kernel_basis, image_basis and
solve are built on these.  columns and from_columns turn rows into
column vectors and back.  Subquotient is the one homology read-off:
cycles modulo boundaries with pinned representatives, and the
coordinates of a cycle on them, read in cycle coordinates without a
solve; homology builds one per slot of a chain of maps, for the mod-a
homology, the first differential and the derived couples alike.
Helpers look row_reduce up in this module when called, so replacing
the module attribute (e.g. to count calls) reaches them too; callers
elsewhere go through the module attribute as well.  There is one
kernel, in pure Python; BACKEND names it.

An elimination holds each row as {col: value} with its nonzeros only,
and a column index {col: ids of the rows with a nonzero there} names
the rows a pivot step must touch; fill-in enters the index and
cancelled entries leave both the row and the index, so the work
follows the nonzeros alone.
"""

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

BACKEND = "pure"


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
    """Clear column c of every other row holding it with row p, in place,
    keeping holders, their column index (see column_index), in step and
    writing canonical values.  Returns (row id, a, b) triples: row id
    became a times itself less b times row p; a = x/g > 0 and b = y/g for
    g = ±gcd(x, y) on an int pivot x and entry y, else a = 1, b = y/x."""
    prow = rows[p]
    pivot = prow[c]
    unit = pivot if pivot == 1 or pivot == -1 else 0
    steps = []
    for i in holders[c] - {p}:
        row = rows[i]
        y = row[c]
        if unit:
            a, b = 1, y * unit
        elif type(pivot) is int and type(y) is int:
            g = gcd(pivot, y) if pivot > 0 else -gcd(pivot, y)
            a, b = pivot // g, y // g
            if a != 1:
                rows[i] = row = {j: canonical(x * a) for j, x in row.items()}
        else:
            a, b = 1, canonical(y / pivot)
        steps.append((i, a, b))
        for j, x in prow.items():
            z = row.get(j)
            if z is None:
                row[j] = canonical(-b * x)
                holders[j].add(i)
            else:
                z -= b * x
                if z:
                    row[j] = z if type(z) is int else canonical(z)
                else:
                    del row[j]
                    holders[j].discard(i)
    return steps


def divided(row, d):
    """The sparse row over the nonzero int d, canonical."""
    if d == 1:
        return row
    return {j: x // d if type(x) is int and not x % d else canonical(Fraction(x, d)) for j, x in row.items()}


def row_reduce(rows):
    """RREF of a rational matrix.

    rows: {col: value} maps of each row's nonzeros, ints or Fractions,
    left as they are.  Returns (rref, pivots): rref as canonical maps of
    the nonzeros, one per input row (zero rows last), pivots the pivot
    columns in row order.  Row scaling and the choice of pivot row leave
    the RREF as it is, so rows are cleared of denominators, a unit pivot
    goes first (then the sparsest, after Markowitz), a row clear_column
    scales is made primitive, and each pivot row is divided by its pivot
    once, at the end."""
    sparse = []
    for row in rows:
        den = lcm(*(x.denominator for x in row.values() if type(x) is not int))
        sparse.append({j: x * den if type(x) is int else x.numerator * (den // x.denominator) for j, x in row.items()})
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
        p = min(candidates, key=lambda i: (sparse[i][c] not in (1, -1), len(sparse[i]), i))
        for i, a, _ in clear_column(sparse, holders, p, c):
            g = a != 1 and gcd(*sparse[i].values())
            if g > 1:
                sparse[i] = {j: x // g for j, x in sparse[i].items()}
        pending.discard(p)
        order.append(p)
        pivots.append(c)
    rref = [divided(sparse[i], sparse[i][c]) for i, c in zip(order, pivots)]
    rref.extend({} for _ in range(len(rows) - len(order)))
    return rref, pivots


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


class Subquotient:
    """Cycles modulo boundaries, with pinned representatives.

    cycles is a kernel basis as kernel_from_reduction reads it: the
    cycle of free column j holds 1 at j, and nonzeros elsewhere only at
    pivot columns left of j.  On the free columns (cycle coordinates) a
    cycle is thus determined by its entries, and each basis cycle is a
    unit vector.  The boundaries, cycles too, are eliminated there once
    by reduce (row_reduce, looked up when called, by default), column j
    keyed -j, so each rref row's pivot is its largest free column.  The
    cycle of j is a representative iff -j is no pivot, just as greedy
    column pivoting of [boundaries | cycles] picks it.
    """

    __slots__ = ("boundaries", "representatives", "_reduced", "_slot")

    def __init__(self, cycles, boundaries, reduce=None):
        free = {max(v): v for v in cycles}
        rref, pivots = (reduce or row_reduce)([{-j: x for j, x in v.items() if j in free} for v in boundaries])
        self.boundaries = tuple(boundaries)
        # each pivot's rref row, less its leading 1, keyed by free column
        self._reduced = {-p: {-j: x for j, x in row.items() if j != p} for p, row in zip(pivots, rref)}
        self._slot = {j: r for r, j in enumerate(j for j in free if j not in self._reduced)}
        self.representatives = tuple(free[j] for j in self._slot)

    def coordinates(self, cycles):
        """Row r holds, at column c, the coordinate of cycles[c] on
        representative r, canonical.  [boundaries | representatives] is
        a basis, so nothing is solved: a cycle less the rref rows at its
        pivot columns lies on the representatives' columns.  Only the
        free columns are read, so the caller must know each is a cycle.
        """
        out = [{} for _ in self.representatives]
        for c, z in enumerate(cycles):
            left = {}
            for j, x in z.items():
                if j in self._slot:
                    left[j] = left.get(j, 0) + x
                for q, y in self._reduced.get(j, {}).items():
                    left[q] = left.get(q, 0) - x * y
            for j, x in left.items():
                if x:
                    out[self._slot[j]][c] = canonical(x)
        return out


def homology(maps, dims, source, reduce=None):
    """{x: Subquotient ker maps[x] / im maps[source(x)]} over the slots x
    of dims, which gives each slot's coordinate count; an absent map is
    zero.  Each map is eliminated once by reduce (row_reduce, looked up
    when called, by default), for its kernel and its image.
    """
    reduce = reduce or row_reduce
    reductions = {x: reduce(rows) for x, rows in maps.items()}
    out = {}
    for x, n in dims.items():
        cycles = kernel_from_reduction(reductions[x], n) if x in maps else [{j: 1} for j in range(n)]
        y = source(x)
        out[x] = Subquotient(cycles, columns(maps[y], reductions[y][1]) if y in maps else [], reduce)
    return out
