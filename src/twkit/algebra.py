"""Graded base ring k[a], (i, s) dimension tables, module descriptors,
the one normalizer of sparse rows, and homogeneous matrices.

Matrix entries over k[a] are stored as bare rational scalars, in sparse
rows of the nonzeros; the a-exponent of a nonzero entry is never stored
but derived from the source and target generator degrees.  Because
every entry of a homogeneous matrix is a monomial, composition of two
such matrices is plain rational matrix multiplication: all terms
contributing to one entry carry the same power of a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactla import canonical


@dataclass(frozen=True)
class GradedRing:
    """The base ring k[a] over the rationals, deg(a) = 2k."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def a_degree(self) -> int:
        return 2 * self.k


class BigradedTable:
    """Finite-support dimension table keyed (i, s): homological degree,
    polynomial degree.  Entries given twice at one key add up, zero
    dimensions are dropped and negative ones rejected, on construction.
    Pages keyed by filtration position are PageTables.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        data = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for key, dim in items:
            if dim < 0:
                raise ValueError("negative dimension at %r" % (key,))
            if dim:
                key = (int(key[0]), int(key[1]))
                data[key] = data.get(key, 0) + dim
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("BigradedTable is immutable")

    def get(self, first, second) -> int:
        return self._entries.get((first, second), 0)

    def items(self):
        return sorted(self._entries.items())

    def support(self):
        return sorted(self._entries)

    def total_dim(self) -> int:
        return sum(self._entries.values())

    def is_empty(self) -> bool:
        return not self._entries

    def __bool__(self):
        return bool(self._entries)

    def __eq__(self, other):
        return isinstance(other, BigradedTable) and self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        return "BigradedTable(%r)" % (self.items(),)


@dataclass(frozen=True)
class GradedModuleDescriptor:
    """Finitely generated graded k[a]-module up to isomorphism.

    free_shifts: multiset of s with a k[a]{s} summand.
    torsions: multiset of (m, s) with a (k[a]/(a^m)){s} summand.
    Both stored sorted, so equality is structural.
    """

    free_shifts: tuple = ()
    torsions: tuple = ()

    def __post_init__(self):
        free = tuple(sorted(int(s) for s in self.free_shifts))
        tors = tuple(sorted((int(m), int(s)) for m, s in self.torsions))
        for m, _ in tors:
            if m < 1:
                raise ValueError("torsion exponent must be >= 1")
        object.__setattr__(self, "free_shifts", free)
        object.__setattr__(self, "torsions", tors)

    def is_zero(self) -> bool:
        return not self.free_shifts and not self.torsions

    def __bool__(self):
        return not self.is_zero()


def add_to_row(row, col, x):
    """row[col] += x on a sparse row, dropping a zero sum."""
    x += row.get(col, 0)
    if x:
        row[col] = x
    else:
        row.pop(col, None)


def canonical_rows(rows, nrows, ncols):
    """The one row normalizer: new {col: canonical value} maps of the
    nonzeros of sparse rows, refused unless there are nrows of them,
    each keyed by int columns in range(ncols)."""
    if len(rows) != nrows:
        raise ValueError("row count does not match target rank")
    if any(type(c) is not int or not 0 <= c < ncols for row in rows for c in row):
        raise ValueError("column index out of range")
    return tuple({c: canonical(x) for c, x in row.items() if x} for row in rows)


@dataclass(frozen=True)
class HomMatrix:
    """Degree-homogeneous matrix between graded free modules: the output
    view of one differential of a complex (GradedComplex.differentials),
    which keeps only the rows.

    rows[r] maps each column c with a nonzero entry at (r, c) to the
    rational scalar of that monomial entry; its a-exponent is
    (source_degrees[c] - target_degrees[r]) / 2k.  Shape is
    (len(target_degrees), len(source_degrees)); either may be 0.
    The constructor takes sparse rows only and builds them with
    canonical_rows.  entries is the dense view, for output.
    """

    ring: GradedRing
    source_degrees: tuple
    target_degrees: tuple
    rows: tuple

    def __post_init__(self):
        src = tuple(int(d) for d in self.source_degrees)
        tgt = tuple(int(d) for d in self.target_degrees)
        object.__setattr__(self, "rows", canonical_rows(self.rows, len(tgt), len(src)))
        object.__setattr__(self, "source_degrees", src)
        object.__setattr__(self, "target_degrees", tgt)

    def __hash__(self):
        rows = tuple(frozenset(row.items()) for row in self.rows)
        return hash((self.ring, self.source_degrees, self.target_degrees, rows))

    @cached_property
    def entries(self):
        """Dense view: one tuple of cells per row, zeros included."""
        ncols = self.ncols
        return tuple(tuple(row.get(c, 0) for c in range(ncols)) for row in self.rows)

    @property
    def ncols(self) -> int:
        return len(self.source_degrees)

    def is_zero(self) -> bool:
        return not any(self.rows)
