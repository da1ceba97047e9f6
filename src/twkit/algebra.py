"""Graded base ring k[a], (i, s) dimension tables, module descriptors,
and homogeneous matrices.

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


@dataclass(frozen=True)
class HomMatrix:
    """Degree-homogeneous matrix between graded free modules.

    rows[r] maps each column c with a nonzero entry at (r, c) to the
    rational scalar of that monomial entry; its a-exponent is
    (source_degrees[c] - target_degrees[r]) / 2k.  Shape is
    (len(target_degrees), len(source_degrees)); either may be 0.
    Values are canonical: an int when integral, a Fraction otherwise,
    and zero is never stored.  The constructor takes sparse rows only;
    complexes.complex_from_data alone reads dense cells.  entries is
    the dense view, for output.
    """

    ring: GradedRing
    source_degrees: tuple
    target_degrees: tuple
    rows: tuple

    def __post_init__(self):
        src = tuple(int(d) for d in self.source_degrees)
        tgt = tuple(int(d) for d in self.target_degrees)
        if len(self.rows) != len(tgt):
            raise ValueError("row count does not match target rank")
        ncols = len(src)
        if any(type(c) is not int or not 0 <= c < ncols for row in self.rows for c in row):
            raise ValueError("column index out of range")
        rows = tuple({c: canonical(x) for c, x in row.items() if x} for row in self.rows)
        object.__setattr__(self, "source_degrees", src)
        object.__setattr__(self, "target_degrees", tgt)
        object.__setattr__(self, "rows", rows)

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

    def reduced_mod_a(self):
        """Sparse scalar rows, {col: value} with canonical values as
        stored, of the nonzero exponent-0 entries; every
        positive-exponent entry is dropped."""
        src = self.source_degrees
        return [
            {c: x for c, x in row.items() if src[c] == tdeg}
            for tdeg, row in zip(self.target_degrees, self.rows)
        ]


def hom_matrix_validate(m: HomMatrix):
    """None if homogeneous, else the first violating (row, col) in
    row-major order.

    A violation is a nonzero entry whose degree gap is negative or not
    a multiple of 2k.
    """
    d2k = m.ring.a_degree
    src = m.source_degrees
    for r, (tdeg, row) in enumerate(zip(m.target_degrees, m.rows)):
        bad = [c for c in row if src[c] < tdeg or (src[c] - tdeg) % d2k]
        if bad:
            return (r, min(bad))
    return None
