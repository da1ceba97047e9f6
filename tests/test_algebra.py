"""Graded building blocks: tables, descriptors, homogeneous matrices,
and the descriptor's dimension table frozen in tests/frozen_pages.py."""

import ast
from fractions import Fraction

import pytest

from frozen_pages import descriptor_dim_table
from twkit.algebra import BigradedTable, GradedModuleDescriptor, GradedRing, HomMatrix
from twkit.complexes import ComplexError, GradedComplex, check_differentials, reduce_mod_a
from twkit.exactla import matmul
from twkit.pages import PageTable


def test_ring_validation():
    assert GradedRing(3).a_degree == 6
    with pytest.raises(ValueError):
        GradedRing(0)
    with pytest.raises(ValueError):
        GradedRing(-1)


class TestBigradedTable:
    def test_zero_entries_dropped(self):
        t = BigradedTable({(0, 2): 1, (1, 4): 0})
        assert t.support() == [(0, 2)]
        assert t.get(1, 4) == 0
        assert t.total_dim() == 1

    def test_duplicate_keys_accumulate(self):
        t = BigradedTable([((0, 0), 1), ((0, 0), 2)])
        assert t.get(0, 0) == 3

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            BigradedTable({(0, 0): -1})

    def test_convention_round_trip(self):
        t = BigradedTable({(3, -2): 1, (0, 4): 2})
        # (i, s) -> (p, q) = (s, i - s)
        assert PageTable.from_hom_poly(1, t).items() == [((-2, 5), 1), ((4, -4), 2)]
        assert PageTable.from_hom_poly(1, t).to_hom_poly() == t

    def test_conventions_never_compare_equal(self):
        a = BigradedTable({(0, 0): 1})
        b = PageTable(1, {(0, 0): 1})
        assert a != b

    def test_add(self):
        a = BigradedTable({(0, 0): 1, (1, 2): 1})
        b = BigradedTable({(1, 2): 2})
        assert BigradedTable(a.items() + b.items()).items() == [((0, 0), 1), ((1, 2), 3)]

    def test_hashable(self):
        a = BigradedTable({(0, 0): 1})
        b = BigradedTable([((0, 0), 1)])
        assert len({a, b}) == 1


class TestDescriptor:
    def test_sorted_storage(self):
        d = GradedModuleDescriptor((4, -2), ((2, 0), (1, 6)))
        assert d.free_shifts == (-2, 4)
        assert d.torsions == ((1, 6), (2, 0))

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            GradedModuleDescriptor((), ((0, 4),))

    def test_merge_shift_scale(self):
        d = GradedModuleDescriptor((0,), ((1, 2),))
        assert not d.is_zero() and bool(d)
        assert GradedModuleDescriptor().is_zero() and not GradedModuleDescriptor()


def first_bad(m):
    """The (row, col) that the complexes' one check refuses in m, taken
    as the differential out of degree 0, or None."""
    try:
        check_differentials({0: m.source_degrees, 1: m.target_degrees}, {0: m.rows}, m.ring.a_degree)
    except ComplexError as e:
        prefix = "differential at degree 0 is not homogeneous at entry "
        assert str(e).startswith(prefix)
        return ast.literal_eval(str(e)[len(prefix):])
    return None


class TestHomMatrix:
    R = GradedRing(1)

    def mat(self):
        # one scalar entry (gap 0) and one a^2 entry (gap 4)
        return HomMatrix(self.R, (0, 4), (0,), ({0: Fraction(2), 1: Fraction(1)},))

    def test_exponents(self):
        m = self.mat()
        assert first_bad(m) is None

    def test_inhomogeneous_detected(self):
        bad = HomMatrix(self.R, (1,), (0,), ({0: Fraction(1)},))
        assert first_bad(bad) == (0, 0)
        neg = HomMatrix(self.R, (0,), (2,), ({0: Fraction(1)},))
        assert first_bad(neg) == (0, 0)
        # zero entries are exempt: the constructor drops them
        ok = HomMatrix(self.R, (1,), (0,), ({0: Fraction(0)},))
        assert ok.rows == ({},)
        assert first_bad(ok) is None

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="row count does not match target rank"):
            HomMatrix(self.R, (0,), (0, 0), ({0: Fraction(1)},))
        with pytest.raises(ValueError, match="column index out of range"):
            HomMatrix(self.R, (0,), (0,), ({1: Fraction(1)},))
        with pytest.raises(ValueError, match="column index out of range"):
            HomMatrix(self.R, (0, 0), (0,), ({-1: Fraction(1)},))

    def test_compose_tracks_degrees(self):
        # a^1 followed by a^1 is a^2: the rows multiply as plain
        # rational matrices and the outer degrees chain
        first = HomMatrix(self.R, (4,), (2,), ({0: Fraction(3)},))
        second = HomMatrix(self.R, (2,), (0,), ({0: Fraction(5)},))
        comp = HomMatrix(self.R, first.source_degrees, second.target_degrees, tuple(matmul(second.rows, first.rows)))
        assert comp.entries == ((15,),)
        assert first_bad(comp) is None

    def test_identity_and_zero(self):
        # unit sparse rows and the empty shape, with no constructor of
        # their own
        ident = HomMatrix(self.R, (0, 2), (0, 2), ({0: 1}, {1: 1}))
        assert ident.entries == ((1, 0), (0, 1))
        z = HomMatrix(self.R, (0,), (), ())
        assert len(z.rows) == 0 and z.ncols == 1 and z.is_zero()

    def test_reduced_mod_a(self):
        m = self.mat()
        # the matrix as the one differential of a complex, set to a = 0:
        # the exponent-0 entry (0, 0) is kept, the a^2 entry (0, 1) is
        # dropped, and the kept value stays an int
        c = GradedComplex(self.R, {0: m.source_degrees, 1: m.target_degrees}, {0: m.rows})
        rows = reduce_mod_a(c).mats[0]
        assert rows == ({0: 2},)
        assert type(rows[0][0]) is int


def test_descriptor_dim_table():
    d = GradedModuleDescriptor((2,), ((3, 0),))
    t = descriptor_dim_table(d, at_hom_degree=5, k=2)
    # free at (5, 2); torsion at (5, 0) and (4, 0 + 2*2*3)
    assert t.items() == [((4, 12), 1), ((5, 0), 1), ((5, 2), 1)]
