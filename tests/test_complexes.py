"""Complexes over k[a], their field reductions, elimination, homology."""

from fractions import Fraction

import pytest

from builders import direct_sum, shifted
from dense_la import dense_matvec, dense_rows, sparse_rows
from twkit.algebra import BigradedTable, GradedRing
from twkit.complexes import (
    ComplexError,
    FieldComplex,
    FilteredFieldComplex,
    GradedComplex,
    complex_from_data,
    first_differential,
    gaussian_eliminate,
    homology_field,
    reduce_mod_a,
    specialize_a_to_1,
)
from twkit.decompose import decompose


R1 = GradedRing(1)


def torsion_complex(k=1, m=2, i=1, s=0, scalar=1):
    """0 -> k[a]{s + 2km} --scalar a^m--> k[a]{s} -> 0 at degrees i-1, i."""
    return complex_from_data(
        k,
        {i - 1: [s + 2 * k * m], i: [s]},
        {i - 1: [[Fraction(scalar)]]},
    )


class TestValidation:
    def test_d_squared_checked(self):
        with pytest.raises(ComplexError, match="d\\^2 != 0.*degree 0"):
            complex_from_data(
                1, {0: [0], 1: [0], 2: [0]}, {0: [[1]], 1: [[1]]}
            )

    def test_inhomogeneous_entry(self):
        with pytest.raises(ComplexError, match="not homogeneous"):
            complex_from_data(1, {0: [1], 1: [0]}, {0: [[1]]})

    def test_dangling_differential(self):
        with pytest.raises(ComplexError, match="no matching modules"):
            GradedComplex(R1, {0: (0,)}, {5: [{0: 1}]})
        # zero rows where a side has no generators are a zero map
        assert GradedComplex(R1, {0: (0,)}, {5: [{}], 0: [{}]}).differentials == {}

    def test_zero_rank_modules_dropped(self):
        c = GradedComplex(R1, {0: (), 1: (0,)}, {})
        assert sorted(c.degrees) == [1]
        assert c.rank(0) == 0 and c.total_rank() == 1

    def test_missing_differential_is_zero(self):
        c = complex_from_data(1, {0: [0], 1: [4]}, {})
        assert c.rank(0) == 1 and c.rank(1) == 1
        assert c.differentials == {}
        assert reduce_mod_a(c).mats == {}


def test_shifted():
    c = torsion_complex()
    s = shifted(c, di=2, ds=-4)
    assert sorted(s.degrees) == [2, 3]
    assert s.degrees == {2: (0,), 3: (-4,)}
    assert decompose(s).torsion_pieces == ((3, 2, -4),)


def test_direct_sum_blocks():
    a = torsion_complex(m=1)
    b = torsion_complex(m=2)
    c = direct_sum(a, b)
    assert c.rank(0) == 2 and c.rank(1) == 2
    assert c.differentials[0].entries == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    assert sorted(decompose(c).torsion_pieces) == [(1, 1, 0), (1, 2, 0)]


class TestFieldComplexes:
    def test_degree_preservation_enforced(self):
        with pytest.raises(ComplexError, match="violates the grading"):
            FieldComplex({0: (0,), 1: (2,)}, {0: [{0: 1}]})

    def test_filtered_allows_drops_only(self):
        FilteredFieldComplex({0: (2,), 1: (0,)}, {0: [{0: 1}]})
        with pytest.raises(ComplexError, match="violates the grading"):
            FilteredFieldComplex({0: (0,), 1: (2,)}, {0: [{0: 1}]})

    def test_reduce_mod_a_kills_positive_exponents(self):
        c = torsion_complex(m=1)
        fc = reduce_mod_a(c)
        assert dense_rows(fc.mats[0], fc.rank(0)) == [[Fraction(0)]]
        unit = complex_from_data(1, {0: [0], 1: [0]}, {0: [[1]]})
        assert dense_rows(reduce_mod_a(unit).mats[0], 1) == [[Fraction(1)]]

    def test_specialize_keeps_scalars(self):
        c = torsion_complex(m=2, scalar=3)
        fc = specialize_a_to_1(c)
        assert fc.degrees == {0: (4,), 1: (0,)}
        assert dense_rows(fc.mats[0], fc.rank(0)) == [[Fraction(3)]]


class TestGaussianEliminate:
    def unit_pair_complex(self):
        # free generator plus a cancelling pair in one module
        return complex_from_data(
            1,
            {0: [0, 2], 1: [0]},
            {0: [[1, 0]]},
        )

    def test_graded_elimination(self):
        c = self.unit_pair_complex()
        out = gaussian_eliminate(c, 0, 0, 0)
        assert sorted(out.degrees) == [0]
        assert out.degrees == {0: (2,)}
        assert decompose(out) == decompose(c)

    def test_pivot_must_preserve_degree(self):
        c = torsion_complex(m=1)
        with pytest.raises(ComplexError, match="not invertible"):
            gaussian_eliminate(c, 0, 0, 0)

    def test_pivot_must_be_nonzero(self):
        c = complex_from_data(1, {0: [0, 0], 1: [0]}, {0: [[1, 0]]})
        with pytest.raises(ComplexError, match="pivot entry is zero"):
            gaussian_eliminate(c, 0, 0, 1)

    def test_schur_correction(self):
        # d = [[1, 1], [1, 1]] on equal degrees; cancelling (0, 0)
        # leaves epsilon - gamma phi^{-1} delta = 1 - 1 = 0
        c = complex_from_data(1, {0: [0, 0], 1: [0, 0]}, {0: [[1, 1], [1, 1]]})
        out = gaussian_eliminate(c, 0, 0, 0)
        assert out.rank(0) == 1 and out.rank(1) == 1
        assert out.differentials[0].is_zero()
        assert decompose(out) == decompose(c)

    def test_field_elimination(self):
        fc = FilteredFieldComplex({0: (0, 2), 1: (0,)}, {0: sparse_rows([[1, 0]])})
        out = gaussian_eliminate(fc, 0, 0, 0)
        # emptied degree slots are dropped entirely
        assert out.degrees == {0: (2,)}
        assert isinstance(out, FilteredFieldComplex)


class TestHomologyField:
    def test_torsion_pair_mod_a(self):
        hb = homology_field(reduce_mod_a(torsion_complex(m=2, i=1, s=0)))
        assert hb.dims == {0: 1, 1: 1}
        assert hb.bigraded == BigradedTable({(0, 4): 1, (1, 0): 1})

    def test_unit_pair_cancels(self):
        c = complex_from_data(1, {0: [0], 1: [0]}, {0: [[1]]})
        hb = homology_field(reduce_mod_a(c))
        assert sum(hb.dims.values()) == 0

    def test_representatives_are_cycles(self):
        fc = FieldComplex(
            {0: (0, 0), 1: (0,)},
            {0: sparse_rows([[1, 1]])},
        )
        hb = homology_field(fc)
        assert hb.dims == {0: 1, 1: 0}
        (rep,) = hb.representatives[0]
        assert dense_matvec(dense_rows(fc.mats[0], 2), dense_rows([rep], 2)[0]) == [0]


class TestFirstDifferential:
    def test_width_one_pair_is_isomorphism(self):
        fd = first_differential(torsion_complex(m=1, i=1, s=0))
        assert fd.nonzero_degrees() == [0]
        assert dense_rows(fd.blocks[0], fd.dims[0]) == [[Fraction(1)]]
        assert fd.rank() == 1

    def test_wider_torsion_contributes_nothing(self):
        fd = first_differential(torsion_complex(m=2))
        assert fd.is_zero()

    def test_free_piece_contributes_nothing(self):
        c = complex_from_data(1, {0: [0], 1: [4]}, {})
        assert first_differential(c).is_zero()

    def test_rank_counts_width_one_pieces(self):
        c = direct_sum(
            torsion_complex(m=1, s=0),
            torsion_complex(m=1, s=6),
            torsion_complex(m=2, s=2),
        )
        fd = first_differential(c)
        assert fd.rank() == 2
        d = decompose(c)
        assert fd.rank() == sum(1 for _, m, _ in d.torsion_pieces if m == 1)

    def test_scalar_carried_through(self):
        fd = first_differential(torsion_complex(m=1, scalar=-7))
        assert dense_rows(fd.blocks[0], fd.dims[0]) == [[Fraction(-7)]]
