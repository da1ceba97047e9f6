"""Diagram front ends against the brute-force oracle and closed forms.

The oracle lives in tests/oracles.py, imports nothing from the package,
and speaks textbook conventions (unknot at q^{-1} + q, positive
crossings at homological degrees 0..n).  The front end grades complexes
so that its mod-a table at (i, s) equals the oracle's table of the
mirror diagram at (i, -q); every cross-check below goes through that
bridge.
"""

from fractions import Fraction

import pytest

from builders import homology_structure, twobraid_homology, twobraid_unreduced, unit_pivots
from oracles import braid_to_pd, khovanov_of_braid, khovanov_of_mirror_braid, khovanov_table

from twkit.algebra import BigradedTable
from twkit.complexes import gaussian_eliminate, homology_field, reduce_mod_a
from twkit.decompose import decompose
from twkit.links import (
    LinkDiagram,
    Sl2Potential,
    TwoBraidSpec,
    build_sl2_cube,
    build_twobraid,
    delta_battery,
)

STANDARD = Sl2Potential.standard()


def mod_a_table(cx):
    return homology_field(reduce_mod_a(cx)).bigraded


def bridged_oracle_table(word, strands):
    kh = khovanov_of_mirror_braid(word, strands)
    return BigradedTable({(i, -q): dim for (i, q), dim in kh.items()})


class TestOracleSelfChecks:
    """Pin the oracle itself to textbook tables before trusting it."""

    def test_unknot(self):
        assert khovanov_table((), free_loops=1) == {(0, -1): 1, (0, 1): 1}

    def test_two_component_unlink(self):
        assert khovanov_of_braid([], 2) == {(0, -2): 1, (0, 0): 2, (0, 2): 1}

    def test_right_trefoil(self):
        assert khovanov_of_braid([1, 1, 1], 2) == {
            (0, 1): 1,
            (0, 3): 1,
            (2, 5): 1,
            (3, 9): 1,
        }

    def test_figure_eight(self):
        assert khovanov_of_braid([1, -2, 1, -2], 3) == {
            (-2, -5): 1,
            (-1, -1): 1,
            (0, -1): 1,
            (0, 1): 1,
            (1, 1): 1,
            (2, 5): 1,
        }

    def test_positive_hopf(self):
        assert khovanov_of_braid([1, 1], 2) == {
            (0, 0): 1,
            (0, 2): 1,
            (2, 4): 1,
            (2, 6): 1,
        }


class TestLinkDiagram:
    def test_pd_validation(self):
        with pytest.raises(ValueError, match="invalid PD code: arc 1 appears 1"):
            LinkDiagram(((1, (1, 2, 3, 3)),))
        with pytest.raises(ValueError, match="sign"):
            LinkDiagram(((2, (0, 1, 2, 3)),))
        with pytest.raises(ValueError, match="4 arc labels"):
            LinkDiagram(((1, (0, 1, 2)),))
        with pytest.raises(ValueError, match="free_loops"):
            LinkDiagram((), free_loops=-1)

    def test_writhe_and_counts(self):
        d = LinkDiagram.from_braid([1, 1, -1], 2)
        assert d.writhe == 1
        assert len(d.crossings) == 3

    def test_unused_strands_become_loops(self):
        d = LinkDiagram.from_braid([1], 4)
        assert d.free_loops == 2

    def test_braid_generator_range(self):
        with pytest.raises(ValueError, match="out of range"):
            LinkDiagram.from_braid([3], 2)
        with pytest.raises(ValueError, match="strand count must be non-negative, got -1"):
            LinkDiagram.from_braid([], -1)

    def test_braid_text_forms(self):
        a = LinkDiagram.from_braid_text("s1 s1 -s2")
        b = LinkDiagram.from_braid_text("1 1 -2", strands=3)
        c = LinkDiagram.from_braid([1, 1, -2], 3)
        assert a == b == c
        with pytest.raises(ValueError, match="cannot parse"):
            LinkDiagram.from_braid_text("sx")
        with pytest.raises(ValueError, match="must reference"):
            LinkDiagram.from_braid_text("s0")

    def test_matches_oracle_pd_construction(self):
        # same braid conventions on both sides of the fence
        for word, strands in (([1, 1, 1], 2), ([1], 3), ([1, -2, 1, -2], 3)):
            pd, loops = braid_to_pd(word, strands)
            d = LinkDiagram.from_braid(word, strands)
            assert d.crossings == tuple(pd)
            assert d.free_loops == loops


class TestSl2Potential:
    def test_standard(self):
        p = STANDARD
        assert p.k == 2 and p.lambdas == ((1, -1),)
        assert p.x_square() == (None, (Fraction(1, 3), 1))

    def test_k1_frobenius_constants(self):
        p = Sl2Potential(1, ((1, Fraction(2)), (2, Fraction(-3))))
        alpha, beta = p.x_square()
        assert alpha == (Fraction(-4, 3), 1)
        assert beta == (Fraction(1), 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be 1 or 2"):
            Sl2Potential(3)
        with pytest.raises(ValueError, match="not allowed"):
            Sl2Potential(2, ((2, Fraction(1)),))
        with pytest.raises(ValueError, match="duplicate"):
            Sl2Potential(1, ((1, 1), (1, 2)))

    def test_zero_coefficients_dropped(self):
        assert Sl2Potential(1, ((1, 0),)).lambdas == ()


class TestCube:
    def test_crossingless_unknot_calibration(self):
        d = decompose(build_sl2_cube(LinkDiagram((), 1), STANDARD))
        assert d.free_pieces == ((0, -1), (0, 1))
        assert d.torsion_pieces == ()

    def test_reidemeister_one_both_signs(self):
        for word in ([1], [-1]):
            d = decompose(build_sl2_cube(LinkDiagram.from_braid(word, 2), STANDARD))
            assert d.free_pieces == ((0, -1), (0, 1))
            assert d.torsion_pieces == ()

    def test_right_trefoil_decomposition(self):
        cx = build_sl2_cube(LinkDiagram.from_braid([1, 1, 1], 2), STANDARD)
        assert mod_a_table(cx) == bridged_oracle_table([1, 1, 1], 2)
        d = decompose(cx)
        assert d.free_pieces == ((0, 1), (0, 3))
        assert d.torsion_pieces == ((-2, 1, 5),)

    @pytest.mark.parametrize(
        "word,strands",
        [
            ([-1, -1, -1], 2),
            ([1, -2, 1, -2], 3),
            ([1, 1], 2),
            ([-1, -1], 2),
            ([], 2),
            ([1, 2, 2], 3),
        ],
    )
    def test_oracle_agreement(self, word, strands):
        cx = build_sl2_cube(LinkDiagram.from_braid(word, strands), STANDARD)
        assert mod_a_table(cx) == bridged_oracle_table(word, strands)

    def test_k1_potential_agreement(self):
        p = Sl2Potential(1, ((1, Fraction(2)), (2, Fraction(-3))))
        for word, strands in (([1, 1, 1], 2), ([1, -2, 1, -2], 3)):
            cx = build_sl2_cube(LinkDiagram.from_braid(word, strands), p)
            assert mod_a_table(cx) == bridged_oracle_table(word, strands)


class TestTwoBraid:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TwoBraidSpec.power_basis(3, 4)
        with pytest.raises(ValueError):
            TwoBraidSpec.power_basis(3, 0)

    def test_power_basis_exponent(self):
        spec = TwoBraidSpec.power_basis(4, 3)
        assert spec.N == 4 and spec.k == 2
        assert spec.lambdas == ((1, 1),)

    def test_cube_matches_closed_form(self):
        cube = build_sl2_cube(LinkDiagram.from_braid([-1, -1, -1, -1], 2), STANDARD)
        closed = build_twobraid(TwoBraidSpec.power_basis(2, 1))
        dc = decompose(cube)
        df = decompose(closed)
        assert dc.k == df.k == 2
        assert dc.free_pieces == df.free_pieces == (
            (0, -4),
            (0, -2),
            (4, -12),
            (4, -10),
        )
        assert dc.torsion_pieces == df.torsion_pieces == ((3, 1, -10),)

    @pytest.mark.parametrize(
        "N,i", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 3)]
    )
    def test_homology_tables(self, N, i):
        d = decompose(build_twobraid(TwoBraidSpec.power_basis(N, i)))
        assert homology_structure(d) == twobraid_homology(N, i)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_unreduced_matches_middle_summand(self, N):
        spec = TwoBraidSpec.power_basis(N, max(1, N - 2))
        du = decompose(twobraid_unreduced(spec))
        df = decompose(build_twobraid(spec))
        mid_free = tuple(p for p in df.free_pieces if p[0] in (2, 3))
        assert du.free_pieces == mid_free
        assert du.torsion_pieces == df.torsion_pieces

    def test_elimination_preserves_decomposition(self):
        cu = twobraid_unreduced(TwoBraidSpec.power_basis(3, 2))
        assert decompose(gaussian_eliminate(cu, 2, *min(unit_pivots(cu, 2)))) == decompose(cu)

    def test_general_potential_widens_torsion(self):
        # no a^1 term: every torsion exponent must be at least 2
        spec = TwoBraidSpec(4, 2, ((2, Fraction(1)),))
        d = decompose(build_twobraid(spec))
        assert d.torsion_pieces
        assert all(m >= 2 for _, m, _ in d.torsion_pieces)


class TestDeltaBattery:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_battery_passes(self, N):
        b = delta_battery(N)
        assert b.ok()
        assert b.ranks == {i: (N - i if i < N else 0) for i in range(1, N + 1)}

    @pytest.mark.parametrize("scalings, named", [((0,), "0"), ((1, Fraction(0), Fraction(-2, 3)), "1, 0, -2/3")])
    def test_zero_scaling_refused(self, scalings, named):
        with pytest.raises(ValueError) as exc:
            delta_battery(3, scalings)
        assert str(exc.value) == "scalings must be nonzero, got " + named

    def test_first_differential_bidegree(self):
        # each delta drops the polynomial degree by 2k = 2(N + 1 - i)
        b = delta_battery(3)
        for i, fd in b.deltas.items():
            assert fd.k == 3 + 1 - i
