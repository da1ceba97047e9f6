"""Rebuilding decompositions from page sequences, and rejecting fakes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twkit.algebra import HOM_POLY, PAGE, BigradedTable
from twkit.corpus import random_decomposition
from twkit.couples import couple_tables
from twkit.decompose import Decomposition, torsion_width
from twkit.recover import (
    InconsistentPages,
    PageSequence,
    padded_sequence,
    pages_from_decomposition,
    recover,
    roundtrip,
)


def T(entries):
    return BigradedTable(entries, HOM_POLY)


def couple_sequence(d):
    """The page sequence read off the derived model couple of d, as
    corpus.cross_checks builds it."""
    return padded_sequence(d.k, couple_tables(d, torsion_width(d) + 1))


class TestPageSequence:
    def test_requires_pages(self):
        with pytest.raises(InconsistentPages, match="no pages"):
            PageSequence(1, [])

    def test_requires_hom_poly_tables(self):
        with pytest.raises(ValueError, match="not a .* table"):
            PageSequence(1, [BigradedTable({(0, 0): 1}, PAGE)])

    def test_tau_from_first_page(self):
        ps = PageSequence(1, [T({(1, 0): 1, (0, 4): 1})] * 3)
        # spread of 2i + s is 2, so tau = (2 + 2) // 2
        assert ps.tau == 2
        assert len(ps) == 3
        assert ps.page(2) == T({(1, 0): 1, (0, 4): 1})
        with pytest.raises(IndexError):
            ps.page(4)

    def test_growth_rejected(self):
        with pytest.raises(InconsistentPages, match="grows at"):
            PageSequence(1, [T({(0, 0): 1}), T({(0, 0): 2})])

    def test_too_short_rejected(self):
        with pytest.raises(InconsistentPages, match="need 3 pages"):
            PageSequence(1, [T({(1, 0): 1, (0, 4): 1})])

    def test_post_stable_change_rejected(self):
        stable = T({(0, 0): 1})
        with pytest.raises(InconsistentPages, match="differs from the stable"):
            PageSequence(1, [stable, stable, T(())])

    def test_empty_sequence_is_fine(self):
        ps = PageSequence(2, [T(())])
        assert ps.tau == 0
        assert recover(ps) == Decomposition(2)


class TestRecover:
    def test_free_only(self):
        page = T({(0, 2): 2, (3, -1): 1})
        # spread of 2i + s is 3, so tau = 2 and three pages are required
        d = recover(PageSequence(1, [page, page, page]))
        assert d == Decomposition(1, ((0, 2), (0, 2), (3, -1)), ())

    def test_torsion_peeling(self):
        both = T({(1, 0): 1, (0, 4): 1})
        d = recover(PageSequence(1, [both, both, T(())]))
        assert d == Decomposition(1, (), ((1, 2, 0),))

    def test_width_one_vs_two_distinguished(self):
        # the same two classes, but gone already on page 2: width 1
        # forces the pairing (0, 4) on top of (1, 0) to read k m = 2,
        # which no width-1 piece provides, so the pair must be (1, 0)
        # over (-1, 8)... which is absent.  Rejected.
        both = T({(1, 0): 1, (0, 4): 1})
        with pytest.raises(InconsistentPages, match="lacks"):
            recover(PageSequence(1, [both, T(()), T(())]))

    def test_missing_partner_rejected(self):
        p1 = T({(1, 0): 1, (0, 4): 1})
        p2 = T({(1, 0): 1})
        with pytest.raises(InconsistentPages, match="lacks 1 classes at \\(0, 4\\)"):
            recover(PageSequence(1, [p1, p2, T(())]))

    def test_multiplicity_two(self):
        both = T({(1, 0): 2, (0, 4): 2})
        d = recover(PageSequence(1, [both, both, T(())]))
        assert d.torsion_pieces == ((1, 2, 0), (1, 2, 0))

    def test_mixed_free_and_torsion(self):
        p1 = T({(0, 2): 1, (1, 0): 1, (0, 4): 1})
        stable = T({(0, 2): 1})
        d = recover(PageSequence(1, [p1, p1, stable]))
        assert d == Decomposition(1, ((0, 2),), ((1, 2, 0),))


class TestPagesFromDecomposition:
    def test_fixture_sequence(self):
        d = Decomposition(1, (), ((1, 2, 0),))
        ps = pages_from_decomposition(d)
        assert len(ps) == 3
        assert ps.page(1) == T({(1, 0): 1, (0, 4): 1})
        assert ps.page(2) == T({(1, 0): 1, (0, 4): 1})
        assert ps.page(3) == T(())

    def test_padding_repeats_stable_page(self):
        # tw = 1 gives two computed pages, but tau can demand more
        d = Decomposition(1, ((0, 0), (5, 0)), ((1, 1, 0),))
        ps = pages_from_decomposition(d)
        assert len(ps) == ps.tau + 1
        assert ps.page(len(ps)) == ps.page(2)

    def test_couple_route_matches(self):
        rng = random.Random(50)
        for _ in range(8):
            d = random_decomposition(rng)
            a = pages_from_decomposition(d)
            b = couple_sequence(d)
            assert a.k == b.k and len(a) == len(b)
            assert all(a.page(r) == b.page(r) for r in range(1, len(a) + 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    d = random_decomposition(random.Random(seed))
    assert roundtrip(d)


def test_roundtrip_couple_sample():
    rng = random.Random(51)
    for _ in range(6):
        d = random_decomposition(rng)
        assert recover(couple_sequence(d)) == d
