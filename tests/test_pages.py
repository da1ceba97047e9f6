"""Spectral sequence pages: closed forms, assembly, generic referee."""

import random
import re

import pytest

from dense_la import sparse_rows
from frozen_pages import piece_pages, rank_difference_pages, reference_page_by_page_list
from twkit import exactla
from twkit.algebra import GradedModuleDescriptor
from twkit.complexes import FilteredFieldComplex, InternalError, specialize_a_to_1
from twkit.corpus import conjugate, random_decomposition, summed_piece_pages
from twkit.decompose import Decomposition, decompose, hn_table, reassemble, torsion_width
from twkit.links import LinkDiagram, Sl2Potential, build_sl2_cube
from twkit.pages import (
    PageTable,
    assembled_pages,
    collapse_page,
    assembled_page_list,
    generic_page_list,
    generic_pages,
    piece_entries,
    stabilization_page,
)


class TestPageTable:
    def test_hat_rejects_descriptors(self):
        with pytest.raises(ValueError, match="dimensions"):
            PageTable(1, {(0, 0): GradedModuleDescriptor((0,), ())}, hat=True)

    def test_module_rejects_dimensions(self):
        with pytest.raises(ValueError, match="descriptors"):
            PageTable(1, {(0, 0): 1}, hat=False)

    def test_zero_entries_dropped(self):
        p = PageTable(1, {(0, 0): 0, (1, 1): 2})
        assert p.support() == [(1, 1)]
        assert p.get(0, 0) == 0
        q = PageTable(1, {(0, 0): GradedModuleDescriptor()}, hat=False)
        assert q.is_empty()
        assert q.get(0, 0) == GradedModuleDescriptor()

    def test_entries_given_twice_add_up(self):
        assert PageTable(1, [((0, 0), 1), ((1, 1), 2), ((0, 0), 3)]).items() == [((0, 0), 4), ((1, 1), 2)]
        tower, torsion = GradedModuleDescriptor((0,)), GradedModuleDescriptor((), ((1, 0),))
        q = PageTable(1, [((0, 0), tower), ((0, 0), torsion)], hat=False)
        assert q.items() == [((0, 0), GradedModuleDescriptor((0,), ((1, 0),)))]

    def test_same_entries_ignores_index(self):
        a = PageTable(1, {(0, 0): 1})
        b = PageTable(5, {(0, 0): 1})
        assert a.same_entries(b)
        assert a != b

    def test_module_page_has_no_dimension_table(self):
        with pytest.raises(ValueError):
            PageTable(1, (), hat=False).table()


class TestConversionPair:
    """PageTable.from_hom_poly and PageTable.to_hom_poly, the one move
    between (i, s) tables and (p, q) pages, are inverse on hat pages."""

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trips_on_random_decompositions(self, seed):
        rng = random.Random(seed)
        d = random_decomposition(rng)
        fc = specialize_a_to_1(conjugate(rng, reassemble(d)))
        hn = hn_table(d)
        for r in range(1, 2 * d.k * torsion_width(d) + 4):
            for page in (assembled_pages(d, True, r), generic_pages(fc, r)):
                assert PageTable.from_hom_poly(r, page.to_hom_poly()) == page, (d, r)
            assert PageTable.from_hom_poly(r, hn).to_hom_poly() == hn, (d, r)
            module = assembled_pages(d, False, r)
            with pytest.raises(ValueError, match="^module page has no single dimension table$"):
                module.to_hom_poly()
            with pytest.raises(ValueError, match="^module page has no single dimension table$"):
                module.table()

    def test_positions(self):
        # (i, s) -> (p, q) = (s, i - s), and back by (p + q, p)
        page = PageTable.from_hom_poly(3, hn_table(Decomposition(1, ((2, 5),), ((1, 1, 0),))))
        assert page.r == 3 and page.hat
        assert page.items() == [((0, 1), 1), ((2, -2), 1), ((5, -3), 1)]
        assert page.to_hom_poly().items() == [((0, 2), 1), ((1, 0), 1), ((2, 5), 1)]


class TestPiecePages:
    """The closed form of one piece, pages.piece_entries."""

    def test_free_piece_is_constant(self):
        for r in (0, 1, 5, 100):
            assert piece_entries((2, -3), True, r, k=2) == [((-3, 5), 1)]
        assert piece_entries((2, -3), False, 4, k=2) == [((-3, 5), GradedModuleDescriptor((-3,), ()))]

    def test_torsion_hat_transition(self):
        # (i, m, s) = (1, 2, 0), k = 1: both classes up to r = 2km = 4,
        # nothing from r = 5 on
        piece = (1, 2, 0)
        for r in range(1, 5):
            assert piece_entries(piece, True, r, k=1) == [((0, 1), 1), ((4, -4), 1)]
        for r in (5, 6, 10):
            assert piece_entries(piece, True, r, k=1) == []

    def test_torsion_module_transition(self):
        piece = (1, 2, 0)
        assert piece_entries(piece, False, 4, k=1) == [
            ((0, 1), GradedModuleDescriptor((0,), ())),
            ((4, -4), GradedModuleDescriptor((4,), ())),
        ]
        assert piece_entries(piece, False, 5, k=1) == [((0, 1), GradedModuleDescriptor((), ((2, 0),)))]

    def test_zero_width_rejected(self):
        # and a negative page index, and r < 1 in the assembled pages
        for piece in ((0, 0), (1, 2, 0)):
            with pytest.raises(ValueError, match="^page index must be >= 0$"):
                piece_entries(piece, True, -1, k=1)
        for hat in (True, False):
            with pytest.raises(ValueError, match="^torsion piece needs m >= 1$"):
                piece_entries((0, 0, 0), hat, 1, k=1)
        d = Decomposition(1, ((0, 0),), ((1, 1, 0),))
        for rs in ([0], [1, 0, 2], [-1]):
            with pytest.raises(ValueError, match="^assembled pages start at r = 1$"):
                assembled_page_list(d, True, rs)

    def test_matches_the_frozen_piece_pages(self):
        """Hat and module entries on both sides of each torsion piece's
        cut 2km + 1, with the refusals, as piece_pages(...).items() gave
        them."""
        pieces = [(2, -3), (0, 7), (1, 1, 0), (-2, 3, 5), (0, 2, -4)]
        for k in (1, 2, 3):
            for piece in pieces + [(0, 0, 0), (1, -1, 2)]:
                for r in range(-2, 2 * k * 3 + 4):
                    for hat in (True, False):
                        try:
                            want = piece_pages(piece, hat, r, k).items()
                        except ValueError as e:
                            with pytest.raises(ValueError, match="^%s$" % re.escape(str(e))):
                                piece_entries(piece, hat, r, k)
                            continue
                        assert piece_entries(piece, hat, r, k) == want, (piece, hat, r, k)


class TestAssembledPages:
    def test_torsion_fixture_sequence(self):
        d = Decomposition(1, (), ((1, 2, 0),))
        for r in range(1, 5):
            assert assembled_pages(d, True, r).items() == [
                ((0, 1), 1),
                ((4, -4), 1),
            ]
        assert assembled_pages(d, True, 5).is_empty()

    def test_zeroth_page_refused(self):
        with pytest.raises(ValueError, match="r = 1"):
            assembled_pages(Decomposition(1), True, 0)

    def test_free_multiplicities(self):
        d = Decomposition(2, ((0, 0), (0, 0), (3, 0)), ())
        p = assembled_pages(d, True, 7)
        assert p.items() == [((0, 0), 2), ((0, 3), 1)]

    def test_matches_piece_sum(self):
        rng = random.Random(31)
        for _ in range(15):
            d = random_decomposition(rng)
            for r in (1, 2, 3, 7):
                a = assembled_pages(d, True, r)
                s = summed_piece_pages(d, True, r)
                assert a.same_entries(s)
                am = assembled_pages(d, False, r)
                sm = summed_piece_pages(d, False, r)
                assert am.same_entries(sm)

    def test_matches_frozen_merge_loop(self):
        """One PageTable per block of r gives the pages the merge-per-piece
        loop gave, which are the page-by-page reference's
        (tests/frozen_pages.py), through assembled_page_list (its r out
        of order and repeated), assembled_pages and the piece sums, on
        seeded decompositions with many pieces that share positions."""
        rng = random.Random(47)
        rs = [1, 2, 3, 5, 7, 13, 7, 1]
        for n in range(60):
            d = random_decomposition(rng, max_generators=rng.choice((4, 40, 120)), degree_span=(-6, 6))
            for hat in (True, False):
                for r, got, want in zip(rs, assembled_page_list(d, hat, rs), reference_page_by_page_list(d, hat, rs)):
                    assert got == want and got.items() == want.items(), (d, hat, r)
                    assert assembled_pages(d, hat, r) == want, (d, hat, r)
                    assert summed_piece_pages(d, hat, r) == want, (d, hat, r)


def draw_decomposition(rng, k, max_generators, torsion=False, exact=False):
    """A corpus.random_decomposition with this k (and, if asked, a
    torsion piece, and exactly max_generators generators), by rejection."""
    while True:
        d = random_decomposition(rng, max_generators=max_generators)
        size = len(d.free_pieces) + 2 * len(d.torsion_pieces)
        if d.k == k and (d.torsion_pieces or not torsion) and (size == max_generators or not exact):
            return d


def page_range(d):
    """r = 0 through 2k tw + 3: every page up to past the collapse."""
    return range(0, 2 * d.k * torsion_width(d) + 4)


# filtered complexes with one feature each, as dense cells; d^2 = 0
# and the level rule are checked on construction
HAND_BUILT = {
    # degree 0 empty, non-contiguous levels, top degree 2 with no
    # outgoing map
    "empty degree": (
        {-2: (1,), -1: (1, 0), 1: (5, 2), 2: (2, 0)},
        {-2: [[1], [0]], 1: [[1, 3], [0, -2]]},
    ),
    "tied levels": (
        {0: (3, 3, 3, 1), 1: (3, 3, 1, 1)},
        {0: [[1, 1, 0, 0], [2, 2, 0, 0], [0, 1, 0, 1], [1, 0, 0, 0]]},
    ),
    "non-contiguous levels": (
        {0: (9, 4, 4, 0), 1: (9, 4, 0, -3), 2: (-3, -8)},
        {0: [[1, 0, 0, 0], [2, 0, 1, 0], [0, 0, 0, 0], [3, 5, 0, -1]], 1: [[0, 0, 0, 0], [0, 0, 0, 0]]},
    ),
    "d squared through a middle degree": (
        {0: (2, 0), 1: (2, 1, 0), 2: (0,)},
        {0: [[1, 0], [0, 0], [0, 1]], 1: [[0, 1, 0]]},
    ),
    "zero differential": ({0: (0, 2), 1: (1,)}, {0: [[0, 0]]}),
    "no differential": ({4: (7, 7, -1)}, {}),
}


class TestGenericPagesAgainstReference:
    """generic_page_list, and generic_pages in any order of queries,
    against the one reference, the rank differences of
    tests/frozen_pages.py."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_seeded_complexes(self, k):
        rng = random.Random(400 + k)
        # ten small complexes, then one of exactly 20 k generators, a
        # corpus document's size
        for generators, exact in [(16, False)] * 10 + [(20 * k, True)]:
            d = draw_decomposition(rng, k, generators, torsion=True, exact=exact)
            for c in (reassemble(d), conjugate(rng, reassemble(d))):
                fc = specialize_a_to_1(c)
                want = rank_difference_pages(fc, page_range(d))
                assert [generic_pages(fc, r) for r in page_range(d)] == want, d
                assert generic_page_list(fc, page_range(d)) == want, d

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_complexes(self, name):
        # generic_pages one page at a time on these complexes is
        # TestPairingAgainstRankDifferences::test_hand_built_complexes
        degrees, mats = HAND_BUILT[name]
        fc = FilteredFieldComplex(degrees, {i: sparse_rows(rows) for i, rows in mats.items()})
        assert generic_page_list(fc, range(0, 12)) == rank_difference_pages(fc, range(0, 12))

    def test_order_of_queries_does_not_matter(self):
        rng = random.Random(77)
        d = draw_decomposition(rng, 2, 12, torsion=True)
        fc = specialize_a_to_1(conjugate(rng, reassemble(d)))
        rs = list(page_range(d))
        want = dict(zip(rs, rank_difference_pages(fc, rs)))
        for r in rs[::-1] + rs:
            assert generic_pages(fc, r) == want[r], r
        assert generic_page_list(fc, rs[::-1] + rs) == [want[r] for r in rs[::-1] + rs]

    def test_profile_is_built_once_per_complex(self, monkeypatch):
        """The pairing's pivot steps all run on the first query; no later
        page, in any order, takes another."""
        rng = random.Random(5)
        d = draw_decomposition(rng, 1, 12, torsion=True)
        fc = specialize_a_to_1(conjugate(rng, reassemble(d)))
        calls = []
        clear_column = exactla.clear_column
        monkeypatch.setattr(
            exactla, "clear_column", lambda *args: calls.append(1) or clear_column(*args)
        )
        generic_pages(fc, 0)
        built = len(calls)
        assert built
        rs = list(page_range(d))
        for r in rs[::-1] + rs:
            generic_pages(fc, r)
        assert len(calls) == built


def assert_pairing_matches_rank_differences(fc, rs):
    rs = list(rs)
    assert [generic_pages(fc, r) for r in rs] == rank_difference_pages(fc, rs)


class TestPairingAgainstRankDifferences:
    """generic_pages, the persistence pairing, against the rank-difference
    route it replaced (tests/frozen_pages.py), page by page."""

    @pytest.mark.parametrize(
        "word, strands",
        [("1 1 1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 2 -1 2", 3), ("1 2 " * 4, 3), ("1 " * 8, 2), ("1 2 " * 5, 3)],
        ids=["T(2,5)", "1 -2 1 -2", "1 1 1 2 -1 2", "T(3,4)", "T(2,8)", "T(3,5)"],
    )
    def test_cube_rungs(self, word, strands):
        # the cube twkit link builds for the braid
        c = build_sl2_cube(LinkDiagram.from_braid_text(word.strip(), strands), Sl2Potential.standard().integral_form())
        assert_pairing_matches_rank_differences(specialize_a_to_1(c), page_range(decompose(c)))

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_complexes(self, name):
        degrees, mats = HAND_BUILT[name]
        fc = FilteredFieldComplex(degrees, {i: sparse_rows(rows) for i, rows in mats.items()})
        assert_pairing_matches_rank_differences(fc, range(0, 12))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conjugated_corpus_complexes(self, k):
        """70 conjugated complexes of up to 40 generators per k."""
        rng = random.Random(2600 + k)
        for _ in range(70):
            d = draw_decomposition(rng, k, 40)
            fc = specialize_a_to_1(conjugate(rng, reassemble(d)))
            assert_pairing_matches_rank_differences(fc, page_range(d))


class TestGenericPages:
    def test_raised_level_is_an_internal_error(self):
        # source 0 of degree 0 at level 1 meets target 1 of degree 1 at
        # level 2, which only an unvalidated complex lets through
        fc = FilteredFieldComplex({0: (1,), 1: (0, 2)}, {0: ({}, {0: 1})}, validate=False)
        with pytest.raises(InternalError, match=r"^internal error in pages: d\^0 pairs source 0 at level 1 "
                                                r"with target 1 at level 2 above it$") as caught:
            generic_pages(fc, 1)
        assert caught.value.stage == "pages"

    def test_referee_on_fixture(self):
        d = Decomposition(1, ((0, 2),), ((1, 2, 0), (2, 1, -6)))
        fc = specialize_a_to_1(reassemble(d))
        for r in range(1, 7):
            assert generic_pages(fc, r).same_entries(assembled_pages(d, True, r))

    def test_page_zero_allowed(self):
        d = Decomposition(1, (), ((1, 1, 0),))
        fc = specialize_a_to_1(reassemble(d))
        p = generic_pages(fc, 0)
        # before any differential acts, both generators are present
        assert p.items() == [((0, 1), 1), ((2, -2), 1)]

    def test_monotone_in_r(self):
        rng = random.Random(91)
        for _ in range(10):
            d = random_decomposition(rng)
            fc = specialize_a_to_1(reassemble(d))
            prev = None
            for r in range(1, 2 * d.k * 3 + 3):
                cur = generic_pages(fc, r)
                if prev is not None:
                    for pos, dim in cur.items():
                        assert dim <= prev.get(*pos)
                prev = cur


def euler_characteristic(page):
    """Alternating sum over total degree p + q; a page-turn invariant."""
    out = 0
    for (p, q), dim in page.items():
        out += dim if (p + q) % 2 == 0 else -dim
    return out


def test_euler_characteristic_constant_across_pages():
    rng = random.Random(17)
    for _ in range(10):
        d = random_decomposition(rng)
        chis = {
            euler_characteristic(assembled_pages(d, True, r)) for r in range(1, 9)
        }
        assert len(chis) == 1


class TestCollapse:
    def test_no_torsion_collapses_immediately(self):
        assert collapse_page(Decomposition(3, ((0, 0),), ())) == 1

    def test_collapse_index(self):
        d = Decomposition(2, (), ((1, 3, 0),))
        assert collapse_page(d) == 13

    def test_stabilization_scan(self):
        d = Decomposition(1, (), ((1, 2, 0),))
        fc = specialize_a_to_1(reassemble(d))
        tables = [generic_pages(fc, r) for r in range(1, 8)]
        assert stabilization_page(tables) == 5 == collapse_page(d)

    def test_stabilization_needs_input(self):
        with pytest.raises(ValueError):
            stabilization_page([])

    def test_stabilization_of_constant_sequence(self):
        tables = [PageTable(r, {(0, 0): 1}) for r in range(1, 5)]
        assert stabilization_page(tables) == 1
