"""Spectral sequence pages: closed forms, assembly, generic referee."""

import random

import pytest

from dense_la import dense_kernel_basis, dense_matvec, dense_rank, dense_rows, sparse_rows
from frozen_pages import reference_assembled_pages
from twkit import exactla
from twkit.algebra import GradedModuleDescriptor
from twkit.complexes import FilteredFieldComplex, specialize_a_to_1
from twkit.corpus import conjugate, random_decomposition, summed_piece_pages
from twkit.decompose import Decomposition, hn_table, reassemble, torsion_width
from twkit.pages import (
    PageTable,
    assembled_pages,
    collapse_page,
    generic_pages,
    piece_pages,
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
    def test_free_piece_is_constant(self):
        for r in (0, 1, 5, 100):
            p = piece_pages((2, -3), True, r, k=2)
            assert p.items() == [((-3, 5), 1)]
        m = piece_pages((2, -3), False, 4, k=2)
        assert m.items() == [((-3, 5), GradedModuleDescriptor((-3,), ()))]

    def test_torsion_hat_transition(self):
        # (i, m, s) = (1, 2, 0), k = 1: both classes up to r = 2km = 4,
        # nothing from r = 5 on
        piece = (1, 2, 0)
        for r in range(1, 5):
            p = piece_pages(piece, True, r, k=1)
            assert p.items() == [((0, 1), 1), ((4, -4), 1)]
        for r in (5, 6, 10):
            assert piece_pages(piece, True, r, k=1).is_empty()

    def test_torsion_module_transition(self):
        piece = (1, 2, 0)
        before = piece_pages(piece, False, 4, k=1)
        assert before.items() == [
            ((0, 1), GradedModuleDescriptor((0,), ())),
            ((4, -4), GradedModuleDescriptor((4,), ())),
        ]
        after = piece_pages(piece, False, 5, k=1)
        assert after.items() == [((0, 1), GradedModuleDescriptor((), ((2, 0),)))]

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            piece_pages((0, 0, 0), True, 1, k=1)
        with pytest.raises(ValueError):
            piece_pages((0, 0), True, -1, k=1)


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
        """One dict and one PageTable give the pages the merge-per-piece
        loop gave, on seeded decompositions with many pieces that share
        positions."""
        rng = random.Random(47)
        for n in range(60):
            d = random_decomposition(rng, max_generators=rng.choice((4, 40, 120)), degree_span=(-6, 6))
            for r in (1, 2, 3, 5, 7, 13):
                for hat in (True, False):
                    want = reference_assembled_pages(d, hat, r)
                    got = assembled_pages(d, hat, r)
                    assert got == want
                    assert got.items() == want.items()
                    assert got.same_entries(summed_piece_pages(d, hat, r))


# -- frozen reference: generic pages from three kernel bases per
# (degree, level), as computed before the rank profile replaced them


def _lowered_kernel(levels, out_levels, d_out, p, bound):
    """Basis, in full coordinates, of the space of chains supported on
    filtration <= p whose differential lands in filtration <= bound."""
    cols = [j for j, lv in enumerate(levels) if lv <= p]
    rows = [t for t, lv in enumerate(out_levels) if lv > bound]
    sub = [[d_out[t][j] for j in cols] for t in rows]
    vecs = []
    for v in dense_kernel_basis(sub, ncols=len(cols)):
        full = [0] * len(levels)
        for idx, j in enumerate(cols):
            full[j] = v[idx]
        vecs.append(full)
    return vecs


def _boundary_gens(levels, in_levels, d_in, p, source_bound):
    """Images d(y), in full coordinates, of chains y supported on
    filtration <= source_bound with d(y) in filtration <= p."""
    return [dense_matvec(d_in, y) for y in _lowered_kernel(in_levels, levels, d_in, source_bound, p)]


def dense_matrix(c, n):
    """c's differential out of degree n as dense rows, all zero when
    it is absent."""
    return dense_rows(c.mats.get(n, ({},) * c.rank(n + 1)), c.rank(n))


def reference_generic_pages(c, r):
    """E_r at (p, q) as len(Z_r) - rank(Z_{r-1} one step down + B_{r-1})."""
    if r < 0:
        raise ValueError("page index must be >= 0")
    entries = {}
    for n in sorted(c.degrees):
        levels = c.degrees[n]
        in_levels = c.degrees.get(n - 1, ())
        out_levels = c.degrees.get(n + 1, ())
        d_out = dense_matrix(c, n)
        d_in = dense_matrix(c, n - 1)
        for p in sorted(set(levels)):
            z_r = _lowered_kernel(levels, out_levels, d_out, p, p - r)
            if not z_r:
                continue
            z_prev = _lowered_kernel(levels, out_levels, d_out, p - 1, p - r)
            bounds = _boundary_gens(levels, in_levels, d_in, p, p + r - 1)
            dim = len(z_r) - dense_rank(z_prev + bounds)
            if dim:
                entries[(p, n - p)] = dim
    return PageTable(r, entries, True)


def draw_decomposition(rng, k, max_generators, torsion=False):
    """A corpus.random_decomposition with this k (and, if asked, a
    torsion piece), by rejection."""
    while True:
        d = random_decomposition(rng, max_generators=max_generators)
        if d.k == k and (d.torsion_pieces or not torsion):
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
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_seeded_complexes(self, k):
        rng = random.Random(400 + k)
        for _ in range(10):
            d = draw_decomposition(rng, k, 16, torsion=True)
            for c in (reassemble(d), conjugate(rng, reassemble(d))):
                fc = specialize_a_to_1(c)
                for r in page_range(d):
                    assert generic_pages(fc, r) == reference_generic_pages(fc, r), (d, r)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_complexes(self, name):
        degrees, mats = HAND_BUILT[name]
        fc = FilteredFieldComplex(degrees, {i: sparse_rows(rows) for i, rows in mats.items()})
        for r in range(0, 12):
            assert generic_pages(fc, r) == reference_generic_pages(fc, r), r

    def test_order_of_queries_does_not_matter(self):
        rng = random.Random(77)
        d = draw_decomposition(rng, 2, 12, torsion=True)
        fc = specialize_a_to_1(conjugate(rng, reassemble(d)))
        rs = list(page_range(d))
        want = {r: reference_generic_pages(fc, r) for r in rs}
        for r in rs[::-1] + rs:
            assert generic_pages(fc, r) == want[r], r

    def test_profile_is_built_once_per_complex(self, monkeypatch):
        rng = random.Random(5)
        d = draw_decomposition(rng, 1, 12, torsion=True)
        fc = specialize_a_to_1(conjugate(rng, reassemble(d)))
        calls = []
        row_reduce = exactla.row_reduce
        monkeypatch.setattr(
            exactla, "row_reduce", lambda rows: calls.append(1) or row_reduce(rows)
        )
        generic_pages(fc, 0)
        built = len(calls)
        assert built
        for r in page_range(d):
            generic_pages(fc, r)
        assert len(calls) == built


class TestGenericPages:
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
