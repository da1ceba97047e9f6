"""Splitting complexes into elementary pieces and the derived invariants."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import direct_sum, homology_structure
from frozen_cube import reference_sl2_cube
from twkit.algebra import BigradedTable
from twkit.complexes import InternalError, complex_from_data
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import (
    Decomposition,
    _clear_pivot_column,
    _split_pieces,
    decompose,
    hn_table,
    reassemble,
    thickness,
    torsion_width,
)
from twkit.exactla import canonical, column_index
from twkit.links import LinkDiagram, Sl2Potential
from twkit.pages import PageTable


def dropped_pairs(c):
    """The contractible pairs decompose drops, by rank accounting:
    total rank = |free| + 2 |torsion| + 2 dropped."""
    d = decompose(c)
    return (c.total_rank() - len(d.free_pieces) - 2 * len(d.torsion_pieces)) / 2


def torsion_fixture():
    # 0 -> k[a]{4} --a^2--> k[a]{0} -> 0 at degrees 0, 1
    return complex_from_data(1, {0: [4], 1: [0]}, {0: [[1]]})


class TestDecompositionContainer:
    def test_sorted_multisets(self):
        d = Decomposition(2, ((1, 4), (0, 0)), ((2, 1, 0), (0, 3, -2)))
        assert d.free_pieces == ((0, 0), (1, 4))
        assert d.torsion_pieces == ((0, 3, -2), (2, 1, 0))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Decomposition(1, (), ((0, 0, 0),))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            Decomposition(0)


class TestDecompose:
    def test_torsion_fixture(self):
        d = decompose(torsion_fixture())
        assert d == Decomposition(1, (), ((1, 2, 0),))

    def test_free_fixture(self):
        d = decompose(complex_from_data(3, {7: [0]}, {}))
        assert d == Decomposition(3, ((7, 0),), ())

    def test_invertible_differential_is_contractible(self):
        c = complex_from_data(1, {0: [0, 0], 1: [0, 0]}, {0: [[1, 1], [0, 1]]})
        assert decompose(c) == Decomposition(1)
        assert dropped_pairs(c) == 2

    def test_mixed_pivot_elimination(self):
        # the unit pivot eats one pair; the a-entry survives as torsion
        c = complex_from_data(1, {0: [2, 0], 1: [0, 0]}, {0: [[1, 1], [1, 0]]})
        assert decompose(c) == Decomposition(1, (), ((1, 1, 0),))
        assert dropped_pairs(c) == 1

    def test_scalars_do_not_matter(self):
        for scalar in ("1", "-3", "2/7"):
            c = complex_from_data(2, {0: [4], 1: [0]}, {0: [[scalar]]})
            assert decompose(c).torsion_pieces == ((1, 1, 0),)

    def test_basis_change_invariance_sample(self):
        rng = random.Random(40)
        for _ in range(10):
            d = random_decomposition(rng)
            c = reassemble(d)
            assert decompose(conjugate(rng, c)) == d


class TestTables:
    def test_homology_structure(self):
        d = Decomposition(1, ((0, 2),), ((1, 2, 0),))
        hs = homology_structure(d)
        assert sorted(hs) == [0, 1]
        assert hs[0].free_shifts == (2,) and hs[0].torsions == ()
        assert hs[1].free_shifts == () and hs[1].torsions == ((2, 0),)

    def test_hn_table_pairs(self):
        d = decompose(torsion_fixture())
        assert hn_table(d) == BigradedTable({(1, 0): 1, (0, 4): 1})

    def test_hn_dimension_accounting(self):
        rng = random.Random(8)
        for _ in range(20):
            d = random_decomposition(rng)
            assert hn_table(d).total_dim() == len(d.free_pieces) + 2 * len(
                d.torsion_pieces
            )

    def test_torsion_width(self):
        assert torsion_width(Decomposition(1)) == 0
        assert torsion_width(Decomposition(1, (), ((0, 3, 0), (1, 1, 2)))) == 3


class TestThickness:
    def test_two_entry_example(self):
        t = BigradedTable({(0, 0): 1, (1, -4): 1})
        assert thickness(t) == (2, 2)

    def test_single_entry(self):
        assert thickness(BigradedTable({(3, 5): 2})) == (1, None)

    def test_wrong_convention(self):
        with pytest.raises(ValueError, match="convention"):
            thickness(PageTable(1, {(0, 0): 1}))

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            thickness(BigradedTable())

    def test_mixed_parity_spread(self):
        t = BigradedTable({(0, 0): 1, (0, 1): 1})
        with pytest.raises(ValueError, match="half-integral"):
            thickness(t)

    def test_mixed_parity_adjacent_gap(self):
        t = BigradedTable({(0, 0): 1, (1, -1): 1, (2, -2): 1})
        with pytest.raises(ValueError, match="half-integral local"):
            thickness(t)

    def test_torsion_width_bounded_by_thickness(self):
        rng = random.Random(13)
        for _ in range(30):
            d = random_decomposition(rng, uniform_parity=True)
            t = hn_table(d)
            if t.is_empty():
                continue
            ht, lht = thickness(t)
            assert d.k * torsion_width(d) <= ht
            if torsion_width(d) >= 1:
                assert lht is not None
                assert d.k * torsion_width(d) <= lht


class TestReassemble:
    def test_round_trip_fixture(self):
        d = Decomposition(2, ((0, 2), (0, 2)), ((1, 3, -4),))
        assert decompose(reassemble(d)) == d

    def test_direct_sum_agrees(self):
        a = torsion_fixture()
        b = complex_from_data(1, {0: [6]}, {})
        d = decompose(direct_sum(a, b))
        assert d == Decomposition(1, ((0, 6),), ((1, 2, 0),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reassemble_round_trip_property(seed):
    d = random_decomposition(random.Random(seed))
    assert decompose(reassemble(d)) == d


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rank_accounting_property(seed):
    d = random_decomposition(random.Random(seed))
    c = reassemble(d)
    assert len(d.free_pieces) + 2 * len(d.torsion_pieces) == c.total_rank()
    assert dropped_pairs(c) == 0


def dense_clear_pivot_column(d, nxt, pivots):
    """The dense column clearing decompose used before it skipped zeros,
    frozen as the reference."""
    l = pivots[0]
    pivot = d[l][0]
    row_l = d[l]
    ratios = []
    for i in pivots[1:]:
        ratio = d[i][0] / pivot
        ratios.append((i, ratio))
        d[i] = [d[i][j] - ratio * row_l[j] for j in range(len(row_l))]
    if nxt is not None:
        for r in range(len(nxt)):
            acc = nxt[r][l]
            for i, ratio in ratios:
                acc += ratio * nxt[r][i]
            if acc:
                raise AssertionError("outgoing column of a split target did not vanish")
            del nxt[r][l]


def random_rows(rng, nr, nc, density):
    return [
        [
            Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def test_clear_pivot_column_matches_dense_reference():
    """Same rows, same deleted column, and the same verdict on whether
    the next differential's column vanished, on seeded sparse and dense
    inputs; half the next differentials are built to pass the check.
    The sparse rows keep canonical values and their column indices
    match their nonzeros."""
    rng = random.Random(31)
    raised = 0
    for _ in range(2000):
        density = rng.choice((0.0, 1.0, rng.random()))
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        d = random_rows(rng, nr, nc, density)
        if nr > 1 and rng.random() < 0.3:
            d[rng.randrange(nr)] = list(d[rng.randrange(nr)])
        d[rng.randrange(nr)][0] = Fraction(rng.choice((-2, 1, 3)))
        pivots = [r for r, row in enumerate(d) if row[0]]
        nxt = None
        if rng.random() < 0.8:
            nxt = random_rows(rng, rng.randint(0, 6), nr, density)
            if rng.random() < 0.5:
                l = pivots[0]
                for row in nxt:
                    row[l] = -sum((d[i][0] / d[l][0] * row[i] for i in pivots[1:]), Fraction(0))
        want_d, want_nxt = copy.deepcopy((d, nxt))
        rows, nxt_rows = sparse_rows(d), sparse_rows(nxt or [])
        holders, nxt_holders = column_index(rows), column_index(nxt_rows)
        try:
            dense_clear_pivot_column(want_d, want_nxt, pivots)
        except AssertionError:
            with pytest.raises(InternalError, match="split target did not vanish"):
                _clear_pivot_column(rows, holders, nxt_rows, nxt_holders, 0, pivots[0])
            raised += 1
            continue
        _clear_pivot_column(rows, holders, nxt_rows, nxt_holders, 0, pivots[0])
        got_nxt = [[row.get(j, 0) for j in range(nr) if j != pivots[0]] for row in nxt_rows]
        assert [[row.get(j, 0) for j in range(nc)] for row in rows] == want_d
        assert got_nxt == (want_nxt or [])
        for sparse, index in ((rows, holders), (nxt_rows, nxt_holders)):
            assert {j: v for j, v in index.items() if v} == column_index(sparse)
            for row in sparse:
                for x in row.values():
                    assert (type(x) is int and x) or (type(x) is Fraction and x.denominator > 1)
    assert 200 < raised < 1800


def sparse_rows(rows):
    """{col: canonical value} rows of dense Fraction rows' nonzeros."""
    return [{c: canonical(x) for c, x in enumerate(row) if x} for row in rows]


# -- the unit-first pivot against the rational step it replaced ---------


def rational_split_pieces(c):
    """decompose's (free, torsion, dropped) as it was before its pivot
    step went fraction-free, frozen as the reference: the first holder
    of the highest target degree is the pivot, and every other holder
    loses its entry over the pivot times the pivot row.  Also returns
    how many of those pivots were not units while a holder tied with
    them held a unit."""
    two_k = c.ring.a_degree
    free, torsion, dropped, ties = [], [], 0, 0
    rows, split = None, set()
    for n in sorted(c.degrees):
        src, tgt = c.degrees[n], c.degrees.get(n + 1, ())
        if rows is None:
            d = c.differentials.get(n)
            rows = [dict(row) for row in d.rows] if d is not None else []
        d = c.differentials.get(n + 1)
        nxt = [dict(row) for row in d.rows] if d is not None else []
        holders, nxt_holders = {}, {}
        for index, mat in ((holders, rows), (nxt_holders, nxt)):
            for r, row in enumerate(mat):
                for col in row:
                    index.setdefault(col, set()).add(r)
        split_next = set()
        for j in sorted(set(range(len(src))) - split, key=lambda j: (src[j], j)):
            cand = holders.get(j)
            if not cand:
                free.append((n, src[j]))
                continue
            l = min(cand, key=lambda r: (-tgt[r], r))
            units = [r for r in cand if tgt[r] == tgt[l] and rows[r][j] in (1, -1)]
            ties += bool(units) and rows[l][j] not in (1, -1)
            pivot = Fraction(rows[l][j])
            ratios = []
            for i in cand - {l}:
                ratio = rows[i][j] / pivot
                ratios.append((i, ratio))
                for col, y in rows[l].items():
                    x = rows[i].get(col, 0) - ratio * y
                    if x:
                        rows[i][col] = x
                        holders.setdefault(col, set()).add(i)
                    else:
                        rows[i].pop(col, None)
                        holders[col].discard(i)
            # column l of nxt after the same row operations vanishes
            acc = {r: nxt[r][l] for r in nxt_holders.get(l, ())}
            for i, ratio in ratios:
                for r in nxt_holders.get(i, ()):
                    acc[r] = acc.get(r, 0) + ratio * nxt[r][i]
            assert not any(acc.values())
            for r in nxt_holders.pop(l, ()):
                del nxt[r][l]
            m = (src[j] - tgt[l]) // two_k
            if m == 0:
                dropped += 1
            else:
                torsion.append((n + 1, m, tgt[l]))
            for col in rows[l]:
                holders[col].discard(l)
            split_next.add(l)
        rows, split = (nxt, split_next) if n + 1 in c.degrees else (None, set())
    return (free, torsion, dropped), ties


FORMS = [Sl2Potential.standard(), Sl2Potential.standard().integral_form()]


@pytest.mark.parametrize("potential", FORMS, ids=["fractional", "integral"])
@pytest.mark.parametrize(
    "word, strands", [("1 " * 7, 2), ("1 2 " * 4, 3), ("1 2 " * 5, 3)], ids=["T(2,7)", "T(3,4)", "T(3,5)"]
)
def test_torus_knots_split_as_the_rational_reference(word, strands, potential):
    """On the frozen builder's cube, the unit-first, fraction-free split
    finds the same pieces in the same order as the rational step."""
    c = reference_sl2_cube(LinkDiagram.from_braid_text(word.strip(), strands), potential)
    pieces, _ = rational_split_pieces(c)
    assert _split_pieces(c) == pieces
    assert decompose(c) == Decomposition(c.ring.k, *pieces[:2])


@pytest.mark.parametrize("potential", FORMS, ids=["fractional", "integral"])
def test_tie_rule_changes_pivots(potential):
    """The comparison above is not vacuous: on the benchmark's largest
    link the default pivot is a non-unit with a unit tied to it several
    times, and the pieces still agree."""
    c = reference_sl2_cube(LinkDiagram.from_braid_text("1 1 1 2 -1 2", 3), potential)
    pieces, ties = rational_split_pieces(c)
    assert ties >= 5
    assert _split_pieces(c) == pieces
