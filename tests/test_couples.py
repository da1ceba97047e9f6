"""Exact couples: construction, derivation, agreement with the pages."""

import gc
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import frozen_couples
from builders import is_canonical
from dense_la import dense_matmul, dense_solve, sparse_rows
from frozen_couples import _cols_to_rows, dense_map, reference_check_exactness, reference_derive, sparse_maps
from twkit import corpus, couples, exactla
from twkit.algebra import BigradedTable
from twkit.complexes import InternalError
from twkit.corpus import cross_checks, random_decomposition
from twkit.couples import (
    CorrespondenceResult,
    ExactCouple,
    InsufficientWindow,
    correspondence_check,
    couple_from_decomposition,
    couple_pages,
    couple_tables,
)
from twkit.decompose import Decomposition, hn_table, torsion_width
from twkit.pages import PageTable, assembled_pages


def width_two_fixture():
    return Decomposition(1, (), ((1, 2, 0),))


# empty, free only, torsion only, m = 1 only, and two towers from one slot
HAND_PICKED = [
    Decomposition(2),
    Decomposition(1, ((0, 0), (0, 0), (2, -4)), ()),
    Decomposition(3, (), ((1, 2, 0), (0, 3, 6), (1, 2, 0))),
    Decomposition(2, ((0, 2),), ((1, 1, 0), (0, 1, 4), (0, 1, 4))),
    Decomposition(1, ((0, 2),), ((0, 1, 0), (0, 2, 0))),
]


def picked_decompositions(seed, count):
    """count seeded decompositions of up to 4, 14 or 40 generators,
    k = 1, 2, 3 in turn, then the hand-picked ones."""
    rng = random.Random(seed)
    picked = []
    while len(picked) < count:
        d = random_decomposition(rng, max_generators=rng.choice((4, 14, 40)))
        if d.k == 1 + len(picked) % 3:
            picked.append(d)
    return picked + HAND_PICKED


class TestModelCouple:
    def test_first_page_is_the_mod_a_table(self):
        rng = random.Random(6)
        for _ in range(12):
            d = random_decomposition(rng)
            assert frozen_couples.couple_from_decomposition(d).e_table() == hn_table(d)
            assert couple_tables(d, 1) == [hn_table(d)]

    def test_free_towers_truncate_at_window_top(self):
        d = Decomposition(1, ((0, 0),), ())
        c = couple_from_decomposition(d)
        lo, hi = c.window
        slots = [(i, s) for (i, s) in sorted(c._a)]
        assert all(i == 0 and 0 <= s <= hi and s % 2 == 0 for i, s in slots)
        assert c.a_dim(0, 0) == 1
        # f is injective on an infinite tower window except at the top
        assert c._f[(0, hi - 2)] == ({0: 1},)

    def test_torsion_tower_length(self):
        d = width_two_fixture()
        c = couple_from_decomposition(d)
        assert c.a_dim(1, 0) == 1 and c.a_dim(1, 2) == 1
        assert c.a_dim(1, 4) == 0
        # h carries the top class of E one degree up into the tower
        assert c._h[(0, 4)] == ({0: 1},)

    def test_empty_decomposition(self):
        c = couple_from_decomposition(Decomposition(2))
        assert c.is_trivial()
        assert c.derive().is_trivial()

    def test_one_piece_matches_the_frozen_builder(self):
        """The model couple of each piece, alone, against the frozen
        builder's for the same one piece: window, dimensions, maps in
        stored order and which of them are one object; with derivations
        given, only the window differs.  The pieces are those of 60
        seeded decompositions of up to 14 generators, and those of
        picked_decompositions(71, 240) (k = 1, 2, 3 in turn, then the
        hand-picked ones: empty, free only, torsion only, m = 1 only,
        and two towers from one slot)."""
        rng = random.Random(71)
        drawn = [random_decomposition(rng, max_generators=14) for _ in range(60)]
        counts = []
        for ds in (drawn, picked_decompositions(71, 240)):
            pieces = shared = 0
            for d in ds:
                for one in [Decomposition(d.k, (p,)) for p in d.free_pieces] + [
                    Decomposition(d.k, (), (p,)) for p in d.torsion_pieces
                ]:
                    want = model_state(frozen_couples.couple_from_decomposition(one))
                    assert model_state(couple_from_decomposition(one)) == want, one
                    c = couple_from_decomposition(one, 5)
                    lo, hi = want[1]
                    pad = 2 * d.k * (torsion_width(one) + 2)
                    assert c.window == (lo + pad - 10 * d.k, hi - pad + 10 * d.k), one
                    pieces += 1
                    shared += len(want[6]) > len(set(want[6]))
            counts.append((pieces, shared))
        # pieces, and pieces whose maps share one object, per input set
        assert counts[0][0] > 150 and counts[1][0] > 240 and counts[1][1] > 200, counts
        with pytest.raises(ValueError, match="^a model couple holds one piece$"):
            couple_from_decomposition(Decomposition(1, ((0, 0), (1, 2))))

    def test_window_padding_supports_enough_derivations(self):
        d = width_two_fixture()
        c = couple_from_decomposition(d)
        for _ in range(torsion_width(d) + 2):
            c = c.derive()


class TestValidation:
    def test_exactness_enforced(self):
        # lone A tower with f = 0 in the interior: ker f != im h
        with pytest.raises(ValueError, match="exactness"):
            ExactCouple(
                1,
                (-4, 4),
                {(0, s): 1 for s in (-4, -2, 0, 2, 4)},
                {},
                {},
                {},
                {},
            )

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            ExactCouple(
                1,
                (0, 2),
                {(0, 0): 1, (0, 2): 1},
                {},
                {(0, 0): ({0: 1}, {})},
                {},
                {},
            )
        # a column past the source slot's dimension, or a negative one
        for col in (1, -1):
            with pytest.raises(ValueError, match="^f shape mismatch at \\(0, 0\\)$"):
                ExactCouple(1, (0, 2), {(0, 0): 1, (0, 2): 1}, {}, {(0, 0): ({col: 1},)}, {}, {})

    def test_one_matrix_checked_at_each_of_its_slots(self):
        """f is one held matrix at (0, 0) and at (0, 2): its shape fits
        the first slot and not the second, whose target has two rows."""
        args = 1, (0, 4), {(0, 0): 1, (0, 2): 1, (0, 4): 2}, {}, {(0, 0): ({0: 1},), (0, 2): ({0: 1},)}, {}, {}
        c = ExactCouple(*args, validate=False)
        assert c._f[(0, 0)] is c._f[(0, 2)]
        for check in (c._check_shapes, lambda: ExactCouple(*args)):
            with pytest.raises(ValueError, match="^f shape mismatch at \\(0, 2\\)$"):
                check()

    def test_window_slots(self):
        with pytest.raises(ValueError, match="outside the window"):
            ExactCouple(1, (0, 2), {(0, 8): 1}, {}, {}, {}, {})

    def test_a_dim_outside_window(self):
        c = couple_from_decomposition(width_two_fixture())
        lo, _ = c.window
        with pytest.raises(InsufficientWindow, match="insufficient window"):
            c.a_dim(0, lo - 2)


class TestDerivation:
    def test_torsion_pair_survival(self):
        d = width_two_fixture()
        c = couple_from_decomposition(d)
        # the pair at (1, 0) and (0, 4) persists through page 2 (= one
        # derivation) and dies on page 3
        one = c.derive()
        assert one.e_table() == BigradedTable({(1, 0): 1, (0, 4): 1})
        two = one.derive()
        assert two.e_table().is_empty()

    def test_derived_window_shrinks(self):
        c = couple_from_decomposition(width_two_fixture())
        lo, hi = c.window
        d = c.derive()
        assert d.window == (lo + 2, hi - 2)
        assert d.g_shift == c.g_shift - 2

    def test_window_exhaustion_raises(self):
        # a free piece keeps A alive, so derivations must eventually run
        # out of window; a pure-torsion couple just goes trivial instead
        c = couple_from_decomposition(Decomposition(1, ((0, 0),), ()))
        with pytest.raises(InsufficientWindow, match="^insufficient window"):
            for _ in range(50):
                c = c.derive()
        t = couple_from_decomposition(width_two_fixture())
        for _ in range(50):
            t = t.derive()
        assert t.is_trivial()

    def test_couple_pages_indexing(self):
        d = width_two_fixture()
        c = couple_from_decomposition(d)
        assert couple_pages(c, 1) == hn_table(d)
        assert couple_pages(c, 3).is_empty()
        with pytest.raises(ValueError):
            couple_pages(c, 0)


class TestShapeChains:
    def test_match_the_frozen_document_chain(self):
        """couple_tables against the frozen chain of the whole model
        couple on 200 seeded decompositions and the hand-picked ones, at
        counts 0 .. tw + 8, 40 and 60: the same tables, or the same
        refusal, type and text; about 2 s."""
        refused, answered = Counter(), 0
        for d in picked_decompositions(72, 200):
            for count in [*range(torsion_width(d) + 9), 40, 60]:
                got = outcome(lambda n: couple_tables(d, n), count)
                assert got == outcome(lambda n: frozen_couples.couple_tables(d, n), count), (d, count)
                if got[1] is None:
                    answered += 1
                else:
                    refused[re.match("InsufficientWindow: insufficient window: (cannot derive|A at)", got[1])[1]] += 1
        assert answered > 1500, answered
        assert refused.keys() == {"cannot derive", "A at"} and min(refused.values()) > 200, refused

    def test_one_memo_per_call(self, monkeypatch):
        """The shape chains of one call share one memo, and no call
        reuses another's."""
        memos = []

        class Counted(couples._Eliminations):
            __slots__ = ()

            def __init__(self):
                memos.append(self)
                super().__init__()

        monkeypatch.setattr(couples, "_Eliminations", Counted)
        d = Decomposition(1, ((0, 0), (1, 4)), ((1, 1, 2), (0, 2, 0), (2, 2, 6)))
        for n in range(1, 4):
            assert couple_tables(d, 4) == frozen_couples.couple_tables(d, 4)
            assert len(memos) == n


class TestCorrespondence:
    def test_fixture(self):
        d = width_two_fixture()
        res = correspondence_check(d, torsion_width(d) + 2)
        assert res.ok and bool(res)
        assert res.first_mismatch is None

    def test_derived_page_r_matches_hat_index(self):
        # page r of the couple against hat page 2k(r-1)+1, reindexed
        d = Decomposition(2, ((0, 2),), ((1, 1, 0), (3, 2, -8)))
        c = frozen_couples.couple_from_decomposition(d)
        for r in range(1, torsion_width(d) + 3):
            if r > 1:
                c = c.derive()
            lhs = PageTable.from_hom_poly(2 * d.k * (r - 1) + 1, c.e_table())
            rhs = assembled_pages(d, True, 2 * d.k * (r - 1) + 1)
            assert lhs == rhs, r

    def test_random_sample(self):
        rng = random.Random(44)
        for _ in range(10):
            d = random_decomposition(rng)
            assert correspondence_check(d, torsion_width(d) + 2).ok

    def test_result_truthiness(self):
        bad = CorrespondenceResult(False, 3, 2)
        assert not bad and bad.first_mismatch == 2


def model_state(c):
    """A couple's window, dimensions and maps, each map table as its
    (slot, rows) pairs in stored order, and which stored maps are one
    object: each map's place in the order the distinct objects first
    appear."""
    maps = [list(table.items()) for table in (c._f, c._g, c._h)]
    first = {}
    shared = [first.setdefault(id(rows), len(first)) for table in maps for _, rows in table]
    return (c.k, c.window, c.g_shift, list(c._a.items()), list(c._e.items()), maps, shared, c._pivots)


def couple_state(c):
    """Everything a couple holds, each map as its dense view; every
    stored map is a tuple of sparse rows with canonical values."""
    views = []
    for name, maps in (("f", c._f), ("g", c._g), ("h", c._h)):
        for rows in maps.values():
            assert type(rows) is tuple and any(rows)
            assert all(is_canonical(x) for row in rows for x in row.values())
        views.append({key: dense_map(c, name, *key) for key in maps})
    return (c.k, c.window, c.g_shift, c._a, c._e, *views)


def outcome(step, c):
    """(step(c), None), or (None, the error) when it raises."""
    try:
        out = step(c)
    except (InsufficientWindow, AssertionError, InternalError, ValueError) as e:
        return None, "%s: %s" % (type(e).__name__, e)
    return out, None


def entries(rows):
    """A matrix's rows as (col, value) pairs in column order."""
    return tuple(tuple(sorted(row.items())) for row in rows)


def sized_decomposition(rng, k, generators):
    """A random decomposition with exactly this k and generator count."""
    while True:
        d = random_decomposition(rng, max_generators=generators)
        if d.k == k and len(d.free_pieces) + 2 * len(d.torsion_pieces) == generators:
            return d


def seeded_decompositions(seed, count):
    """count decompositions with torsion, k = 1, 2, 3 in turn."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_decomposition(rng, max_generators=14)
        if d.k == 1 + len(out) % 3 and d.torsion_pieces:
            out.append(d)
    return out


def random_automorphism(rng, n):
    """(m, m^-1): a scaled permutation, so zero columns of a map land
    anywhere, not only last, then up to n row additions."""
    order = list(range(n))
    rng.shuffle(order)
    m = [[Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))) if order[r] == c else Fraction(0)
          for c in range(n)] for r in range(n)]
    for _ in range(rng.randint(0, n)):
        r, t = rng.randrange(n), rng.randrange(n)
        if r != t:
            m[r] = [x + y for x, y in zip(m[r], m[t])]
    unit = [[1 if r == c else 0 for r in range(n)] for c in range(n)]
    return m, _cols_to_rows(dense_solve(m, unit, ncols=n), n)


def conjugated(rng, c):
    """The same couple written in random bases of every A and E slot."""
    k2 = 2 * c.k
    a = {pos: random_automorphism(rng, dim) for pos, dim in c._a.items()}
    e = {pos: random_automorphism(rng, dim) for pos, dim in c._e.items()}

    def change(name, source, target, shift):
        out = {}
        for (i, s) in getattr(c, "_" + name):
            rows = dense_map(c, name, i, s)
            inner = dense_matmul(rows, source[(i, s)][1], len(rows[0]))
            out[(i, s)] = sparse_rows(dense_matmul(target[shift(i, s)][0], inner, len(rows[0])))
        return out

    return ExactCouple(
        c.k,
        c.window,
        c._a,
        c._e,
        change("f", a, a, lambda i, s: (i, s + k2)),
        change("g", a, e, lambda i, s: (i, s + c.g_shift)),
        change("h", e, a, lambda i, s: (i + 1, s - k2)),
        c.g_shift,
    )


def chain_through(d, derivations, rng=None, between=None):
    """The model couple of d (in random bases, given rng) and its
    derivations, each checked equal to the reference derivation of
    the one before; between, when given, runs after each derivation.
    Past the tw + 2 derivations its window is padded for, both may run
    out of window, but only with the same error.  Returns the last
    couple derived."""
    c = frozen_couples.couple_from_decomposition(d)
    if rng is not None:
        c = conjugated(rng, c)
    reference_check_exactness(c)
    for n in range(derivations):
        got, err = outcome(ExactCouple.derive, c)
        want, want_err = outcome(reference_derive, c)
        assert err == want_err, (d, n)
        if err:
            assert n >= torsion_width(d) + 2 and err.startswith("InsufficientWindow"), (d, n, err)
            return c
        assert couple_state(got) == couple_state(want), (d, n)
        assert got._memo is c._memo
        c = got
        if between is not None:
            between()
    return c


def churn():
    """Collect garbage, then make and drop objects like the ones the
    couple memo keys on, so the ids of freed objects are taken again."""
    gc.collect()
    junk = [(exactla.Subquotient([{0: 1}], []), ({j: 1},), [{j: 1}, {}]) for j in range(300)]
    del junk


def assert_keys_held(memo):
    """Every id in the keys of the memo's tables names a rows object it
    interned, a pivot list of one of its eliminations or a subquotient
    it holds, and its widths name exactly the rows objects it interned."""
    rows = memo.widths
    assert set(rows) == {id(r) for r in memo._rows.values()}
    pivots = {id(p) for _, p in memo._reduced.values()}
    quotients = {id(q) for q in memo._quotients.values()}
    assert all(r in rows for r in memo._reduced)
    assert all(a in rows and b in rows for a, b in memo._products)
    assert all(r in rows and c in pivots for r, c in memo._restrictions)
    assert all(a in rows and b in rows for a, _, b in memo._quotients)
    assert all(q in quotients and r in rows for q, r, _ in memo._read)
    assert all(a in rows and b in rows for a, _, b, _ in memo._solved)


class TestDerivationAgainstReference:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_seeded_chains(self, seed):
        # through tw + 2 derivations, as far as the window is padded,
        # and on past it until both sides raise the same error
        for d in seeded_decompositions(seed, 12):
            chain_through(d, torsion_width(d) + 6)

    @pytest.mark.parametrize("seed", [41, 42])
    def test_chains_in_random_bases(self, seed):
        rng = random.Random(seed)
        for d in seeded_decompositions(seed, 9):
            chain_through(d, torsion_width(d) + 3, rng)

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_chains_in_random_bases_at_corpus_sizes(self, seed):
        # 20, 40 and 60 generators, as the corpus documents have; over
        # the three seeds each size meets k = 1, 2 and 3 once
        rng = random.Random(seed)
        for n, generators in enumerate((20, 40, 60)):
            d = sized_decomposition(rng, 1 + (n + seed) % 3, generators)
            chain_through(d, torsion_width(d) + 2, rng)

    def test_hand_picked_decompositions(self):
        chain_through(Decomposition(2, ((0, 0), (0, 4), (1, -2)), ()), 12)
        chain_through(Decomposition(1), 3)
        # two towers from one slot, the shorter listed first: f kills
        # the slot's first basis vector, so its pivot column is 1
        chain_through(Decomposition(1, ((0, 2),), ((0, 1, 0), (0, 2, 0))), 6)
        two = frozen_couples.couple_from_decomposition(Decomposition(1, (), ((0, 1, 0), (0, 2, 0))))
        assert two._f[(0, 0)] == ({1: 1},)

    def test_chains_never_share_a_memo(self):
        d = seeded_decompositions(34, 1)[0]
        one, two = frozen_couples.couple_from_decomposition(d), frozen_couples.couple_from_decomposition(d)
        assert one._memo is not two._memo
        assert one.derive()._memo is one._memo
        assert couple_from_decomposition(Decomposition(1))._memo is not one._memo
        free = Decomposition(1, ((0, 0),))
        assert couple_from_decomposition(free)._memo is not couple_from_decomposition(free)._memo

    def test_each_matrix_is_eliminated_once_per_chain(self, monkeypatch):
        seen = []
        products = []
        row_reduce = exactla.row_reduce

        def counting(rows):
            seen.append(entries(rows))
            return row_reduce(rows)

        def multiplying(a, b):
            products.append((entries(a), entries(b)))
            return exactla.matmul(a, b)

        monkeypatch.setattr(exactla, "row_reduce", counting)
        monkeypatch.setattr(couples, "matmul", multiplying)
        for d in seeded_decompositions(35, 9):
            del seen[:], products[:]
            chain = [frozen_couples.couple_from_decomposition(d)]
            for _ in range(torsion_width(d) + 1):
                chain.append(chain[-1].derive())
            assert seen and products, d
            assert max(Counter(seen).values()) == 1, d
            # the composite checks, d = g o h and f' among them
            assert max(Counter(products).values()) == 1, d
            # equal maps anywhere in the chain are one rows object
            held = {}
            for c in chain:
                for maps in (c._f, c._g, c._h):
                    for rows in maps.values():
                        assert held.setdefault(entries(rows), rows) is rows, d
            assert len(held) < sum(len(c._f) + len(c._g) + len(c._h) for c in chain), d

    def test_read_offs_survive_id_reuse_at_corpus_sizes(self):
        """The memo keys its read-offs on the ids of objects it holds; a
        key on an object it dropped could meet a stranger after the churn
        between derivations, and answer for it.  30 chains of 20, 40 and
        60 generators, k = 1..3, in random bases, each checked against
        the reference and then for keys on objects the memo does not
        hold, which a wrong answer shows only now and then; about 3 s.
        The heap the rest of the suite left is frozen first, so that
        each churn's full collection walks this test's objects only."""
        rng = random.Random(61)
        gc.collect()
        gc.freeze()
        try:
            for n in range(30):
                d = sized_decomposition(rng, 1 + n // 3 % 3, (20, 40, 60)[n % 3])
                memo = chain_through(d, torsion_width(d) + 2, rng, churn)._memo
                assert memo._read and memo._solved, d
                assert_keys_held(memo)
        finally:
            gc.unfreeze()

    def test_each_slot_read_off_runs_once_per_distinct_input(self, monkeypatch):
        """Over the shape chains of one couple_tables call, which share a
        memo, the subquotient of a slot is read once per distinct (d out,
        E dim, d in) and h' eliminated once per distinct (target,
        right-hand side); a corpus-size call has at least 3 slots for
        each read-off."""
        memo = couples._Eliminations
        slots, solves, read, eliminated = [], [], [], []
        subquotient, solve = memo.subquotient, memo.solve
        read_once, eliminate = exactla.subquotient, couples.solution_from_reduction

        def slot(self, d_out, n, d_in):
            slots.append((entries(d_out), n, entries(d_in)))
            return subquotient(self, d_out, n, d_in)

        def solving(self, basis, nbasis, rhs, nb):
            solves.append((entries(basis), nbasis, entries(rhs), nb))
            return solve(self, basis, nbasis, rhs, nb)

        monkeypatch.setattr(memo, "subquotient", slot)
        monkeypatch.setattr(memo, "solve", solving)
        monkeypatch.setattr(exactla, "subquotient", lambda *a: read.append(1) or read_once(*a))
        monkeypatch.setattr(couples, "solution_from_reduction", lambda *a: eliminated.append(1) or eliminate(*a))
        rng = random.Random(62)
        for k, generators in ((1, 60), (2, 40), (3, 20)):
            d = sized_decomposition(rng, k, generators)
            del slots[:], solves[:], read[:], eliminated[:]
            couple_tables(d, torsion_width(d) + 2)
            assert len(read) == len(set(slots)) and len(eliminated) == len(set(solves)), d
            assert solves and len(slots) >= 3 * len(read), (d, len(slots), len(read))

    def test_maps_one_value_apart_share_no_entry(self):
        c = hand_built()
        memo, f = c._memo, c._f[(0, -2)]
        assert f == ({0: 1}, {})
        # the same entries, given afresh and as Fractions, are f itself
        assert memo.intern(({0: Fraction(2, 2)}, {})) is f
        other = memo.intern(({0: 2}, {}))
        assert other is not f and other == ({0: 2}, {})
        assert memo.reduce(other)[1] == memo.reduce(f)[1] == [0]
        assert memo.reduce(other) is not memo.reduce(f)
        g = c._g[(0, 0)]
        assert memo.product(g, f) == memo.product(g, other) == ({},)
        assert memo.product(g, f) is memo.product(g, other)
        assert memo.product(other, c._f[(0, 0)]) == ({1: 2}, {}) != memo.product(f, c._f[(0, 0)])

    def test_verify_derives_each_couple_once(self, monkeypatch):
        """verify derives one chain per piece shape (free, or torsion of
        exponent m), tw + 1 times each, for all its couple checks."""
        calls = []
        derive = ExactCouple.derive
        monkeypatch.setattr(ExactCouple, "derive", lambda c: calls.append(1) or derive(c))
        for d in seeded_decompositions(36, 6):
            del calls[:]
            assert cross_checks(d) == []
            shapes = {0 for _ in d.free_pieces} | {m for _, m, _ in d.torsion_pieces}
            assert len(calls) == len(shapes) * (torsion_width(d) + 1)

    def test_both_couple_checks_still_run(self, monkeypatch):
        d = width_two_fixture()
        good = couple_tables(d, torsion_width(d) + 2)
        # the pair never dies: the pages of two free pieces
        bad = good[:1] * len(good)
        monkeypatch.setattr(corpus, "couple_tables", lambda d, count: bad)
        assert cross_checks(d) == [
            "couple/page correspondence fails at r=3",
            "recover round-trip (couple pages) fails",
        ]


def hand_built(validate=True, e_extra=None, f=None, g=None, h=None, memo=None):
    """A k = 1 couple on the window [-2, 2] whose only interior slots
    are A and E at (0, 0).  The defaults are exact: f embeds A(0, -2)
    into A(0, 0), g kills that image, h sends E(-1, 2) into ker g and
    f takes A(0, 0) onto A(0, 2) with kernel im h.  An all-zero map
    given here is dropped, so it is absent.  Maps are given as dense
    rows, which sparse_maps turns into the rows ExactCouple takes."""
    a = {(0, -2): 1, (0, 0): 2, (0, 2): 1, (1, -2): 1}
    e = {(0, 0): 1, (-1, 2): 1, **(e_extra or {})}
    f = {(0, -2): ((1,), (0,)), (0, 0): ((0, 1),), **(f or {})}
    g = {(0, 0): ((0, 1),), **(g or {})}
    h = {(-1, 2): ((1,), (0,)), **(h or {})}
    return ExactCouple(1, (-2, 2), a, e, sparse_maps(f), sparse_maps(g), sparse_maps(h), validate=validate, memo=memo)


class TestExactnessErrors:
    def test_defaults_are_exact(self):
        c = hand_built()
        reference_check_exactness(c)
        assert c.a_dim(0, 0) == 2 and c.e_dim(0, 0) == 1

    @pytest.mark.parametrize(
        "maps, message",
        [
            # f and g both absent at the slot: each has rank 0
            ({"f": {(0, -2): ((0,), (0,))}, "g": {(0, 0): ((0, 0),)}}, "exactness fails at A (0, 0): im f vs ker g"),
            ({"g": {(0, 0): ((0, 0),)}}, "exactness fails at A (0, 0): im f vs ker g"),
            ({"g": {(0, 0): ((1, 0),)}}, "g o f is nonzero at (0, -2)"),
            ({"h": {(-1, 2): ((0,), (0,))}}, "exactness fails at A (0, 0): im h vs ker f"),
            ({"f": {(0, 0): ((1, 0),)}}, "f o h is nonzero at (-1, 2)"),
            ({"h": {(0, 0): ((1,),)}}, "exactness fails at E (0, 0): im g vs ker h"),
            (
                {"e_extra": {(0, 0): 2}, "g": {(0, 0): ((0, 1), (0, 0))}, "h": {(0, 0): ((1, 0),)}},
                "h o g is nonzero at (0, 0)",
            ),
        ],
    )
    def test_each_check_raises(self, maps, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            hand_built(**maps)
        # the same couple fails the reference check with the same words
        c = hand_built(validate=False, **maps)
        c._check_shapes()
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            reference_check_exactness(c)

    def test_vanishing_is_learned_per_pair(self):
        """The defaults teach one memo that ((0, 1),) @ ((1,), (0,))
        vanishes, as g o f and as f o h, by one product; two couples built
        on that memo then pair each of those two maps with another, and
        fail, each on a product of its own."""
        memo = hand_built()._memo
        assert [not any(p) for p in memo._products.values()] == [True]
        for maps in ({"f": {(0, -2): ((0,), (1,))}}, {"g": {(0, 0): ((1, 0),)}}):
            with pytest.raises(ValueError, match=r"^g o f is nonzero at \(0, -2\)$"):
                hand_built(memo=memo, **maps)
        assert sorted(not any(p) for p in memo._products.values()) == [False, False, True]

    def test_maps_with_empty_first_rows(self):
        """The defaults with the basis of A(0, 0) swapped, so f into it
        and h into it have an empty first row: their ranks must count,
        in the exactness check and in derive."""
        maps = {
            "f": {(0, -2): ((0,), (1,)), (0, 0): ((1, 0),)},
            "g": {(0, 0): ((1, 0),)},
            "h": {(-1, 2): ((0,), (1,))},
        }
        c = hand_built(**maps)
        assert c._f[(0, -2)] == ({}, {0: 1}) and c._h[(-1, 2)] == ({}, {0: 1})
        reference_check_exactness(c)
        got = c.derive()
        assert couple_state(got) == couple_state(reference_derive(c))
        # A' is the image of f out of A(0, -2), and h' reaches it
        assert got.a_dim(0, 0) == 1 and got._h[(-1, 2)] == ({0: 1},)


class TestFirstFault:
    """Faults planted at several slots of one model couple: the shape
    check runs before the exactness check, f's maps before g's before
    h's, A slots before E slots, and each loop in sorted slot order, so
    the message names the first fault in that order."""

    MODEL = Decomposition(1, ((0, 0), (1, 2)), ((1, 1, 0), (0, 2, 2)))
    # each alone fails with the message given
    FAULTS = {
        "no g at A (0, 2)": ({"drop": ("g", (0, 2))}, "exactness fails at A (0, 2): im f vs ker g"),
        "no f at A (1, 4)": ({"drop": ("f", (1, 4))}, "exactness fails at A (1, 4): im h vs ker f"),
        "g o f at A (0, 2)": ({"g": {(0, 2): ({0: 1}, {})}}, "g o f is nonzero at (0, 0)"),
        "f o h at A (0, 4)": ({"f": {(0, 4): ({0: 1, 1: 1},)}}, "f o h is nonzero at (-1, 6)"),
        "E (0, 0) too big": ({"e": {(0, 0): 2}, "g": {(0, 0): ({0: 1}, {})}}, "exactness fails at E (0, 0): im g vs ker h"),
        "E (1, 2) too big": ({"e": {(1, 2): 2}, "g": {(1, 2): ({0: 1}, {})}}, "exactness fails at E (1, 2): im g vs ker h"),
        "h o g at E (0, 2)": ({"g": {(0, 2): ({}, {1: 1})}}, "h o g is nonzero at (0, 2)"),
        "f shape at (0, 2)": ({"f": {(0, 2): ({0: 1}, {2: 1})}}, "f shape mismatch at (0, 2)"),
        "f shape at (1, 8)": ({"f": {(1, 8): ({1: 1},)}}, "f shape mismatch at (1, 8)"),
        "g shape at (0, 2)": ({"g": {(0, 2): ({1: 1}, {2: 1})}}, "g shape mismatch at (0, 2)"),
        "h shape at (-1, 6)": ({"h": {(-1, 6): ({}, {1: 1})}}, "h shape mismatch at (-1, 6)"),
    }

    def planted(self, *names):
        c = frozen_couples.couple_from_decomposition(self.MODEL)
        dims = {"a": dict(c._a), "e": dict(c._e)}
        maps = {"f": dict(c._f), "g": dict(c._g), "h": dict(c._h)}
        for name in names:
            fault = self.FAULTS[name][0]
            if "drop" in fault:
                del maps[fault["drop"][0]][fault["drop"][1]]
            for key, table in fault.items():
                if key != "drop":
                    {**dims, **maps}[key].update(table)
        # each map in sorted slot order, the order the shape check meets them
        maps = {name: dict(sorted(table.items())) for name, table in maps.items()}
        return lambda: ExactCouple(c.k, c.window, dims["a"], dims["e"], maps["f"], maps["g"], maps["h"])

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_each_fault_alone(self, name):
        with pytest.raises(ValueError, match="^%s$" % re.escape(self.FAULTS[name][1])):
            self.planted(name)()

    @pytest.mark.parametrize(
        "names, first",
        [
            # two A faults of different checks, and of the same check
            (("no f at A (1, 4)", "no g at A (0, 2)"), "no g at A (0, 2)"),
            (("no f at A (1, 4)", "f o h at A (0, 4)"), "f o h at A (0, 4)"),
            (("f o h at A (0, 4)", "g o f at A (0, 2)"), "g o f at A (0, 2)"),
            # the A loop runs first, though E (0, 0) sorts before A (1, 4)
            (("E (0, 0) too big", "no f at A (1, 4)"), "no f at A (1, 4)"),
            (("E (1, 2) too big", "E (0, 0) too big"), "E (0, 0) too big"),
            (("E (1, 2) too big", "h o g at E (0, 2)"), "h o g at E (0, 2)"),
            # a shape fault anywhere comes before every exactness fault
            (("no g at A (0, 2)", "E (0, 0) too big", "f shape at (1, 8)"), "f shape at (1, 8)"),
            (("h shape at (-1, 6)", "g shape at (0, 2)", "f shape at (1, 8)"), "f shape at (1, 8)"),
            (("h shape at (-1, 6)", "g shape at (0, 2)", "no f at A (1, 4)"), "g shape at (0, 2)"),
            (("f shape at (1, 8)", "f shape at (0, 2)", "no g at A (0, 2)"), "f shape at (0, 2)"),
        ],
    )
    def test_first_fault_in_slot_order(self, names, first):
        with pytest.raises(ValueError, match="^%s$" % re.escape(self.FAULTS[first][1])):
            self.planted(*names)()


class TestDerivedCouplesAreValidated:
    """Validation stays on for derived couples: it is the run-time guard
    on derive.  A derived couple with one column of h' or of g' set to
    zero, rebuilt through ExactCouple on the chain's memo, is refused."""

    @staticmethod
    def rebuilt(c, name=None, key=None, col=None):
        maps = {"f": c._f, "g": c._g, "h": c._h}
        if name:
            rows = tuple({j: x for j, x in row.items() if j != col} for row in maps[name][key])
            maps[name] = {**maps[name], key: rows}
        return ExactCouple(c.k, c.window, c._a, c._e, maps["f"], maps["g"], maps["h"], c.g_shift, memo=c._memo)

    def test_a_zeroed_column_of_h_or_g_is_refused(self):
        refused = Counter()
        for d in [width_two_fixture(), *seeded_decompositions(37, 9)]:
            c = frozen_couples.couple_from_decomposition(d)
            k2 = 2 * c.k
            for _ in range(torsion_width(d)):
                c = c.derive()
                assert couple_state(self.rebuilt(c)) == couple_state(c)
                lo, hi = c.window
                _, gp, hp = c._pivots
                # an injective map into (h) or out of (g) an A slot that
                # the exactness check covers: zeroing a nonzero column
                # drops its rank, so A's dimension no longer adds up
                for name, maps, pivots, slot, ncols in (
                    ("h", c._h, hp, lambda i, s: s - k2, c.e_dim),
                    ("g", c._g, gp, lambda i, s: s, c.a_dim),
                ):
                    for key, rows in sorted(maps.items()):
                        if lo + k2 <= slot(*key) <= hi - k2 and len(pivots[key]) == ncols(*key):
                            col = min(j for row in rows for j in row)
                            with pytest.raises(ValueError, match="^exactness fails at A "):
                                self.rebuilt(c, name, key, col)
                            refused[name] += 1
                            break
        assert refused["h"] >= 10 and refused["g"] >= 10, refused


def test_derive_refuses_a_class_that_is_no_cycle():
    """Exactness is only checked inside the window, so derive checks
    that each class g' reads off is a cycle of d = g o h.  Here g sends
    A(0, 2), the source of f's image at (0, 4), onto the generator of
    E(0, 2), and d out of E(0, 2) is g o h = 1: the read-off alone
    would give g' = 0, since d leaves no cycle there."""
    c = ExactCouple(
        1,
        (-4, 10),
        {(0, 2): 1, (0, 4): 1, (1, 0): 1},
        {(0, 2): 1, (1, 0): 1},
        {(0, 2): ({0: 1},)},
        {(0, 2): ({0: 1},), (1, 0): ({0: 1},)},
        {(0, 2): ({0: 1},)},
        validate=False,
    )
    assert c.differential(0, 2) == ({0: 1},)
    with pytest.raises(InternalError, match="^internal error in couples: class fell outside the kernel basis$"):
        c.derive()
