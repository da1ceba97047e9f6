"""Exact couples: construction, derivation, agreement with the pages."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from dense_la import (
    dense_image_basis,
    dense_kernel_basis,
    dense_matmul,
    dense_matvec,
    dense_pivot_columns,
    dense_rank,
    dense_solve,
    sparse_rows,
)
from twkit import corpus, exactla
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


class TestModelCouple:
    def test_first_page_is_the_mod_a_table(self):
        rng = random.Random(6)
        for _ in range(12):
            d = random_decomposition(rng)
            c = couple_from_decomposition(d)
            assert c.e_table() == hn_table(d)

    def test_free_towers_truncate_at_window_top(self):
        d = Decomposition(1, ((0, 0),), ())
        c = couple_from_decomposition(d)
        lo, hi = c.window
        slots = [(i, s) for (i, s) in sorted(c._a)]
        assert all(i == 0 and 0 <= s <= hi and s % 2 == 0 for i, s in slots)
        assert c.a_dim(0, 0) == 1
        # f is injective on an infinite tower window except at the top
        assert c.f_at(0, hi - 2) == ({0: 1},)

    def test_torsion_tower_length(self):
        d = width_two_fixture()
        c = couple_from_decomposition(d)
        assert c.a_dim(1, 0) == 1 and c.a_dim(1, 2) == 1
        assert c.a_dim(1, 4) == 0
        # h carries the top class of E one degree up into the tower
        assert c.h_at(0, 4) == ({0: 1},)

    def test_empty_decomposition(self):
        c = couple_from_decomposition(Decomposition(2))
        assert c.is_trivial()
        assert c.derive().is_trivial()

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
        # a column past the source slot's dimension
        with pytest.raises(ValueError, match="^f shape mismatch at \\(0, 0\\)$"):
            ExactCouple(1, (0, 2), {(0, 0): 1, (0, 2): 1}, {}, {(0, 0): ({1: 1},)}, {}, {})

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


class TestCorrespondence:
    def test_fixture(self):
        d = width_two_fixture()
        res = correspondence_check(d, torsion_width(d) + 2)
        assert res.ok and bool(res)
        assert res.first_mismatch is None

    def test_derived_page_r_matches_hat_index(self):
        # page r of the couple against hat page 2k(r-1)+1, reindexed
        d = Decomposition(2, ((0, 2),), ((1, 1, 0), (3, 2, -8)))
        c = couple_from_decomposition(d)
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


# -- frozen reference: derivation and exactness check as computed
# before the chain's memo of eliminations replaced them, on dense views
# of the maps with the dense helpers of dense_la


def dense_map(c, name, i, s):
    """c's map f, g or h out of (i, s) as dense Fraction rows."""
    rows = getattr(c, name + "_at")(i, s)
    ncols = c.e_dim(i, s) if name == "h" else c.a_dim(i, s)
    return tuple(tuple(Fraction(row.get(j, 0)) for j in range(ncols)) for row in rows)


def sparse_maps(maps):
    """{bidegree: dense rows} as {bidegree: sparse rows}, the form
    ExactCouple takes."""
    return {key: sparse_rows(rows) for key, rows in maps.items()}


def _cols_to_rows(cols, nrows):
    return tuple(tuple(col[r] for col in cols) for r in range(nrows))


def _is_zero(rows):
    return all(not x for row in rows for x in row)


def reference_differential(c, i, s):
    h = dense_map(c, "h", i, s)
    g = dense_map(c, "g", i + 1, s - 2 * c.k)
    return dense_matmul(g, h, c.e_dim(i, s))


def reference_check_exactness(c):
    k2 = 2 * c.k
    lo, hi = c.window

    def interior(s):
        return lo + k2 <= s <= hi - k2

    for (i, s) in sorted(c._a):
        if not interior(s):
            continue
        dim = c.a_dim(i, s)
        f_in = dense_map(c, "f", i, s - k2)
        f_out = dense_map(c, "f", i, s)
        g_out = dense_map(c, "g", i, s)
        h_in = dense_map(c, "h", i - 1, s + k2)
        if dense_rank(list(f_in)) + dense_rank(list(g_out)) != dim:
            raise ValueError("exactness fails at A (%d, %d): im f vs ker g" % (i, s))
        if not _is_zero(dense_matmul(g_out, f_in, c.a_dim(i, s - k2))):
            raise ValueError("g o f is nonzero at (%d, %d)" % (i, s - k2))
        if dense_rank(list(h_in)) + dense_rank(list(f_out)) != dim:
            raise ValueError("exactness fails at A (%d, %d): im h vs ker f" % (i, s))
        if not _is_zero(dense_matmul(f_out, h_in, c.e_dim(i - 1, s + k2))):
            raise ValueError("f o h is nonzero at (%d, %d)" % (i - 1, s + k2))
    for (i, s) in c.e_support():
        if not (c.inside(s - c.g_shift) and interior(s - c.g_shift)):
            continue
        if not c.inside(s - k2):
            continue
        g_in = dense_map(c, "g", i, s - c.g_shift)
        h_out = dense_map(c, "h", i, s)
        if dense_rank(list(g_in)) + dense_rank(list(h_out)) != c.e_dim(i, s):
            raise ValueError("exactness fails at E (%d, %d): im g vs ker h" % (i, s))
        if not _is_zero(dense_matmul(h_out, g_in, c.a_dim(i, s - c.g_shift))):
            raise ValueError("h o g is nonzero at (%d, %d)" % (i, s - c.g_shift))


def reference_derive(c):
    """The derived couple, built unvalidated and then checked with
    reference_check_exactness."""
    if c.is_trivial():
        return ExactCouple(c.k, c.window, {}, {}, {}, {}, {}, c.g_shift, validate=False)
    k2 = 2 * c.k
    lo, hi = c.window
    new_lo, new_hi = lo + k2, hi - k2
    if new_lo > new_hi:
        raise InsufficientWindow("insufficient window: cannot derive inside [%d, %d]" % (lo, hi))
    new_shift = c.g_shift - k2

    reps = {}
    proj = {}
    e_new = {}
    for (i, s) in c.e_support():
        dim = c.e_dim(i, s)
        d_out = reference_differential(c, i, s)
        kern = dense_kernel_basis(list(d_out), ncols=dim)
        src = (i - 1, s + k2 - c.g_shift)
        if c.e_dim(*src):
            img = dense_image_basis(list(reference_differential(c, *src)))
        else:
            img = []
        stacked = img + kern
        matrix = _cols_to_rows(stacked, dim)
        chosen = [stacked[p] for p in dense_pivot_columns(list(matrix)) if p >= len(img)]
        if chosen:
            e_new[(i, s)] = len(chosen)
        reps[(i, s)] = chosen
        proj[(i, s)] = (img, chosen)

    def project(pos, vec):
        img, chosen = proj.get(pos, ([], []))
        if not img and not chosen:
            if any(vec):
                raise AssertionError("class fell outside the kernel basis")
            return []
        basis = img + chosen
        sols = dense_solve(list(_cols_to_rows(basis, len(vec))), [vec], ncols=len(basis))
        if sols is None:
            raise AssertionError("class fell outside the kernel basis")
        return sols[0][len(img):]

    iota = {}
    a_new = {}
    for (i, s) in sorted((i, s + k2) for (i, s) in c._f):
        if not new_lo <= s <= new_hi:
            continue
        cols = dense_image_basis(list(dense_map(c, "f", i, s - k2)))
        if cols:
            iota[(i, s)] = cols
            a_new[(i, s)] = len(cols)

    f_new = {}
    g_new = {}
    h_new = {}
    for (i, s), cols in sorted(iota.items()):
        if s + k2 <= new_hi:
            f_cols = [dense_matvec(dense_map(c, "f", i, s), col) for col in cols]
            target = iota.get((i, s + k2), [])
            if target:
                sols = dense_solve(list(_cols_to_rows(target, c.a_dim(i, s + k2))), f_cols, ncols=len(target))
                if sols is None:
                    raise AssertionError("f does not preserve its own image")
                f_new[(i, s)] = _cols_to_rows(sols, len(target))
            elif any(any(v) for v in f_cols):
                raise AssertionError("f does not preserve its own image")
        back = dense_solve(list(dense_map(c, "f", i, s - k2)), cols, ncols=c.a_dim(i, s - k2))
        if back is None:
            raise AssertionError("image basis column not in the image of f")
        g_pos = (i, s + new_shift)
        g_cols = [project(g_pos, dense_matvec(dense_map(c, "g", i, s - k2), b)) for b in back]
        g_new[(i, s)] = _cols_to_rows(g_cols, e_new.get(g_pos, 0))

    for (i, s), chosen in sorted(reps.items()):
        if not chosen:
            continue
        h_vecs = [dense_matvec(dense_map(c, "h", i, s), v) for v in chosen]
        if not any(any(v) for v in h_vecs):
            continue
        t_pos = (i + 1, s - k2)
        if not new_lo <= t_pos[1] <= new_hi:
            raise InsufficientWindow(
                "insufficient window: h' at (%d, %d) targets outside [%d, %d]" % (i, s, new_lo, new_hi)
            )
        target = iota.get(t_pos, [])
        sols = dense_solve(list(_cols_to_rows(target, c.a_dim(*t_pos))), h_vecs, ncols=len(target)) if target else None
        if sols is None:
            raise AssertionError("h of a surviving class left the image of f")
        h_new[(i, s)] = _cols_to_rows(sols, len(target))

    out = ExactCouple(
        c.k, (new_lo, new_hi), a_new, e_new, sparse_maps(f_new), sparse_maps(g_new), sparse_maps(h_new), new_shift,
        validate=False,
    )
    out._check_shapes()
    reference_check_exactness(out)
    return out


def is_canonical(x):
    """A nonzero int, or a Fraction that is not integral."""
    return (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)


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


def chain_through(d, derivations, rng=None):
    """The model couple of d (in random bases, given rng) and its
    derivations, each checked equal to the reference derivation of
    the one before.  Past the tw + 2 derivations its window is padded
    for, both may run out of window, but only with the same error."""
    c = couple_from_decomposition(d)
    if rng is not None:
        c = conjugated(rng, c)
    reference_check_exactness(c)
    for n in range(derivations):
        got, err = outcome(ExactCouple.derive, c)
        want, want_err = outcome(reference_derive, c)
        assert err == want_err, (d, n)
        if err:
            assert n >= torsion_width(d) + 2 and err.startswith("InsufficientWindow"), (d, n, err)
            return
        assert couple_state(got) == couple_state(want), (d, n)
        assert got._memo is c._memo
        c = got


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

    def test_hand_picked_decompositions(self):
        chain_through(Decomposition(2, ((0, 0), (0, 4), (1, -2)), ()), 12)
        chain_through(Decomposition(1), 3)
        # two towers from one slot, the shorter listed first: f kills
        # the slot's first basis vector, so its pivot column is 1
        chain_through(Decomposition(1, ((0, 2),), ((0, 1, 0), (0, 2, 0))), 6)
        assert couple_from_decomposition(Decomposition(1, (), ((0, 1, 0), (0, 2, 0)))).f_at(0, 0) == ({1: 1},)

    def test_chains_never_share_a_memo(self):
        d = seeded_decompositions(34, 1)[0]
        one, two = couple_from_decomposition(d), couple_from_decomposition(d)
        assert one._memo is not two._memo
        assert one.derive()._memo is one._memo
        assert couple_from_decomposition(Decomposition(1))._memo is not one._memo

    def test_each_matrix_is_eliminated_once_per_chain(self, monkeypatch):
        seen = []
        row_reduce = exactla.row_reduce

        def counting(rows):
            seen.append(tuple(tuple(sorted(row.items())) for row in rows))
            return row_reduce(rows)

        monkeypatch.setattr(exactla, "row_reduce", counting)
        for d in seeded_decompositions(35, 9):
            del seen[:]
            c = couple_from_decomposition(d)
            for _ in range(torsion_width(d) + 1):
                c = c.derive()
            assert seen, d
            assert max(Counter(seen).values()) == 1, d

    def test_verify_derives_each_couple_once(self, monkeypatch):
        calls = []
        derive = ExactCouple.derive
        monkeypatch.setattr(ExactCouple, "derive", lambda c: calls.append(1) or derive(c))
        for d in seeded_decompositions(36, 6):
            del calls[:]
            assert cross_checks(d) == []
            assert len(calls) == torsion_width(d) + 1

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


def hand_built(validate=True, e_extra=None, f=None, g=None, h=None):
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
    return ExactCouple(1, (-2, 2), a, e, sparse_maps(f), sparse_maps(g), sparse_maps(h), validate=validate)


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
        assert c.f_at(0, -2) == ({}, {0: 1}) and c.h_at(-1, 2) == ({}, {0: 1})
        reference_check_exactness(c)
        got = c.derive()
        assert couple_state(got) == couple_state(reference_derive(c))
        # A' is the image of f out of A(0, -2), and h' reaches it
        assert got.a_dim(0, 0) == 1 and got.h_at(-1, 2) == ({0: 1},)


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
