"""Graded complexes on sparse rows against frozen references.

GradedComplex keeps mats, {col: value} rows of its nonzeros with each
value an int when integral and a Fraction otherwise, the store the
field complexes hold too.  Validation (homogeneity and d^2 = 0), the
persistence pairing decompose reads and Gaussian elimination all
follow the nonzeros.  The dense checks and elimination they replaced,
and decompose's rational splitting, are frozen in
tests/frozen_complexes.py: every piece, verdict, error message and
eliminated complex must agree with them.
"""

import random
import re
from fractions import Fraction
from math import lcm

import pytest

from builders import assert_splits_as, direct_sum, is_canonical, shifted, twobraid_unreduced, unit_pivots
from dense_la import dense_matmul, dense_row_reduce, dense_rows, sparse_rows
from frozen_complexes import (
    dense_mats,
    rational_split_pieces,
    reference_eliminate_graded,
    reference_field_validate,
    reference_hom_matrix_validate,
    reference_validate,
)
from twkit import corpus, exactla
from twkit.algebra import GradedRing, HomMatrix
from twkit.complexes import (
    ComplexError,
    FieldComplex,
    GradedComplex,
    check_differentials,
    complex_from_data,
    first_differential,
    gaussian_eliminate,
    minimal_complex,
    persistence_pairs,
    reduce_mod_a,
    specialize_a_to_1,
)
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import Decomposition, decompose, reassemble
from twkit.links import (
    LinkDiagram,
    Sl2Potential,
    TwoBraidSpec,
    build_sl2_cube,
    build_twobraid,
)

# -- inputs ---------------------------------------------------------------

LAMBDA = Sl2Potential(2, ((1, Fraction(-3, 2)),))
BRAIDS = (
    ("1 1 1", 2),
    ("1 -2 1 -2", 3),
    ("1 1 1 1 1", 2),
    ("1 1 1 2 -1 2", 3),
    ("1 2 1 2 1 2 1 2", 3),
)


@pytest.fixture(scope="module")
def cubes():
    out = [
        (word, build_sl2_cube(LinkDiagram.from_braid_text(word, strands), potential))
        for word, strands in BRAIDS
        for potential in (Sl2Potential.standard(), LAMBDA)
    ]
    # the integral form twkit link builds, on the benchmark's link ladder
    return out + [
        (word, build_sl2_cube(LinkDiagram.from_braid_text(word, strands), LAMBDA.integral_form()))
        for word, strands in BRAIDS[:4]
    ]


def twobraids():
    return [
        build_twobraid(TwoBraidSpec.power_basis(N, i)) for N in range(2, 13) for i in range(1, N + 1)
    ]


def corpus_complexes(count_per_k=21):
    """Seeded conjugated corpus complexes, count_per_k for each k = 1..3."""
    rng = random.Random(77)
    out = {1: [], 2: [], 3: []}
    while min(len(v) for v in out.values()) < count_per_k:
        d = random_decomposition(rng, max_generators=rng.randint(4, 30))
        if len(out[d.k]) < count_per_k:
            out[d.k].append(conjugate(rng, reassemble(d), ops=12))
    return [c for k in (1, 2, 3) for c in out[k]]


def assert_canonical(c):
    """Every value a graded or field complex stores is canonical."""
    assert all(is_canonical(x) for rows in c.mats.values() for row in rows for x in row.values())


def assert_matches_reference(c):
    reference_validate(c)
    check_differentials(c.degrees, c.mats, c.ring.a_degree)
    assert_splits_as(c, rational_split_pieces(c))
    assert_canonical(c)


# -- decompose and validation ---------------------------------------------


def test_cubes_match_reference(cubes):
    for _, c in cubes:
        assert_matches_reference(c)


def test_twobraids_match_reference():
    for c in twobraids() + [build_twobraid(TwoBraidSpec.power_basis(N, N // 2)) for N in (20, 30)]:
        assert_matches_reference(c)
    for N in range(2, 9):
        assert_matches_reference(twobraid_unreduced(TwoBraidSpec.power_basis(N, max(1, N // 2))))


def test_corpus_matches_reference():
    complexes = corpus_complexes()
    assert len(complexes) >= 60
    assert {c.ring.k for c in complexes} == {1, 2, 3}
    for c in complexes:
        assert_matches_reference(c)


def test_pairing_exercises_clearing(cubes, monkeypatch):
    """The cube inputs reach the pairing's pivot step with several
    holders in a column and with fill-in, and have sources that
    clearing skips while their column is nonzero, so the comparisons
    are not vacuous."""
    seen = {"holders": 0, "fill": 0, "skipped": 0}
    clear_column = exactla.clear_column

    def counting(rows, holders, p, c):
        cleared = holders[c] - {p}
        before = sum(len(rows[i]) for i in cleared)
        steps = clear_column(rows, holders, p, c)
        if cleared:
            seen["holders"] += 1
        # more entries than the cleared column left behind: fill-in
        if sum(len(rows[i]) for i in cleared) > before - len(cleared):
            seen["fill"] += 1
        return steps

    monkeypatch.setattr(exactla, "clear_column", counting)
    for _, c in cubes:
        for n, _, t in persistence_pairs(c.degrees, c.mats):
            seen["skipped"] += any(t in row for row in c.mats.get(n + 1, ()))
    assert min(seen.values()) > 20, seen


def _error(fn):
    try:
        fn()
    except ComplexError as e:
        return str(e)
    return None


def _with_entry(c, i, r, col, x):
    """c's differentials as sparse rows, with entry (r, col) of d^i set to x."""
    diffs = {j: list(rows) for j, rows in c.mats.items()}
    diffs[i][r] = dict(diffs[i][r])
    diffs[i][r][col] = x
    return diffs


def test_bad_complexes_give_the_same_errors(cubes):
    """An inhomogeneous entry and a d^2 != 0 square, planted at random
    in valid complexes, give the reference's error message."""
    rng = random.Random(5)
    inputs = [c for _, c in cubes[:6]] + corpus_complexes(5)
    seen = {"homogeneous": 0, "d^2": 0}
    for c in inputs:
        for _ in range(6):
            i = rng.choice(sorted(c.mats))
            rows = c.mats[i]
            r, col = rng.randrange(len(rows)), rng.randrange(c.rank(i))
            gap = c.degrees[i][col] - c.degrees[i + 1][r]
            x = rng.choice((1, -2, Fraction(1, 3)))
            if gap >= 0 and gap % c.ring.a_degree == 0:
                # homogeneous: likely breaks d^2 = 0 instead
                x = rows[r].get(col, 0) + x
                if not x:
                    continue
            diffs = _with_entry(c, i, r, col, x)
            mats = {j: dense_rows(rows, c.rank(j)) for j, rows in diffs.items()}
            want = _error(lambda: reference_validate(c, mats))
            assert _error(lambda: GradedComplex(c.ring, c.degrees, diffs)) == want
            if want is not None:
                seen["homogeneous" if "homogeneous" in want else "d^2"] += 1
    assert seen["homogeneous"] > 10 and seen["d^2"] > 10


def test_bad_field_complexes_give_the_reference_refusals(cubes):
    """An entry that changes the degree (raises the level, when
    filtered) and a d^2 != 0 square, planted at random in the mod-a and
    a = 1 specializations of valid complexes: the shared check refuses
    the entry and the square that the field complexes' own check
    refused, in the graded text."""
    rng = random.Random(6)
    inputs = [c for _, c in cubes[:6]] + corpus_complexes(5)
    seen = {}
    for c in inputs:
        for fc in (reduce_mod_a(c), specialize_a_to_1(c)):
            for _ in range(6):
                i = rng.choice(sorted(fc.mats))
                rows = list(fc.mats[i])
                r, col = rng.randrange(len(rows)), rng.randrange(fc.rank(i))
                x = exactla.canonical(rows[r].get(col, 0) + rng.choice((1, -2, Fraction(1, 3))))
                # an unvalidated complex keeps its rows, so they go in canonical
                rows[r] = {j: y for j, y in {**rows[r], col: x}.items() if y}
                planted = type(fc)(fc.degrees, {**fc.mats, i: rows}, validate=False)
                want = _error(lambda: reference_field_validate(planted))
                got = _error(lambda: type(fc)(fc.degrees, planted.mats))
                if want is None:
                    assert got is None
                    continue
                entry = re.fullmatch(r"entry \((\d+), (\d+)\) at degree (-?\d+) violates the grading", want)
                if entry:
                    r, col, i = map(int, entry.groups())
                    assert got == "differential at degree %d is not homogeneous at entry (%d, %d)" % (i, r, col)
                else:
                    i = int(re.fullmatch(r"d\^2 != 0 on the square starting at degree (-?\d+)", want).group(1))
                    assert got == "%s (maps %d->%d->%d)" % (want, i, i + 1, i + 2)
                key = type(fc).__name__, "entry" if entry else "d^2"
                seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 4 and min(seen.values()) > 5, seen


def test_hom_matrix_validate_matches_reference():
    """GradedComplex refuses the reference's first bad (row, col) in
    row-major order, also when a row's columns were inserted out of
    order."""
    rng = random.Random(11)
    ring = GradedRing(2)
    for _ in range(400):
        src = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
        tgt = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
        cells = [[rng.choice((0, 0, 0, 1, -1, Fraction(2, 3))) for _ in src] for _ in tgt]
        rows = [dict(sorted(((c, x) for c, x in enumerate(row) if x), reverse=True)) for row in cells]
        m = HomMatrix(ring, src, tgt, rows)
        assert m.rows == tuple(sparse_rows(cells))
        bad = reference_hom_matrix_validate(ring, src, tgt, cells)
        want = None if bad is None else "differential at degree 0 is not homogeneous at entry %r" % (bad,)
        assert _error(lambda: GradedComplex(ring, {0: src, 1: tgt}, {0: rows})) == want


# -- storage ---------------------------------------------------------------


class TestStorage:
    R = GradedRing(1)

    def test_dense_and_sparse_rows_agree(self):
        # dense cells enter only through complex_from_data, which makes
        # them the same canonical sparse rows HomMatrix keeps
        cells = ((Fraction(2), 0, Fraction(1, 2)), (0, 0, 0))
        m = complex_from_data(1, {0: [2, 2, 4], 1: [0, 2]}, {0: cells}).differentials[0]
        assert m.rows == ({0: 2, 2: Fraction(1, 2)}, {})
        assert type(m.rows[0][0]) is int
        sparse = HomMatrix(self.R, (2, 2, 4), (0, 2), ({2: Fraction(1, 2), 0: Fraction(4, 2)}, {}))
        assert m == sparse and hash(m) == hash(sparse)
        assert m.entries == ((2, 0, Fraction(1, 2)), (0, 0, 0))

    def test_zero_is_never_stored(self):
        m = HomMatrix(self.R, (0, 0), (0,), ({0: 0, 1: Fraction(0)},))
        assert m.rows == ({},) and m.is_zero()

    def test_bad_sparse_column_rejected(self):
        with pytest.raises(ValueError, match="column index out of range"):
            HomMatrix(self.R, (0,), (0,), ({1: 1},))

    def test_sums_and_shifts_store_canonical_values(self):
        for c in corpus_complexes(4):
            total = direct_sum(c, shifted(c, 1, 2))
            assert_canonical(total)
            d = decompose(c)
            assert decompose(total) == Decomposition(
                d.k,
                d.free_pieces + tuple((i + 1, s + 2) for i, s in d.free_pieces),
                d.torsion_pieces + tuple((i + 1, m, s + 2) for i, m, s in d.torsion_pieces),
            )


# -- basis changes ---------------------------------------------------------


def test_conjugate_matches_dense_reference():
    """corpus.conjugate's differentials are g d g^-1 by dense matmul, on
    the automorphisms that replaying its rng draws gives, and each
    g g^-1 is the identity."""
    rng = random.Random(23)
    changed = 0
    for _ in range(30):
        c = reassemble(random_decomposition(rng, max_generators=rng.randint(4, 24)))
        state = rng.getstate()
        got = conjugate(rng, c, ops=10)
        after = rng.getstate()
        rng.setstate(state)
        autos = {i: corpus._random_automorphism(rng, c.ring, degs, 10) for i, degs in c.degrees.items()}
        # the replay made exactly conjugate's draws
        assert rng.getstate() == after
        for i, (g, g_inv) in autos.items():
            n = c.rank(i)
            unit = [[Fraction(int(r == col)) for col in range(n)] for r in range(n)]
            assert dense_matmul(dense_rows(g, n), dense_rows(g_inv, n), n) == unit
        before, after = dense_mats(c), dense_mats(got)
        assert sorted(after) == sorted(before)
        for i, cells in before.items():
            n = c.rank(i)
            inner = dense_matmul(dense_rows(autos[i + 1][0], c.rank(i + 1)), cells, n)
            want = dense_matmul(inner, dense_rows(autos[i][1], n), n)
            assert after[i] == want
            changed += want != cells
    assert changed > 10


# -- Gaussian elimination ---------------------------------------------------


def nonzero_maps(mats):
    return {i: rows for i, rows in mats.items() if any(any(r) for r in rows)}


def test_eliminate_graded_matches_reference(cubes):
    """The same seeded unit pivots on the graded complex and on its a = 0
    and a = 1 specializations, each against the dense reference."""
    rng = random.Random(3)
    inputs = [c for _, c in cubes[:4]] + corpus_complexes(6)
    inputs += [twobraid_unreduced(TwoBraidSpec.power_basis(N, 2)) for N in (3, 5, 7)]
    steps = 0
    for c in inputs:
        for _ in range(3):
            if not c.mats:
                break
            h = rng.choice(sorted(c.mats))
            pivots = unit_pivots(c, h)
            if not pivots:
                continue
            row, col = rng.choice(pivots)
            c = assert_eliminates_as_reference(c, h, row, col)
            steps += 1
    assert steps > 20


def assert_eliminates_as_reference(c, h, row, col):
    """gaussian_eliminate of the pair on c and on its a = 0 and a = 1
    specializations, each against the dense reference; returns the
    graded result."""
    degrees, mats = reference_eliminate_graded(c.degrees, dense_mats(c), h, row, col)
    out = gaussian_eliminate(c, h, row, col)
    assert {i: list(v) for i, v in out.degrees.items()} == degrees
    assert nonzero_maps(dense_mats(out)) == nonzero_maps(mats)
    assert_canonical(out)
    for fc in (reduce_mod_a(c), specialize_a_to_1(c)):
        degrees, mats = reference_eliminate_graded(fc.degrees, dense_mats(fc), h, row, col)
        fout = gaussian_eliminate(fc, h, row, col)
        assert type(fout) is type(fc)
        assert {i: list(v) for i, v in fout.degrees.items()} == degrees
        assert nonzero_maps({i: dense_rows(fout.mats[i], fout.rank(i)) for i in fout.mats}) == nonzero_maps(mats)
        assert_canonical(fout)
    return out


NON_UNITS = (2, -2, 3, -3, 6, -6)


def non_unit_complex(rng, mixed):
    """A seeded three-term complex over k = 1 on generators of degree 0,
    with entries rich in non-units (and near 10^12; mixed, a quarter of
    them Fractions).  d^0 = [P; 0] and d^1 = [0 | Q], so d^1 d^0 = 0,
    then the middle basis changes by seeded elementary operations: row
    i of d^0 gains c times row j as column j of d^1 loses c times
    column i."""

    def entry():
        x = rng.choice(NON_UNITS * 2 + (1, -1, 10**12 + 1))
        return Fraction(x, rng.choice((2, 3))) if mixed and rng.random() < 0.25 else x

    n0, r, s, n2 = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
    d0 = [[entry() if rng.random() < 0.7 else 0 for _ in range(n0)] for _ in range(r)]
    d0 += [[0] * n0 for _ in range(s)]
    d1 = [[0] * r + [entry() if rng.random() < 0.7 else 0 for _ in range(s)] for _ in range(n2)]
    for _ in range(6):
        i, j = rng.sample(range(r + s), 2)
        c = rng.choice(NON_UNITS + (1, -1))
        d0[i] = [x + c * y for x, y in zip(d0[i], d0[j])]
        for row in d1:
            row[j] -= c * row[i]
    return complex_from_data(1, {0: [0] * n0, 1: [0] * (r + s), 2: [0] * n2}, {0: d0, 1: d1})


def test_eliminate_at_non_unit_pivots_matches_reference(monkeypatch):
    """Non-unit pivots on int and mixed int/Fraction complexes, graded
    and both specializations: the rows the fraction-free step scales by
    a, divided by a again, give the dense Schur complement."""
    scales = []
    clear_column = exactla.clear_column

    def recording(rows, holders, p, c):
        steps = clear_column(rows, holders, p, c)
        scales.extend(a for _, a in steps)
        return steps

    monkeypatch.setattr(exactla, "clear_column", recording)
    rng = random.Random(25)
    non_unit = 0
    for n in range(150):
        c = non_unit_complex(rng, mixed=n % 2)
        for _ in range(3):
            if not c.mats:
                break
            h = rng.choice(sorted(c.mats))
            pivots = unit_pivots(c, h)
            if not pivots:
                continue
            rows = c.mats[h]
            pivots = [(r, col) for r, col in pivots if rows[r][col] not in (1, -1)] or pivots
            row, col = rng.choice(pivots)
            non_unit += rows[row][col] not in (1, -1)
            c = assert_eliminates_as_reference(c, h, row, col)
    assert non_unit > 150
    assert sum(a != 1 for a in scales) > 150


# -- the minimal complex ---------------------------------------------------


def eliminated_pair_by_pair(c):
    """(degrees, dense rows) of c with every exponent-0 pair cancelled by
    the dense reference, one pair at a time: degrees ascending, in d^h
    row by row, the lowest column joining the row's target to a source
    of equal degree is the pivot, and the row that moves into the
    pivot row's place is taken next."""
    degrees, mats = {i: list(v) for i, v in c.degrees.items()}, dense_mats(c)
    for h in sorted(c.degrees):
        r = 0
        while h in mats and r < len(mats[h]):
            src, tdeg = degrees[h], degrees[h + 1][r]
            cols = [j for j, x in enumerate(mats[h][r]) if x and src[j] == tdeg]
            if cols:
                degrees, mats = reference_eliminate_graded(degrees, mats, h, r, cols[0])
            else:
                r += 1
    return degrees, mats


def assert_minimal_as_pair_by_pair(c):
    """minimal_complex(c) against eliminated_pair_by_pair(c): the same
    degrees and maps; a zero mod-a differential; and the decomposition
    and d_1 ranks of c."""
    degrees, mats = eliminated_pair_by_pair(c)
    out = minimal_complex(c)
    assert {i: list(v) for i, v in out.degrees.items()} == degrees
    assert nonzero_maps(dense_mats(out)) == nonzero_maps(mats)
    assert_canonical(out)
    assert not any(any(rows) for rows in reduce_mod_a(out).mats.values())
    assert decompose(out) == decompose(c)
    assert first_differential(out).ranks() == first_differential(c).ranks()
    return c.total_rank() - out.total_rank()


def with_contractible_pairs(rng, count):
    """count seeded corpus complexes, each a random decomposition plus up
    to four exponent-0 pairs of scalars 1, -1 or a non-unit, conjugated,
    so their pivots are rationals and non-units, and every other one
    made integral."""
    out = []
    while len(out) < count:
        d = random_decomposition(rng, max_generators=rng.randint(4, 24))
        degrees, rows = {}, {}
        for _ in range(rng.randint(1, 4)):
            i, s = rng.randint(-3, 3), rng.randint(-20, 20)
            col, row = len(degrees.setdefault(i, [])), len(degrees.setdefault(i + 1, []))
            degrees[i].append(s)
            degrees[i + 1].append(s)
            rows.setdefault(i, {})[row, col] = rng.choice(NON_UNITS + (1, -1))
        diffs = {i: [{c: x for (r, c), x in units.items() if r == t} for t in range(len(degrees[i + 1]))]
                 for i, units in rows.items()}
        pairs = GradedComplex(GradedRing(d.k), degrees, diffs)
        c = conjugate(rng, direct_sum(pairs, reassemble(d)), ops=16)
        if len(out) % 2:
            # every other one made integral, each map times the lcm of its
            # denominators: an isomorphic complex whose pivots are ints
            scales = {i: lcm(*(x.denominator for row in rows for x in row.values())) for i, rows in c.mats.items()}
            c = GradedComplex(c.ring, c.degrees, {i: [{j: x * scales[i] for j, x in row.items()} for row in rows]
                                                  for i, rows in c.mats.items()})
        out.append(c)
    return out


def test_minimal_complex_on_the_link_ladder(cubes):
    """perfbench's link ladder under 1=-3/2 and its integral form, which
    twkit link builds."""
    ladder = [c for _, c in cubes[1:8:2] + cubes[10:]]
    assert [word for word, _ in cubes[1:8:2] + cubes[10:]] == [word for word, _ in BRAIDS[:4]] * 2
    assert all(assert_minimal_as_pair_by_pair(c) > 0 for c in ladder)


def test_minimal_complex_on_twobraids():
    """The 2-braids for N <= 10 and every i, and the unreduced ones,
    whose unit blocks cancel."""
    inputs = [build_twobraid(TwoBraidSpec.power_basis(N, i)) for N in range(2, 11) for i in range(1, N + 1)]
    inputs += [twobraid_unreduced(TwoBraidSpec.power_basis(N, max(1, N // 2))) for N in range(3, 11)]
    assert sum(assert_minimal_as_pair_by_pair(c) > 0 for c in inputs) >= 8


def test_minimal_complex_on_seeded_corpus_complexes():
    """Conjugated corpus complexes with contractible pairs, and the
    three-term complexes rich in non-unit pivots, int and mixed."""
    rng = random.Random(19)
    inputs = with_contractible_pairs(rng, 36)
    inputs += [non_unit_complex(rng, mixed=n % 2) for n in range(30)]
    assert {c.ring.k for c in inputs} == {1, 2, 3}
    assert all(assert_minimal_as_pair_by_pair(c) > 0 for c in inputs)


# -- integer inputs stay exact -------------------------------------------------


def _no_float(value):
    if isinstance(value, dict):
        return all(_no_float(x) for x in value.values())
    if isinstance(value, (list, tuple)):
        return all(_no_float(x) for x in value)
    return not isinstance(value, float)


def test_integer_inputs_stay_exact():
    """Integer-valued input gives no float anywhere, and the answers
    equal those for the same input as Fractions."""
    rng = random.Random(8)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(nc)] for _ in range(nr)]
        sparse = [{c: x for c, x in enumerate(row) if x} for row in ints]
        sparse_fracs = [{c: Fraction(x) for c, x in row.items()} for row in sparse]
        got = exactla.row_reduce(sparse)
        assert _no_float(got) and got == exactla.row_reduce(sparse_fracs)
        assert got[1] == dense_row_reduce(ints)[1]
    assert exactla.row_reduce([{0: 2, 1: 1}]) == ([{0: 1, 1: Fraction(1, 2)}], [0])

    # a graded complex with an integer pivot of 2 and a field complex
    # given sparse integer rows
    c = complex_from_data(1, {0: [0, 0], 1: [0, 0]}, {0: [[2, 1], [3, 1]]})
    out = gaussian_eliminate(c, 0, 0, 0)
    assert out.mats[0] == ({0: Fraction(-1, 2)},)
    fc = FieldComplex({0: (0, 0), 1: (0, 0)}, {0: [{0: 2, 1: 1}, {0: 3, 1: 1}]})
    out = gaussian_eliminate(fc, 0, 0, 0)
    assert out.mats[0] == ({0: Fraction(-1, 2)},)
    assert_canonical(out)
    # integral Fractions in, and an entry that turns integral by
    # cancellation: 7/4 - (3/4) 1 = 1
    rows = [{0: Fraction(2), 1: 1}, {0: Fraction(3, 2), 1: Fraction(7, 4)}]
    fc = FieldComplex({0: (0, 0), 1: (0, 0)}, {0: rows})
    assert fc.mats[0][0] == {0: 2, 1: 1}
    assert_canonical(fc)
    out = gaussian_eliminate(fc, 0, 0, 0)
    assert out.mats[0] == ({0: 1},)
    assert_canonical(out)

    for c in corpus_complexes(4):
        as_fractions = GradedComplex(
            c.ring, c.degrees, {i: sparse_rows(cells) for i, cells in dense_mats(c).items()}
        )
        d = decompose(c)
        assert decompose(as_fractions) == d
        assert _no_float((d.free_pieces, d.torsion_pieces))


# -- the row store ----------------------------------------------------------


def assert_one_row_store(c):
    """The a = 1 specialization shares c's rows, the a = 0 one keeps the
    exponent-0 cells of the dense view, the HomMatrix view shows the
    stored rows, and the store alone rebuilds c."""
    views = c.differentials
    filtered = specialize_a_to_1(c)
    assert filtered.mats.keys() == c.mats.keys() == views.keys()
    for i, rows in c.mats.items():
        assert filtered.mats[i] is rows
        assert views[i].rows == rows
    assert reduce_mod_a(c).mats == {
        i: tuple(
            {col: x for col, x in enumerate(cells) if x and d.source_degrees[col] == tdeg}
            for tdeg, cells in zip(d.target_degrees, d.entries)
        )
        for i, d in views.items()
    }
    assert GradedComplex(c.ring, c.degrees, c.mats) == c


def test_one_row_store(cubes):
    ladder = [c for word, c in cubes if word != BRAIDS[-1][0]]
    assert len(ladder) == 12
    for c in ladder + corpus_complexes(5):
        assert_one_row_store(c)


def test_complex_keeps_its_own_rows():
    """Rows the caller mutates after the construction leave the complex
    as it was."""
    rows = [{0: 1, 1: Fraction(4, 2)}, {}]
    c = GradedComplex(GradedRing(1), {0: (0, 0), 1: (0, 2)}, {0: rows})
    rows[0][1] = 5
    rows[1][0] = 1
    del rows[0][0]
    assert c.mats == {0: ({0: 1, 1: 2}, {})}
