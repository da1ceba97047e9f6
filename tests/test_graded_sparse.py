"""Graded complexes on sparse rows against frozen dense references.

HomMatrix stores {col: value} rows of its nonzeros, each value an int
when integral and a Fraction otherwise.  Validation (homogeneity and
d^2 = 0), decompose's splitting and Gaussian elimination all follow
the nonzeros.  The dense code they replaced is kept below, verbatim up
to storage, as the reference: every piece, verdict, error message and
eliminated complex must agree with it.
"""

import importlib
import random
import re
from fractions import Fraction

import pytest

from builders import direct_sum, shifted, twobraid_unreduced, unit_pivots
from dense_la import dense_matmul, dense_row_reduce, dense_rows, sparse_rows
from twkit import corpus, exactla
from twkit.algebra import GradedRing, HomMatrix
from twkit.complexes import (
    ComplexError,
    FieldComplex,
    FilteredFieldComplex,
    GradedComplex,
    InternalError,
    check_differentials,
    complex_from_data,
    gaussian_eliminate,
    reduce_mod_a,
    specialize_a_to_1,
)
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import Decomposition, _split_pieces, decompose, reassemble
from twkit.links import (
    LinkDiagram,
    Sl2Potential,
    TwoBraidSpec,
    build_sl2_cube,
    build_twobraid,
)

# twkit re-exports a function named decompose over the module's name
decompose_module = importlib.import_module("twkit.decompose")

# -- the frozen dense reference -----------------------------------------


def dense(d):
    """A HomMatrix's cells as mutable lists of Fraction."""
    return [[Fraction(x) for x in row] for row in d.entries]


def reference_hom_matrix_validate(ring, src, tgt, rows):
    d2k = ring.a_degree
    for r in range(len(tgt)):
        tdeg = tgt[r]
        row = rows[r]
        for c in range(len(src)):
            if row[c]:
                gap = src[c] - tdeg
                if gap < 0 or gap % d2k:
                    return (r, c)
    return None


def dense_mats(c):
    return {i: dense(d) for i, d in c.differentials.items()}


def reference_validate(c, mats=None):
    """The graded complex check on dense cells (mats, from dense_mats by
    default): raises the same ComplexError, or returns None."""
    mats = dense_mats(c) if mats is None else mats
    for i, d in sorted(c.differentials.items()):
        bad = reference_hom_matrix_validate(d.ring, d.source_degrees, d.target_degrees, mats[i])
        if bad is not None:
            raise ComplexError(
                "differential at degree %d is not homogeneous at entry %r" % (i, bad)
            )
    for i in sorted(c.differentials):
        if i + 1 in c.differentials:
            product = dense_matmul(mats[i + 1], mats[i], c.differentials[i].ncols)
            if not all(not x for row in product for x in row):
                raise ComplexError(
                    "d^2 != 0 on the square starting at degree %d (maps %d->%d->%d)"
                    % (i, i, i + 1, i + 2)
                )


def reference_field_validate(fc):
    """FieldComplex's own check, with its level rule per class, as it
    stood before the three complex types shared one check: raises its
    ComplexError, or returns None."""

    def label_ok(src_label, tgt_label):
        if isinstance(fc, FilteredFieldComplex):
            return tgt_label <= src_label
        return src_label == tgt_label

    for i, rows in sorted(fc.mats.items()):
        src = fc.degrees.get(i, ())
        tgt = fc.degrees.get(i + 1, ())
        if len(rows) != len(tgt) or any(c < 0 or c >= len(src) for row in rows for c in row):
            raise ComplexError("shape mismatch at degree %d" % i)
        for r, row in enumerate(rows):
            for c in sorted(row):
                if not label_ok(src[c], tgt[r]):
                    raise ComplexError(
                        "entry (%d, %d) at degree %d violates the grading"
                        % (r, c, i)
                    )
    for i, rows in sorted(fc.mats.items()):
        nxt = fc.mats.get(i + 1)
        if nxt is not None and any(exactla.matmul(nxt, rows)):
            raise ComplexError("d^2 != 0 on the square starting at degree %d" % i)


def _argsort(values, reverse=False):
    idx = list(range(len(values)))
    idx.sort(key=(lambda r: -values[r]) if reverse else (lambda r: values[r]))
    return idx


def reference_split_pieces(c, dense_rows=None):
    """decompose's (free, torsion, dropped) on dense cells (dense_rows,
    from dense_mats by default, left unchanged)."""
    dense_rows = dense_mats(c) if dense_rows is None else dense_rows
    two_k = c.ring.a_degree
    degs = {i: list(c.degrees[i]) for i in sorted(c.degrees)}
    mats = {}
    zero = Fraction(0)
    for i in sorted(degs):
        if i + 1 in degs:
            d = dense_rows.get(i)
            mats[i] = [list(r) for r in d] if d is not None else [[zero] * len(degs[i]) for _ in degs[i + 1]]

    free = []
    torsion = []
    dropped = 0
    for n in sorted(degs):
        src = degs[n]
        if not src:
            continue
        ps = _argsort(src)
        src[:] = [src[j] for j in ps]
        d = mats.get(n)
        tgt = degs.get(n + 1)
        nxt = mats.get(n + 1)
        if d is not None:
            for r in range(len(d)):
                d[r] = [d[r][j] for j in ps]
            pt = _argsort(tgt, reverse=True)
            tgt[:] = [tgt[r] for r in pt]
            mats[n] = [d[r] for r in pt]
            d = mats[n]
            if nxt is not None:
                for r in range(len(nxt)):
                    nxt[r] = [nxt[r][j] for j in pt]

        while src:
            pivots = [r for r, row in enumerate(d or ()) if row[0]]
            if not pivots:
                free.append((n, src[0]))
                del src[0]
                if d:
                    for r in range(len(d)):
                        del d[r][0]
                continue

            l = pivots[0]
            gap = src[0] - tgt[l]
            if gap < 0 or gap % two_k:
                raise InternalError("decompose", "pivot violates homogeneity")
            m = gap // two_k
            reference_clear_pivot_column(d, nxt, pivots)
            if m == 0:
                dropped += 1
            else:
                torsion.append((n + 1, m, tgt[l]))
            del src[0]
            for r in range(len(d)):
                del d[r][0]
            del tgt[l]
            del d[l]

    return free, torsion, dropped


def reference_clear_pivot_column(d, nxt, pivots):
    l = pivots[0]
    row_l = d[l]
    support = [j for j, x in enumerate(row_l) if x]
    ratios = []
    for i in pivots[1:]:
        row = d[i]
        ratio = row[0] / row_l[0]
        ratios.append((i, ratio))
        for j in support:
            row[j] -= ratio * row_l[j]
    for row in nxt or ():
        acc = row[l]
        for i, ratio in ratios:
            if row[i]:
                acc += ratio * row[i]
        if acc:
            raise InternalError("decompose", "outgoing column of a split target did not vanish")
        del row[l]


def reference_schur(rows, row, col):
    phi = rows[row][col]
    inv = 1 / phi
    out = []
    for r, full in enumerate(rows):
        if r == row:
            continue
        gamma = full[col]
        out.append([full[cc] - gamma * inv * rows[row][cc] for cc in range(len(full)) if cc != col])
    return out


def reference_eliminate_graded(degrees, mats, h, row, col):
    """({degree: generator degrees}, {degree: dense rows}) of the
    complex on degrees and dense rows mats after eliminating the pair,
    by the dense Schur complement."""
    degrees = {i: list(v) for i, v in degrees.items()}
    mats = dict(mats)
    d = mats.pop(h)
    del degrees[h][col]
    del degrees[h + 1][row]
    if degrees[h] and degrees[h + 1]:
        mats[h] = reference_schur(d, row, col)
    if h - 1 in mats:
        if degrees[h]:
            mats[h - 1] = [r for i, r in enumerate(mats[h - 1]) if i != col]
        else:
            del mats[h - 1]
    if h + 1 in mats:
        if degrees[h + 1]:
            mats[h + 1] = [[x for i, x in enumerate(r) if i != row] for r in mats[h + 1]]
        else:
            del mats[h + 1]
    return {i: v for i, v in degrees.items() if v}, mats


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
    """Every value a graded or field complex stores is a nonzero int or
    a non-integral Fraction."""
    mats = c.mats if isinstance(c, FieldComplex) else {i: d.rows for i, d in c.differentials.items()}
    for rows in mats.values():
        for row in rows:
            for x in row.values():
                assert (type(x) is int and x) or (type(x) is Fraction and x.denominator > 1), x


def assert_matches_reference(c):
    reference_validate(c)
    check_differentials(c.degrees, {i: d.rows for i, d in c.differentials.items()}, c.ring.a_degree)
    assert _split_pieces(c) == reference_split_pieces(c)
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


def test_split_pieces_exercises_clearing(cubes, monkeypatch):
    """The cube inputs reach the clearing step with several holders in
    a column, with fill-in and with a next differential to check, so the
    comparisons are not vacuous."""
    seen = {"holders": 0, "fill": 0, "next": 0}
    original = decompose_module._clear_pivot_column

    def counting(d, holders, nxt, nxt_holders, j, l):
        before = sum(len(row) for row in d)
        cleared = len(holders[j]) - 1
        if cleared:
            seen["holders"] += 1
        if nxt_holders.get(l):
            seen["next"] += 1
        original(d, holders, nxt, nxt_holders, j, l)
        # more entries than the cleared column left behind: fill-in
        if sum(len(row) for row in d) > before - cleared:
            seen["fill"] += 1

    monkeypatch.setattr(decompose_module, "_clear_pivot_column", counting)
    for _, c in cubes:
        _split_pieces(c)
    assert min(seen.values()) > 20, seen


def _error(fn):
    try:
        fn()
    except ComplexError as e:
        return str(e)
    return None


def _with_entry(c, i, r, col, x):
    """c's differentials as sparse rows, with entry (r, col) of d^i set to x."""
    diffs = {j: list(e.rows) for j, e in c.differentials.items()}
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
            i = rng.choice(sorted(c.differentials))
            d = c.differentials[i]
            r, col = rng.randrange(len(d.rows)), rng.randrange(d.ncols)
            gap = d.source_degrees[col] - d.target_degrees[r]
            x = rng.choice((1, -2, Fraction(1, 3)))
            if gap >= 0 and gap % c.ring.a_degree == 0:
                # homogeneous: likely breaks d^2 = 0 instead
                x = d.rows[r].get(col, 0) + x
                if not x:
                    continue
            diffs = _with_entry(c, i, r, col, x)
            mats = {j: dense_rows(rows, c.differentials[j].ncols) for j, rows in diffs.items()}
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
                rows[r] = {**rows[r], col: rows[r].get(col, 0) + rng.choice((1, -2, Fraction(1, 3)))}
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
        assert sorted(got.differentials) == sorted(c.differentials)
        for i, d in c.differentials.items():
            n = c.rank(i)
            inner = dense_matmul(dense_rows(autos[i + 1][0], c.rank(i + 1)), dense(d), n)
            want = dense_matmul(inner, dense_rows(autos[i][1], n), n)
            assert dense(got.differentials[i]) == want
            changed += want != dense(d)
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
            if not c.differentials:
                break
            h = rng.choice(sorted(c.differentials))
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
    got = {i: dense(d) for i, d in out.differentials.items() if not d.is_zero()}
    assert got == nonzero_maps(mats)
    assert_canonical(out)
    for fc in (reduce_mod_a(c), specialize_a_to_1(c)):
        degrees, mats = reference_eliminate_graded(
            fc.degrees,
            {i: [[Fraction(x) for x in r] for r in dense_rows(fc.mats[i], fc.rank(i))] for i in fc.mats},
            h,
            row,
            col,
        )
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
        scales.extend(a for _, a, _ in steps)
        return steps

    monkeypatch.setattr(exactla, "clear_column", recording)
    rng = random.Random(25)
    non_unit = 0
    for n in range(150):
        c = non_unit_complex(rng, mixed=n % 2)
        for _ in range(3):
            if not c.differentials:
                break
            h = rng.choice(sorted(c.differentials))
            pivots = unit_pivots(c, h)
            if not pivots:
                continue
            rows = c.differentials[h].rows
            pivots = [(r, col) for r, col in pivots if rows[r][col] not in (1, -1)] or pivots
            row, col = rng.choice(pivots)
            non_unit += rows[row][col] not in (1, -1)
            c = assert_eliminates_as_reference(c, h, row, col)
    assert non_unit > 150
    assert sum(a != 1 for a in scales) > 150


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
    assert out.differentials[0].rows == ({0: Fraction(-1, 2)},)
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
            c.ring, c.degrees, {i: sparse_rows(dense(d)) for i, d in c.differentials.items()}
        )
        assert decompose(as_fractions) == decompose(c)
        assert _no_float(_split_pieces(c))
