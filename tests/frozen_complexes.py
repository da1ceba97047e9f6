"""The checks, the elimination and decompose's splitting of complexes,
each frozen before it followed the nonzeros of sparse rows or went
fraction-free, as the one reference its rewrite is checked against
(tests/test_graded_sparse.py, tests/test_decompose.py).

The graded check tested homogeneity cell by cell in row-major order and
d^2 = 0 by a dense product; the field complexes had their own check,
with its level rule per class, before the three complex types shared
one; Gaussian elimination took the dense Schur complement.  decompose
split column by column in order of source degree: the first holder of
the highest target degree is the pivot, and every other holder loses
its entry over the pivot times the pivot row.  Each reads a complex
through its degrees and its rows, c.mats.  Only the complex types,
their error and exactla.matmul come from twkit; the code is kept as it
was.
"""

from fractions import Fraction

from dense_la import dense_matmul, dense_rows
from twkit import exactla
from twkit.complexes import ComplexError, FilteredFieldComplex


def dense_mats(c):
    """c's differentials as dense rows of Fraction, read off c.mats."""
    return {i: [[Fraction(x) for x in row] for row in dense_rows(rows, c.rank(i))] for i, rows in c.mats.items()}


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


def reference_validate(c, mats=None):
    """The graded complex check on dense cells (mats, from dense_mats by
    default): raises the same ComplexError, or returns None."""
    mats = dense_mats(c) if mats is None else mats
    for i in sorted(c.mats):
        bad = reference_hom_matrix_validate(c.ring, c.degrees[i], c.degrees[i + 1], mats[i])
        if bad is not None:
            raise ComplexError(
                "differential at degree %d is not homogeneous at entry %r" % (i, bad)
            )
    for i in sorted(c.mats):
        if i + 1 in c.mats:
            product = dense_matmul(mats[i + 1], mats[i], c.rank(i))
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


def rational_split_pieces(c):
    """decompose's (free, torsion, dropped) as it was before its pivot
    step went fraction-free, frozen as the reference: the first holder
    of the highest target degree is the pivot, and every other holder
    loses its entry over the pivot times the pivot row."""
    two_k = c.ring.a_degree
    free, torsion, dropped = [], [], 0
    rows, split = None, set()
    for n in sorted(c.degrees):
        src, tgt = c.degrees[n], c.degrees.get(n + 1, ())
        if rows is None:
            rows = [dict(row) for row in c.mats.get(n, ())]
        nxt = [dict(row) for row in c.mats.get(n + 1, ())]
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
    return free, torsion, dropped
