"""The model couple of a whole decomposition and its one derivation
chain, frozen before couples.couple_tables derived one chain per piece
shape and summed the pages, as the reference the rewrite is checked
against (tests/test_couples.py, tests/test_cli.py); and the derivation
and exactness check of a couple, frozen before the chain's memo of
eliminations replaced them, on dense views of the maps with the dense
helpers of dense_la (tests/test_couples.py).

couple_from_decomposition puts every piece's towers and classes into
one couple, each slot listing the pieces that lie there; couple_tables
derives that couple count - 1 times and reads each E table.  Only
ExactCouple, its memo, its window error, the decomposition type and
torsion_width come from twkit; the code is kept as it was.
"""

from fractions import Fraction

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
from twkit.couples import ExactCouple, InsufficientWindow, _Eliminations
from twkit.decompose import Decomposition, torsion_width


def couple_from_decomposition(d: Decomposition) -> ExactCouple:
    """The model couple of a decomposition, as concrete matrices.

    One free tower per free piece (slots s, s+2k, ... up to the window
    top; f shifts slots, g hits E at the bottom slot, h = 0) and one
    truncated tower of length m per torsion piece (f shifts and kills
    the top slot, g hits E at the bottom, h sends the paired E class at
    (i-1, s+2km) onto the top slot).  The window pads the extreme
    generator degrees by 2k(tw + 2), enough for tw + 2 derivations.
    """
    k2 = 2 * d.k
    degrees = [s for _, s in d.free_pieces]
    for _, m, s in d.torsion_pieces:
        degrees.extend((s, s + k2 * m))
    if not degrees:
        return ExactCouple(d.k, (0, 0), {}, {}, {}, {}, {}, 0, validate=False)
    pad = k2 * (torsion_width(d) + 2)
    lo, hi = min(degrees) - pad, max(degrees) + pad

    # each slot lists the pieces whose towers or classes lie there, free
    # pieces first, each tagged by its index in that order.  A piece's
    # tower and bottom class lie in its homological degree i and its top
    # class in i - 1, so f, g and h each send a tag to the same tag in
    # their target slot, when it lies there.
    a_basis, e_basis = {}, {}
    for tag, (i, s) in enumerate(d.free_pieces):
        for t in range(s, hi + 1, k2):
            a_basis.setdefault((i, t), []).append(tag)
        e_basis.setdefault((i, s), []).append(tag)
    for tag, (i, m, s) in enumerate(d.torsion_pieces, len(d.free_pieces)):
        for t in range(s, s + k2 * m, k2):
            a_basis.setdefault((i, t), []).append(tag)
        e_basis.setdefault((i, s), []).append(tag)
        e_basis.setdefault((i - 1, s + k2 * m), []).append(tag)
    memo, made = _Eliminations(), {}

    def unit_map(sources, targets, di, ds):
        """{(i, s): rows} over the source slots whose target slot
        (i + di, s + ds) is nonempty: column c holds a 1 at the row of
        tag c, when that tag lies there.  Each distinct matrix is
        interned once."""
        out = {}
        for (i, s), tags in sources.items():
            target = targets.get((i + di, s + ds))
            if target:
                pos = {tag: r for r, tag in enumerate(target)}
                shape = (len(target), tuple(map(pos.get, tags)))
                if shape not in made:
                    rows = [{} for _ in target]
                    for c, r in enumerate(shape[1]):
                        if r is not None:
                            rows[r][c] = 1
                    made[shape] = memo.intern(rows)
                out[(i, s)] = made[shape]
        return out

    # f kills a truncated tower's top slot, g is nonzero only on a
    # tower's bottom slot and h only on a torsion piece's top class
    f = unit_map(a_basis, a_basis, 0, k2)
    g = unit_map(a_basis, e_basis, 0, 0)
    h = unit_map(e_basis, a_basis, 1, -k2)

    return ExactCouple(
        d.k,
        (lo, hi),
        {key: len(tags) for key, tags in a_basis.items()},
        {key: len(tags) for key, tags in e_basis.items()},
        f,
        g,
        h,
        0,
        memo=memo,
    )


def couple_tables(d: Decomposition, count: int):
    """Pages 1..count of the model couple of d, from one derivation
    chain (count - 1 derivations; the first page when count < 1)."""
    c = couple_from_decomposition(d)
    tables = [c.e_table()]
    while len(tables) < count:
        c = c.derive()
        tables.append(c.e_table())
    return tables


def dense_map(c, name, i, s):
    """c's map f, g or h out of (i, s) as dense Fraction rows: the
    stored rows, or as many zero rows as the target has generators.
    Each A slot it reads must lie inside the window."""
    ncols = c.e_dim(i, s) if name == "h" else c.a_dim(i, s)
    rows = getattr(c, "_" + name).get((i, s))
    if rows is None:
        if name == "f":
            rows = ({},) * c.a_dim(i, s + 2 * c.k)
        elif name == "g":
            rows = ({},) * c.e_dim(i, s + c.g_shift)
        else:
            rows = ({},) * c.a_dim(i + 1, s - 2 * c.k)
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
