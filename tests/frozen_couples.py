"""The model couple of a whole decomposition and its one derivation
chain, frozen before couples.couple_tables derived one chain per piece
shape and summed the pages, as the reference the rewrite is checked
against (tests/test_couples.py, tests/test_cli.py).

couple_from_decomposition puts every piece's towers and classes into
one couple, each slot listing the pieces that lie there; couple_tables
derives that couple count - 1 times and reads each E table.  Only
ExactCouple, its memo and the decomposition types come from twkit; the
code is kept as it was.
"""

from twkit.couples import ExactCouple, _Eliminations
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
