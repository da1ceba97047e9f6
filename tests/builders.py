"""Fixtures and references that no twkit code path needs: shifts and
block direct sums of complexes, the homology read off a decomposition,
decompose held to a frozen splitting, the 2-braid's homology worked out
by hand, unit pivots, and the unreduced 2-braid that criterion 9
eliminates, whose -X is the frozen matrix of x2."""

from frozen_twobraid import reference_x_matrix
from twkit.algebra import GradedModuleDescriptor, GradedRing
from twkit.complexes import GradedComplex
from twkit.decompose import Decomposition, decompose


def shifted(c, di=0, ds=0):
    """||di|| {ds}: homological degrees up by di, polynomial degrees up
    by ds, no sign twist."""
    return GradedComplex(
        c.ring,
        {i + di: tuple(x + ds for x in v) for i, v in c.degrees.items()},
        {i + di: d.rows for i, d in c.differentials.items()},
    )


def direct_sum(*complexes):
    """Block direct sum over the first summand's ring, generators in
    summand order."""
    degrees = {}
    for c in complexes:
        for i, v in c.degrees.items():
            degrees.setdefault(i, []).extend(v)
    diffs = {}
    for i in set().union(*(c.differentials for c in complexes)):
        rows = diffs[i] = []
        coff = 0
        for c in complexes:
            d = c.differentials.get(i)
            if d is None:
                rows.extend({} for _ in range(c.rank(i + 1)))
            else:
                rows.extend({coff + cc: x for cc, x in row.items()} for row in d.rows)
            coff += c.rank(i)
    return GradedComplex(complexes[0].ring, degrees, diffs)


def homology_structure(d):
    """{i: GradedModuleDescriptor} of any complex that decomposes as d:
    a free piece (i, s) gives k[a]{s} at degree i, a torsion piece
    (i, m, s) gives k[a]/(a^m){s} at degree i."""
    by_degree = {}
    for i, s in d.free_pieces:
        by_degree.setdefault(i, ([], []))[0].append(s)
    for i, m, s in d.torsion_pieces:
        by_degree.setdefault(i, ([], []))[1].append((m, s))
    return {i: GradedModuleDescriptor(tuple(fr), tuple(to)) for i, (fr, to) in by_degree.items()}


def assert_splits_as(c, reference):
    """decompose(c) is a frozen splitting's (free, torsion, dropped):
    the same pieces, and by rank accounting the same number of dropped
    contractible pairs."""
    free, torsion, dropped = reference
    d = decompose(c)
    assert d == Decomposition(c.ring.k, tuple(free), tuple(torsion))
    assert c.total_rank() - len(d.free_pieces) - 2 * len(d.torsion_pieces) == 2 * dropped


def twobraid_homology(N, i):
    """homology_structure of the 2-braid for P = x^(N+1) + b x^i, by
    eliminating the closed three-summand form by hand: hom 0 holds the
    rank-N quotient module shifted to {-4N+4}, hom 4 its N-1 copies
    shifted down by two each, and the middle map -x^(N-1) leaves i - 1
    free pairs at hom 2 and 3 plus N - i width-one torsion classes."""
    free = {
        0: [-4 * N + 4 + 2 * j for j in range(N)],
        2: [2 * (-N - i + j + 1) for j in range(i - 1)],
        3: [-6 * N + 2 * j + 2 for j in range(i - 1)],
        4: [-4 * N - 4 - 2 * l + 2 * j for l in range(N - 1) for j in range(N)],
    }
    tors = {3: [(1, -6 * N + 2 * j + 2) for j in range(i - 1, N - 1)]}
    out = {h: GradedModuleDescriptor(free[h], tors.get(h, ())) for h in free}
    return {h: m for h, m in out.items() if m}


def unit_pivots(c, h):
    """The (row, col) of every nonzero entry of d^h joining generators of
    equal degree: the pivots gaussian_eliminate can cancel."""
    d = c.differentials[h]
    return [(r, col) for r, row in enumerate(d.rows) for col in row if d.source_degrees[col] == d.target_degrees[r]]


def twobraid_unreduced(spec):
    """The 2-braid's middle summand before simplification: (N-1)x(N-1)
    blocks over M, identity on the diagonal, -X on the superdiagonal
    and in the lower-left corner.  Cancelling its unit blocks recovers
    the two-term -x2^(N-1) complex."""
    N = spec.N
    mdegs = [2 * j for j in range(N)]
    src = tuple(d + 2 * j + 4 - 6 * N for j in range(N - 1) for d in mdegs)
    tgt_shifts = [2 * r + 4 - 6 * N for r in range(N - 2)] + [2 - 6 * N]
    tgt = tuple(d + shift for shift in tgt_shifts for d in mdegs)
    neg_x = [{c: -x for c, x in row.items()} for row in reference_x_matrix(spec)]
    rows = [{} for _ in tgt]

    def fill(block_r, block_c, scalars):
        for r, row in enumerate(scalars):
            rows[block_r * N + r].update((block_c * N + c, x) for c, x in row.items())

    for r in range(N - 2):
        fill(r, r, [{a: 1} for a in range(N)])
        fill(r, r + 1, neg_x)
    fill(N - 2, 0, neg_x)
    return GradedComplex(GradedRing(spec.k), {2: src, 3: tgt}, {2: rows})
