"""The sl(2) cube builder frozen before its merge and split loops
became one edge routine, as the reference the rewrite is checked
against (tests/test_cube_builder.py, benchmarks/bench_complexes.py).

It walks tensor states as bit lists, with one loop for merges and one
for splits, and adds each cube entry into its row.  Only the graded
types it returns come from twkit; the rest is kept as it was.
"""

from itertools import product

from twkit.algebra import GradedRing
from twkit.complexes import ComplexError, GradedComplex
from twkit.exactla import canonical


def _add(row, col, x):
    """row[col] += x on a sparse row, dropping a zero sum."""
    x += row.get(col, 0)
    if x:
        row[col] = x
    else:
        row.pop(col, None)


def _resolution_circles(crossings, state):
    """Union-find circles of a full resolution: (count, arc -> index),
    circles ordered by smallest arc label."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arcs = set()
    for _, quad in crossings:
        arcs.update(quad)
    for (_, (a, b, c, d)), s in zip(crossings, state):
        if s == 0:
            parent[find(a)] = find(b)
            parent[find(c)] = find(d)
        else:
            parent[find(a)] = find(d)
            parent[find(b)] = find(c)
    classes = {}
    for a in arcs:
        classes.setdefault(find(a), []).append(a)
    reps = sorted(classes, key=lambda r: min(classes[r]))
    index = {r: i for i, r in enumerate(reps)}
    return len(reps), {a: index[find(a)] for a in arcs}


def reference_sl2_cube(diagram, potential):
    """build_sl2_cube as it stood before its edge loop was rewritten."""
    ring = GradedRing(potential.k)
    alpha, beta = (None if part is None else canonical(part[0]) for part in potential.x_square())
    crossings = diagram.crossings
    n = len(crossings)
    signs = [s for s, _ in crossings]
    w = diagram.writhe
    loops = diagram.free_loops

    vertices = sorted(product((0, 1), repeat=n))
    circ = {v: _resolution_circles(crossings, v) for v in vertices}

    def hbar(v):
        return sum(1 for c in range(n) if signs[c] > 0 and v[c] == 1) - sum(
            1 for c in range(n) if signs[c] < 0 and v[c] == 0
        )

    def factors(v):
        return circ[v][0] + loops

    # global generator layout: vertices in sorted order within each
    # homological degree, tensor bits most-significant-first
    degree_lists = {}
    offsets = {}
    for v in vertices:
        i = -hbar(v)
        block = degree_lists.setdefault(i, [])
        offsets[v] = len(block)
        shift = w + hbar(v)
        for bits in product((0, 1), repeat=factors(v)):
            block.append(shift + sum(1 if b else -1 for b in bits))

    def bit_index(bits):
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    mats = {}
    for i, degs in degree_lists.items():
        if i + 1 in degree_lists:
            mats[i] = [{} for _ in degree_lists[i + 1]]

    for v in vertices:
        for c in range(n):
            if v[c] != 1:
                continue
            u = v[:c] + (0,) + v[c + 1:]
            sgn = -1 if sum(1 for cc in range(c) if v[cc] == 0) % 2 else 1
            cv, lv = circ[v]
            cu, lu = circ[u]
            back = {}
            for arc, cj in lu.items():
                back.setdefault(cj, set()).add(lv[arc])
            rows = mats[-hbar(v)]
            src_off = offsets[v]
            tgt_off = offsets[u]
            mv = factors(v)
            mu = factors(u)
            if cu == cv - 1:
                (join_cj, pair) = next(
                    (cj, sorted(srcs)) for cj, srcs in back.items() if len(srcs) == 2
                )
                for bits in product((0, 1), repeat=mv):
                    tgt_base = [0] * mu
                    for cj, srcs in back.items():
                        if cj != join_cj:
                            tgt_base[cj] = bits[next(iter(srcs))]
                    for t in range(loops):
                        tgt_base[cu + t] = bits[cv + t]
                    total = bits[pair[0]] + bits[pair[1]]
                    terms = []
                    if total == 0:
                        terms.append((0, 1))
                    elif total == 1:
                        terms.append((1, 1))
                    else:
                        if alpha is not None:
                            terms.append((1, alpha))
                        if beta is not None:
                            terms.append((0, beta))
                    col = src_off + bit_index(bits)
                    for joined_bit, scalar in terms:
                        tgt = list(tgt_base)
                        tgt[join_cj] = joined_bit
                        _add(rows[tgt_off + bit_index(tgt)], col, sgn * scalar)
            elif cu == cv + 1:
                fwd = {}
                for cj, srcs in back.items():
                    for s in srcs:
                        fwd.setdefault(s, []).append(cj)
                (split_ci, out_pair) = next(
                    (s, sorted(ts)) for s, ts in fwd.items() if len(ts) == 2
                )
                for bits in product((0, 1), repeat=mv):
                    tgt_base = [0] * mu
                    for ci in range(cv):
                        if ci != split_ci:
                            tgt_base[fwd[ci][0]] = bits[ci]
                    for t in range(loops):
                        tgt_base[cu + t] = bits[cv + t]
                    terms = []
                    if bits[split_ci] == 0:
                        terms.append(((0, 1), 1))
                        terms.append(((1, 0), 1))
                        if alpha is not None:
                            terms.append(((0, 0), -alpha))
                    else:
                        terms.append(((1, 1), 1))
                        if beta is not None:
                            terms.append(((0, 0), beta))
                    col = src_off + bit_index(bits)
                    for (b1, b2), scalar in terms:
                        tgt = list(tgt_base)
                        tgt[out_pair[0]] = b1
                        tgt[out_pair[1]] = b2
                        _add(rows[tgt_off + bit_index(tgt)], col, sgn * scalar)
            else:
                raise ComplexError(
                    "invalid PD code: resolution change is not a merge or split"
                )

    degrees = {i: degs for i, degs in degree_lists.items() if degs}
    diffs = {i: rows for i, rows in mats.items() if rows}
    return GradedComplex(ring, degrees, diffs)
