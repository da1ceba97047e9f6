"""Link-diagram front ends producing graded complexes over C[a].

Two sources.  The state-sum cube for N = 2 builds the complex of any
diagram from a rank-2 Frobenius algebra whose multiplication rule is
x^2 = alpha x + beta, with alpha and beta read off the potential.  For
general N only the four-crossing closed 2-braid is supported, via its
known three-summand form; its middle summand is multiplication by
-x2^(N-1) on the rank-N quotient module M.

Conventions for the cube: crossings are (sign, (a, b, c, d)) with arcs
listed counterclockwise from the incoming under-strand; the
0-smoothing joins a-b and c-d, the 1-smoothing joins a-d and b-c.  A
vertex v of the cube resolves crossing c by v[c]; the differential
flips one 1 to 0, which raises the homological degree -hbar(v) by one,
where hbar counts 1-resolved positive crossings minus 0-resolved
negative ones.  A circle carries generators 1 and x in polynomial
degrees -1 and +1, and a vertex is shifted by writhe + hbar(v).  With
these choices the crossingless unknot lands in degrees {-1, 1} at
homological degree 0, matching the closed form for the unknot at
N = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest

from .algebra import GradedFreeModule, GradedRing, HomMatrix, add_to_row, hom_matrix_validate
from .complexes import (
    ComplexError,
    FirstDifferential,
    GradedComplex,
    InternalError,
    first_differential,
    reduce_mod_a,
)
from .exactla import canonical, matmul


# -- diagrams ----------------------------------------------------------


@dataclass(frozen=True)
class LinkDiagram:
    """A link diagram as signed PD crossings plus crossingless loops.

    crossings: a sequence of (sign, (a, b, c, d)) pairs, as a parsed
    JSON PD code gives them, with the sign an int +1 or -1 and the arc
    labels ints (never a bool or a float); anything else is refused as
    an invalid PD code.
    """

    crossings: tuple = ()
    free_loops: int = 0

    def __post_init__(self):
        sequences = (list, tuple)
        if not isinstance(self.crossings, sequences):
            raise ValueError("invalid PD code: expected an array of [sign, [a, b, c, d]] crossings")
        norm = []
        seen = {}
        for entry in self.crossings:
            if not (isinstance(entry, sequences) and len(entry) == 2 and isinstance(entry[1], sequences)):
                raise ValueError("invalid PD code: a crossing must be [sign, [a, b, c, d]]")
            sign, arcs = entry
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError("invalid PD code: crossing sign must be +1 or -1")
            if any(type(a) is not int for a in arcs):
                raise ValueError("invalid PD code: arc labels must be integers")
            arcs = tuple(arcs)
            if len(arcs) != 4:
                raise ValueError("invalid PD code: crossing needs 4 arc labels")
            for a in arcs:
                seen[a] = seen.get(a, 0) + 1
            norm.append((sign, arcs))
        for a, count in sorted(seen.items()):
            if count != 2:
                raise ValueError(
                    "invalid PD code: arc %d appears %d times, expected 2" % (a, count)
                )
        if self.free_loops < 0:
            raise ValueError("free_loops must be non-negative")
        object.__setattr__(self, "crossings", tuple(norm))

    @property
    def writhe(self) -> int:
        return sum(s for s, _ in self.crossings)

    def n_crossings(self) -> int:
        return len(self.crossings)

    def mirror(self) -> "LinkDiagram":
        out = []
        for sign, (a, b, c, d) in self.crossings:
            if sign > 0:
                out.append((-1, (d, a, b, c)))
            else:
                out.append((+1, (b, c, d, a)))
        return LinkDiagram(tuple(out), self.free_loops)

    @classmethod
    def from_braid(cls, word, strands: int) -> "LinkDiagram":
        """Closure of a braid word (nonzero ints, +i/-i for the
        generator on positions i, i+1, bottom to top).  Strands never
        crossed become free loops."""
        used = set()
        for g in word:
            i = abs(g)
            if i < 1 or i >= strands:
                raise ValueError(
                    "generator %d out of range for %d strands" % (g, strands)
                )
            used.update((i, i + 1))
        free = sum(1 for p in range(1, strands + 1) if p not in used)
        cur = list(range(strands))
        nxt = strands
        crossings = []
        for g in word:
            i = abs(g) - 1
            lo, hi = cur[i], cur[i + 1]
            out_lo, out_hi = nxt, nxt + 1
            nxt += 2
            if g > 0:
                crossings.append((+1, (hi, out_hi, out_lo, lo)))
            else:
                crossings.append((-1, (lo, hi, out_hi, out_lo)))
            cur[i], cur[i + 1] = out_lo, out_hi
        alias = {cur[p]: p for p in range(strands) if cur[p] != p}
        pd = tuple(
            (sign, tuple(alias.get(a, a) for a in arcs)) for sign, arcs in crossings
        )
        return cls(pd, free)

    @classmethod
    def from_braid_text(cls, text: str, strands: int = None) -> "LinkDiagram":
        """Parse words like "s1 s1 s1 -s2"; bare integers also work."""
        word = []
        for token in text.split():
            t = token
            neg = t.startswith("-")
            if neg:
                t = t[1:]
            if t.startswith("s"):
                t = t[1:]
            try:
                i = int(t)
            except ValueError:
                raise ValueError("cannot parse braid letter %r" % token)
            if i < 1:
                raise ValueError("braid letter %r must reference s1, s2, ..." % token)
            word.append(-i if neg else i)
        if strands is None:
            strands = max((abs(g) for g in word), default=0) + 1
        return cls.from_braid(word, strands)


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


# -- the N = 2 potential and its Frobenius structure -------------------


@dataclass(frozen=True)
class Sl2Potential:
    """P(x, a) = x^3 + sum_j lambda_j a^j x^(3-jk) with deg a = 2k.

    Only k = 1 (terms a x^2, a^2 x) and k = 2 (term a x) keep the
    potential homogeneous of degree 6 at N = 2.
    """

    k: int
    lambdas: tuple = ()

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ValueError("k must be 1 or 2 at N = 2")
        norm = []
        seen = set()
        for j, coeff in self.lambdas:
            j = int(j)
            coeff = Fraction(coeff)
            if j < 1 or j * self.k > 2:
                raise ValueError("term a^%d x^%d is not allowed" % (j, 3 - j * self.k))
            if j in seen:
                raise ValueError("duplicate coefficient for a^%d" % j)
            seen.add(j)
            if coeff:
                norm.append((j, coeff))
        object.__setattr__(self, "lambdas", tuple(sorted(norm)))

    @classmethod
    def standard(cls) -> "Sl2Potential":
        """x^3 - a x, deg a = 4."""
        return cls(2, ((1, Fraction(-1)),))

    def coefficient(self, j) -> Fraction:
        for jj, coeff in self.lambdas:
            if jj == j:
                return coeff
        return Fraction(0)

    def x_square(self):
        """x^2 = alpha x + beta modulo dP/dx; each part is
        (scalar, a-exponent) or None when zero."""
        if self.k == 1:
            alpha = (-Fraction(2, 3) * self.coefficient(1), 1)
            beta = (-Fraction(1, 3) * self.coefficient(2), 2)
        else:
            alpha = None
            beta = (-Fraction(1, 3) * self.coefficient(1), 1)
        if alpha is not None and not alpha[0]:
            alpha = None
        if beta is not None and not beta[0]:
            beta = None
        return alpha, beta


def build_sl2_cube(diagram: LinkDiagram, potential: Sl2Potential) -> GradedComplex:
    """The cube complex of a diagram over C[a] at N = 2."""
    ring = GradedRing(potential.k)
    alpha, beta = potential.x_square()
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
                            terms.append((1, alpha[0]))
                        if beta is not None:
                            terms.append((0, beta[0]))
                    col = src_off + bit_index(bits)
                    for joined_bit, scalar in terms:
                        tgt = list(tgt_base)
                        tgt[join_cj] = joined_bit
                        add_to_row(rows[tgt_off + bit_index(tgt)], col, sgn * scalar)
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
                            terms.append(((0, 0), -alpha[0]))
                    else:
                        terms.append(((1, 1), 1))
                        if beta is not None:
                            terms.append(((0, 0), beta[0]))
                    col = src_off + bit_index(bits)
                    for (b1, b2), scalar in terms:
                        tgt = list(tgt_base)
                        tgt[out_pair[0]] = b1
                        tgt[out_pair[1]] = b2
                        add_to_row(rows[tgt_off + bit_index(tgt)], col, sgn * scalar)
            else:
                raise ComplexError(
                    "invalid PD code: resolution change is not a merge or split"
                )

    modules = {
        i: GradedFreeModule(tuple(degs)) for i, degs in degree_lists.items() if degs
    }
    diffs = {}
    for i, rows in mats.items():
        if rows:
            diffs[i] = HomMatrix(ring, modules[i].degrees, modules[i + 1].degrees, tuple(rows))
    return GradedComplex(ring, modules, diffs)


# -- the closed 2-braid family for general N ---------------------------


@dataclass(frozen=True)
class TwoBraidSpec:
    """Potential data for the four-crossing closed 2-braid.

    P(x, a) = x^(N+1) + sum_j lambda_j a^j x^(N+1-jk), deg a = 2k.
    """

    N: int
    k: int
    lambdas: tuple = ()

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        norm = []
        seen = set()
        for j, coeff in self.lambdas:
            j = int(j)
            coeff = Fraction(coeff)
            if j < 1 or j * self.k > self.N:
                raise ValueError(
                    "term a^%d x^%d falls outside the allowed form" % (j, self.N + 1 - j * self.k)
                )
            if j in seen:
                raise ValueError("duplicate coefficient for a^%d" % j)
            seen.add(j)
            if coeff:
                norm.append((j, coeff))
        object.__setattr__(self, "lambdas", tuple(sorted(norm)))

    @classmethod
    def power_basis(cls, N: int, i: int, coefficient=1) -> "TwoBraidSpec":
        """P = x^(N+1) + coefficient * b x^i with deg b = 2N+2-2i,
        so k = N+1-i; requires 1 <= i <= N."""
        if not 1 <= i <= N:
            raise ValueError("exponent i must satisfy 1 <= i <= N")
        return cls(N, N + 1 - i, ((1, Fraction(coefficient)),))

    def coefficient(self, j) -> Fraction:
        for jj, coeff in self.lambdas:
            if jj == j:
                return coeff
        return Fraction(0)


def _x_matrix(spec: TwoBraidSpec):
    """Multiplication by x2 on the basis {1, x2, ..., x2^(N-1)} of
    M = C[x2, a]/(dP/dx2), as sparse scalar rows.  Every entry is a
    monomial, and its a-exponent follows from the degrees: x2 maps
    x2^c to a^e x2^r with 2c + 2 = 2r + 2ke."""
    N = spec.N
    X = [{r - 1: 1} if r else {} for r in range(N)]
    # x2^N = -sum_j lambda_j (N+1-jk)/(N+1) a^j x2^(N-jk)
    for j, lam in spec.lambdas:
        X[N - j * spec.k][N - 1] = canonical(-lam * Fraction(N + 1 - j * spec.k, N + 1))
    return X


def _negated(rows):
    return tuple({c: -x for c, x in row.items()} for row in rows)


def build_twobraid(spec: TwoBraidSpec) -> GradedComplex:
    """The three-summand complex of the four-crossing closed 2-braid.

    Degree 0 holds M{-4N+4} and degree 4 holds the N-1 copies
    M{-4N-4-2l}, both with zero differential since they are free and
    contribute nothing past the first page.  Degrees 2 and 3 hold
    M{-4N} -> M{-6N+2} with differential -x2^(N-1)."""
    N = spec.N
    ring = GradedRing(spec.k)
    mdegs = [2 * j for j in range(N)]
    modules = {
        0: GradedFreeModule(tuple(d - 4 * N + 4 for d in mdegs)),
        2: GradedFreeModule(tuple(d - 4 * N for d in mdegs)),
        3: GradedFreeModule(tuple(d - 6 * N + 2 for d in mdegs)),
        4: GradedFreeModule(
            tuple(d - 4 * N - 4 - 2 * l for l in range(N - 1) for d in mdegs)
        ),
    }
    X = power = _x_matrix(spec)
    for _ in range(N - 2):
        power = matmul(power, X)
    diff = HomMatrix(ring, modules[2].degrees, modules[3].degrees, _negated(power))
    bad = hom_matrix_validate(diff)
    if bad is not None:
        raise InternalError("links", "x2^(N-1) is not homogeneous at entry %r" % (bad,))
    return GradedComplex(ring, modules, {2: diff})


def build_twobraid_unreduced(spec: TwoBraidSpec) -> GradedComplex:
    """The middle summand before simplification: the (N-1)x(N-1) block
    matrix over M with identity blocks on the diagonal, -X blocks on
    the superdiagonal, and -X in the lower-left corner.  Reducing its
    unit blocks recovers the two-term -x2^(N-1) complex."""
    N = spec.N
    ring = GradedRing(spec.k)
    mdegs = [2 * j for j in range(N)]
    src = tuple(d + 2 * j + 4 - 6 * N for j in range(N - 1) for d in mdegs)
    tgt_shifts = [2 * r + 4 - 6 * N for r in range(N - 2)] + [2 - 6 * N]
    tgt = tuple(d + shift for shift in tgt_shifts for d in mdegs)
    neg_x = _negated(_x_matrix(spec))
    rows = [{} for _ in tgt]

    def fill(block_r, block_c, scalars):
        for r, row in enumerate(scalars):
            rows[block_r * N + r].update((block_c * N + c, x) for c, x in row.items())

    for r in range(N - 2):
        fill(r, r, [{a: 1} for a in range(N)])
        fill(r, r + 1, neg_x)
    fill(N - 2, 0, neg_x)
    modules = {2: GradedFreeModule(src), 3: GradedFreeModule(tgt)}
    diff = HomMatrix(ring, src, tgt, tuple(rows))
    return GradedComplex(ring, modules, {2: diff})


# -- the battery of induced differentials ------------------------------


def _blocks_equal_scaled(g: FirstDifferential, base: FirstDifferential, lam) -> bool:
    """g's blocks are lam (nonzero) times base's, on the same dims."""
    scaled = {
        i: tuple({c: lam * x for c, x in row.items()} for row in b) for i, b in base.blocks.items()
    }
    return g.dims == base.dims and g.blocks == scaled


def _after(outer: FirstDifferential, inner: FirstDifferential, l: int):
    """outer's block out of l + 1 after inner's block out of l, as
    sparse rows; no rows when either block is zero."""
    a, b = outer.blocks.get(l + 1), inner.blocks.get(l)
    return matmul(a, b) if a and b else []


@dataclass(frozen=True)
class DeltaBattery:
    """Induced differentials of the power-basis potentials on the
    common mod-a homology of the 2-braid, with the verdicts."""

    N: int
    deltas: dict
    ranks: dict
    concentrated: bool
    top_vanishes: bool
    anticommute: bool
    scaling_ok: bool
    scalings: tuple

    def ok(self) -> bool:
        return (
            self.concentrated
            and self.top_vanishes
            and self.anticommute
            and self.scaling_ok
        )


def delta_battery(N: int, scalings=(Fraction(1), Fraction(5), Fraction(-2, 3))) -> DeltaBattery:
    """For each 1 <= i <= N compute the induced differential of
    P = x^(N+1) + b x^i on the mod-b homology of the 2-braid.

    All N complexes reduce to the identical mod-b complex, so the
    matrices share one basis.  Verdicts: every differential with
    i < N is nonzero exactly out of degree 2; the i = N one vanishes;
    all pairs anticommute (their products vanish degreewise); scaling
    the b-coefficient by lambda scales the matrix by lambda.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    deltas = {}
    signature = None
    for i in range(1, N + 1):
        cx = build_twobraid(TwoBraidSpec.power_basis(N, i))
        fc = reduce_mod_a(cx)
        # sparse rows compare by value, zeros left out
        sig = (fc.degrees, fc.mats)
        if signature is None:
            signature = sig
        elif sig != signature:
            raise ComplexError("mod-a reductions disagree across potentials")
        deltas[i] = first_differential(cx)

    concentrated = all(
        deltas[i].nonzero_degrees() == [2] for i in range(1, N)
    )
    top_vanishes = deltas[N].is_zero()

    anticommute = True
    hom_degrees = sorted(deltas[1].dims)
    for i in range(1, N):
        for j in range(i, N):
            for l in hom_degrees:
                left = _after(deltas[i], deltas[j], l)
                right = _after(deltas[j], deltas[i], l)
                for lr, rr in zip_longest(left, right, fillvalue={}):
                    if any(lr.get(c, 0) + rr.get(c, 0) for c in lr.keys() | rr.keys()):
                        anticommute = False

    scaling_ok = True
    for i in range(1, N):
        for lam in scalings:
            lam = Fraction(lam)
            if not lam:
                continue
            scaled = first_differential(
                build_twobraid(TwoBraidSpec.power_basis(N, i, lam))
            )
            if not _blocks_equal_scaled(scaled, deltas[i], lam):
                scaling_ok = False

    return DeltaBattery(
        N=N,
        deltas=deltas,
        ranks={i: deltas[i].rank() for i in deltas},
        concentrated=concentrated,
        top_vanishes=top_vanishes,
        anticommute=anticommute,
        scaling_ok=scaling_ok,
        scalings=tuple(Fraction(s) for s in scalings),
    )
