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
from math import lcm

from .algebra import GradedRing
from .complexes import (
    ComplexError,
    FirstDifferential,
    GradedComplex,
    InternalError,
    homology_field,
    induced_differential,
    reduce_mod_a,
)
from .exactla import canonical, from_columns, matmul
from .jsonio import parse_integer


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

    @classmethod
    def from_braid(cls, word, strands: int) -> "LinkDiagram":
        """Closure of a braid word (nonzero ints, +i/-i for the
        generator on positions i, i+1, bottom to top).  Strands never
        crossed become free loops; a negative strand count is refused,
        and 0 strands with an empty word is the empty link."""
        if strands < 0:
            raise ValueError("strand count must be non-negative, got %d" % strands)
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
                i = parse_integer(t)
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


def _lambda_terms(lambdas, N, k, outside):
    """The (j, lambda_j) terms of P = x^(N+1) + sum_j lambda_j a^j x^(N+1-jk):
    j an int with 1 <= j and jk <= N (else "term a^j x^e " + outside),
    lambda_j a Fraction, no j twice, zeros dropped, sorted by j."""
    terms = {}
    for j, coeff in lambdas:
        j = int(j)
        coeff = Fraction(coeff)
        if j < 1 or j * k > N:
            raise ValueError("term a^%d x^%d %s" % (j, N + 1 - j * k, outside))
        if j in terms:
            raise ValueError("duplicate coefficient for a^%d" % j)
        terms[j] = coeff
    return tuple(sorted((j, coeff) for j, coeff in terms.items() if coeff))


def _x_power_relation(lambdas, N, k):
    """dP/dx = 0 as x^N = sum_j c_j a^j x^(N-jk), c_j = -lambda_j
    (N+1-jk)/(N+1): the (j, c_j) pairs of P's _lambda_terms."""
    return tuple((j, -lam * Fraction(N + 1 - j * k, N + 1)) for j, lam in lambdas)


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
        object.__setattr__(self, "lambdas", _lambda_terms(self.lambdas, 2, self.k, "is not allowed"))

    @classmethod
    def standard(cls) -> "Sl2Potential":
        """x^3 - a x, deg a = 4."""
        return cls(2, ((1, Fraction(-1)),))

    def x_square(self):
        """x^2 = alpha x + beta modulo dP/dx; each part is
        (scalar, a-exponent) or None when zero."""
        terms = {2 - j * self.k: (c, j) for j, c in _x_power_relation(self.lambdas, 2, self.k)}
        return terms.get(1), terms.get(0)

    def integral_form(self) -> "Sl2Potential":
        """P(x, c a), for c the lcm of the denominators of x_square()'s
        scalars: its alpha c and beta c^e (e the a-exponent of beta) are
        integers.  self when alpha and beta already are.

        Substituting c a for a scales each a^e entry of the cube by
        c^e: it applies the degree-preserving automorphism a -> c a of
        C[a] to the complex.  That automorphism keeps k[a]{s} and takes
        k[a]/(a^m){s} to k[a]/((c a)^m){s} = k[a]/(a^m){s}, so both
        cubes have the same decomposition, and with it the same pages,
        tw and collapse page; d_1 only scales by c, so its ranks agree
        too.  Every entry of the integral cube is an int.
        """
        c = 1
        for part in self.x_square():
            if part is not None:
                c = lcm(c, part[0].denominator)
        if c == 1:
            return self
        return Sl2Potential(self.k, tuple((j, coeff * c**j) for j, coeff in self.lambdas))


def _frobenius(alpha, beta):
    """The merge m and the split Delta of x^2 = alpha x + beta in one
    table, on the basis 1 (bit 0) and x (bit 1): {states of the circles
    going in: [(states of the circles coming out, scalar)]}, two
    circles going in for m and one for Delta, zero scalars left out."""
    table = {
        (0, 0): [((0,), 1)],
        (0, 1): [((1,), 1)],
        (1, 0): [((1,), 1)],
        (1, 1): [((1,), alpha), ((0,), beta)],
        (0,): [((0, 1), 1), ((1, 0), 1), ((0, 0), -alpha)],
        (1,): [((1, 1), 1), ((0, 0), beta)],
    }
    return {bits: [(out, x) for out, x in terms if x] for bits, terms in table.items()}


def build_sl2_cube(diagram: LinkDiagram, potential: Sl2Potential) -> GradedComplex:
    """The cube complex of a diagram over C[a] at N = 2.

    A generator is a vertex with a tensor state of its circles, then
    its free loops: an int whose bits, circle 0 the most significant,
    give each circle 1 (bit 0) or x (bit 1).  On the edge v -> u at
    crossing c the circles through c's arcs merge (two into one) or
    split (one into two) by the Frobenius table; every other circle
    carries its bit across.
    """
    alpha, beta = (0 if part is None else canonical(part[0]) for part in potential.x_square())
    frobenius = _frobenius(alpha, beta)
    crossings = diagram.crossings
    loops = diagram.free_loops
    negative = sum(1 for s, _ in crossings if s < 0)
    vertices = sorted(product((0, 1), repeat=len(crossings)))
    circ = {v: _resolution_circles(crossings, v) for v in vertices}

    # global generator layout: vertices in sorted order within each
    # homological degree -hbar(v), hbar(v) = sum(v) - negative, then
    # tensor states in increasing order
    degree_lists = {}
    offsets = {}
    writhe = diagram.writhe
    for v in vertices:
        hbar = sum(v) - negative
        block = degree_lists.setdefault(-hbar, [])
        offsets[v] = len(block)
        m = circ[v][0] + loops
        block.extend(writhe + hbar - m + 2 * s.bit_count() for s in range(1 << m))

    mats = {i: [{} for _ in degree_lists[i + 1]] for i in degree_lists if i + 1 in degree_lists}
    # the Frobenius table with its outputs as bit masks on u's states
    # and its scalars signed, for each (circles going in, circles coming
    # out, factors of u, sign) of an edge
    edge_terms = {}
    for v in vertices:
        cv, lv = circ[v]
        rows = mats.get(negative - sum(v))
        for c, (_, quad) in enumerate(crossings):
            if not v[c]:
                continue
            u = v[:c] + (0,) + v[c + 1:]
            cu, lu = circ[u]
            mu = cu + loops
            ins = sorted({lv[a] for a in quad})
            outs = tuple(sorted({lu[a] for a in quad}))
            if {len(ins), len(outs)} != {1, 2}:
                raise ComplexError("invalid PD code: resolution change is not a merge or split")
            sgn = -1 if v[:c].count(0) % 2 else 1
            key = (len(ins), outs, mu, sgn)
            if key not in edge_terms:
                place = lambda out: sum(b << (mu - 1 - o) for b, o in zip(out, outs))
                edge_terms[key] = {
                    bits: [(place(out), sgn * x) for out, x in terms]
                    for bits, terms in frobenius.items()
                    if len(bits) == len(ins)
                }
            terms = edge_terms[key]
            # each state's bits carried into u, and its states going in
            moves = {lv[a]: lu[a] for a in lv}
            moves.update((cv + t, cu + t) for t in range(loops))
            images = [(0, ())]
            for j in range(cv + loops):
                if j in ins:
                    images = [(t, bits + (b,)) for t, bits in images for b in (0, 1)]
                else:
                    bit = 1 << (mu - 1 - moves[j])
                    images = [(t | b, bits) for t, bits in images for b in (0, bit)]
            tgt_off = offsets[u]
            for col, (t, bits) in enumerate(images, offsets[v]):
                for mask, x in terms[bits]:
                    rows[tgt_off + (t | mask)][col] = x

    return GradedComplex(GradedRing(potential.k), degree_lists, mats)


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
        object.__setattr__(self, "lambdas", _lambda_terms(self.lambdas, self.N, self.k, "falls outside the allowed form"))

    @classmethod
    def power_basis(cls, N: int, i: int, coefficient=1) -> "TwoBraidSpec":
        """P = x^(N+1) + coefficient * b x^i with deg b = 2N+2-2i,
        so k = N+1-i; requires N >= 2, then 1 <= i <= N."""
        if N < 2:
            raise ValueError("N must be at least 2")
        if not 1 <= i <= N:
            raise ValueError("exponent i must satisfy 1 <= i <= N")
        return cls(N, N + 1 - i, ((1, Fraction(coefficient)),))


def _x_power(spec: TwoBraidSpec, e: int):
    """Multiplication by x2^e, 1 <= e <= N-1, on the basis {1, x2, ...,
    x2^(N-1)} of M = C[x2, a]/(dP/dx2), as sparse scalar rows.  Column c
    is x2^(c+e): column 0 is x2^e, and each next one shifts every
    coefficient up and folds the one past x2^(N-1) back by dP/dx2 = 0.
    Every entry is a monomial, its a-exponent read off the degrees."""
    N = spec.N
    relation = [(N - j * spec.k, canonical(c)) for j, c in _x_power_relation(spec.lambdas, N, spec.k)]
    cols = [{e: 1}]
    while len(cols) < N:
        top = cols[-1].get(N - 1, 0)
        power = {r + 1: x for r, x in cols[-1].items() if r < N - 1}
        for r, c in relation if top else ():
            power[r] = canonical(power.get(r, 0) + top * c)
        cols.append({r: x for r, x in power.items() if x})
    return from_columns(cols, N)


def _negated(rows):
    return tuple({c: -x for c, x in row.items()} for row in rows)


def build_twobraid(spec: TwoBraidSpec) -> GradedComplex:
    """The three-summand complex of the four-crossing closed 2-braid.

    Degree 0 holds M{-4N+4} and degree 4 holds the N-1 copies
    M{-4N-4-2l}, both with zero differential since they are free and
    contribute nothing past the first page.  Degrees 2 and 3 hold
    M{-4N} -> M{-6N+2} with differential -x2^(N-1), from _x_power's
    recurrence; the complex checks it homogeneous."""
    N = spec.N
    ring = GradedRing(spec.k)
    mdegs = [2 * j for j in range(N)]
    degrees = {
        0: [d - 4 * N + 4 for d in mdegs],
        2: [d - 4 * N for d in mdegs],
        3: [d - 6 * N + 2 for d in mdegs],
        4: [d - 4 * N - 4 - 2 * l for l in range(N - 1) for d in mdegs],
    }
    try:
        return GradedComplex(ring, degrees, {2: _negated(_x_power(spec, N - 1))})
    except ComplexError as e:
        raise InternalError("links", "x2^(N-1): %s" % e)


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

    All N complexes and the scaled ones below reduce to the identical
    mod-b complex, so its homology is computed once and each complex,
    once its reduction is checked equal, lifts onto that one basis
    (complexes.induced_differential).  Verdicts: every differential with
    i < N is nonzero exactly out of degree 2; the i = N one vanishes;
    all pairs anticommute (their products vanish degreewise); scaling
    the b-coefficient by lambda scales the matrix by lambda, for each
    of the scalings, which must be nonzero.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    scalings = tuple(Fraction(s) for s in scalings)
    if not all(scalings):
        raise ValueError("scalings must be nonzero, got %s" % ", ".join(map(str, scalings)))
    common = []

    def induced(i, lam=1):
        cx = build_twobraid(TwoBraidSpec.power_basis(N, i, lam))
        fc = reduce_mod_a(cx)
        if not common:
            common.extend((fc, homology_field(fc)))
        # sparse rows compare by value, zeros left out
        elif (fc.degrees, fc.mats) != (common[0].degrees, common[0].mats):
            raise ComplexError("mod-a reductions disagree across potentials")
        return induced_differential(cx, *common)

    deltas = {i: induced(i) for i in range(1, N + 1)}

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

    # every scaled complex is built and checked, even past a failure
    scaling_ok = all([_blocks_equal_scaled(induced(i, lam), deltas[i], lam) for i in range(1, N) for lam in scalings])

    return DeltaBattery(
        N=N,
        deltas=deltas,
        ranks={i: deltas[i].rank() for i in deltas},
        concentrated=concentrated,
        top_vanishes=top_vanishes,
        anticommute=anticommute,
        scaling_ok=scaling_ok,
        scalings=scalings,
    )
