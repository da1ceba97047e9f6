"""The 2-braid routes frozen before x2^(N-1) came from one recurrence and
the delta battery shared one mod-a homology, as the reference the
rewrite is checked against (tests/test_frozen_twobraid.py).

build_twobraid took N - 2 sparse products of the matrix of x2, and
delta_battery ran first_differential, with its own mod-a homology, on
every unscaled and every scaled complex.  The battery's verdicts are
read off the differentials with the dense products of tests/dense_la.py.
Only the potential's dP/dx relation and the complex builder come from
twkit.
"""

from fractions import Fraction

from dense_la import dense_matmul, dense_rows
from twkit.complexes import ComplexError, first_differential, reduce_mod_a
from twkit.exactla import canonical, matmul
from twkit.links import DeltaBattery, TwoBraidSpec, _x_power_relation, build_twobraid


def reference_x_matrix(spec):
    """_x_matrix: multiplication by x2 on {1, x2, ..., x2^(N-1)}, the
    shift plus the dP/dx relation in the last column."""
    N = spec.N
    X = [{r - 1: 1} if r else {} for r in range(N)]
    for j, c in _x_power_relation(spec.lambdas, N, spec.k):
        X[N - j * spec.k][N - 1] = canonical(c)
    return X


def reference_x_powers(spec, top):
    """[X, X^2, ..., X^top], each the previous one times X, as
    build_twobraid reached X^(N-1)."""
    X = power = reference_x_matrix(spec)
    powers = [X]
    for _ in range(top - 1):
        power = matmul(power, X)
        powers.append(power)
    return powers


def reference_delta_battery(N, scalings=(Fraction(1), Fraction(5), Fraction(-2, 3))):
    """delta_battery with first_differential on every complex: the N
    unscaled ones checked for one mod-a reduction, the scaled ones not."""
    if N < 2:
        raise ValueError("N must be at least 2")
    scalings = tuple(Fraction(s) for s in scalings)
    if not all(scalings):
        raise ValueError("scalings must be nonzero, got %s" % ", ".join(map(str, scalings)))
    deltas = {}
    signature = None
    for i in range(1, N + 1):
        cx = build_twobraid(TwoBraidSpec.power_basis(N, i))
        fc = reduce_mod_a(cx)
        sig = (fc.degrees, fc.mats)
        if signature is None:
            signature = sig
        elif sig != signature:
            raise ComplexError("mod-a reductions disagree across potentials")
        deltas[i] = first_differential(cx)

    scaled = {
        (i, lam): first_differential(build_twobraid(TwoBraidSpec.power_basis(N, i, lam)))
        for i in range(1, N) for lam in scalings
    }
    return DeltaBattery(
        N=N, deltas=deltas, ranks={i: deltas[i].rank() for i in deltas}, **reference_verdicts(N, deltas, scaled),
        scalings=scalings)


def dense_block(fd, i):
    """fd's block out of degree i as dense rows, zero when none is stored."""
    rows = fd.blocks.get(i) or [{}] * fd.dims.get(i + 1, 0)
    return dense_rows(rows, fd.dims.get(i, 0))


def reference_verdicts(N, deltas, scaled):
    """The battery's four verdicts on the differentials deltas[i] and
    the scaled ones scaled[(i, lam)]: each of deltas[1..N-1] nonzero out
    of degree 2 alone, deltas[N] zero, d_i d_j + d_j d_i = 0 on every
    degree for i <= j < N, and scaled[(i, lam)] lam times deltas[i]
    block for block, on the same dimensions."""
    degrees = sorted(set().union(*(fd.dims for fd in deltas.values())))

    def nonzero_degrees(fd):
        return [l for l in degrees if any(map(any, dense_block(fd, l)))]

    def anticommute(a, b, l):
        ncols = a.dims.get(l, 0)
        left = dense_matmul(dense_block(a, l + 1), dense_block(b, l), ncols)
        right = dense_matmul(dense_block(b, l + 1), dense_block(a, l), ncols)
        return all(x + y == 0 for row, other in zip(left, right) for x, y in zip(row, other))

    return {
        "concentrated": all(nonzero_degrees(deltas[i]) == [2] for i in range(1, N)),
        "top_vanishes": not nonzero_degrees(deltas[N]),
        "anticommute": all(
            anticommute(deltas[i], deltas[j], l) for i in range(1, N) for j in range(i, N) for l in degrees),
        "scaling_ok": all(
            fd.dims == deltas[i].dims
            and all(dense_block(fd, l) == [[lam * x for x in row] for row in dense_block(deltas[i], l)] for l in degrees)
            for (i, lam), fd in scaled.items()),
    }
