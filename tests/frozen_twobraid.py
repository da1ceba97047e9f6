"""The 2-braid routes frozen before x2^(N-1) came from one recurrence and
the delta battery shared one mod-a homology, as the reference the
rewrite is checked against (tests/test_frozen_twobraid.py).

build_twobraid took N - 2 sparse products of the matrix of x2, and
delta_battery ran first_differential, with its own mod-a homology, on
every unscaled and every scaled complex.  Only the potential's dP/dx
relation, the complex builder and the battery's verdict helpers come
from twkit.
"""

from fractions import Fraction
from itertools import zip_longest

from twkit.complexes import ComplexError, first_differential, reduce_mod_a
from twkit.exactla import canonical, matmul
from twkit.links import (
    DeltaBattery,
    TwoBraidSpec,
    _after,
    _blocks_equal_scaled,
    _x_power_relation,
    build_twobraid,
)


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

    concentrated = all(deltas[i].nonzero_degrees() == [2] for i in range(1, N))
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
            scaled = first_differential(build_twobraid(TwoBraidSpec.power_basis(N, i, lam)))
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
        scalings=scalings,
    )
