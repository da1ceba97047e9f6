"""The 2-braid paths against the code each one replaced.

x2^e comes from one recurrence on the columns x2^(c+e), where
build_twobraid took repeated products of the matrix of x2
(tests/frozen_twobraid.py); delta_battery computes the common mod-a
homology once and lifts every complex onto it, where it ran
first_differential on each complex; assembled_page_list builds one page
per block of r between the cuts 2km + 1 and relabels it, where it built
every page (tests/frozen_pages.py, page by page).
Each must give the same answer, value types included.
"""

import random
from fractions import Fraction

import pytest

from frozen_pages import reference_page_by_page_list
from frozen_twobraid import reference_delta_battery, reference_x_powers
from twkit.corpus import random_decomposition
from twkit.decompose import decompose
from twkit.links import TwoBraidSpec, _x_power, build_twobraid, delta_battery
from twkit.pages import assembled_page_list, collapse_page

SEED = 1700


def typed(rows):
    """Sparse rows with each value's type, so that 2 and Fraction(2)
    differ; rows as lists, whichever sequence they came in."""
    return [{c: (type(x), x) for c, x in row.items()} for row in rows]


def potentials(N, rng):
    """Integral and fractional power-basis potentials at three i, and
    multi-lambda ones with random coefficients at k = 1, 2 and N // 2."""
    specs = [
        TwoBraidSpec.power_basis(N, i, coefficient)
        for i in sorted({1, (N + 1) // 2, N})
        for coefficient in (1, -3, Fraction(-3, 2), Fraction(2, 7))
    ]
    for k in sorted({1, 2, max(1, N // 2)}):
        lambdas = tuple((j, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))) for j in range(1, N // k + 1))
        specs.append(TwoBraidSpec(N, k, lambdas))
    return specs


@pytest.mark.parametrize("N", range(2, 31))
def test_x_power_matches_repeated_products(N):
    rng = random.Random(SEED + N)
    multi = 0
    for spec in potentials(N, rng):
        multi += len(spec.lambdas) > 1
        for e, power in enumerate(reference_x_powers(spec, N - 1), 1):
            assert typed(_x_power(spec, e)) == typed(power), (spec, e)
    # every N >= 2 has a multi-lambda potential at k = 1
    assert multi >= 1


@pytest.mark.parametrize("N", range(2, 10))
@pytest.mark.parametrize("scalings", [(1, 5, Fraction(-2, 3)), (Fraction(7, 2), -1, 3, Fraction(-1, 9))])
def test_battery_matches_first_differential_per_complex(N, scalings):
    battery = delta_battery(N, scalings)
    reference = reference_delta_battery(N, scalings)
    assert battery == reference
    for i, fd in battery.deltas.items():
        ref = reference.deltas[i]
        assert {h: typed(b) for h, b in fd.blocks.items()} == {h: typed(b) for h, b in ref.blocks.items()}
    assert battery.ok()


def page_indices(d, rng):
    """Page indices 1, then 2km, 2km + 1 and 2km + 2 for every width m,
    some repeated, shuffled."""
    cuts = {2 * d.k * m + 1 for _, m, _ in d.torsion_pieces}
    rs = [1] + [r for cut in cuts for r in (cut - 1, cut, cut + 1)]
    rs += rng.sample(rs, len(rs) // 2)
    rng.shuffle(rs)
    return rs


def test_assembled_page_list_matches_page_by_page():
    rng = random.Random(SEED)
    widths = 0
    for _ in range(60):
        span = rng.choice(((-6, 6), (-20, 20)))
        d = random_decomposition(rng, max_generators=rng.choice((4, 10, 40)), degree_span=span, max_m=4)
        widths += len({m for _, m, _ in d.torsion_pieces}) >= 2
        rs = page_indices(d, rng)
        for hat in (True, False):
            pages = assembled_page_list(d, hat, rs)
            assert [p.r for p in pages] == rs
            assert pages == reference_page_by_page_list(d, hat, rs), (d, hat, rs)
    # most decompositions have torsion of two widths or more
    assert widths >= 20
    # the pages of the twobraid reports, r = 1 to the collapse page
    for N in (10, 15, 20, 25, 30):
        d = decompose(build_twobraid(TwoBraidSpec.power_basis(N, N // 2, Fraction(-3, 2))))
        rs = range(1, collapse_page(d) + 1)
        assert assembled_page_list(d, True, rs) == reference_page_by_page_list(d, True, rs), N
