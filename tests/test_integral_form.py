"""The integral form of an sl(2) potential: P(x, c a) with c chosen so
that the Frobenius constants are integers.

a -> c a is a degree-preserving automorphism of C[a], and the link
report reads only the isomorphism class of the homology as a graded
C[a]-module, so the report of the integral cube must equal that of the
faithful one, in JSON and as a table.  The integral cube keeps every
stored value an int.
"""

import importlib.util
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from test_cube_builder import POTENTIALS as CUBE_POTENTIALS
from twkit import jsonio
from twkit.cli import _full_report, _render_report
from twkit.decompose import decompose
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, _x_power, build_sl2_cube

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 10

# the benchmark's link ladder, then T(2,4) and a three-strand link
LADDER = (
    ("1 1 1", 2),
    ("1 -2 1 -2", 3),
    ("1 1 1 1 1", 2),
    ("1 1 1 2 -1 2", 3),
    ("1 1 1 1", 2),
    ("1 1 2", 3),
)

# k = 1 with dP/dx = 3 (x + a/3)^2: x_square() gives alpha = -2/3 and
# beta = -1/9, so c = 9
DOUBLE_ROOT = Sl2Potential(1, ((1, Fraction(1)), (2, Fraction(1, 3))))
FIXED = (
    Sl2Potential.standard(),
    Sl2Potential(2, ((1, Fraction(-3, 2)),)),
    Sl2Potential(2, ((1, Fraction(2, 7)),)),
    DOUBLE_ROOT,
    Sl2Potential(1, ((1, Fraction(2)), (2, Fraction(-3)))),
)


def benchmark_coefficients():
    """COEFFICIENTS of perfbench/workloads.py: the lambda_1 values the
    benchmark's link workload draws from."""
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
    return module.COEFFICIENTS


def drawn_potentials(seed, count):
    """Potentials with seeded nonzero rational coefficients, k = 1 and
    k = 2 in turn."""
    rng = random.Random(seed)

    def scalar():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))

    out = []
    for n in range(count):
        k = 1 + n % 2
        out.append(Sl2Potential(k, tuple((j, scalar()) for j in range(1, 2 // k + 1))))
    return out


POTENTIALS = FIXED + tuple(drawn_potentials(SEED, 6))


def test_double_root_scale():
    q = DOUBLE_ROOT.integral_form()
    assert q.lambdas == ((1, 9), (2, 27))
    assert q.x_square() == ((-6, 1), (-9, 2))
    d = decompose(build_sl2_cube(LinkDiagram.from_braid_text("1 1 1", 2), DOUBLE_ROOT))
    assert len(d.free_pieces) == 4 and d.torsion_pieces == ()


def test_integral_potential_is_its_own_form():
    p = Sl2Potential(1, ((1, Fraction(3)), (2, Fraction(-6))))
    assert p.x_square() == ((-2, 1), (2, 2))
    assert p.integral_form() is p
    cubic = Sl2Potential(1)
    assert cubic.integral_form() is cubic


def test_standard_scale():
    assert Sl2Potential.standard().integral_form() == Sl2Potential(2, ((1, Fraction(-3)),))


@pytest.mark.parametrize("word, strands", LADDER)
def test_report_matches_faithful_cube(word, strands):
    diagram = LinkDiagram.from_braid_text(word, strands)
    for potential in POTENTIALS:
        faithful = _full_report(build_sl2_cube(diagram, potential))
        integral = _full_report(build_sl2_cube(diagram, potential.integral_form()))
        assert jsonio.report_text(integral) == jsonio.report_text(faithful), potential
        assert _render_report(integral) == _render_report(faithful), potential


@pytest.mark.parametrize("coefficient", benchmark_coefficients())
def test_integral_cube_stores_ints(coefficient):
    diagram = LinkDiagram.from_braid_text("1 -2 1 -2", 3)
    for potential in (
        Sl2Potential(2, ((1, coefficient),)),
        Sl2Potential(1, ((1, coefficient), (2, coefficient))),
    ):
        c = build_sl2_cube(diagram, potential.integral_form())
        values = [x for m in c.mats.values() for row in m for x in row.values()]
        assert values and all(type(x) is int for x in values)


def hand_x_square(potential):
    """x^2 = alpha x + beta from dP/dx = 0 by hand, at N = 2: for k = 1,
    alpha = -(2/3) lambda_1 (times a) and beta = -(1/3) lambda_2 (times
    a^2); for k = 2, beta = -(1/3) lambda_1 (times a)."""
    lam = dict(potential.lambdas)
    if potential.k == 1:
        parts = ((-Fraction(2, 3) * lam.get(1, 0), 1), (-Fraction(1, 3) * lam.get(2, 0), 2))
    else:
        parts = (None, (-Fraction(1, 3) * lam.get(1, 0), 1))
    return tuple(part if part and part[0] else None for part in parts)


def test_dp_relation_matches_hand_formulas():
    """The cube's alpha and beta and the 2-braid's x2 matrix both come
    from one dP/dx relation; the frozen cube builder reads alpha and
    beta through x_square(), so they are pinned here by hand."""
    potentials = POTENTIALS + tuple(CUBE_POTENTIALS.values())
    for p in potentials + tuple(p.integral_form() for p in potentials):
        assert p.x_square() == hand_x_square(p), p
    rng = random.Random(SEED)
    for N in range(2, 16):
        for k in range(1, N + 1):
            lambdas = tuple((j, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for j in range(1, N // k + 1))
            spec = TwoBraidSpec(N, k, lambdas)
            X = _x_power(spec, 1)
            last = {r: row[N - 1] for r, row in enumerate(X) if N - 1 in row}
            assert last == {N - j * k: -lam * Fraction(N + 1 - j * k, N + 1) for j, lam in lambdas if lam}
            shift = [{r - 1: 1} if r else {} for r in range(N)]
            assert [{c: x for c, x in row.items() if c != N - 1} for row in X] == shift
