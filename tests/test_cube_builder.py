"""build_sl2_cube against the frozen builder it replaced.

The rewrite walks tensor states as ints and reads merge and split from
one Frobenius table; tests/frozen_cube.py keeps the builder as it was,
with a bit-list loop for each.  On a seeded ladder of braid closures
(1 to 8 crossings of both signs), PD codes with free loops and every
kind of sl(2) potential, both in its faithful and its integral form,
the two must return the same modules and the same rows: equal values
of equal type (int or Fraction), in the same order.
"""

import random
from fractions import Fraction

import pytest

from frozen_cube import reference_sl2_cube

from twkit.complexes import ComplexError
from twkit.links import LinkDiagram, Sl2Potential, build_sl2_cube

SEED = 11

POTENTIALS = {
    "standard": Sl2Potential.standard(),
    "k=2 1=-3/2": Sl2Potential(2, ((1, Fraction(-3, 2)),)),
    # alpha = 0, beta = 1
    "k=1 alpha=0": Sl2Potential(1, ((2, Fraction(-3)),)),
    # alpha = -4/3, beta = 0
    "k=1 beta=0": Sl2Potential(1, ((1, Fraction(2)),)),
    # alpha = -2/3, beta = -1/9
    "k=1 both": Sl2Potential(1, ((1, Fraction(1)), (2, Fraction(1, 3)))),
}
FORMS = [
    pytest.param(form(p), id="%s %s" % (name, label))
    for name, p in POTENTIALS.items()
    for label, form in (("faithful", lambda p: p), ("integral", Sl2Potential.integral_form))
]


def ladder(seed):
    """One braid closure per crossing count 1..8, letters of both signs
    on 2 to 4 strands (a word of one sign only is redrawn)."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 9):
        strands = rng.randint(2, 4)
        while True:
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(n)]
            if n == 1 or len({g > 0 for g in word}) == 2:
                break
        out.append(LinkDiagram.from_braid(word, strands))
    return out


def with_loops():
    """PD codes with free loops: kinks of both signs, the Hopf link and
    the figure eight, and a crossingless unlink."""
    figure_eight = LinkDiagram.from_braid([1, -2, 1, -2], 3).crossings
    return [
        LinkDiagram(((1, (1, 1, 2, 2)),), 2),
        LinkDiagram(((-1, (1, 2, 2, 1)),), 1),
        LinkDiagram(((1, (1, 3, 2, 4)), (1, (3, 1, 4, 2))), 1),
        LinkDiagram(figure_eight, 2),
        LinkDiagram((), 3),
    ]


# the benchmark's link ladder
LINK_LADDER = [
    LinkDiagram.from_braid_text(word, strands)
    for word, strands in (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3))
]
DIAGRAMS = ladder(SEED) + with_loops() + LINK_LADDER


def layout(c):
    """Degrees and rows with every stored value and its type, in order."""
    rows = {i: [[(col, x, type(x)) for col, x in row.items()] for row in m] for i, m in c.mats.items()}
    return list(c.degrees.items()), rows


def test_ladder_spans_the_crossing_counts_and_signs():
    counts = [len(d.crossings) for d in ladder(SEED)]
    assert counts == list(range(1, 9))
    assert any(s < 0 for d in DIAGRAMS for s, _ in d.crossings)
    assert any(d.free_loops and d.crossings for d in DIAGRAMS)


@pytest.mark.parametrize("potential", FORMS)
def test_rows_match_the_frozen_builder(potential):
    for diagram in DIAGRAMS:
        got, want = build_sl2_cube(diagram, potential), reference_sl2_cube(diagram, potential)
        assert layout(got) == layout(want), diagram


@pytest.mark.parametrize(
    "potential", [POTENTIALS["standard"], POTENTIALS["standard"].integral_form()], ids=["faithful", "integral"]
)
@pytest.mark.parametrize("word, strands", [("1 " * 7, 2), ("1 2 " * 4, 3)], ids=["T(2,7)", "T(3,4)"])
def test_torus_knots_match_the_frozen_builder(word, strands, potential):
    diagram = LinkDiagram.from_braid_text(word.strip(), strands)
    assert layout(build_sl2_cube(diagram, potential)) == layout(reference_sl2_cube(diagram, potential))


def test_value_types_follow_the_form():
    """The faithful form of k=1 both stores Fractions and its integral
    form only ints, so the type check above compares both kinds."""
    diagram = DIAGRAMS[3]
    faithful, integral = POTENTIALS["k=1 both"], POTENTIALS["k=1 both"].integral_form()
    types = lambda c: {type(x) for m in c.mats.values() for row in m for x in row.values()}
    assert Fraction in types(build_sl2_cube(diagram, faithful))
    assert types(build_sl2_cube(diagram, integral)) == {int}


def test_invalid_pd_message_matches():
    diagram = LinkDiagram([[1, [1, 2, 1, 2]]])
    messages = []
    for build in (build_sl2_cube, reference_sl2_cube):
        with pytest.raises(ComplexError) as info:
            build(diagram, Sl2Potential.standard())
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "invalid PD code: resolution change is not a merge or split"
