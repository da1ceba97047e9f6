"""The assembled pages and the mod-a table read straight off the pieces,
against their references (tests/frozen_pages.py), and the mod-a table
against the mod-a homology of the complex itself.

assembled_page_list builds one page per block of r and adds each
torsion piece's entries; hn_table places each piece's classes in one
table.  Both must equal their frozen references, the page-by-page list
and one descriptor_dim_table per degree, hat and module pages alike,
the pages both as one list and asked for one r at a time, on
seeded random decompositions (many of them with pieces sharing
positions) and on the decompositions of the benchmark's link ladder.  hn_table must also equal the bigraded mod-a homology of
conjugated corpus complexes and of the link ladder cubes.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from builders import conjugated_corpus
from frozen_pages import reference_hn_table, reference_page_by_page_list
from twkit.complexes import homology_field, reduce_mod_a
from twkit.corpus import random_decomposition
from twkit.decompose import decompose, hn_table
from twkit.links import LinkDiagram, Sl2Potential, build_sl2_cube
from twkit.pages import assembled_page_list

# the benchmark's link ladder, with the standard potential and every
# potential 1=c (k = 2) whose coefficient the benchmark draws from
LINK_LADDER = (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3))
POTENTIALS = (Sl2Potential.standard(),) + tuple(
    Sl2Potential(2, ((1, c),)) for c in sorted({Fraction(n, q) for n in (-3, -2, -1, 1, 2, 3) for q in (1, 2)})
)
PAGES = (1, 2, 3, 5, 7, 13)


@lru_cache(maxsize=None)
def link_cubes(word, strands):
    """The cubes twkit link builds for the braid, one per potential."""
    diagram = LinkDiagram.from_braid_text(word, strands)
    return tuple(build_sl2_cube(diagram, p.integral_form()) for p in POTENTIALS)


def assert_matches_frozen(d):
    assert hn_table(d) == reference_hn_table(d)
    # every page up to one past the collapse page 2k tw + 1, each asked
    # on its own, so that each r is the first of its block
    rs = range(1, 2 * d.k * max((m for _, m, _ in d.torsion_pieces), default=0) + 3)
    for hat in (True, False):
        assert assembled_page_list(d, hat, PAGES) == reference_page_by_page_list(d, hat, PAGES)
        assert [assembled_page_list(d, hat, (r,))[0] for r in rs] == reference_page_by_page_list(d, hat, rs)


def test_random_decompositions_match_frozen():
    rng = random.Random(1601)
    mixed = 0
    for _ in range(80):
        # a narrow degree span makes many pieces share a position
        span = rng.choice(((-6, 6), (-20, 20)))
        d = random_decomposition(rng, max_generators=rng.choice((4, 10, 40, 120)), degree_span=span)
        mixed += bool(d.free_pieces and d.torsion_pieces)
        assert_matches_frozen(d)
    assert mixed >= 40


@pytest.mark.parametrize("word,strands", LINK_LADDER)
def test_link_ladder_matches_frozen(word, strands):
    for c in link_cubes(word, strands):
        assert_matches_frozen(decompose(c))


def assert_hn_is_homology(c):
    """hn_table of c's decomposition is the bigraded homology of c mod a;
    returns whether c has torsion."""
    d = decompose(c)
    assert hn_table(d) == homology_field(reduce_mod_a(c)).bigraded
    return bool(d.torsion_pieces)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hn_table_is_mod_a_homology_on_corpus(k):
    assert sum(assert_hn_is_homology(c) for c in conjugated_corpus(1600 + k, k, 11)) >= 3


@pytest.mark.parametrize("word,strands", LINK_LADDER)
def test_hn_table_is_mod_a_homology_on_link_ladder(word, strands):
    # the standard potential and the 1=c potentials all have k = 2 and
    # leave torsion on every rung
    assert all([assert_hn_is_homology(c) for c in link_cubes(word, strands)])
