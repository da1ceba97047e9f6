"""Acceptance battery.

One test per shipped guarantee, each printing a single pass line with
its runtime and asserting the stated budget.  The corpus-driven checks
all consume the session corpus fixture, so "the same corpus" means the
same 200 decompositions everywhere.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from builders import homology_structure, twobraid_homology, twobraid_unreduced, unit_pivots
from oracles import khovanov_of_mirror_braid

from twkit.algebra import BigradedTable
from twkit.complexes import (
    gaussian_eliminate,
    homology_field,
    reduce_mod_a,
    specialize_a_to_1,
)
from twkit.corpus import conjugate, summed_piece_pages
from twkit.couples import correspondence_check
from twkit.decompose import (
    Decomposition,
    decompose,
    hn_table,
    reassemble,
    thickness,
    torsion_width,
)
from twkit.jsonio import pages_to_data
from twkit.links import (
    LinkDiagram,
    Sl2Potential,
    TwoBraidSpec,
    build_sl2_cube,
    build_twobraid,
    delta_battery,
)
from twkit.pages import assembled_pages, collapse_page, generic_pages, stabilization_page
from twkit.recover import InconsistentPages, pages_from_decomposition, recover, roundtrip


def report(num, label, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, "criterion %d blew its %ds budget: %.1fs" % (num, budget, dt)
    print("criterion %2d: pass  %-42s %6.2fs (budget %ds)" % (num, label, dt, budget))


# generic page tables computed in criterion 2, reused by criterion 5
_generic_store = {}


def _generic_tables(d, seed=None):
    c = reassemble(d)
    if seed is not None:
        c = conjugate(random.Random(seed ^ 0xC0FFEE), c)
    fc = specialize_a_to_1(c)
    r_hi = 2 * d.k * torsion_width(d) + 3
    return [generic_pages(fc, r) for r in range(1, r_hi + 1)]


def test_criterion_01_twobraid_tables():
    t0 = time.perf_counter()
    for N in (2, 3, 4, 5):
        for i in range(1, N):
            d = decompose(build_twobraid(TwoBraidSpec.power_basis(N, i)))
            assert homology_structure(d) == twobraid_homology(N, i), (N, i)
    report(1, "closed 2-braid homology tables, N = 2..5", t0, 30)


def test_criterion_02_three_way_page_agreement(corpus, corpus_seeds):
    t0 = time.perf_counter()
    assert len(corpus) >= 200
    for n, (d, seed) in enumerate(zip(corpus, corpus_seeds)):
        tables = _generic_tables(d, seed)
        _generic_store[n] = (d.k, torsion_width(d), tables)
        for r in range(1, 2 * d.k * torsion_width(d) + 3):
            a = assembled_pages(d, True, r)
            assert tables[r - 1].same_entries(a), (n, r)
            assert summed_piece_pages(d, True, r).same_entries(a), (n, r)
    report(2, "generic = assembled = piece sum on %d items" % len(corpus), t0, 60)


def test_criterion_03_couple_correspondence(corpus):
    t0 = time.perf_counter()
    for n, d in enumerate(corpus):
        res = correspondence_check(d, torsion_width(d) + 2)
        assert res.ok, (n, res.first_mismatch)
    report(3, "derived couples match the hat pages", t0, 60)


def _corruptions():
    """20 documents that cannot be any complex's page sequence."""
    bases = [
        Decomposition(1, (), ((1, 2, 0),)),
        Decomposition(2, ((0, 0),), ((1, 1, 0),)),
        Decomposition(1, ((0, 2), (3, -1)), ((2, 2, -4),)),
        Decomposition(3, (), ((0, 1, 0), (2, 2, 6))),
    ]
    docs = []
    for d in bases:
        base = pages_to_data(pages_from_decomposition(d))

        def fresh():
            return json.loads(json.dumps(base))

        # a class multiplying up on a later page
        doc = fresh()
        i, s, dim = doc["pages"][0][0]
        doc["pages"][1] = [e for e in doc["pages"][1] if e[:2] != [i, s]]
        doc["pages"][1].append([i, s, dim + 1])
        docs.append(doc)

        # too short to reach the stable page
        doc = fresh()
        doc["pages"] = doc["pages"][:1]
        docs.append(doc)

        # a change after stabilization
        doc = fresh()
        last = doc["pages"][-1]
        extra = list(last)
        if last:
            extra = extra[:-1]
        else:
            extra = [[9, 9, 1]]
        doc["pages"].append(extra)
        docs.append(doc)

        # torsion class whose partner is missing where it must pair
        i, m, s = max(d.torsion_pieces, key=lambda t: t[1])
        partner = [i - 1, s + 2 * d.k * m]
        doc = fresh()
        page = doc["pages"][m - 1]
        assert any(e[:2] == partner for e in page)
        doc["pages"][m - 1] = [e for e in page if e[:2] != partner]
        docs.append(doc)

        # no pages at all
        doc = fresh()
        doc["pages"] = []
        docs.append(doc)
    return docs


def test_criterion_04_recovery_round_trip(corpus):
    t0 = time.perf_counter()
    for n, d in enumerate(corpus):
        assert roundtrip(d), n
    corruptions = _corruptions()
    assert len(corruptions) == 20
    from twkit.jsonio import pages_from_json

    for n, doc in enumerate(corruptions):
        with pytest.raises(InconsistentPages) as err:
            recover(pages_from_json(doc))
        assert str(err.value).startswith("inconsistent pages"), n
    report(4, "round-trips plus 20 rejected fakes", t0, 30)


def test_criterion_05_collapse_page_exact(corpus):
    t0 = time.perf_counter()
    for n, d in enumerate(corpus):
        if n in _generic_store:
            k, tw, tables = _generic_store[n]
        else:
            k, tw, tables = d.k, torsion_width(d), _generic_tables(d)
        # the index from which nothing changes again, read off the
        # generically computed tables, against the closed form
        first_stable = stabilization_page(tables)
        if tw >= 1:
            assert first_stable == 2 * k * tw + 1, (n, first_stable)
        else:
            assert first_stable == 1, (n, first_stable)
    report(5, "generic stabilization index = 2k tw + 1", t0, 60)


def test_criterion_06_basis_change_invariance(corpus, corpus_seeds):
    t0 = time.perf_counter()
    count = 0
    for d, seed in zip(corpus, corpus_seeds):
        rng = random.Random(seed ^ 0x5EED)
        assert decompose(conjugate(rng, reassemble(d))) == d
        count += 1
    assert count >= 200
    report(6, "%d homogeneous unimodular conjugations" % count, t0, 30)


def test_criterion_07_delta_battery():
    t0 = time.perf_counter()
    for N in (2, 3, 4, 5):
        b = delta_battery(N, scalings=(Fraction(1), Fraction(5), Fraction(-2, 3)))
        assert b.concentrated and b.top_vanishes, N
        assert b.anticommute, N
        assert b.scaling_ok, N
        assert b.ranks == {i: (N - i if i < N else 0) for i in range(1, N + 1)}, N
        for i in range(1, N):
            assert b.deltas[i].nonzero_degrees() == [2], (N, i)
        assert b.deltas[N].is_zero(), N
    report(7, "delta action: support, squares, scalings, N = 2..5", t0, 30)


def test_criterion_08_torsion_lower_bound():
    t0 = time.perf_counter()
    cases = [
        TwoBraidSpec(4, 2, ((2, Fraction(1)),)),
        TwoBraidSpec(6, 2, ((2, Fraction(3)),)),
        TwoBraidSpec(6, 3, ((2, Fraction(-1, 2)),)),
    ]
    for spec in cases:
        assert dict(spec.lambdas).get(1, 0) == 0
        d = decompose(build_twobraid(spec))
        assert d.torsion_pieces, spec
        assert all(m >= 2 for _, m, _ in d.torsion_pieces), spec
    report(8, "no a^1 term forces torsion exponents >= 2", t0, 10)


def test_criterion_09_elimination_path():
    t0 = time.perf_counter()
    for N in (2, 3, 4, 5, 6):
        spec = TwoBraidSpec.power_basis(N, max(1, N - 1))
        cu = twobraid_unreduced(spec)
        # cancel unit pivots, first in row-major order, until the
        # identity blocks are gone
        while 2 in cu.differentials and unit_pivots(cu, 2):
            cu = gaussian_eliminate(cu, 2, *min(unit_pivots(cu, 2)))
        assert cu.total_rank() == 2 * N - 2, N
        df = decompose(build_twobraid(spec))
        middle = Decomposition(
            spec.k,
            tuple(p for p in df.free_pieces if p[0] in (2, 3)),
            df.torsion_pieces,
        )
        assert decompose(cu) == middle, N
    report(9, "unreduced form reduces onto the middle summand", t0, 10)


SL2_DIAGRAMS = [
    ("unknot", [], 1),
    ("unknot one twist", [1], 2),
    ("hopf", [1, 1], 2),
    ("right trefoil", [1, 1, 1], 2),
    ("left trefoil", [-1, -1, -1], 2),
    ("figure eight", [1, -2, 1, -2], 3),
]

REIDEMEISTER_PAIRS = [
    ("kink", [], 1, [1], 2),
    ("crossing pair cancelled", [1, -1], 2, [], 2),
    ("trefoil stabilized", [1, 1, 1], 2, [1, 1, 1, 2], 3),
    ("figure eight rotated", [1, -2, 1, -2], 3, [-2, 1, -2, 1], 3),
    ("hopf stabilized", [1, 1], 2, [1, 1, 2], 3),
]


def test_criterion_10_sl2_front_end():
    t0 = time.perf_counter()
    pot = Sl2Potential.standard()

    for name, word, strands in SL2_DIAGRAMS:
        cx = build_sl2_cube(LinkDiagram.from_braid(word, strands), pot)
        table = homology_field(reduce_mod_a(cx)).bigraded
        oracle = BigradedTable(
            {(i, -q): dim for (i, q), dim in khovanov_of_mirror_braid(word, strands).items()}
        )
        assert table == oracle, name

        d = decompose(cx)
        # every torsion piece consumes two mod-a classes
        assert table.total_dim() == len(d.free_pieces) + 2 * len(d.torsion_pieces), name

        ht, lht = thickness(table)
        if lht is None or lht <= 3:
            tw = torsion_width(d)
            assert tw <= 1, name
            assert collapse_page(d) in (1, 5), name
            # the mod-a table is the stable page plus (i, s), (i-1, s+4)
            # pairs, one per torsion piece
            paired = [((i, s), 1) for i, s in d.free_pieces]
            for i, m, s in d.torsion_pieces:
                assert m == 1, name
                paired += [((i, s), 1), ((i - 1, s + 4), 1)]
            assert BigradedTable(paired) == table, name

    for name, w1, s1, w2, s2 in REIDEMEISTER_PAIRS:
        c1 = build_sl2_cube(LinkDiagram.from_braid(w1, s1), pot)
        c2 = build_sl2_cube(LinkDiagram.from_braid(w2, s2), pot)
        t1 = homology_field(reduce_mod_a(c1)).bigraded
        t2 = homology_field(reduce_mod_a(c2)).bigraded
        assert t1 == t2, name
        assert decompose(c1) == decompose(c2), name

    report(10, "state-sum front end vs oracle and pairing", t0, 120)


# (name, braid word, strands, ht, tw): torus knots whose mod-a homology
# is H-thick past T(2, n), with the standard potential (k = 2)
THICK_LADDER = [
    ("T(2,5)", [1] * 5, 2, 2, 1),
    ("T(2,7)", [1] * 7, 2, 2, 1),
    ("T(3,4)", [1, 2] * 4, 3, 3, 1),
]


def test_criterion_11_thick_collapse():
    """Torsion width, not homological thickness, decides when the
    Lee-Gornik sequence collapses: tw <= ht, with tw < ht on T(3,4),
    the collapse page is 2k tw + 1, and the generic pages of the a = 1
    specialization stop changing exactly there."""
    t0 = time.perf_counter()
    pot = Sl2Potential.standard()
    for name, word, strands, want_ht, want_tw in THICK_LADDER:
        cx = build_sl2_cube(LinkDiagram.from_braid(word, strands), pot)
        d = decompose(cx)
        ht, _ = thickness(hn_table(d))
        tw = torsion_width(d)
        assert (ht, tw) == (want_ht, want_tw), name
        assert tw < ht if name == "T(3,4)" else tw <= ht, name
        cp = collapse_page(d)
        assert cp == 2 * d.k * tw + 1, name
        fc = specialize_a_to_1(cx)
        pages = [generic_pages(fc, r) for r in range(1, cp + 3)]
        assert stabilization_page(pages) == cp, name
    report(11, "thick torus knots collapse at 2k tw + 1", t0, 30)
