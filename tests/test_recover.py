"""Rebuilding decompositions from page sequences, and rejecting fakes;
and the shared-table route against the per-page one it replaced
(tests/frozen_pages.py)."""

import contextlib
import copy
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_pages import per_page_from_json, per_page_generic_count, per_page_recover, per_page_sequence
from twkit import jsonio
from twkit.algebra import BigradedTable
from twkit.cli import main
from twkit.complexes import specialize_a_to_1
from twkit.corpus import conjugate, random_decomposition
from twkit.couples import couple_tables
from twkit.decompose import Decomposition, decompose, reassemble, torsion_width
from twkit.jsonio import SchemaError
from twkit.pages import PageTable, assembled_page_list, generic_page_list
from twkit.recover import (
    InconsistentPages,
    PageSequence,
    padded_sequence,
    page_tables,
    pages_from_decomposition,
    recover,
    roundtrip,
)


def T(entries):
    return BigradedTable(entries)


def couple_sequence(d):
    """The page sequence read off the derived model couple of d, as
    corpus.cross_checks builds it."""
    return padded_sequence(d.k, couple_tables(d, torsion_width(d) + 1))


class TestPageSequence:
    def test_requires_pages(self):
        with pytest.raises(InconsistentPages, match="no pages"):
            PageSequence(1, [])

    def test_requires_hom_poly_tables(self):
        with pytest.raises(ValueError, match="not a .* table"):
            PageSequence(1, [PageTable(1, {(0, 0): 1})])

    def test_tau_from_first_page(self):
        ps = PageSequence(1, [T({(1, 0): 1, (0, 4): 1})] * 3)
        # spread of 2i + s is 2, so tau = (2 + 2) // 2
        assert ps.tau == 2
        assert len(ps) == 3
        assert ps.page(2) == T({(1, 0): 1, (0, 4): 1})
        with pytest.raises(IndexError):
            ps.page(4)

    def test_growth_rejected(self):
        with pytest.raises(InconsistentPages, match="grows at"):
            PageSequence(1, [T({(0, 0): 1}), T({(0, 0): 2})])

    def test_too_short_rejected(self):
        with pytest.raises(InconsistentPages, match="need 3 pages"):
            PageSequence(1, [T({(1, 0): 1, (0, 4): 1})])

    def test_post_stable_change_rejected(self):
        stable = T({(0, 0): 1})
        with pytest.raises(InconsistentPages, match="differs from the stable"):
            PageSequence(1, [stable, stable, T(())])

    def test_empty_sequence_is_fine(self):
        ps = PageSequence(2, [T(())])
        assert ps.tau == 0
        assert recover(ps) == Decomposition(2)


class TestRecover:
    def test_free_only(self):
        page = T({(0, 2): 2, (3, -1): 1})
        # spread of 2i + s is 3, so tau = 2 and three pages are required
        d = recover(PageSequence(1, [page, page, page]))
        assert d == Decomposition(1, ((0, 2), (0, 2), (3, -1)), ())

    def test_torsion_peeling(self):
        both = T({(1, 0): 1, (0, 4): 1})
        d = recover(PageSequence(1, [both, both, T(())]))
        assert d == Decomposition(1, (), ((1, 2, 0),))

    def test_width_one_vs_two_distinguished(self):
        # the same two classes, but gone already on page 2: width 1
        # forces the pairing (0, 4) on top of (1, 0) to read k m = 2,
        # which no width-1 piece provides, so the pair must be (1, 0)
        # over (-1, 8)... which is absent.  Rejected.
        both = T({(1, 0): 1, (0, 4): 1})
        with pytest.raises(InconsistentPages, match="lacks"):
            recover(PageSequence(1, [both, T(()), T(())]))

    def test_missing_partner_rejected(self):
        p1 = T({(1, 0): 1, (0, 4): 1})
        p2 = T({(1, 0): 1})
        with pytest.raises(InconsistentPages, match="lacks 1 classes at \\(0, 4\\)"):
            recover(PageSequence(1, [p1, p2, T(())]))

    def test_multiplicity_two(self):
        both = T({(1, 0): 2, (0, 4): 2})
        d = recover(PageSequence(1, [both, both, T(())]))
        assert d.torsion_pieces == ((1, 2, 0), (1, 2, 0))

    def test_mixed_free_and_torsion(self):
        p1 = T({(0, 2): 1, (1, 0): 1, (0, 4): 1})
        stable = T({(0, 2): 1})
        d = recover(PageSequence(1, [p1, p1, stable]))
        assert d == Decomposition(1, ((0, 2),), ((1, 2, 0),))


class TestPagesFromDecomposition:
    def test_fixture_sequence(self):
        d = Decomposition(1, (), ((1, 2, 0),))
        ps = pages_from_decomposition(d)
        assert len(ps) == 3
        assert ps.page(1) == T({(1, 0): 1, (0, 4): 1})
        assert ps.page(2) == T({(1, 0): 1, (0, 4): 1})
        assert ps.page(3) == T(())

    def test_padding_repeats_stable_page(self):
        # tw = 1 gives two computed pages, but tau can demand more
        d = Decomposition(1, ((0, 0), (5, 0)), ((1, 1, 0),))
        ps = pages_from_decomposition(d)
        assert len(ps) == ps.tau + 1
        assert ps.page(len(ps)) == ps.page(2)

    def test_equal_pages_share_page_ones_table(self):
        # no width-1 torsion: derived page 2 is page 1, converted once
        d = Decomposition(1, ((0, 0), (5, 0)), ((1, 3, 0),))
        tables = page_tables(lambda rs: assembled_page_list(d, True, rs), d.k, None)
        assert len(tables) == 7 and all(t is tables[0] for t in tables[:3])
        assert all(t is tables[3] for t in tables[3:]) and tables[3] != tables[0]
        assert tables == list(pages_from_decomposition(d).pages)

    def test_couple_route_matches(self):
        rng = random.Random(50)
        for _ in range(8):
            d = random_decomposition(rng)
            a = pages_from_decomposition(d)
            b = couple_sequence(d)
            assert a.k == b.k and len(a) == len(b)
            assert all(a.page(r) == b.page(r) for r in range(1, len(a) + 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    d = random_decomposition(random.Random(seed))
    assert roundtrip(d)


def test_roundtrip_couple_sample():
    rng = random.Random(51)
    for _ in range(6):
        d = random_decomposition(rng)
        assert recover(couple_sequence(d)) == d


# -- shared tables against the per-page route ----------------------------


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()


def pages_document(k, tables):
    return {"format": "tw/1", "type": "pages", "k": k, "pages": [[[i, s, n] for (i, s), n in t.items()] for t in tables]}


def shared_route(data):
    """(tables, decomposition) of a pages document, or the refusal."""
    try:
        ps = jsonio.pages_from_json(data)
        return list(ps.pages), recover(ps)
    except (InconsistentPages, SchemaError) as e:
        return type(e).__name__, str(e)


def per_page_route(data):
    try:
        k, tables = per_page_from_json(data)
        return tables, per_page_recover(k, tables)
    except (InconsistentPages, SchemaError) as e:
        return type(e).__name__, str(e)


# a phrase of each refusal the variants meet
REFUSALS = ("grows at", "pages to reach", "differs from the stable", "lacks", "no pages", "got true", "got 1.0")


def variants(rng, pages):
    """The pages of a document, and seeded breakages of them: a page
    repeated, dropped or emptied, one class more on a page, an empty
    page appended, the order reversed, and a bool or float written for
    a 1 on a page equal to the one before."""
    n = len(pages)
    j = rng.randrange(n)
    out = [pages, pages[: j + 1] + pages[j:], pages[:j] + pages[j + 1:], pages[:j] + [[]] + pages[j + 1:],
           pages + [[]], pages[::-1]]
    grown = copy.deepcopy(pages)
    page = grown[rng.randrange(n)]
    if page:
        rng.choice(page)[2] += 1
    else:
        page.append([0, 0, 1])
    out.append(grown)
    for spelled in (True, 1.0):
        for m in range(1, n):
            ones = [e for e in pages[m] if e[2] == 1]
            if pages[m] == pages[m - 1] and ones:
                changed = copy.deepcopy(pages)
                changed[m][pages[m].index(rng.choice(ones))][2] = spelled
                out.append(changed)
                break
    return out


def test_shared_tables_read_as_the_per_page_route():
    """On 210 conjugated corpus complexes, k = 1, 2, 3 in turn: pages
    and pages --generic print what the per-page route prints, and on
    those documents and seeded breakages of them pages_from_json and
    recover give the per-page route's tables and decomposition, or its
    refusal type and text."""
    rng = random.Random(3200)
    seen = Counter()
    made = 0
    while made < 210:
        d = random_decomposition(rng, max_generators=16)
        if d.k != 1 + made % 3:
            continue
        made += 1
        c = conjugate(rng, reassemble(d), 6)
        doc = jsonio.dumps(jsonio.complex_to_data(c))
        closed = cli_stdout("pages", doc)
        assert closed == jsonio.dumps(pages_document(d.k, per_page_sequence(decompose(c)))) + "\n"
        rs = [2 * d.k * r + 1 for r in range(per_page_generic_count(c))]
        generic = [page.to_hom_poly() for page in generic_page_list(specialize_a_to_1(c), rs)]
        assert cli_stdout("pages", "--generic", doc) == jsonio.dumps(pages_document(d.k, generic)) + "\n"
        for text in (closed, cli_stdout("pages", "--generic", doc, "--r-max", str(1 + made % 4))):
            data = json.loads(text)
            for pages in variants(rng, data["pages"]):
                want = per_page_route(dict(data, pages=pages))
                assert shared_route(dict(data, pages=pages)) == want, pages
                if type(want[0]) is str:
                    seen.update(w for w in REFUSALS if w in want[1])
                else:
                    seen["recovered"] += 1
                    seen["shared"] += any(a == b for a, b in zip(want[0], want[0][1:]))
    assert seen["recovered"] > 400 and seen["shared"] > 300, seen
    assert min(seen[w] for w in REFUSALS) > 20, seen
