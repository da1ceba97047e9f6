"""Document round-trips, determinism, and schema rejection."""

import json
from fractions import Fraction

import pytest

from twkit.algebra import GradedModuleDescriptor
from twkit.complexes import ComplexError, complex_from_data
from twkit.decompose import Decomposition, decompose
from twkit.jsonio import (
    FORMAT,
    SchemaError,
    complex_from_json,
    complex_to_data,
    decomposition_from_json,
    decomposition_to_data,
    dumps,
    page_from_json,
    page_to_data,
    pages_from_json,
    pages_to_data,
    raw_pages_to_data,
)
from twkit.pages import PageTable, assembled_pages
from twkit.recover import InconsistentPages, pages_from_decomposition


def fixture_complex():
    return complex_from_data(
        2, {0: [4, 0], 1: [0]}, {0: [["1/3", 0]]}
    )


class TestComplexDocuments:
    def test_round_trip(self):
        c = fixture_complex()
        data = complex_to_data(c)
        assert data["format"] == FORMAT and data["type"] == "complex"
        assert data["differentials"] == {"0": [["1/3", "0"]]}
        assert complex_from_json(json.loads(dumps(data))) == c

    def test_zero_differentials_omitted(self):
        c = complex_from_data(1, {0: [0], 1: [2]}, {})
        assert complex_to_data(c)["differentials"] == {}

    def test_header_checked(self):
        with pytest.raises(SchemaError, match="format marker"):
            complex_from_json({"type": "complex"})
        with pytest.raises(SchemaError, match="expected a 'complex'"):
            complex_from_json({"format": FORMAT, "type": "page"})
        with pytest.raises(SchemaError, match="JSON object"):
            complex_from_json([1, 2])

    def test_malformed_body(self):
        with pytest.raises(SchemaError, match="malformed complex"):
            complex_from_json({"format": FORMAT, "type": "complex", "k": 1})

    def test_invalid_complex_still_raises_complex_error(self):
        # schema-valid but mathematically broken: d^2 != 0 must surface
        # as a ComplexError, not get silently worse
        data = {
            "format": FORMAT,
            "type": "complex",
            "k": 1,
            "modules": {"0": [0], "1": [0], "2": [0]},
            "differentials": {"0": [["1"]], "1": [["1"]]},
        }
        with pytest.raises(ComplexError):
            complex_from_json(data)


class TestDecompositionDocuments:
    def test_round_trip(self):
        d = Decomposition(2, ((0, 4),), ((1, 2, 0),))
        data = decomposition_to_data(d)
        assert data == {
            "format": FORMAT,
            "type": "decomposition",
            "k": 2,
            "free": [[0, 4]],
            "torsion": [[1, 2, 0]],
        }
        assert decomposition_from_json(data) == d

    def test_matches_decompose(self):
        d = decompose(fixture_complex())
        assert decomposition_from_json(decomposition_to_data(d)) == d

    def test_bad_width(self):
        data = {
            "format": FORMAT,
            "type": "decomposition",
            "k": 1,
            "free": [],
            "torsion": [[0, 0, 0]],
        }
        with pytest.raises(SchemaError, match="malformed decomposition"):
            decomposition_from_json(data)


class TestPageDocuments:
    def test_hat_round_trip(self):
        p = PageTable(3, {(0, 1): 2, (4, -4): 1})
        data = page_to_data(p)
        assert data["entries"] == [[0, 1, 2], [4, -4, 1]]
        assert page_from_json(data) == p

    def test_module_round_trip(self):
        p = PageTable(
            5,
            {(0, 1): GradedModuleDescriptor((0,), ((2, 0),))},
            hat=False,
        )
        data = page_to_data(p)
        assert data["entries"] == [[0, 1, {"free": [0], "torsion": [[2, 0]]}]]
        assert page_from_json(data) == p

    def test_duplicate_position_rejected(self):
        data = {
            "format": FORMAT,
            "type": "page",
            "r": 1,
            "hat": True,
            "entries": [[0, 0, 1], [0, 0, 2]],
        }
        with pytest.raises(SchemaError, match="duplicate page position"):
            page_from_json(data)


class TestPagesDocuments:
    def test_round_trip(self):
        d = Decomposition(1, ((0, 2),), ((1, 2, 0),))
        ps = pages_from_decomposition(d)
        data = pages_to_data(ps)
        back = pages_from_json(data)
        assert back.k == ps.k and len(back) == len(ps)
        assert all(back.page(r) == ps.page(r) for r in range(1, len(ps) + 1))

    def test_inconsistent_input_escapes_as_inconsistent_pages(self):
        # schema parsing succeeds; sequence validation must still fire
        data = {
            "format": FORMAT,
            "type": "pages",
            "k": 1,
            "pages": [[[0, 0, 1]], [[0, 0, 2]]],
        }
        with pytest.raises(InconsistentPages):
            pages_from_json(data)

    def test_raw_dump_skips_validation(self):
        tables = [assembled_pages(Decomposition(1, (), ((1, 2, 0),)), True, r).to_hom_poly() for r in (1, 5)]
        data = raw_pages_to_data(1, tables)
        assert data["pages"] == [[[0, 4, 1], [1, 0, 1]], []]
        # the same sequence is not a valid stored document
        with pytest.raises(InconsistentPages):
            pages_from_json(data)


def test_dumps_deterministic():
    d = Decomposition(1, ((0, 0), (2, -4)), ((1, 1, 0),))
    a = dumps(decomposition_to_data(d))
    b = dumps(decomposition_to_data(Decomposition(1, ((2, -4), (0, 0)), ((1, 1, 0),))))
    assert a == b
    assert "\n" not in a and ": " not in a


def test_fraction_strings_exact():
    c = complex_from_data(1, {0: [2], 1: [0]}, {0: [[Fraction(-7, 3)]]})
    data = complex_to_data(c)
    assert data["differentials"]["0"] == [["-7/3"]]
    assert complex_from_json(data).differentials[0].entries[0][0] == Fraction(-7, 3)
