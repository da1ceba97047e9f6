"""Versioned JSON schemas for complexes, decompositions, pages, and
page sequences.

Every document carries "format": "tw/1" plus a "type" discriminator.
Scalars are exact: matrix entries serialize as Fraction strings like
"-7/3".  dumps() is deterministic (sorted keys, fixed separators), so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import BigradedTable, GradedModuleDescriptor
from .complexes import GradedComplex, complex_from_data
from .decompose import Decomposition
from .pages import PageTable
from .recover import PageSequence

FORMAT = "tw/1"


class SchemaError(ValueError):
    """Document is not valid tw/1 of the expected type."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_rational(x) -> Fraction:
    """Exact scalar from an int or "p/q"; SchemaError on a zero denominator."""
    if type(x) is not int and not (isinstance(x, str) and re.fullmatch(r"\s*[+-]?\d+(/\d+)?\s*", x)):
        raise ValueError("expected an integer or a \"p/q\" string, got %s" % json.dumps(x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise SchemaError("zero denominator in %r" % (x,))


def _int(x) -> int:
    """A tw/1 integer: a JSON int, never a bool, a float or a string."""
    if type(x) is not int:
        raise ValueError("expected an integer, got %s" % json.dumps(x))
    return x


def json_kind(data) -> str:
    """What a JSON value that is not an object is, for error messages."""
    return {list: "an array", str: "a string", bool: "a bool", type(None): "null"}.get(type(data), "a number")


def _check_header(data, expected_type):
    if not isinstance(data, dict):
        raise SchemaError("expected a JSON object, got %s" % json_kind(data))
    if data.get("format") != FORMAT:
        raise SchemaError("missing or wrong format marker, expected %r" % FORMAT)
    if data.get("type") != expected_type:
        raise SchemaError(
            "expected a %r document, got %r" % (expected_type, data.get("type"))
        )


def _degree(key) -> int:
    """A homological degree written as an object key: one spelling per
    integer, "0" or an optional minus and no leading zero."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise ValueError("expected a degree key like \"-1\" or \"2\", got %s" % json.dumps(key))
    return int(key)


def _int_pair(x):
    a, b = x
    return _int(a), _int(b)


# -- complexes ---------------------------------------------------------


def complex_to_data(c: GradedComplex) -> dict:
    return {
        "format": FORMAT,
        "type": "complex",
        "k": c.ring.k,
        "modules": {str(i): list(v) for i, v in sorted(c.degrees.items())},
        "differentials": {
            str(i): [[str(x) for x in row] for row in d.entries]
            for i, d in sorted(c.differentials.items())
            if not d.is_zero()
        },
    }


def _array(x, what):
    """x when it is a JSON array; a string would be read one character at a time."""
    if type(x) is not list:
        raise ValueError("expected %s, got %s" % (what, json.dumps(x)))
    return x


def _object(x, what):
    """x when it is a JSON object."""
    if type(x) is not dict:
        raise ValueError("expected %s, got %s" % (what, json.dumps(x)))
    return x


def complex_from_json(data) -> GradedComplex:
    _check_header(data, "complex")
    try:
        modules = {
            _degree(i): [_int(s) for s in _array(degs, "a degree list to be an array of integers")]
            for i, degs in _object(data["modules"], '"modules" to be an object').items()
        }
        diffs = {
            _degree(i): [
                [0 if x == "0" else parse_rational(x) for x in _array(row, "a row to be an array of cells")]
                for row in _array(rows, "a differential to be an array of rows")
            ]
            for i, rows in _object(data.get("differentials", {}), '"differentials" to be an object').items()
        }
        k = _int(data["k"])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed complex document: %s" % e)
    return complex_from_data(k, modules, diffs)


# -- decompositions ----------------------------------------------------


def decomposition_to_data(d: Decomposition) -> dict:
    return {
        "format": FORMAT,
        "type": "decomposition",
        "k": d.k,
        "free": [list(p) for p in d.free_pieces],
        "torsion": [list(p) for p in d.torsion_pieces],
    }


def decomposition_from_json(data) -> Decomposition:
    _check_header(data, "decomposition")
    try:
        return Decomposition(
            _int(data["k"]),
            tuple(_int_pair(p) for p in data.get("free", ())),
            tuple((_int(i), _int(m), _int(s)) for i, m, s in data.get("torsion", ())),
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, SchemaError):
            raise
        raise SchemaError("malformed decomposition document: %s" % e)


# -- single pages ------------------------------------------------------


def descriptor_to_data(desc: GradedModuleDescriptor) -> dict:
    return {
        "free": list(desc.free_shifts),
        "torsion": [list(t) for t in desc.torsions],
    }


def descriptor_from_data(data) -> GradedModuleDescriptor:
    return GradedModuleDescriptor(
        tuple(_int(s) for s in data.get("free", ())),
        tuple(_int_pair(t) for t in data.get("torsion", ())),
    )


def page_to_data(page: PageTable) -> dict:
    entries = []
    for (p, q), value in page.items():
        if page.hat:
            entries.append([p, q, value])
        else:
            entries.append([p, q, descriptor_to_data(value)])
    return {
        "format": FORMAT,
        "type": "page",
        "r": page.r,
        "hat": page.hat,
        "entries": entries,
    }


def page_from_json(data) -> PageTable:
    _check_header(data, "page")
    try:
        hat = data["hat"]
        if type(hat) is not bool:
            raise ValueError('expected true or false for "hat", got %s' % json.dumps(hat))
        entries = {}
        for p, q, value in data["entries"]:
            key = (_int(p), _int(q))
            value = _int(value) if hat else descriptor_from_data(value)
            if key in entries:
                raise SchemaError("duplicate page position %r" % (key,))
            entries[key] = value
        return PageTable(_int(data["r"]), entries, hat)
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, SchemaError):
            raise
        raise SchemaError("malformed page document: %s" % e)


# -- page sequences ----------------------------------------------------


def table_to_entries(t: BigradedTable):
    """[[i, s, dim], ...] of an (i, s) table."""
    return [[i, s, dim] for (i, s), dim in t.items()]


def pages_to_data(ps: PageSequence) -> dict:
    """Pages indexed from r = 1, entries [i, s, dim]: homological
    degree, polynomial degree."""
    return raw_pages_to_data(ps.k, ps.pages)


def raw_pages_to_data(k: int, tables) -> dict:
    """Like pages_to_data but without PageSequence validation, for
    dumping partial or experimental sequences."""
    return {
        "format": FORMAT,
        "type": "pages",
        "k": int(k),
        "pages": [table_to_entries(t) for t in tables],
    }


def pages_from_json(data) -> PageSequence:
    _check_header(data, "pages")
    try:
        tables = [
            BigradedTable([((_int(i), _int(s)), _int(dim)) for i, s, dim in page])
            for page in data["pages"]
        ]
        k = _int(data["k"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed pages document: %s" % e)
    return PageSequence(k, tables)
