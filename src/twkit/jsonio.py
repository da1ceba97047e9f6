"""Versioned JSON schemas for complexes, decompositions, pages, and
page sequences.

Every document carries "format": "tw/1" plus a "type" discriminator.
Scalars are exact: matrix entries serialize as Fraction strings like
"-7/3".  dumps() is deterministic (sorted keys, fixed separators), so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

from .algebra import BigradedTable, GradedModuleDescriptor
from .complexes import GradedComplex, complex_from_data
from .decompose import Decomposition
from .pages import PageTable, per_run
from .recover import PageSequence

FORMAT = "tw/1"


class SchemaError(ValueError):
    """Document is not valid tw/1 of the expected type."""


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_CELL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_integer(text: str) -> int:
    """ASCII digits after an optional "-"; int() would also read "1_000", " 7", "+7" and "٣"."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError("expected an integer, got %r" % text)
    return int(text)


def parse_rational(x):
    """Exact scalar from an int or a "p/q" string: an int when written
    as one, else a Fraction; SchemaError on a zero denominator."""
    m = _CELL.fullmatch(x) if type(x) is str else None
    if m is None:
        if type(x) is not int:
            raise ValueError("expected an integer or a \"p/q\" string, got %s" % json.dumps(x))
        return x
    if m[2] is None:
        return int(m[1])
    try:
        return Fraction(int(m[1]), int(m[2]))
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


def _check_header(data, expected_type, *required):
    """Refuse data unless it is a tw/1 object of expected_type holding
    every required key."""
    if not isinstance(data, dict):
        raise SchemaError("expected a JSON object, got %s" % json_kind(data))
    if data.get("format") != FORMAT:
        raise SchemaError("missing or wrong format marker, expected %r" % FORMAT)
    if data.get("type") != expected_type:
        raise SchemaError(
            "expected a %r document, got %r" % (expected_type, data.get("type"))
        )
    for key in required:
        if key not in data:
            raise SchemaError("malformed %s document: missing required key %s" % (expected_type, json.dumps(key)))


def _degree(key) -> int:
    """A homological degree written as an object key: one spelling per
    integer, "0" or an optional minus and no leading zero."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
        raise ValueError("expected a degree key like \"-1\" or \"2\", got %s" % json.dumps(key))
    return int(key)


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


def _array(x, what, length=None):
    """x when it is a JSON array, of length items when given; a string
    would be read one character at a time."""
    if type(x) is not list or length not in (None, len(x)):
        raise ValueError("expected %s, got %s" % (what, json.dumps(x)))
    return x


def _ints(x, what, length):
    """A JSON array of length tw/1 integers, as a tuple."""
    return tuple(map(_int, _array(x, what, length)))


def _object(x, what):
    """x when it is a JSON object."""
    if type(x) is not dict:
        raise ValueError("expected %s, got %s" % (what, json.dumps(x)))
    return x


def complex_from_json(data) -> GradedComplex:
    _check_header(data, "complex", "modules", "k")
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
    _check_header(data, "decomposition", "k")
    try:
        return Decomposition(
            _int(data["k"]),
            tuple(
                _ints(p, "a free piece to be an array [i, s]", 2)
                for p in _array(data.get("free", []), '"free" to be an array of pieces [i, s]')
            ),
            tuple(
                _ints(p, "a torsion piece to be an array [i, m, s]", 3)
                for p in _array(data.get("torsion", []), '"torsion" to be an array of pieces [i, m, s]')
            ),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed decomposition document: %s" % e)


# -- single pages ------------------------------------------------------


def descriptor_to_data(desc: GradedModuleDescriptor) -> dict:
    return {
        "free": list(desc.free_shifts),
        "torsion": [list(t) for t in desc.torsions],
    }


def descriptor_from_data(data) -> GradedModuleDescriptor:
    data = _object(data, 'a module entry to be an object with "free" and "torsion"')
    return GradedModuleDescriptor(
        tuple(_int(s) for s in _array(data.get("free", []), '"free" to be an array of shifts')),
        tuple(
            _ints(t, "a torsion summand to be an array [m, s]", 2)
            for t in _array(data.get("torsion", []), '"torsion" to be an array of summands [m, s]')
        ),
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
    _check_header(data, "page", "hat", "entries", "r")
    try:
        hat = data["hat"]
        if type(hat) is not bool:
            raise ValueError('expected true or false for "hat", got %s' % json.dumps(hat))
        entries = {}
        for entry in _array(data["entries"], '"entries" to be an array of entries [p, q, value]'):
            p, q, value = _array(entry, "a page entry to be an array [p, q, value]", 3)
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


def report_text(rep: dict) -> str:
    """dumps(rep) of a report whose "pages" are PageTables, each written
    as page_to_data writes it, with its fields other than "r" encoded
    once per run of pages of the same entries."""
    key = functools.cache(dumps)

    def text(fields):
        return "{%s}" % ",".join(key(k) + ":" + v for k, v in sorted(fields.items()))

    shared = per_run(rep["pages"], lambda page: {k: dumps(v) for k, v in page_to_data(page).items() if k != "r"})
    pages = ",".join(text({**fields, "r": dumps(page.r)}) for page, fields in zip(rep["pages"], shared))
    return text({**{k: dumps(v) for k, v in rep.items() if k != "pages"}, "pages": "[%s]" % pages})


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
    sequences built page by page, such as `twkit pages` prints."""
    pages, last = [], None
    for t in tables:
        # consecutive pages sharing one table share its entries list
        if t is not last:
            entries, last = table_to_entries(t), t
        pages.append(entries)
    return {"format": FORMAT, "type": "pages", "k": int(k), "pages": pages}


def pages_from_json(data) -> PageSequence:
    _check_header(data, "pages", "pages", "k")
    try:
        tables, last = [], None
        for page in _array(data["pages"], '"pages" to be an array of pages'):
            entries = []
            for entry in _array(page, "a page to be an array of entries [i, s, dim]"):
                i, s, dim = _array(entry, "a page entry to be an array [i, s, dim]", 3)
                entries.append(((_int(i), _int(s)), _int(dim)))
            # checked entries equal to the last page's share its table
            if entries != last:
                table, last = BigradedTable(entries), entries
            tables.append(table)
        k = _int(data["k"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed pages document: %s" % e)
    return PageSequence(k, tables)
