"""Spans and counters for the traced run, installed from outside twkit.

The traced run wraps public functions of each twkit module (and the two
methods that carry whole layers, ``GradedComplex.__init__`` and
``ExactCouple.derive``) in place, records a span per call, and restores
the originals afterwards.  No file under ``src/`` knows about tracing.

Span durations use the calling thread's CPU clock (``time.thread_time``),
because ``twkit verify`` runs its items on a thread pool: under the
interpreter lock a wall-clock span in one worker would also cover the
time other workers held the lock.  A layer's self time is its spans'
duration minus the part covered by child spans in the same thread.
Work done by the tracer itself (computing counters) is charged to the
``trace`` pseudo-layer, never to the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter


class _ThreadState:
    """One thread's open-span stack and totals; only that thread writes
    them, so spans take no lock."""

    __slots__ = ("stack", "self_s", "calls", "counts")

    def __init__(self):
        self.stack = []
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()


class Tracer:
    """Self time and call counts per span name, plus named counters,
    summed over every thread that ran a span."""

    def __init__(self, clock=time.thread_time):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def reset(self):
        """Zero every total; call only while no span is open."""
        with self._lock:
            for state in self._states:
                state.self_s.clear()
                state.calls.clear()
                state.counts.clear()

    def wrap(self, name, fn, count=None):
        """fn inside a span called `name`.  count(counts, args, result)
        runs after the span closes; its time is charged to "trace"."""
        clock = self._clock
        get_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                state.self_s[name] += duration - child
                state.calls[name] += 1
            if count is not None:
                t1 = clock()
                count(state.counts, args, result)
                spent = clock() - t1
                if stack:
                    stack[-1] += spent
                state.self_s["trace"] += spent
            return result

        return wrapper

    def snapshot(self):
        """(self times, exact counts) summed over threads since the last
        reset; call counts appear as "calls.<span name>"."""
        self_s, counts = Counter(), Counter()
        with self._lock:
            for state in self._states:
                self_s.update(state.self_s)
                counts.update({"calls." + k: v for k, v in state.calls.items()})
                counts.update(state.counts)
        return dict(self_s), dict(counts)


# -- what gets wrapped -------------------------------------------------


def _count_row_reduce(counts, args, result):
    rows = args[0]
    counts["exactla.calls"] += 1
    counts["exactla.cells"] += len(rows) * len(rows[0]) if rows else 0


def _count_complex(counts, args, result):
    counts["links.generators"] += result.total_rank()
    counts["links.nonzeros"] += sum(
        1 for d in result.differentials.values() for row in d.entries for x in row if x
    )


def _count_decompose(counts, args, result):
    generators = len(result.free_pieces) + 2 * len(result.torsion_pieces)
    counts["decompose.pieces"] += len(result.free_pieces) + len(result.torsion_pieces)
    counts["decompose.dropped_pairs"] += (args[0].total_rank() - generators) // 2


def _count_derive(counts, args, result):
    counts["couples.derivations"] += 1


JSONIO_FUNCTIONS = (
    "dumps",
    "complex_to_data",
    "complex_from_json",
    "decomposition_to_data",
    "decomposition_from_json",
    "descriptor_to_data",
    "descriptor_from_data",
    "page_to_data",
    "page_from_json",
    "table_to_entries",
    "pages_to_data",
    "raw_pages_to_data",
    "pages_from_json",
)

EXACTLA_FUNCTIONS = ("rank", "pivot_columns", "kernel_basis", "image_basis", "solve")


def targets():
    """(owner, attribute, span name, counter) for every wrapped call.

    row_reduce comes before the exactla helpers so that their internal
    calls to it go through the wrapper too."""
    # twkit/__init__.py re-exports functions named like their modules
    # (decompose, recover), so the modules are fetched by full name
    m = {
        name: importlib.import_module("twkit." + name)
        for name in ("cli", "complexes", "couples", "decompose", "exactla", "jsonio", "links", "pages", "recover")
    }
    cli, complexes, couples, exactla, jsonio, links, pages = (
        m["cli"], m["complexes"], m["couples"], m["exactla"], m["jsonio"], m["links"], m["pages"]
    )
    out = [
        (cli, "main", "cli", None),
        # JSON text is parsed in the CLI's document reader
        (cli, "_read_document", "jsonio", None),
        (complexes.GradedComplex, "__init__", "complexes.validate", None),
        (complexes, "homology_field", "complexes.homology", None),
        (complexes, "first_differential", "complexes.first_differential", None),
        (exactla, "row_reduce", "exactla", _count_row_reduce),
        (pages, "generic_pages", "pages.generic", None),
        (couples, "couple_from_decomposition", "couples", None),
        (couples, "couple_pages", "couples", None),
        (couples, "correspondence_check", "couples", None),
        (couples.ExactCouple, "derive", "couples", _count_derive),
        (m["recover"], "recover", "recover", None),
        (m["recover"], "pages_from_decomposition", "recover", None),
        (m["recover"], "roundtrip", "recover", None),
        (links, "build_sl2_cube", "links", _count_complex),
        (links, "build_twobraid", "links", _count_complex),
        (links, "delta_battery", "links", None),
        (m["decompose"], "decompose", "decompose", _count_decompose),
    ]
    out += [(exactla, name, "exactla", None) for name in EXACTLA_FUNCTIONS]
    out += [(jsonio, name, "jsonio", None) for name in JSONIO_FUNCTIONS]
    return out


def install(tracer):
    """Wrap every target; returns a function that undoes it.

    A module-level function is replaced wherever a twkit module has
    bound it by name (``from .exactla import rank`` copies the binding),
    a method on its class."""
    undo = []
    modules = [m for name, m in sys.modules.items() if name == "twkit" or name.startswith("twkit.")]
    for owner, attr, name, count in targets():
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def uninstall():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return uninstall


def count_mismatches(first, other):
    """Names of the counts that differ between two traced passes."""
    return sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))


# -- from raw spans to the per-layer metrics -----------------------------

SELF_TIMES = {
    "complexes.validate_s": "complexes.validate",
    "complexes.homology.self_s": "complexes.homology",
    "complexes.first_differential.self_s": "complexes.first_differential",
    "exactla.self_s": "exactla",
    "pages.generic.self_s": "pages.generic",
    "couples.self_s": "couples",
    "recover.self_s": "recover",
    "links.self_s": "links",
    "decompose.self_s": "decompose",
    "jsonio.self_s": "jsonio",
    "cli.self_s": "cli",
}

COUNTS = {
    "complexes.validate.calls": ("calls.complexes.validate", "count"),
    "exactla.calls": ("exactla.calls", "count"),
    "exactla.cells": ("exactla.cells", "count"),
    "pages.generic.calls": ("calls.pages.generic", "count"),
    "couples.derivations": ("couples.derivations", "count"),
    "links.generators": ("links.generators", "count"),
    "links.nonzeros": ("links.nonzeros", "count"),
    "decompose.pieces": ("decompose.pieces", "count"),
    "decompose.dropped_pairs": ("decompose.dropped_pairs", "count"),
    "jsonio.bytes_in": ("jsonio.bytes_in", "bytes"),
}
