"""Batch command-line interface.

One binary, subcommand style.  JSON is the machine contract (schemas
versioned "tw/1", byte-identical for identical arguments and seed);
--format table renders the same data as aligned text grids.  Exit
codes: 0 success, 1 malformed input or failed verification, 2 usage
error (a missing, unknown or conflicting option, from argparse) or
structural complex error (d^2 != 0, inhomogeneous entries), 3
inconsistent pages, 4 insufficient couple window, 5 internal invariant
failure (a defect in twkit; the one-line message names the stage and
the command line, inline JSON shown as <inline JSON>).

The TW_SEED environment variable overrides --seed wherever a seed is
accepted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shlex
import sys

from . import jsonio
from .algebra import BigradedTable, GradedModuleDescriptor
from .complexes import (
    ComplexError,
    GradedComplex,
    InternalError,
    first_differential,
    specialize_a_to_1,
)
from .corpus import item_seeds, verify_item
from .couples import InsufficientWindow, couple_tables
from .decompose import (
    Decomposition,
    decompose,
    hn_table,
    thickness,
    torsion_width,
)
from .jsonio import SchemaError
from .links import (
    LinkDiagram,
    Sl2Potential,
    TwoBraidSpec,
    build_sl2_cube,
    build_twobraid,
    delta_battery,
)
from .pages import PageTable, assembled_page_list, assembled_pages, collapse_page, generic_page_list, generic_pages
from .recover import InconsistentPages, hom_poly_pages, page_count, pages_from_decomposition, recover

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_COMPLEX = 2
EXIT_PAGES = 3
EXIT_WINDOW = 4
EXIT_INTERNAL = 5


# -- input plumbing ----------------------------------------------------


def _read_document(spec: str):
    """Path, "-" for stdin, or inline JSON text (an object or array)."""
    if spec == "-":
        text = sys.stdin.read()
    elif spec.lstrip().startswith(("{", "[")):
        text = spec
    elif os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise SchemaError("input %r is neither a file nor inline JSON" % spec)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("cannot parse JSON input: %s" % e)


def _load_decomposition(spec: str, decomposed=True):
    """Decomposition from a decomposition or complex document; the
    complex is returned too when available.  Unless decomposed, a
    complex is not decomposed and None stands for its decomposition."""
    data = _read_document(spec)
    if not isinstance(data, dict):
        raise SchemaError("expected a decomposition or complex document, got %s" % jsonio.json_kind(data))
    kind = data.get("type")
    if kind == "decomposition":
        return jsonio.decomposition_from_json(data), None
    if kind == "complex":
        c = jsonio.complex_from_json(data)
        return decompose(c) if decomposed else None, c
    raise SchemaError("expected a decomposition or complex document, got %r" % kind)


def _emit(payload: str):
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")


# -- text rendering ----------------------------------------------------


def _descriptor_str(d: GradedModuleDescriptor) -> str:
    parts = ["F{%d}" % s for s in d.free_shifts]
    parts += ["T^%d{%d}" % (m, s) for m, s in d.torsions]
    return "+".join(parts) if parts else "0"


def render_grid(entries, corner: str) -> str:
    """Aligned grid of a {(row, col): text} map; rows print top-down in
    decreasing order, columns left-right increasing."""
    if not entries:
        return "(empty)"
    rows = sorted({a for a, _ in entries}, reverse=True)
    cols = sorted({b for _, b in entries})
    head = [corner] + [str(c) for c in cols]
    body = [
        [str(r)] + [str(entries.get((r, c), ".")) for c in cols] for r in rows
    ]
    widths = [
        max(len(line[j]) for line in [head] + body) for j in range(len(head))
    ]
    lines = [
        "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(line))
        for line in [head] + body
    ]
    return "\n".join(lines)


def render_bigraded(t: BigradedTable) -> str:
    """(i, s) tables print with polynomial degree as rows."""
    return render_grid({(s, i): d for (i, s), d in t.items()}, "s\\i")


def render_page(page: PageTable) -> str:
    entries = {
        (q, p): (v if page.hat else _descriptor_str(v))
        for (p, q), v in page.items()
    }
    return render_grid(entries, "q\\p")


def _render_decomposition(d: Decomposition) -> str:
    lines = ["k = %d" % d.k]
    lines.append(
        "free pieces: "
        + (" ".join("(%d,%d)" % p for p in d.free_pieces) if d.free_pieces else "none")
    )
    lines.append(
        "torsion pieces: "
        + (
            " ".join("(i=%d,m=%d,s=%d)" % p for p in d.torsion_pieces)
            if d.torsion_pieces
            else "none"
        )
    )
    return "\n".join(lines)


# -- reports -----------------------------------------------------------


def _full_report(c: GradedComplex) -> dict:
    d = decompose(c)
    table = hn_table(d)
    tw = torsion_width(d)
    ht = lht = None
    if table:
        try:
            ht, lht = thickness(table)
        except ValueError:
            pass
    cp = collapse_page(d)
    ranks = first_differential(c).ranks()
    return {
        "format": jsonio.FORMAT,
        "type": "report",
        "k": d.k,
        "decomposition": jsonio.decomposition_to_data(d),
        "hn": jsonio.table_to_entries(table),
        "tw": tw,
        "ht": ht,
        "lht": lht,
        "collapse_page": cp,
        "pages": [jsonio.page_to_data(page) for page in assembled_page_list(d, True, range(1, cp + 1))],
        "delta_rank": sum(ranks.values()),
        "delta_ranks": {str(i): r for i, r in ranks.items()},
    }


def _render_report(rep: dict) -> str:
    d = jsonio.decomposition_from_json(rep["decomposition"])
    out = [_render_decomposition(d)]
    out.append("")
    out.append("mod-a homology:")
    out.append(
        render_bigraded(
            BigradedTable({(i, s): v for i, s, v in rep["hn"]})
        )
    )
    out.append("")
    out.append(
        "tw = %d   ht = %s   lht = %s   collapse page = %d"
        % (rep["tw"], rep["ht"], rep["lht"], rep["collapse_page"])
    )
    for pd in rep["pages"]:
        out.append("")
        out.append("page r=%d:" % pd["r"])
        out.append(render_page(jsonio.page_from_json(pd)))
    by_degree = ", ".join(
        "%s -> %d" % (i, r) for i, r in sorted(rep["delta_ranks"].items())
    )
    out.append("")
    out.append(
        "delta rank = %d%s"
        % (rep["delta_rank"], (" (by degree: %s)" % by_degree) if by_degree else "")
    )
    return "\n".join(out)


# -- subcommands -------------------------------------------------------


def cmd_decompose(args) -> int:
    data = _read_document(args.input)
    c = jsonio.complex_from_json(data)
    d = decompose(c)
    if args.format == "table":
        _emit(_render_decomposition(d))
    else:
        _emit(jsonio.dumps(jsonio.decomposition_to_data(d)))
    return EXIT_OK


def cmd_pages(args) -> int:
    # the generic pages read the complex alone (--generic excludes --module)
    d, c = _load_decomposition(args.input, not args.generic)
    if args.generic and c is None:
        raise SchemaError("--generic needs a complex document as input")
    fc = specialize_a_to_1(c) if args.generic else None

    if args.page is not None:
        if args.generic and not args.module:
            page = generic_pages(fc, args.page)
        else:
            page = assembled_pages(d, not args.module, args.page)
        if args.format == "table":
            _emit("page r=%d:\n%s" % (page.r, render_page(page)))
        else:
            _emit(jsonio.dumps(jsonio.page_to_data(page)))
        return EXIT_OK

    # the sequence output samples one page per stability block (indices
    # 1, 2k+1, 4k+1, ...) -- the derived-page indexing that recover
    # consumes, stable from position tau+1 on
    if args.module:
        raise SchemaError("--module needs an explicit --page index")
    if args.generic:
        k, first = c.ring.k, None if args.r_max else generic_pages(fc, 1)
        count = args.r_max or page_count(first.to_hom_poly(), k)
        hom = hom_poly_pages(generic_page_list(fc, [2 * k * r + 1 for r in range(count)], first))
    else:
        k, seq = d.k, pages_from_decomposition(d).pages
        count = args.r_max if args.r_max is not None else len(seq)
        # the closed-form sequence ends on its stable page
        hom = [seq[min(r, len(seq) - 1)] for r in range(count)]
    if args.format == "table":
        pages = (PageTable.from_hom_poly(2 * k * n + 1, t) for n, t in enumerate(hom))
        _emit("\n\n".join("page %d (filtered index %d):\n%s" % (n + 1, p.r, render_page(p)) for n, p in enumerate(pages)))
    else:
        _emit(jsonio.dumps(jsonio.raw_pages_to_data(k, hom)))
    return EXIT_OK


def cmd_recover(args) -> int:
    ps = jsonio.pages_from_json(_read_document(args.input))
    d = recover(ps)
    if args.format == "table":
        _emit(_render_decomposition(d))
    else:
        _emit(jsonio.dumps(jsonio.decomposition_to_data(d)))
    return EXIT_OK


def cmd_couple(args) -> int:
    d, _ = _load_decomposition(args.input)
    if args.r is not None:
        r_lo = r_hi = args.r
    else:
        r_lo, r_hi = 1, (args.r_max if args.r_max is not None else torsion_width(d) + 2)
    pages = []
    for r, table in enumerate(couple_tables(d, r_hi)[r_lo - 1:], r_lo):
        # the derived-couple page r equals the hat page 2k(r-1)+1 at
        # the same positions, so --hat-index relabels r and nothing else
        label = 2 * d.k * (r - 1) + 1 if args.hat_index else r
        pages.append(PageTable.from_hom_poly(label, table))
    if args.format == "table":
        _emit("\n\n".join("page r=%d:\n%s" % (page.r, render_page(page)) for page in pages))
    else:
        _emit("\n".join(jsonio.dumps(jsonio.page_to_data(page)) for page in pages))
    return EXIT_OK


def _parse_lambdas(text: str):
    """"1=-1,2=1/3" -> ((1, Fraction(-1)), (2, Fraction(1, 3)))."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        j, _, val = chunk.partition("=")
        try:
            out.append((int(j), jsonio.parse_rational(val)))
        except SchemaError:
            raise
        except ValueError:
            raise SchemaError(
                "--lambdas: cannot read %r, expected j=value such as 1=-3/2" % chunk
            ) from None
    return tuple(out)


def cmd_twobraid(args) -> int:
    if args.i is not None:
        coefficient = 1 if args.coefficient is None else jsonio.parse_rational(args.coefficient)
        spec = TwoBraidSpec.power_basis(args.N, args.i, coefficient)
    else:
        if args.k is None or args.lambdas is None:
            raise SchemaError("need either --i or both --k and --lambdas")
        spec = TwoBraidSpec(args.N, args.k, _parse_lambdas(args.lambdas))
    rep = _full_report(build_twobraid(spec))
    _emit(_render_report(rep) if args.format == "table" else jsonio.dumps(rep))
    return EXIT_OK


def cmd_link(args) -> int:
    """Report of the sl(2) cube, built over the integral form of the
    potential.  The report reads only the isomorphism class of the
    homology as a graded C[a]-module (its decomposition into k[a]{s}
    and k[a]/(a^m){s}), and the degree-preserving automorphism
    a -> c a that relates the two cubes keeps that class; over the
    integral form every entry stays an int.
    """
    if args.braid is not None:
        diagram = LinkDiagram.from_braid_text(args.braid, args.strands)
    elif args.pd is not None:
        raw = args.pd
        if os.path.exists(raw):
            with open(raw, "r", encoding="utf-8") as fh:
                raw = fh.read()
        try:
            entries = json.loads(raw)
        except json.JSONDecodeError as e:
            raise SchemaError("cannot parse PD JSON: %s" % e)
        diagram = LinkDiagram(entries, args.free_loops or 0)
    else:
        raise SchemaError("need --braid or --pd")
    if args.lambdas is not None:
        potential = Sl2Potential(2 if args.k is None else args.k, _parse_lambdas(args.lambdas))
    else:
        potential = Sl2Potential.standard()
    rep = _full_report(build_sl2_cube(diagram, potential.integral_form()))
    _emit(_render_report(rep) if args.format == "table" else jsonio.dumps(rep))
    return EXIT_OK


def cmd_delta(args) -> int:
    if args.scalings is None:
        battery = delta_battery(args.N)
    else:
        try:
            scalings = tuple(jsonio.parse_rational(x) for x in args.scalings.split(","))
        except SchemaError:
            raise
        except ValueError:
            raise SchemaError(
                "--scalings: expected rationals such as 1,5,-2/3, got %r" % args.scalings
            ) from None
        if not all(scalings):
            raise SchemaError("--scalings: a scaling must be nonzero")
        battery = delta_battery(args.N, scalings)
    data = {
        "format": jsonio.FORMAT,
        "type": "delta",
        "N": battery.N,
        "ranks": {str(i): r for i, r in sorted(battery.ranks.items())},
        "concentrated": battery.concentrated,
        "top_vanishes": battery.top_vanishes,
        "anticommute": battery.anticommute,
        "scaling_ok": battery.scaling_ok,
        "ok": battery.ok(),
        "matrices": {
            str(i): {
                str(h): [[str(row.get(c, 0)) for c in range(fd.dims[h])] for row in block]
                for h, block in sorted(fd.blocks.items())
            }
            for i, fd in sorted(battery.deltas.items())
        },
    }
    if args.format == "table":
        lines = ["N = %d" % battery.N]
        lines.append(
            "ranks: "
            + "  ".join("delta_%d -> %d" % (i, r) for i, r in sorted(battery.ranks.items()))
        )
        for name in ("concentrated", "top_vanishes", "anticommute", "scaling_ok"):
            lines.append("%s: %s" % (name, "yes" if data[name] else "NO"))
        lines.append("verdict: %s" % ("ok" if battery.ok() else "FAIL"))
        _emit("\n".join(lines))
    else:
        _emit(jsonio.dumps(data))
    return EXIT_OK if battery.ok() else EXIT_GENERIC


def cmd_verify(args) -> int:
    seed = args.seed
    env = os.environ.get("TW_SEED")
    if env is not None:
        if not re.fullmatch(r"-?[0-9]+", env):
            raise SchemaError("TW_SEED: expected an integer, got %r" % env)
        seed = int(env)
    if args.count < 1:
        raise SchemaError("verify: --count must be at least 1")
    seeds = item_seeds(seed, args.count)
    results = [verify_item(s) for s in seeds]
    failures = [
        {"item": n, "seed": s, "failures": fails}
        for n, (s, fails) in enumerate(zip(seeds, results))
        if fails
    ]
    passed = args.count - len(failures)
    if args.format == "table":
        lines = ["%d/%d pass" % (passed, args.count)]
        for f in failures:
            lines.append(
                "item %d (seed %d): %s" % (f["item"], f["seed"], "; ".join(f["failures"]))
            )
        _emit("\n".join(lines))
    else:
        _emit(
            jsonio.dumps(
                {
                    "format": jsonio.FORMAT,
                    "type": "verify",
                    "seed": seed,
                    "count": args.count,
                    "passed": passed,
                    "failures": failures,
                }
            ),
        )
    return EXIT_OK if passed == args.count else EXIT_GENERIC


# -- parser ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads "-" then a digit ("-3/2", "-2/3,5") as a value, not an
    option; no twkit option looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The twkit parser, built on the first call; every later call in
    the process returns the same object, so callers must not mutate it."""
    parser = _Parser(
        prog="twkit",
        description="Exact decomposition, spectral-sequence, and recovery "
        "toolkit for graded complexes over k[a].",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument(
            "--format",
            choices=("json", "table"),
            default="json",
            help="json is the machine contract; table is for reading",
        )

    p = sub.add_parser("decompose", help="split a complex into elementary pieces")
    p.add_argument("input", help="complex document: path, inline JSON, or -")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pages", help="spectral-sequence pages of a complex or decomposition")
    p.add_argument("input", help="complex or decomposition document")
    p.add_argument(
        "--r-max",
        type=int,
        default=None,
        help="sequence length (default: tau+1, what recover needs)",
    )
    p.add_argument(
        "--page",
        type=int,
        default=None,
        help="dump one page at this raw filtered index instead",
    )
    p.add_argument("--module", action="store_true", default=None, help="module-valued page (needs --page)")
    p.add_argument(
        "--generic",
        action="store_true",
        default=None,
        help="compute from the a=1 specialization instead of the closed form",
    )
    add_common(p)
    p.set_defaults(func=cmd_pages)

    p = sub.add_parser("recover", help="reconstruct a decomposition from its pages")
    p.add_argument("input", help="pages document")
    add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("couple", help="derived exact-couple pages")
    p.add_argument("input", help="complex or decomposition document")
    p.add_argument("--r", type=int, default=None, help="single page index")
    p.add_argument("--r-max", type=int, default=None, help="last page (default: tw+2)")
    p.add_argument(
        "--hat-index",
        action="store_true",
        help="label page r by its filtered-complex index 2k(r-1)+1; positions are unchanged",
    )
    add_common(p)
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("twobraid", help="closed 2-braid report for general N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--i", type=int, default=None, help="power-basis potential exponent")
    p.add_argument("--coefficient", default=None, help="coefficient on the b x^i term (default 1)")
    p.add_argument("--k", type=int, default=None, help="half the degree of a (general potential)")
    p.add_argument("--lambdas", default=None, help='general potential, e.g. "1=-1,2=1/3"')
    add_common(p)
    p.set_defaults(func=cmd_twobraid)

    p = sub.add_parser("link", help="equivariant sl(2) report for a link diagram")
    p.add_argument("--braid", default=None, help='braid word, e.g. "s1 s1 s1" or "1 1 1"')
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--pd", default=None, help="PD code JSON: [[sign,[a,b,c,d]],...] or a path")
    p.add_argument("--free-loops", type=int, default=None, help="crossingless loops beside a --pd code (default 0)")
    p.add_argument("--k", type=int, default=None, choices=(1, 2), help="half the degree of a (default 2; needs --lambdas)")
    p.add_argument("--lambdas", default=None, help='potential coefficients, e.g. "1=-1"')
    add_common(p)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("delta", help="induced-differential battery for the 2-braid family")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--scalings", default=None, help='comma list of rationals, e.g. "1,5,-2/3"')
    add_common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="run the seeded cross-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# (subcommand, option, other option, whether the option needs the
# other): an option that would be ignored is a usage error, never
# dropped silently
OPTION_RULES = (
    ("twobraid", "coefficient", "i", True),
    ("twobraid", "k", "i", False),
    ("twobraid", "lambdas", "i", False),
    ("link", "k", "lambdas", True),
    ("link", "pd", "braid", False),
    ("link", "strands", "braid", True),
    ("link", "free_loops", "pd", True),
    ("couple", "r_max", "r", False),
    ("pages", "r_max", "page", False),
    ("pages", "generic", "module", False),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for subcommand, option, other, needs in OPTION_RULES:
        if args.subcommand != subcommand or getattr(args, option) is None:
            continue
        if (getattr(args, other) is not None) != needs:
            parser.error("%s: --%s applies only %s --%s" % (
                subcommand, option.replace("_", "-"), "with" if needs else "without", other))
    try:
        for option in ("r_max", "r", "page"):
            value = getattr(args, option, None)
            if value is None:
                continue
            # pages --generic also shows the zeroth page of the presentation
            if option == "page" and args.generic:
                if value < 0:
                    raise SchemaError("pages: --page must be at least 0 with --generic")
            elif value < 1:
                raise SchemaError("%s: --%s must be at least 1 (pages start at r = 1)" % (
                    args.subcommand, option.replace("_", "-")))
        return args.func(args)
    except ComplexError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_COMPLEX
    except InconsistentPages as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PAGES
    except InsufficientWindow as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_WINDOW
    except InternalError as e:
        # name the command that met it, inline JSON by its kind alone
        words = sys.argv[1:] if argv is None else argv
        line = " ".join("<inline JSON>" if w.lstrip().startswith(("{", "[")) else shlex.quote(w) for w in words)
        print("error: %s (twkit %s)" % (e, line), file=sys.stderr)
        return EXIT_INTERNAL
    except (SchemaError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
