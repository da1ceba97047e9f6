"""The frozen writer of the link and twobraid report, the one reference
its rewrite is checked against (tests/test_report.py): every page
converted to a page document, the report encoded by jsonio.dumps in one
call, and the table rendering each page parsed back from its document,
frozen before the report wrote and rendered each run of equal pages
once.

It takes the report as cli._full_report builds it, whose "pages" are
PageTables; jsonio's page conversions and dumps and the CLI's grid
renderers come from twkit.
"""

from twkit.algebra import BigradedTable
from twkit.cli import _render_decomposition, render_bigraded, render_page
from twkit.jsonio import decomposition_from_json, dumps, page_from_json, page_to_data


def reference_report(rep):
    """(JSON text, table text) of a report, every page on its own."""
    data = dict(rep, pages=[page_to_data(page) for page in rep["pages"]])
    return dumps(data), _render(data)


def _render(rep):
    d = decomposition_from_json(rep["decomposition"])
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
        out.append(render_page(page_from_json(pd)))
    by_degree = ", ".join(
        "%s -> %d" % (i, r) for i, r in sorted(rep["delta_ranks"].items())
    )
    out.append("")
    out.append(
        "delta rank = %d%s"
        % (rep["delta_rank"], (" (by degree: %s)" % by_degree) if by_degree else "")
    )
    return "\n".join(out)
