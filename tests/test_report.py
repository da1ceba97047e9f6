"""The link and twobraid report writes and renders each run of pages of
the same entries once.  Its JSON and table output must equal, byte for
byte, what the frozen writer (tests/frozen_report.py) makes of the same
report, converting, encoding and rendering every page on its own.
"""

import json
from fractions import Fraction

import pytest

from frozen_report import reference_report
from test_integral_form import benchmark_coefficients
from twkit import cli, jsonio
from twkit.complexes import minimal_complex
from twkit.links import LinkDiagram, Sl2Potential, build_sl2_cube
from twkit.pages import PageTable

# perfbench's link ladder, then T(3,4)
LINKS = (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3), ("1 2 1 2 1 2 1 2", 3))

# the one-crossing unknot: no torsion, so the collapse page is 1
UNKNOT = ("link", "--braid", "1", "--strands", "2")
UNKNOT_JSON = (
    '{"collapse_page":1,"decomposition":{"format":"tw/1","free":[[0,-1],[0,1]],"k":2,"torsion":[],'
    '"type":"decomposition"},"delta_rank":0,"delta_ranks":{},"format":"tw/1","hn":[[0,-1,1],[0,1,1]],'
    '"ht":2,"k":2,"lht":null,"pages":[{"entries":[[-1,1,1],[1,-1,1]],"format":"tw/1","hat":true,"r":1,'
    '"type":"page"}],"tw":0,"type":"report"}\n'
)
UNKNOT_TABLE = """k = 2
free pieces: (0,-1) (0,1)
torsion pieces: none

mod-a homology:
s\\i  0
  1  1
 -1  1

tw = 0   ht = 2   lht = None   collapse page = 1

page r=1:
q\\p  -1  1
  1   1  .
 -1   .  1

delta rank = 0
"""


@pytest.fixture
def check(capsys, monkeypatch):
    """check(*argv) runs a report command as JSON and as a table and
    compares each output with the frozen writer's text of the report
    the command built."""
    reports = []
    full_report = cli._full_report

    def recorded(c):
        reports.append(full_report(c))
        return reports[-1]

    monkeypatch.setattr(cli, "_full_report", recorded)

    def run(*argv):
        for n, extra in enumerate(((), ("--format", "table"))):
            assert cli.main([*argv, *extra]) == 0
            assert capsys.readouterr() == (reference_report(reports.pop())[n] + "\n", ""), argv + extra

    return run


@pytest.mark.parametrize("N", [10, 20, 25])
def test_twobraid_ladder_under_every_benchmark_coefficient(check, N):
    for coefficient in benchmark_coefficients():
        check("twobraid", "--N", str(N), "--i", str(N // 2), "--coefficient=%s" % coefficient)


def test_twobraid_with_the_default_coefficient(check):
    check("twobraid", "--N", "12", "--i", "6")


@pytest.mark.parametrize("word, strands", LINKS)
@pytest.mark.parametrize("potential", [(), ("--lambdas", "1=-3/2")])
def test_links(check, word, strands, potential):
    check("link", "--braid", word, "--strands", str(strands), *potential)


@pytest.mark.parametrize("word, strands, potential", [
    ("1 " * 7, 2, Sl2Potential.standard()),
    ("1 2 " * 4, 3, Sl2Potential.standard()),
    ("1 2 " * 5, 3, Sl2Potential.standard()),
    ("1 1 1 2 -1 2", 3, Sl2Potential(1, ((1, Fraction(2)), (2, Fraction(-1, 3))))),
], ids=["T(2,7)", "T(3,4)", "T(3,5)", "k=1"])
def test_the_cube_and_its_minimal_complex_report_alike(word, strands, potential):
    """twkit link reports from the cube's minimal complex: the full cube
    gives the same report, byte for byte."""
    c = build_sl2_cube(LinkDiagram.from_braid_text(word.strip(), strands), potential.integral_form())
    m = minimal_complex(c)
    assert m.total_rank() < c.total_rank()
    assert jsonio.report_text(cli._full_report(m)) == jsonio.report_text(cli._full_report(c))


def test_report_without_torsion_reads_as_written(check, capsys):
    check(*UNKNOT)
    assert (cli.main(list(UNKNOT)), capsys.readouterr()) == (0, (UNKNOT_JSON, ""))
    assert (cli.main([*UNKNOT, "--format", "table"]), capsys.readouterr()) == (0, (UNKNOT_TABLE, ""))


A = {(0, 0): 1, (2, -1): 1}
# A's positions with another value, A with one more entry, and nothing
B = {(0, 0): 2, (2, -1): 1}
C = {(0, 0): 1, (2, -1): 1, (4, -3): 1}
EMPTY = {}


@pytest.mark.parametrize("entries", [
    # equal pages each built on its own, not one table relabeled
    (A, A, A),
    (A, B), (A, B, A), (A, A, B, B, A), (B, C, EMPTY, EMPTY, C),
    (EMPTY,), (EMPTY, A),
])
def test_pages_equal_or_not_to_the_last(entries):
    rep = cli._full_report(build_sl2_cube(LinkDiagram.from_braid_text("1", 2), Sl2Potential.standard()))
    rep["pages"] = [PageTable(r, page) for r, page in enumerate(entries, 1)]
    assert (jsonio.report_text(rep), cli._render_report(rep)) == reference_report(rep)


def test_each_run_of_equal_pages_is_converted_and_rendered_once(capsys, monkeypatch):
    calls = []
    for owner, name in ((jsonio, "page_to_data"), (cli, "render_page")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda page, name=name, original=original: calls.append(name) or original(page))
    for extra in ((), ("--format", "table")):
        assert cli.main(["twobraid", "--N", "25", "--i", "12", *extra]) == 0
    pages = json.loads(capsys.readouterr().out.split("\n")[0])["pages"]
    runs = 1 + sum(page["entries"] != last["entries"] for last, page in zip(pages, pages[1:]))
    assert (len(pages), runs) == (29, 2)
    assert calls == ["page_to_data"] * runs + ["render_page"] * runs
