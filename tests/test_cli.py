"""The command-line surface: pipes, formats, exit codes, determinism.

Most checks drive twkit.cli.main in-process for speed; a few go through
a real subprocess to cover the console script, stdin, and environment
seeding.
"""

import argparse
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

import frozen_couples
from builders import shifted
from twkit import cli, complexes, corpus, jsonio, pages
from twkit.cli import EXIT_COMPLEX, build_parser, main
from twkit.complexes import GradedComplex
from twkit.corpus import conjugate, random_decomposition
from twkit.couples import ExactCouple, couple_pages
from twkit.decompose import decompose, reassemble, torsion_width
from twkit.pages import PageTable

TORSION_CX = json.dumps(
    {
        "format": "tw/1",
        "type": "complex",
        "k": 1,
        "modules": {"0": [4], "1": [0]},
        "differentials": {"0": [["1"]]},
    }
)


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == expect, (argv, code, out, err)
    return out, err


def usage_error(capsys, argv, message):
    """argv exits 2 on the one usage line "twkit: error: <message>"."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "twkit: error: " + message


def run_proc(*argv, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "twkit.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


class TestDecompose:
    def test_json_output(self, capsys):
        out, _ = run(capsys, "decompose", TORSION_CX)
        doc = json.loads(out)
        assert doc["type"] == "decomposition" and doc["format"] == "tw/1"
        assert doc["free"] == [] and doc["torsion"] == [[1, 2, 0]]

    def test_table_output(self, capsys):
        out, _ = run(capsys, "decompose", TORSION_CX, "--format", "table")
        assert "torsion pieces: (i=1,m=2,s=0)" in out

    def test_deterministic(self, capsys):
        a, _ = run(capsys, "decompose", TORSION_CX)
        b, _ = run(capsys, "decompose", TORSION_CX)
        assert a == b

    def test_accepts_file(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        path.write_text(TORSION_CX)
        out, _ = run(capsys, "decompose", str(path))
        assert json.loads(out)["torsion"] == [[1, 2, 0]]

    def test_missing_file_exit_1(self, capsys):
        _, err = run(capsys, "decompose", "/no/such/file.json", expect=1)
        assert "neither a file nor inline JSON" in err

    def test_broken_complex_exit_2(self, capsys):
        bad = json.dumps(
            {
                "format": "tw/1",
                "type": "complex",
                "k": 1,
                "modules": {"0": [0], "1": [0], "2": [0]},
                "differentials": {"0": [["1"]], "1": [["1"]]},
            }
        )
        _, err = run(capsys, "decompose", bad, expect=2)
        assert "d^2 != 0" in err and "degree 0" in err


class TestPagesAndRecover:
    def test_pipe_round_trip(self, capsys):
        pages_out, _ = run(capsys, "pages", TORSION_CX)
        rec_out, _ = run(capsys, "recover", pages_out)
        dec_out, _ = run(capsys, "decompose", TORSION_CX)
        assert json.loads(rec_out) == json.loads(dec_out)

    def test_sequence_values(self, capsys):
        out, _ = run(capsys, "pages", TORSION_CX)
        doc = json.loads(out)
        assert doc["type"] == "pages" and doc["k"] == 1
        # stored positions follow the recover indexing: page n holds the
        # hat page 2k(n-1)+1, so the width-2 pair dies at entry 3
        assert doc["pages"] == [
            [[0, 4, 1], [1, 0, 1]],
            [[0, 4, 1], [1, 0, 1]],
            [],
        ]

    def test_corrupted_pages_exit_3(self, capsys):
        pages_out, _ = run(capsys, "pages", TORSION_CX)
        broken = json.loads(pages_out)
        broken["pages"][0] = [[0, 4, 1], [1, 0, 2]]
        _, err = run(capsys, "recover", json.dumps(broken), expect=3)
        assert "inconsistent pages" in err

    def test_single_module_page(self, capsys):
        out, _ = run(capsys, "pages", TORSION_CX, "--page", "5", "--module")
        doc = json.loads(out)
        assert doc["hat"] is False and doc["r"] == 5
        assert doc["entries"] == [[0, 1, {"free": [], "torsion": [[2, 0]]}]]

    def test_generic_matches_assembled(self, capsys):
        gen, _ = run(capsys, "pages", TORSION_CX, "--generic", "--r-max", "6")
        asm, _ = run(capsys, "pages", TORSION_CX, "--r-max", "6")
        assert json.loads(gen) == json.loads(asm)

    def test_module_requires_page(self, capsys):
        run(capsys, "pages", TORSION_CX, "--module", expect=1)

    def test_r_max_beside_page_is_a_usage_error(self, capsys):
        usage_error(capsys, ["pages", TORSION_CX, "--page", "3", "--r-max", "2"],
                    "pages: --r-max applies only without --page")

    def test_generic_beside_module_is_a_usage_error(self, capsys):
        usage_error(capsys, ["pages", TORSION_CX, "--page", "3", "--module", "--generic"],
                    "pages: --generic applies only without --module")

    def test_generic_builds_each_page_once(self, capsys, monkeypatch):
        """pages --generic reads its page count off page 1 and prints that
        same page 1, so no page is built twice, with --r-max or without."""
        built, generic_pages = [], pages.generic_pages
        counting = lambda c, r: built.append(r) or generic_pages(c, r)
        monkeypatch.setattr(pages, "generic_pages", counting)
        monkeypatch.setattr(cli, "generic_pages", counting)
        for argv in ((), ("--r-max", "6")):
            del built[:]
            run(capsys, "pages", TORSION_CX, "--generic", *argv)
            assert built and built.count(1) == 1 and len(built) == len(set(built)), (argv, built)

    def test_module_pages_and_recover_as_tables(self, capsys):
        """Module entries print as F{s} and T^m{s} summands joined by +,
        and recover prints the decomposition it reads."""
        doc = json.dumps({"format": "tw/1", "type": "decomposition", "k": 1, "free": [[1, 0]], "torsion": [[1, 2, 0]]})
        out, err = run(capsys, "pages", doc, "--page", "1", "--module", "--format", "table")
        assert (out, err) == ("page r=1:\nq\\p          0     4\n  1  F{0}+F{0}     .\n -4          .  F{4}\n", "")
        out, err = run(capsys, "pages", doc, "--page", "5", "--module", "--format", "table")
        assert (out, err) == ("page r=5:\nq\\p            0\n  1  F{0}+T^2{0}\n", "")
        sequence, _ = run(capsys, "pages", doc)
        out, err = run(capsys, "recover", sequence, "--format", "table")
        assert (out, err) == ("k = 1\nfree pieces: (1,0)\ntorsion pieces: (i=1,m=2,s=0)\n", "")


def pages_doc(*pages):
    return json.dumps({"format": "tw/1", "type": "pages", "k": 1, "pages": list(pages)})


class TestSharedPages:
    """Equal consecutive pages share one table, which validation and
    recover pass over; every refusal keeps its exit code and text, and
    pages --generic, which no longer decomposes, still refuses what it
    refused and sizes an empty sequence as one page."""

    @pytest.mark.parametrize("spelled", ["true", "1.0"])
    def test_a_bool_or_float_copy_of_a_page_is_refused(self, capsys, spelled):
        doc = '{"format":"tw/1","type":"pages","k":1,"pages":[[[0,0,1]],[[0,0,%s]]]}' % spelled
        out, err = run(capsys, "recover", doc, expect=1)
        assert out == "" and err == "error: malformed pages document: expected an integer, got %s\n" % spelled

    def test_growth_after_shared_pages_is_refused(self, capsys):
        out, err = run(capsys, "recover", pages_doc(*[[[0, 0, 1]]] * 3, [[0, 0, 2]]), expect=3)
        assert out == "" and err == "error: inconsistent pages: page 4 grows at (0, 0)\n"

    def test_stable_page_changing_after_shared_pages_is_refused(self, capsys):
        out, err = run(capsys, "recover", pages_doc(*[[[0, 0, 1]]] * 3, []), expect=3)
        assert out == "" and err == "error: inconsistent pages: page 4 differs from the stable page 2\n"

    def test_generic_reads_a_decomposition_document_before_refusing_it(self, capsys):
        bad = json.dumps({"format": "tw/1", "type": "decomposition", "k": 1, "free": "ab"})
        out, err = run(capsys, "pages", "--generic", bad, expect=1)
        assert out == "" and err == (
            'error: malformed decomposition document: expected "free" to be an array of pieces [i, s], got "ab"\n')
        good = json.dumps({"format": "tw/1", "type": "decomposition", "k": 1, "free": [[0, 0]]})
        out, err = run(capsys, "pages", "--generic", good, expect=1)
        assert out == "" and err == "error: --generic needs a complex document as input\n"

    @pytest.mark.parametrize("modules, differentials", [({}, {}), ({"0": [2], "1": [2]}, {"0": [["-3/2"]]})])
    def test_empty_first_generic_page_prints_one_page(self, capsys, modules, differentials):
        doc = json.dumps({"format": "tw/1", "type": "complex", "k": 2, "modules": modules, "differentials": differentials})
        out, _ = run(capsys, "pages", "--generic", doc)
        assert out == '{"format":"tw/1","k":2,"pages":[[]],"type":"pages"}\n'
        out, _ = run(capsys, "pages", "--generic", doc, "--format", "table")
        assert out == "page 1 (filtered index 1):\n(empty)\n"


class TestCouple:
    def test_page_lines(self, capsys):
        out, _ = run(capsys, "couple", TORSION_CX, "--r-max", "3")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [l["r"] for l in lines] == [1, 2, 3]
        assert lines[1]["entries"] == [[0, 1, 1], [4, -4, 1]]
        assert lines[2]["entries"] == []

    def test_hat_indexing(self, capsys):
        out, _ = run(capsys, "couple", TORSION_CX, "--r", "2", "--hat-index")
        doc = json.loads(out)
        assert doc["r"] == 3
        assert doc["entries"] == [[0, 1, 1], [4, -4, 1]]
        assert out == run(capsys, "pages", TORSION_CX, "--page", "3")[0]

    def test_hat_index_prints_the_hat_page(self, capsys):
        """couple --r r --hat-index is pages --page 2k(r-1)+1 byte for
        byte, on 40 seeded documents, r = 1..tw+2, in both formats."""
        cases = 0
        for seed in range(40):
            rng = random.Random(seed)
            c = conjugate(rng, reassemble(random_decomposition(rng)))
            doc = jsonio.dumps(jsonio.complex_to_data(c))
            d = decompose(c)
            for r in range(1, torsion_width(d) + 3):
                for fmt in ("json", "table"):
                    got = run(capsys, "couple", doc, "--r", str(r), "--hat-index", "--format", fmt)
                    page = str(2 * d.k * (r - 1) + 1)
                    assert got == run(capsys, "pages", doc, "--page", page, "--format", fmt), (seed, r, fmt)
                    cases += 1
        assert cases == 288

    @pytest.mark.parametrize("seed", range(8))
    def test_pages_match_couple_pages_with_one_derivation_each(self, capsys, monkeypatch, seed):
        """couple prints the pages of the frozen document chain, and each
        page past the first costs one derivation per piece shape (free,
        or torsion of exponent m)."""
        rng = random.Random(seed)
        doc = jsonio.dumps(jsonio.complex_to_data(conjugate(rng, reassemble(random_decomposition(rng)))))
        d = decompose(jsonio.complex_from_json(json.loads(doc)))
        couple = frozen_couples.couple_from_decomposition(d)
        shapes = {0 for _ in d.free_pieces} | {m for _, m, _ in d.torsion_pieces}
        r_hi = torsion_width(d) + 2
        derive = ExactCouple.derive
        calls = []
        monkeypatch.setattr(ExactCouple, "derive", lambda c: calls.append(1) or derive(c))
        out, _ = run(capsys, "couple", doc)
        monkeypatch.undo()
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [line["r"] for line in lines] == list(range(1, r_hi + 1))
        assert len(calls) == len(shapes) * (r_hi - 1)
        for line in lines:
            want = PageTable.from_hom_poly(line["r"], couple_pages(couple, line["r"]))
            assert {(p, q): v for p, q, v in line["entries"]} == dict(want.items())

    def test_single_page_below_one_is_refused(self, capsys):
        for r in ("0", "-2"):
            out, err = run(capsys, "couple", TORSION_CX, "--r", r, expect=1)
            assert out == ""
            assert err == "error: couple: --r must be at least 1 (pages start at r = 1)\n"
        # pages --generic also shows the zeroth page, E_0 of the presentation
        out, err = run(capsys, "pages", TORSION_CX, "--page", "-1", "--generic", expect=1)
        assert out == "" and err == "error: pages: --page must be at least 0 with --generic\n"
        out, _ = run(capsys, "pages", TORSION_CX, "--page", "0", "--generic")
        assert json.loads(out) == {
            "format": "tw/1", "type": "page", "r": 0, "hat": True, "entries": [[0, 1, 1], [4, -4, 1]],
        }

    def test_r_max_beside_r_is_a_usage_error(self, capsys):
        usage_error(capsys, ["couple", TORSION_CX, "--r", "2", "--r-max", "3"],
                    "couple: --r-max applies only without --r")

    def test_window_too_small_exits_4(self, capsys):
        """One torsion piece of width 2 at k = 1: pages up to 5 fit its
        window [0, 4], page 12 does not."""
        doc = '{"format":"tw/1","type":"decomposition","k":1,"free":[[0,0]],"torsion":[[1,2,0]]}'
        out, err = run(capsys, "couple", doc, "--r-max", "12", expect=4)
        assert (out, err) == ("", "error: insufficient window: A at (1, -2) is outside [0, 4]\n")

    def test_pages_document_refused(self, capsys):
        sequence, _ = run(capsys, "pages", TORSION_CX)
        out, err = run(capsys, "couple", sequence, expect=1)
        assert (out, err) == ("", "error: expected a decomposition or complex document, got 'pages'\n")


class TestTwoBraid:
    def test_report(self, capsys):
        out, _ = run(capsys, "twobraid", "--N", "2", "--i", "1")
        rep = json.loads(out)
        assert rep["type"] == "report" and rep["k"] == 2
        assert rep["decomposition"]["free"] == [[0, -4], [0, -2], [4, -12], [4, -10]]
        assert rep["decomposition"]["torsion"] == [[3, 1, -10]]
        assert rep["tw"] == 1 and rep["collapse_page"] == 5
        assert rep["delta_rank"] == 1 and rep["delta_ranks"] == {"2": 1}
        assert len(rep["pages"]) == 5

    def test_table_format(self, capsys):
        out, _ = run(capsys, "twobraid", "--N", "3", "--i", "2", "--format", "table")
        assert "collapse page = 5" in out
        assert "delta rank = 1" in out

    def test_general_potential(self, capsys):
        out, _ = run(capsys, "twobraid", "--N", "4", "--k", "2", "--lambdas", "2=1")
        rep = json.loads(out)
        assert rep["decomposition"]["torsion"]
        assert all(m >= 2 for _, m, _ in rep["decomposition"]["torsion"])

    def test_bad_lambdas_exit_1(self, capsys):
        _, err = run(capsys, "twobraid", "--N", "3", "--k", "2", "--lambdas", "nope", expect=1)
        assert err == "error: --lambdas: cannot read 'nope', expected j=value such as 1=-3/2\n"

    # an index follows the integer rule; the list trims each entry, so
    # a space counts only inside one
    @pytest.mark.parametrize("chunk", ["x=1", "2", "2=half", "", "1_000=1", "7 =1", "+7=1", "\u0663=1"])
    def test_bad_lambdas_chunk_is_named(self, capsys, chunk):
        _, err = run(capsys, "twobraid", "--N", "3", "--k", "2", "--lambdas", "1=1," + chunk, expect=1)
        assert err == "error: --lambdas: cannot read %r, expected j=value such as 1=-3/2\n" % chunk

    def test_coefficient_without_i_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["twobraid", "--N", "4", "--k", "2", "--lambdas", "2=1", "--coefficient", "3"])
        assert exc.value.code == 2
        assert "--coefficient applies only with --i" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--k", "2"), ("--lambdas", "1=1")])
    def test_general_potential_beside_i_is_a_usage_error(self, capsys, option, value):
        usage_error(capsys, ["twobraid", "--N", "3", "--i", "2", option, value],
                    "twobraid: %s applies only without --i" % option)

    @pytest.mark.parametrize("N", ["-3", "0", "1"])
    def test_small_N_is_named_before_i(self, capsys, N):
        out, err = run(capsys, "twobraid", "--N", N, "--i", "1", expect=1)
        assert out == "" and err == "error: N must be at least 2\n"

    def test_neither_i_nor_general_potential_refused(self, capsys):
        out, err = run(capsys, "twobraid", "--N", "3", expect=1)
        assert (out, err) == ("", "error: need either --i or both --k and --lambdas\n")


class TestLink:
    def test_braid_report(self, capsys):
        out, _ = run(capsys, "link", "--braid", "s1 s1 s1")
        rep = json.loads(out)
        assert rep["decomposition"]["free"] == [[0, 1], [0, 3]]
        assert rep["decomposition"]["torsion"] == [[-2, 1, 5]]
        assert rep["tw"] == 1 and rep["collapse_page"] == 5

    def test_pd_route_matches_braid(self, capsys):
        pd = json.dumps([[1, [1, 3, 2, 0]], [1, [3, 1, 0, 2]]])
        a, _ = run(capsys, "link", "--pd", pd)
        b, _ = run(capsys, "link", "--braid", "1 1")
        assert json.loads(a) == json.loads(b)

    @pytest.mark.parametrize(
        "pd, message",
        [
            ("[1]", "a crossing must be [sign, [a, b, c, d]]"),
            ("[[1,[1,2,2,1]],[1,null]]", "a crossing must be [sign, [a, b, c, d]]"),
            ("[[true,[1,2,2,1]]]", "crossing sign must be +1 or -1"),
            ("[[1,[1,2,2,1.5]]]", "arc labels must be integers"),
            ('{"1": [1, 2, 2, 1]}', "expected an array of [sign, [a, b, c, d]] crossings"),
        ],
    )
    def test_invalid_pd_code_exit_1(self, capsys, pd, message):
        out, err = run(capsys, "link", "--pd", pd, expect=1)
        assert out == "" and err == "error: invalid PD code: %s\n" % message

    def test_bad_lambdas_exit_1(self, capsys):
        _, err = run(capsys, "link", "--braid", "1 1 1", "--lambdas", "nope", expect=1)
        assert err == "error: --lambdas: cannot read 'nope', expected j=value such as 1=-3/2\n"

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_k_without_lambdas_is_a_usage_error(self, capsys, k):
        with pytest.raises(SystemExit) as exc:
            main(["link", "--braid", "1 1 1", "--k", k])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == "twkit: error: link: --k applies only with --lambdas"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--braid", "1 1", "--free-loops", "2"], "link: --free-loops applies only with --pd"),
            (["--braid", "1 1", "--pd", "[[1,[1,3,2,0]],[1,[3,1,0,2]]]"], "link: --pd applies only without --braid"),
            (["--pd", "[[1,[1,3,2,0]],[1,[3,1,0,2]]]", "--strands", "3"], "link: --strands applies only with --braid"),
        ],
    )
    def test_ignored_diagram_option_is_a_usage_error(self, capsys, argv, message):
        usage_error(capsys, ["link"] + argv, message)

    def test_free_loops_with_pd(self, capsys):
        pd = json.dumps([[1, [1, 3, 2, 0]], [1, [3, 1, 0, 2]]])
        a, _ = run(capsys, "link", "--pd", pd, "--free-loops", "1")
        b, _ = run(capsys, "link", "--braid", "1 1", "--strands", "3")
        c, _ = run(capsys, "link", "--pd", pd, "--free-loops", "0")
        d, _ = run(capsys, "link", "--pd", pd)
        assert a == b and c == d and a != c

    @pytest.mark.parametrize("braid", ["", "1"])
    def test_negative_strand_count_refused(self, capsys, braid):
        out, err = run(capsys, "link", "--braid", braid, "--strands", "-5", expect=1)
        assert out == "" and err == "error: strand count must be non-negative, got -5\n"

    def test_zero_strands(self, capsys):
        # no letter: the empty link, as the empty PD code gives it
        a, _ = run(capsys, "link", "--braid", "", "--strands", "0")
        b, _ = run(capsys, "link", "--pd", "[]")
        assert a == b
        out, err = run(capsys, "link", "--braid", "1", "--strands", "0", expect=1)
        assert out == "" and err == "error: generator 1 out of range for 0 strands\n"

    @pytest.mark.parametrize("lambdas", ["1=-1,,", ",1=-1", ""])
    def test_empty_lambdas_entry_refused(self, capsys, lambdas):
        out, err = run(capsys, "link", "--braid", "1 1 1", "--lambdas", lambdas, expect=1)
        assert out == "" and err == "error: --lambdas: cannot read '', expected j=value such as 1=-3/2\n"

    def test_zero_lambda_is_the_undeformed_potential(self, capsys):
        # with x^3 alone no entry carries a, so the homology is free
        out, _ = run(capsys, "link", "--braid", "1 1 1", "--lambdas", "1=0")
        rep = json.loads(out)
        assert rep["k"] == 2 and rep["decomposition"]["torsion"] == [] and rep["tw"] == 0

    def test_lambdas_without_k_reads_k_2(self, capsys):
        a, _ = run(capsys, "link", "--braid", "1 1 1", "--lambdas", "1=-1")
        b, _ = run(capsys, "link", "--braid", "1 1 1", "--k", "2", "--lambdas", "1=-1")
        c, _ = run(capsys, "link", "--braid", "1 1 1")
        assert a == b == c and json.loads(a)["k"] == 2

    def test_neither_braid_nor_pd_refused(self, capsys):
        out, err = run(capsys, "link", expect=1)
        assert (out, err) == ("", "error: need --braid or --pd\n")

    def test_pd_read_from_a_file(self, capsys, monkeypatch, tmp_path):
        pd = "[[1,[1,3,2,0]],[1,[3,1,0,2]]]"
        path = tmp_path / "hopf.json"
        path.write_text(pd)
        inline = run(capsys, "link", "--pd", pd)
        assert run(capsys, "link", "--pd", str(path)) == inline and inline[1] == ""
        monkeypatch.setattr(sys, "stdin", io.StringIO(pd))
        assert run(capsys, "link", "--pd", "-") == inline
        assert json.loads(inline[0])["decomposition"] == {
            "format": "tw/1", "type": "decomposition", "k": 2, "free": [[-2, 4], [-2, 6], [0, 0], [0, 2]], "torsion": []}


class TestDelta:
    def test_json(self, capsys):
        out, _ = run(capsys, "delta", "--N", "3")
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["ranks"] == {"1": 2, "2": 1, "3": 0}
        assert set(doc["matrices"]) == {"1", "2", "3"}

    def test_table(self, capsys):
        out, _ = run(capsys, "delta", "--N", "2", "--format", "table")
        assert "verdict: ok" in out

    @pytest.mark.parametrize("doctor", ["doubled", "shifted"])
    def test_disagreeing_mod_a_reductions_refused(self, capsys, monkeypatch, doctor):
        # one scaled build (i = 1, coefficient 5) comes back with its
        # differential doubled, or with every degree raised by 2: its
        # mod-a reduction is not the one the shared basis was built on
        links = importlib.import_module("twkit.links")
        build = links.build_twobraid

        def doctored(spec):
            cx = build(spec)
            if spec.k != 3 or spec.lambdas != ((1, 5),):
                return cx
            if doctor == "shifted":
                return shifted(cx, 0, 2)
            diffs = {
                i: [{c: 2 * x for c, x in row.items()} for row in d.rows] for i, d in cx.differentials.items()
            }
            return GradedComplex(cx.ring, cx.degrees, diffs)

        monkeypatch.setattr(links, "build_twobraid", doctored)
        out, err = run(capsys, "delta", "--N", "3", expect=EXIT_COMPLEX)
        assert out == ""
        assert err == "error: mod-a reductions disagree across potentials\n"


ZERO_DENOMINATOR_CX = json.dumps(
    {
        "format": "tw/1",
        "type": "complex",
        "k": 1,
        "modules": {"0": [2], "1": [0]},
        "differentials": {"0": [["1/0"]]},
    }
)


class TestRationalValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", ZERO_DENOMINATOR_CX),
            ("twobraid", "--N", "3", "--i", "1", "--coefficient=1/0"),
            ("link", "--braid", "1", "--lambdas", "1=1/0"),
            ("delta", "--N", "3", "--scalings", "1,1/0"),
        ],
    )
    def test_zero_denominator_exit_1(self, capsys, argv):
        _, err = run(capsys, *argv, expect=1)
        assert err.count("\n") == 1 and "zero denominator in '1/0'" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("decompose", ZERO_DENOMINATOR_CX.replace("1/0", "\u0663")),
             'malformed complex document: expected an integer or a "p/q" string, got "\\u0663"'),
            (("decompose", ZERO_DENOMINATOR_CX.replace("1/0", "1/\u0663")),
             'malformed complex document: expected an integer or a "p/q" string, got "1/\\u0663"'),
            (("twobraid", "--N", "3", "--i", "1", "--coefficient=\u0663"),
             'expected an integer or a "p/q" string, got "\\u0663"'),
            (("link", "--braid", "1", "--lambdas", "1=\u0663"),
             "--lambdas: cannot read '1=\u0663', expected j=value such as 1=-3/2"),
            (("delta", "--N", "3", "--scalings", "1,\u0663"),
             "--scalings: expected rationals such as 1,5,-2/3, got '1,\u0663'"),
        ],
    )
    def test_other_scripts_digits_refused(self, capsys, argv, line):
        out, err = run(capsys, *argv, expect=1)
        assert out == "" and err == "error: %s\n" % line

    def test_negative_coefficient_as_separate_value(self, capsys):
        a, _ = run(capsys, "twobraid", "--N", "3", "--i", "1", "--coefficient", "-3/2")
        b, _ = run(capsys, "twobraid", "--N", "3", "--i", "1", "--coefficient=-3/2")
        assert a == b and json.loads(a)["type"] == "report"

    @pytest.mark.parametrize(
        "scalings, message",
        [
            ("0", "a scaling must be nonzero"),
            ("1,-0/3,5", "a scaling must be nonzero"),
            ("", "expected rationals such as 1,5,-2/3, got ''"),
            ("1,,5", "expected rationals such as 1,5,-2/3, got '1,,5'"),
            ("1.5", "expected rationals such as 1,5,-2/3, got '1.5'"),
        ],
    )
    def test_bad_scalings_refused(self, capsys, scalings, message):
        out, err = run(capsys, "delta", "--N", "3", "--scalings", scalings, expect=1)
        assert out == "" and err == "error: --scalings: %s\n" % message

    def test_negative_scalings_as_separate_value(self, capsys):
        out, _ = run(capsys, "delta", "--N", "3", "--scalings", "-2/3,5")
        assert json.loads(out)["scaling_ok"] is True
        same, _ = run(capsys, "delta", "--N", "3", "--scalings=-2/3,5")
        assert out == same


@pytest.mark.parametrize("command", ["pages", "couple"])
@pytest.mark.parametrize("r_max", ["0", "-2"])
def test_empty_page_range_refused(capsys, command, r_max):
    """--r-max and the single-page option (couple --r, pages --page,
    with or without --module) refuse a page below 1 alike."""
    single = {"couple": [["--r"]], "pages": [["--page"], ["--page", "--module"]]}[command]
    for option, *rest in [["--r-max"]] + single:
        out, err = run(capsys, command, TORSION_CX, option, r_max, *rest, expect=1)
        assert out == ""
        assert err == "error: %s: %s must be at least 1 (pages start at r = 1)\n" % (command, option)


# valid commands interleaved with every kind of early exit: an argparse
# usage error, an OPTION_RULES refusal, --help, and option-bearing
# commands followed by the same subcommand without those options
SHARED_PARSER_SEQUENCE = (
    ["decompose", TORSION_CX],
    ["twobraid", "--N", "3", "--k", "2", "--lambdas", "2=1", "--coefficient", "3"],
    ["pages", TORSION_CX, "--generic"],
    ["pages", TORSION_CX],
    ["no-such-command"],
    ["pages", TORSION_CX, "--r-max", "2", "--page", "1"],
    ["pages", TORSION_CX, "--r-max", "2"],
    ["--help"],
    ["couple", TORSION_CX, "--hat-index"],
    ["couple", TORSION_CX],
    ["pages", "--help"],
    ["link", "--braid", "1 1 1", "--k", "1", "--lambdas", "1=1"],
    ["link", "--braid", "1 1 1"],
    ["pages", TORSION_CX, "--r-max", "0"],
    ["twobraid", "--N", "3", "--i", "2", "--coefficient", "-3/2"],
    ["twobraid", "--N", "3", "--i", "2"],
    ["recover", '{"format":"tw/1","k":1,"pages":[[[0,4,1],[1,0,1]],[[0,4,1],[1,0,1]],[]],"type":"pages"}'],
    ["twobraid", "--N", "10", "--i", "5"],
)


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process command."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_matches_a_fresh_one(capsys):
    assert build_parser() is build_parser()
    shared = [_outcome(capsys, argv) for argv in SHARED_PARSER_SEQUENCE]
    fresh = []
    for argv in SHARED_PARSER_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    for argv, a, b in zip(SHARED_PARSER_SEQUENCE, shared, fresh):
        assert a == b, argv


def _complex_doc(k=1, degrees=(4,), entry="1"):
    return json.dumps(
        {
            "format": "tw/1",
            "type": "complex",
            "k": k,
            "modules": {"0": list(degrees), "1": [0]},
            "differentials": {"0": [[entry]]},
        }
    )


def _decomposition_doc(k=1, free=((0, 2),)):
    return json.dumps({"format": "tw/1", "type": "decomposition", "k": k, "free": free, "torsion": [[1, 2, 0]]})


class TestStrictScalars:
    """tw/1 integers are JSON ints; exact entries are ints or "p/q"
    strings.  Anything else exits 1 with one line, never coerced."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("decompose", _complex_doc(k=True)), "malformed complex document: expected an integer, got true"),
            (("decompose", _complex_doc(degrees=(-7.3,))), "malformed complex document: expected an integer, got -7.3"),
            (("decompose", _complex_doc(degrees=(4.0,))), "malformed complex document: expected an integer, got 4.0"),
            (("decompose", _complex_doc(degrees=("4",))), 'malformed complex document: expected an integer, got "4"'),
            (
                ("decompose", _complex_doc(entry=0.1)),
                'malformed complex document: expected an integer or a "p/q" string, got 0.1',
            ),
            (
                ("decompose", _complex_doc(entry=True)),
                'malformed complex document: expected an integer or a "p/q" string, got true',
            ),
            (
                ("decompose", _complex_doc(entry="0.1")),
                'malformed complex document: expected an integer or a "p/q" string, got "0.1"',
            ),
            (("couple", _decomposition_doc(k=True)), "malformed decomposition document: expected an integer, got true"),
            (
                ("pages", _decomposition_doc(free=((0, 2.5),))),
                "malformed decomposition document: expected an integer, got 2.5",
            ),
            (
                ("recover", json.dumps({"format": "tw/1", "type": "pages", "k": 1, "pages": [[[0, 2, 1.0]]]})),
                "malformed pages document: expected an integer, got 1.0",
            ),
        ],
    )
    def test_rejected_with_one_line(self, capsys, argv, message):
        out, err = run(capsys, *argv, expect=1)
        assert out == "" and err == "error: %s\n" % message

    def test_integers_and_fraction_strings_accepted(self, capsys):
        out, _ = run(capsys, "decompose", _complex_doc(entry="-7/3"))
        assert json.loads(out)["torsion"] == [[1, 2, 0]]
        same, _ = run(capsys, "decompose", _complex_doc(entry=5))
        assert same == out

    @pytest.mark.parametrize("hat", ["false", "true", 0, 1, None, [True]])
    def test_page_hat_must_be_a_json_bool(self, hat):
        # the CLI reports a SchemaError as one line with exit 1
        doc = {"format": "tw/1", "type": "page", "r": 1, "hat": hat, "entries": [[0, 0, 1]]}
        with pytest.raises(jsonio.SchemaError) as caught:
            jsonio.page_from_json(doc)
        assert str(caught.value) == 'malformed page document: expected true or false for "hat", got %s' % json.dumps(hat)

    def test_page_hat_bools_accepted(self):
        doc = {"format": "tw/1", "type": "page", "r": 1, "hat": True, "entries": [[0, 0, 1]]}
        assert jsonio.page_from_json(doc).hat is True
        doc.update(hat=False, entries=[[0, 0, {"free": [0]}]])
        assert jsonio.page_from_json(doc).hat is False


def _shape_doc(differentials, modules=None):
    """A k = 1 complex document, by default on two generators at degree
    0 and one at degree 1, so a differential out of 0 is 1 x 2."""
    if modules is None:
        modules = {"0": [0, 0], "1": [0]}
    return json.dumps(
        {"format": "tw/1", "type": "complex", "k": 1, "modules": modules, "differentials": differentials}
    )


class TestComplexDocumentRefusals:
    """A corpus of malformed documents: complex documents (objects,
    degree lists and dense rows), decomposition, pages and page
    documents, and PD codes.  Each exits with its code and exactly one
    stderr line that names the expected shape, never Python's own text."""

    @pytest.mark.parametrize(
        "differentials, modules, code, line",
        [
            ({"0": [[1]]}, None, 1, "error: differential at degree 0: column count does not match source rank"),
            ({"0": [[1, 2, 3]]}, None, 1, "error: differential at degree 0: column count does not match source rank"),
            ({"0": [[1, 2], [1, 2]]}, None, 1, "error: differential at degree 0: row count does not match target rank"),
            # wrong in both ways, the first row short: the row count wins
            ({"0": [[1], [1, 2]]}, None, 1, "error: differential at degree 0: row count does not match target rank"),
            ({"0": [[1, 2, 3], [1]]}, None, 1, "error: differential at degree 0: row count does not match target rank"),
            # the refusal names the differential's degree
            (
                {"3": [[1, 2], [1, 2]]},
                {"3": [0, 0], "4": [0]},
                1,
                "error: differential at degree 3: row count does not match target rank",
            ),
            # a string is never read one character per cell
            (
                {"0": ["12"]},
                None,
                1,
                'error: malformed complex document: expected a row to be an array of cells, got "12"',
            ),
            (
                {"0": ["1", "2"]},
                None,
                1,
                'error: malformed complex document: expected a row to be an array of cells, got "1"',
            ),
            (
                {"0": "12"},
                None,
                1,
                'error: malformed complex document: expected a differential to be an array of rows, got "12"',
            ),
            (
                {"0": [[1, 2], 5]},
                None,
                1,
                "error: malformed complex document: expected a row to be an array of cells, got 5",
            ),
            (
                {},
                {"0": 5},
                1,
                "error: malformed complex document: expected a degree list to be an array of integers, got 5",
            ),
            # a string degree list is never read one character per degree
            (
                {},
                {"0": "12"},
                1,
                'error: malformed complex document: expected a degree list to be an array of integers, got "12"',
            ),
            ({}, [], 1, 'error: malformed complex document: expected "modules" to be an object, got []'),
            ([], None, 1, 'error: malformed complex document: expected "differentials" to be an object, got []'),
            (
                {"0": [[1], [0]]},
                {"0": [1], "1": [0, 0]},
                2,
                "error: differential at degree 0 is not homogeneous at entry (0, 0)",
            ),
            (
                {"0": [[1]], "1": [[1]]},
                {"0": [0], "1": [0], "2": [0]},
                2,
                "error: d^2 != 0 on the square starting at degree 0 (maps 0->1->2)",
            ),
        ],
        ids=[
            "short row",
            "long row",
            "extra row",
            "extra row, first row short",
            "extra row, first row long",
            "extra row at degree 3",
            "string row",
            "string rows",
            "string differential",
            "number row",
            "number degree list",
            "string degree list",
            "modules array",
            "differentials array",
            "inhomogeneous entry",
            "d squared",
        ],
    )
    def test_refused_with_one_line(self, capsys, differentials, modules, code, line):
        out, err = run(capsys, "decompose", _shape_doc(differentials, modules), expect=code)
        assert out == "" and err.splitlines() == [line]

    @pytest.mark.parametrize(
        "fields, line",
        [
            ({"free": 5}, 'expected "free" to be an array of pieces [i, s], got 5'),
            # a string is never read one character per piece
            ({"free": "ab"}, 'expected "free" to be an array of pieces [i, s], got "ab"'),
            ({"free": [[0, 1, 2]]}, "expected a free piece to be an array [i, s], got [0, 1, 2]"),
            ({"free": ["01"]}, 'expected a free piece to be an array [i, s], got "01"'),
            ({"torsion": None}, 'expected "torsion" to be an array of pieces [i, m, s], got null'),
            ({"torsion": {"1": [1, 0]}}, 'expected "torsion" to be an array of pieces [i, m, s], got {"1": [1, 0]}'),
            ({"torsion": [[1, 2]]}, "expected a torsion piece to be an array [i, m, s], got [1, 2]"),
            ({"torsion": ["120"]}, 'expected a torsion piece to be an array [i, m, s], got "120"'),
            ({"torsion": [[1, 0, 0]]}, "torsion exponent must be >= 1"),
        ],
    )
    @pytest.mark.parametrize("command", ["couple", "pages"])
    def test_decomposition_refused_with_one_line(self, capsys, command, fields, line):
        doc = json.dumps({"format": "tw/1", "type": "decomposition", "k": 1, **fields})
        out, err = run(capsys, command, doc, expect=1)
        assert out == "" and err.splitlines() == ["error: malformed decomposition document: " + line]

    @pytest.mark.parametrize(
        "pages, line",
        [
            (None, 'expected "pages" to be an array of pages, got null'),
            ("abc", 'expected "pages" to be an array of pages, got "abc"'),
            ({"1": []}, 'expected "pages" to be an array of pages, got {"1": []}'),
            ([5], "expected a page to be an array of entries [i, s, dim], got 5"),
            (["ab"], 'expected a page to be an array of entries [i, s, dim], got "ab"'),
            ([[[0, 2]]], "expected a page entry to be an array [i, s, dim], got [0, 2]"),
            ([[[0, 2, 1, 1]]], "expected a page entry to be an array [i, s, dim], got [0, 2, 1, 1]"),
            ([["021"]], 'expected a page entry to be an array [i, s, dim], got "021"'),
            ([[[0, 2, "1"]]], 'expected an integer, got "1"'),
        ],
    )
    def test_pages_refused_with_one_line(self, capsys, pages, line):
        doc = json.dumps({"format": "tw/1", "type": "pages", "k": 1, "pages": pages})
        out, err = run(capsys, "recover", doc, expect=1)
        assert out == "" and err.splitlines() == ["error: malformed pages document: " + line]

    @pytest.mark.parametrize(
        "hat, entries, line",
        [
            (False, [[0, 0, [1]]], 'expected a module entry to be an object with "free" and "torsion", got [1]'),
            (False, [[0, 0, 3]], 'expected a module entry to be an object with "free" and "torsion", got 3'),
            (False, [[0, 0, {"free": "ab"}]], 'expected "free" to be an array of shifts, got "ab"'),
            (False, [[0, 0, {"torsion": 1}]], 'expected "torsion" to be an array of summands [m, s], got 1'),
            (False, [[0, 0, {"torsion": [[1]]}]], "expected a torsion summand to be an array [m, s], got [1]"),
            (True, 5, 'expected "entries" to be an array of entries [p, q, value], got 5'),
            (True, [[0, 0]], "expected a page entry to be an array [p, q, value], got [0, 0]"),
            (True, ["001"], 'expected a page entry to be an array [p, q, value], got "001"'),
        ],
    )
    def test_page_refused_with_one_line(self, hat, entries, line):
        # no command reads a page document, so the library must refuse
        # it as a SchemaError, which the CLI prints as one line
        doc = {"format": "tw/1", "type": "page", "r": 1, "hat": hat, "entries": entries}
        with pytest.raises(jsonio.SchemaError) as caught:
            jsonio.page_from_json(doc)
        assert str(caught.value) == "malformed page document: " + line

    @pytest.mark.parametrize(
        "command, doc, line",
        [
            ("decompose", {"type": "complex", "k": 1}, 'complex document: missing required key "modules"'),
            ("decompose", {"type": "complex", "modules": {"0": [0]}}, 'complex document: missing required key "k"'),
            ("couple", {"type": "decomposition", "free": [[0, 0]]}, 'decomposition document: missing required key "k"'),
            ("pages", {"type": "decomposition"}, 'decomposition document: missing required key "k"'),
            ("recover", {"type": "pages", "k": 1}, 'pages document: missing required key "pages"'),
            ("recover", {"type": "pages", "pages": [[]]}, 'pages document: missing required key "k"'),
        ],
    )
    def test_missing_key_named_in_one_line(self, capsys, command, doc, line):
        out, err = run(capsys, command, json.dumps({"format": "tw/1", **doc}), expect=1)
        assert out == "" and err.splitlines() == ["error: malformed " + line]

    @pytest.mark.parametrize("key", ["r", "hat", "entries"])
    def test_page_missing_key_named(self, key):
        doc = {"format": "tw/1", "type": "page", "r": 1, "hat": True, "entries": []}
        del doc[key]
        with pytest.raises(jsonio.SchemaError) as caught:
            jsonio.page_from_json(doc)
        assert str(caught.value) == "malformed page document: missing required key %s" % json.dumps(key)

    @pytest.mark.parametrize(
        "pd, code, line",
        [
            ("5", 1, "input '5' is neither a file nor inline JSON"),
            ("null", 1, "input 'null' is neither a file nor inline JSON"),
            ("[[1]]", 1, "invalid PD code: a crossing must be [sign, [a, b, c, d]]"),
            ('[[1,"abcd"]]', 1, "invalid PD code: a crossing must be [sign, [a, b, c, d]]"),
            ("[[1,[1,1,2,2],3]]", 1, "invalid PD code: a crossing must be [sign, [a, b, c, d]]"),
            ("[[1,[1,2,3]]]", 1, "invalid PD code: crossing needs 4 arc labels"),
            ("[[2,[1,1,2,2]]]", 1, "invalid PD code: crossing sign must be +1 or -1"),
            ("[[", 1, "cannot parse JSON input: Expecting value: line 1 column 3 (char 2)"),
            ("[[1,[1,2,1,2]]]", 2, "invalid PD code: resolution change is not a merge or split"),
        ],
    )
    def test_pd_code_refused_with_one_line(self, capsys, pd, code, line):
        out, err = run(capsys, "link", "--pd", pd, expect=code)
        assert out == "" and err.splitlines() == ["error: " + line]

    def test_zero_cells_are_accepted_and_dropped(self, capsys):
        empty, _ = run(capsys, "decompose", _shape_doc({}))
        for cells in (["0/3", 0], [0, "0"], ["-0/5", "0/1"]):
            out, err = run(capsys, "decompose", _shape_doc({"0": [cells]}))
            assert out == empty and err == ""
        assert json.loads(empty)["free"] == [[0, 0], [0, 0], [1, 0]]


class TestStrictDegreeKeys:
    """Each homological degree has one spelling as a key of modules or
    differentials; any other key exits 1 with one line, instead of
    being read by int() into a lost module or a colliding map."""

    @pytest.mark.parametrize(
        "modules, differentials, key",
        [
            ({"0": [0], "00": [2], "1_0": [4]}, {}, "00"),
            ({"0": [0], "1_0": [4]}, {}, "1_0"),
            ({"0": [4], "1": [0]}, {"0": [["1"]], "+0": [["0"]]}, "+0"),
            ({"-0": [0]}, {}, "-0"),
            ({" 1": [0]}, {}, " 1"),
            ({"0": [0], "1": [0]}, {"0.0": [["1"]]}, "0.0"),
        ],
    )
    def test_rejected_with_one_line(self, capsys, modules, differentials, key):
        doc = json.dumps(
            {"format": "tw/1", "type": "complex", "k": 1, "modules": modules, "differentials": differentials}
        )
        out, err = run(capsys, "decompose", doc, expect=1)
        assert out == ""
        assert err == 'error: malformed complex document: expected a degree key like "-1" or "2", got %s\n' % (
            json.dumps(key)
        )

    def test_negative_and_multi_digit_degrees_accepted(self, capsys):
        doc = json.dumps(
            {"format": "tw/1", "type": "complex", "k": 1, "modules": {"-10": [4], "-9": [0], "10": [2]},
             "differentials": {"-10": [["1"]]}}
        )
        out, _ = run(capsys, "decompose", doc)
        assert json.loads(out)["free"] == [[10, 2]] and json.loads(out)["torsion"] == [[-9, 2, 0]]

    def test_modules_must_be_an_object(self, capsys):
        doc = json.dumps({"format": "tw/1", "type": "complex", "k": 1, "modules": []})
        out, err = run(capsys, "decompose", doc, expect=1)
        assert out == "" and err.startswith("error: malformed complex document: ") and err.count("\n") == 1


class TestTopLevelArray:
    """Inline text starting with "[" is JSON, so an array is a wrong
    document, not a missing file."""

    @pytest.mark.parametrize(
        "command, message",
        [
            ("decompose", "expected a JSON object, got an array"),
            ("recover", "expected a JSON object, got an array"),
            ("pages", "expected a decomposition or complex document, got an array"),
            ("couple", "expected a decomposition or complex document, got an array"),
        ],
    )
    @pytest.mark.parametrize("text", ["[1,2]", " [ ]"])
    def test_wrong_document_type(self, capsys, command, message, text):
        out, err = run(capsys, command, text, expect=1)
        assert out == "" and err == "error: %s\n" % message

    def test_broken_array_is_a_parse_error(self, capsys):
        _, err = run(capsys, "decompose", "[1,", expect=1)
        assert err.startswith("error: cannot parse JSON input:") and err.count("\n") == 1

    def test_array_file(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]")
        _, err = run(capsys, "couple", str(path), expect=1)
        assert err == "error: expected a decomposition or complex document, got an array\n"


class TestInternalInvariants:
    """A failed internal invariant exits 5 with one stderr line naming
    the stage and the command line, never a traceback.  Each test breaks
    one invariant."""

    # the package re-exports functions named like these modules
    couples, links = (importlib.import_module("twkit." + name) for name in ("couples", "links"))

    def test_decompose(self, capsys, monkeypatch):
        # every pair twice: its generators are each in two pairs
        pairing = complexes.persistence_pairs
        monkeypatch.setattr(complexes, "persistence_pairs", lambda *args: pairing(*args) * 2)
        out, err = run(capsys, "decompose", TORSION_CX, expect=5)
        assert out == ""
        assert err == (
            "error: internal error in decompose: piece count does not account for every generator"
            " (twkit decompose <inline JSON>)\n"
        )

    @pytest.mark.parametrize("target", [1, 2], ids=["gap -2", "gap 3"])
    def test_decompose_homogeneity(self, capsys, monkeypatch, target):
        # the source at level 4 paired with a target at level 6 or 1,
        # joined by no entry of d^0
        doc = json.dumps(
            {"format": "tw/1", "type": "complex", "k": 1, "modules": {"0": [4], "1": [0, 6, 1]},
             "differentials": {"0": [["1"], ["0"], ["0"]]}}
        )
        monkeypatch.setattr(complexes, "persistence_pairs", lambda *args: [(0, 0, target)])
        out, err = run(capsys, "decompose", doc, expect=5)
        assert out == ""
        assert err == "error: internal error in decompose: pivot violates homogeneity (twkit decompose <inline JSON>)\n"

    def test_couples(self, capsys, monkeypatch):
        # every solve of a derivation reads its answer off an
        # elimination here; none finds one
        calls = []
        monkeypatch.setattr(self.couples, "solution_from_reduction", lambda *args: calls.append(1))
        out, err = run(capsys, "couple", TORSION_CX, expect=5)
        assert calls
        assert out == ""
        assert re.fullmatch(r"error: internal error in couples: [^\n]+ \(twkit couple <inline JSON>\)\n", err), err

    def test_links(self, capsys, monkeypatch):
        # the x2 power gains an entry at (0, 0); at N = 3, i = 1 it
        # joins degrees 4 apart, and deg a = 6
        x_power = self.links._x_power

        def with_a_stray_entry(spec, e):
            out = x_power(spec, e)
            out[0][0] = 1
            return out

        monkeypatch.setattr(self.links, "_x_power", with_a_stray_entry)
        out, err = run(capsys, "twobraid", "--N", "3", "--i", "1", expect=5)
        assert out == ""
        assert err == (
            "error: internal error in links: x2^(N-1): differential at degree 2 is not homogeneous at entry (0, 0)"
            " (twkit twobraid --N 3 --i 1)\n"
        )

    def test_minimal_complex(self, capsys, monkeypatch):
        """A minimal complex that fails its own validation is a defect in
        twkit (exit 5), not a bad complex (exit 2).  The broken step
        raises the degrees of the lowest degree a map leaves by 1, off
        the multiples of 2k = 4 its entries drop."""
        cancel = complexes._cancel

        def raised(*args):
            degrees, mats = cancel(*args)
            low = min(mats)
            return {**degrees, low: tuple(s + 1 for s in degrees[low])}, mats

        monkeypatch.setattr(complexes, "_cancel", raised)
        out, err = run(capsys, "link", "--braid", "1 1 1", expect=5)
        assert out == ""
        assert err == (
            "error: internal error in minimal_complex: differential at degree -3 is not homogeneous at entry (0, 0)"
            " (twkit link --braid '1 1 1')\n"
        )

    def test_the_input_is_named(self, capsys, monkeypatch, tmp_path):
        """A document path, "-" and a braid word are named as given,
        shell-quoted; inline JSON is named, not printed."""
        from twkit import cli

        def planted(*args):
            raise complexes.InternalError("couples", "planted")

        monkeypatch.setattr(cli, "couple_tables", planted)
        monkeypatch.setattr(cli, "build_sl2_cube", planted)
        path = tmp_path / "a doc.json"
        path.write_text(TORSION_CX)
        monkeypatch.setattr(sys, "stdin", io.StringIO(TORSION_CX))
        for argv, named in [
            (["couple", str(path), "--r", "2"], "couple '%s' --r 2" % path),
            (["couple", "-"], "couple -"),
            (["couple", TORSION_CX, "--format", "table"], "couple <inline JSON> --format table"),
            (["link", "--braid", "1 1 1"], "link --braid '1 1 1'"),
            (["link", "--pd", "[[1, [1, 2, 2, 1]]]"], "link --pd <inline JSON>"),
        ]:
            out, err = run(capsys, *argv, expect=5)
            assert (out, err) == ("", "error: internal error in couples: planted (twkit %s)\n" % named)


class TestVerify:
    def test_pass_line(self, capsys):
        out, _ = run(capsys, "verify", "--seed", "0", "--count", "12", "--format", "table")
        assert out.strip() == "12/12 pass"

    def test_json_deterministic(self, capsys):
        a, _ = run(capsys, "verify", "--seed", "0", "--count", "12")
        b, _ = run(capsys, "verify", "--seed", "0", "--count", "12")
        assert a == b
        doc = json.loads(a)
        assert doc["passed"] == 12 and doc["failures"] == []

    def test_referees_the_pairing(self, capsys, monkeypatch):
        """decompose and generic pages read one persistence pairing, and
        verify still catches a fault in it: cross_checks compares each
        with the generated decomposition, not with the other.  The fault
        re-pairs the first source it can with a target 2k above its own
        target, free or paired by the same differential (whose partner
        takes the old target), shortening that gap by 2k.  Few corpus
        items offer such a target; at seed 3, two of the 40 do."""
        pairing, generate, ks = complexes.persistence_pairs, corpus.random_decomposition, []

        def generated(rng):
            d = generate(rng)
            ks.append(d.k)
            return d

        def shortened(degrees, mats):
            pairs = pairing(degrees, mats)
            sources = {(n, j) for n, j, _ in pairs}
            for x, (n, j, t) in enumerate(pairs):
                level = degrees[n + 1][t] + 2 * ks[-1]
                for u, s in enumerate(degrees[n + 1]):
                    if s == level <= degrees[n][j] and (n + 1, u) not in sources:
                        pairs = [(m, i, t if (m, v) == (n, u) else v) for m, i, v in pairs]
                        pairs[x] = (n, j, u)
                        return pairs
            return pairs

        monkeypatch.setattr(corpus, "random_decomposition", generated)
        monkeypatch.setattr(complexes, "persistence_pairs", shortened)
        out, _ = run(capsys, "verify", "--seed", "3", "--count", "40", "--format", "table", expect=1)
        lines = out.splitlines()
        assert lines[0] == "38/40 pass"
        for line in lines[1:]:
            assert "decompose(reassemble(d)) != d" in line and "differs from assembled" in line, line

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_below_one_refused(self, capsys, count):
        out, err = run(capsys, "verify", "--count", count, expect=1)
        assert out == "" and err == "error: verify: --count must be at least 1\n"

    @pytest.mark.parametrize("seed", ["x", "1.5", "", "1_000", " 7 ", " 7", "+7", "7\n", "\u0661", "\u0663", "-"])
    def test_tw_seed_must_be_an_integer(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("TW_SEED", seed)
        out, err = run(capsys, "verify", "--count", "1", expect=1)
        assert out == "" and err == "error: TW_SEED: expected an integer, got %r\n" % seed

    def test_tw_seed_negative(self, capsys, monkeypatch):
        monkeypatch.setenv("TW_SEED", "-3")
        env_run, _ = run(capsys, "verify", "--count", "2")
        monkeypatch.delenv("TW_SEED")
        direct, _ = run(capsys, "verify", "--seed", "-3", "--count", "2")
        assert env_run == direct and json.loads(env_run)["seed"] == -3


def integer_options():
    """(subcommand, option) of every option the parser reads as an
    integer, each typed by cli._integer, never by int()."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [(name, a.option_strings[0], a.type) for name, p in sub.choices.items() for a in p._actions if a.type]
    assert all(kind is cli._integer for _, _, kind in options)
    return [(name, option) for name, option, _ in options]


class TestIntegerGrammar:
    """An integer typed as text is ASCII digits after an optional "-",
    wherever the command line reads one: every integer option and each
    braid letter here, the index of a --lambdas entry and TW_SEED in their
    own tests.  Each refuses what int() alone would read with its own text."""

    @pytest.mark.parametrize("text", ["1_000", " 7", "+7", "\u0663"])
    def test_integer_options_refuse(self, capsys, text):
        options = integer_options()
        assert len(options) == 13
        for subcommand, option in options:
            with pytest.raises(SystemExit) as exc:
                main([subcommand, option, text])
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == ""
            assert err.splitlines()[-1] == "twkit %s: error: argument %s: invalid int value: %r" % (subcommand, option, text)

    @pytest.mark.parametrize("letter", ["1_0", "+1", "\u0661", "s+1", "-s\u0661"])
    def test_braid_letters_refuse(self, capsys, letter):
        out, err = run(capsys, "link", "--braid", "1 %s 1" % letter, "--strands", "2", expect=1)
        assert out == "" and err == "error: cannot parse braid letter %r\n" % letter

    def test_braid_letters_read_as_before(self, capsys):
        assert run(capsys, "link", "--braid", "01 s1 -s01", "--strands", "2") == run(capsys, "link", "--braid", "1 1 -1", "--strands", "2")

    def test_leading_zeros_read_as_before(self, capsys, monkeypatch):
        seven = run(capsys, "verify", "--seed", "7", "--count", "2")
        assert run(capsys, "verify", "--seed", "007", "--count", "2") == seven
        assert run(capsys, "pages", TORSION_CX, "--r-max", "003") == run(capsys, "pages", TORSION_CX, "--r-max", "3")
        lambdas = run(capsys, "twobraid", "--N", "4", "--k", "1", "--lambdas", "1=1,2=-1/3")
        assert run(capsys, "twobraid", "--N", "4", "--k", "1", "--lambdas", "001=1,02=-1/3") == lambdas
        monkeypatch.setenv("TW_SEED", "007")
        assert run(capsys, "verify", "--count", "2") == seven


class TestProcessLevel:
    def test_stdin(self):
        proc = run_proc("decompose", "-", stdin=TORSION_CX)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["torsion"] == [[1, 2, 0]]

    def test_tw_seed_overrides_flag(self):
        env_run = run_proc("verify", "--seed", "0", "--count", "5", env_extra={"TW_SEED": "7"})
        direct = run_proc("verify", "--seed", "7", "--count", "5")
        assert env_run.returncode == direct.returncode == 0
        assert json.loads(env_run.stdout)["seed"] == 7
        assert env_run.stdout == direct.stdout

    def test_console_script_if_installed(self):
        proc = run_proc("--help")
        assert proc.returncode == 0
        for sub in ("decompose", "pages", "recover", "couple", "twobraid", "link", "delta", "verify"):
            assert sub in proc.stdout
