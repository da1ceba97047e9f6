"""The command-line surface: pipes, formats, exit codes, determinism.

Most checks drive twkit.cli.main in-process for speed; a few go through
a real subprocess to cover the console script, stdin, and environment
seeding.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from twkit.cli import main

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
        assert doc["entries"] == [[-4, 8, 1], [1, -1, 1]]


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
        run(capsys, "twobraid", "--N", "3", "--lambdas", "nope", expect=1)

    def test_coefficient_without_i_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["twobraid", "--N", "4", "--k", "2", "--lambdas", "2=1", "--coefficient", "3"])
        assert exc.value.code == 2
        assert "--coefficient applies only with --i" in capsys.readouterr().err


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

    def test_negative_coefficient_as_separate_value(self, capsys):
        a, _ = run(capsys, "twobraid", "--N", "3", "--i", "1", "--coefficient", "-3/2")
        b, _ = run(capsys, "twobraid", "--N", "3", "--i", "1", "--coefficient=-3/2")
        assert a == b and json.loads(a)["type"] == "report"

    def test_negative_scalings_as_separate_value(self, capsys):
        out, _ = run(capsys, "delta", "--N", "3", "--scalings", "-2/3,5")
        assert json.loads(out)["scaling_ok"] is True
        same, _ = run(capsys, "delta", "--N", "3", "--scalings=-2/3,5")
        assert out == same


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
