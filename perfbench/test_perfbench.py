"""Tests of the benchmark harness itself: the correctness gate fires on
corrupted outputs, over-budget commands fail, and counts repeat.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from twkit import cli  # noqa: E402


def output_of(argv, stdin_text=None):
    rc, out, err, _ = harness.run_command(cli.main, argv, stdin_text, 60.0)
    assert rc == 0, err
    return out


def corrupted(out, edit):
    data = json.loads(out)
    edit(data)
    return json.dumps(data)


class FakeCli:
    """Runs the real CLI, then rewrites one subcommand's output."""

    def __init__(self, subcommand, edit):
        self.subcommand = subcommand
        self.edit = edit

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out = buf.getvalue()
        if argv[0] == self.subcommand and argv[1:2] != ["--generic"]:
            out = self.edit(out)
        sys.stdout.write(out)
        return rc


# -- link -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trefoil():
    oracles = workloads.load_oracles(ROOT)
    oracle = {(i, -q): dim for (i, q), dim in oracles.khovanov_of_mirror_braid([1, 1, 1], 2).items()}
    return oracle, output_of(["link", "--braid", "1 1 1", "--lambdas", "1=-3/2"])


def test_link_gate_accepts_the_real_report(trefoil):
    oracle, out = trefoil
    assert workloads.check_link(oracle, out) is None


def test_link_gate_fires_on_a_wrong_hn_entry(trefoil):
    oracle, out = trefoil

    def bump(data):
        data["hn"][0][2] += 1

    assert "oracle" in workloads.check_link(oracle, corrupted(out, bump))


def test_link_gate_fires_on_a_broken_pairing(trefoil):
    oracle, out = trefoil

    def drop(data):
        data["decomposition"]["free"].pop()

    assert "|free|" in workloads.check_link(oracle, corrupted(out, drop))


# -- twobraid -------------------------------------------------------------


def test_twobraid_gate_on_real_and_corrupted_reports():
    out = output_of(["twobraid", "--N", "6", "--i", "3", "--coefficient", "2"])
    assert workloads.check_twobraid(6, 3, out) is None
    assert workloads.check_twobraid(6, 2, out) is not None

    def widen(data):
        data["decomposition"]["torsion"][0][1] = 2

    assert "width one" in workloads.check_twobraid(6, 3, corrupted(out, widen))

    def lose_free(data):
        data["decomposition"]["free"].pop(0)

    assert "free pieces" in workloads.check_twobraid(6, 3, corrupted(out, lose_free))


def test_delta_gate_on_real_and_corrupted_battery():
    out = output_of(["delta", "--N", "3"])
    assert workloads.check_delta(3, out) is None

    def fail(data):
        data["ok"] = False

    def rerank(data):
        data["ranks"]["1"] = 1

    assert "verdict" in workloads.check_delta(3, corrupted(out, fail))
    assert "ranks" in workloads.check_delta(3, corrupted(out, rerank))


# -- corpus ---------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_groups():
    return workloads.setup_corpus(7, ROOT)


def test_corpus_documents_are_seeded():
    first = [doc for _, doc in workloads.corpus_documents(random.Random(3))]
    again = [doc for _, doc in workloads.corpus_documents(random.Random(3))]
    other = [doc for _, doc in workloads.corpus_documents(random.Random(4))]
    assert first == again
    assert first != other


def test_largest_corpus_decomposition_is_pinned():
    first = workloads.corpus_documents(random.Random(3))[-1]
    other = workloads.corpus_documents(random.Random(4))[-1]
    assert first[0] == other[0]
    assert first[1] != other[1]


def test_sampled_calibration_is_left_out_of_command_time():
    def busy(argv):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        return 0

    with harness.sampling():
        start, sampled = harness.window_start(), harness.sample_seconds()
        _, _, _, seconds = harness.run_command(busy, [], None, 60.0)
        spent = harness.sample_seconds() - sampled
        calibration = harness.window_calibration(start)
    # about one sample per SAMPLE_INTERVAL_S of CPU time
    assert len(harness._samples) - start >= 5
    assert spent > 0 and calibration > 0
    assert abs(seconds - (0.5 - spent)) < 0.05


def test_corpus_gate_accepts_real_outputs(corpus_groups):
    result = harness.PassResult()
    for group in (corpus_groups[0], corpus_groups[-1]):
        harness.run_group(cli, group, result, deadline=float("inf"))
    assert (result.attempted, result.failed) == (6, 0), result.errors


def _bump_first_page_dim(out):
    def edit(data):
        data["pages"][0][0][2] += 1

    return corrupted(out, edit)


def _shift_torsion(out):
    def edit(data):
        data["torsion"][0][2] += 2

    return corrupted(out, edit)


def _bump_couple(out):
    lines = out.splitlines()
    page = json.loads(lines[0])
    page["entries"][0][2] += 1
    return "\n".join([json.dumps(page)] + lines[1:])


@pytest.mark.parametrize(
    "subcommand, edit, failing",
    [
        ("decompose", _shift_torsion, {"decompose"}),
        # a wrong pages document also poisons the recover it feeds
        ("pages", _bump_first_page_dim, {"pages", "recover"}),
        ("recover", _shift_torsion, {"recover"}),
        ("couple", _bump_couple, {"couple"}),
    ],
)
def test_corpus_gate_fires_on_corrupted_output(corpus_groups, subcommand, edit, failing):
    group = corpus_groups[0]
    result = harness.PassResult()
    harness.run_group(FakeCli(subcommand, edit), group, result, deadline=float("inf"))
    failed = {e.split(": ")[1] for e in result.errors}
    assert result.attempted == 5
    assert failed == failing, result.errors


def test_generic_pages_gate_fires():
    d, doc = workloads.corpus_documents(random.Random(5))[0]
    expected = workloads._expected_pages(d)
    out = output_of(["pages", "--generic", doc])
    assert workloads.check_pages(expected, out) is None
    assert workloads.check_pages(expected, _bump_first_page_dim(out)) is not None


def test_verify_gate_fires():
    out = output_of(["verify", "--count", "3", "--seed", "11"])
    assert workloads.check_verify(3, out) is None

    def lose_one(data):
        data["passed"] = 2

    assert workloads.check_verify(3, corrupted(out, lose_one)) is not None
    assert workloads.check_verify(4, out) is not None


# -- budgets, counts, checkout --------------------------------------------


def test_command_over_budget_counts_as_failed():
    command = harness.Command(
        ["twobraid", "--N", "12", "--i", "6"], lambda out: None, budget_s=0.001
    )
    result = harness.PassResult()
    harness.run_group(cli, harness.Group("slow", [command]), result, deadline=float("inf"))
    assert (result.attempted, result.failed) == (1, 1)
    assert "budget" in result.errors[0]


def test_usage_error_counts_as_failed():
    command = harness.Command(["twobraid", "--N", "3", "--coefficient", "-3/2"], lambda out: None, 5.0)
    result = harness.PassResult()
    harness.run_group(cli, harness.Group("usage", [command]), result, deadline=float("inf"))
    assert (result.attempted, result.failed) == (1, 1)
    assert "exit code 2" in result.errors[0]


def test_every_drawn_coefficient_parses():
    parser = cli.build_parser()
    drawn = set()
    for seed in range(200):
        for group in workloads.setup_twobraid(seed, ROOT):
            args = parser.parse_args(group.commands[0].argv)
            drawn.add(getattr(args, "coefficient", None))
    assert len(drawn - {None}) == len(workloads.COEFFICIENTS)


def test_commands_past_the_run_deadline_count_as_failed():
    command = harness.Command(["delta", "--N", "3"], lambda out: None, budget_s=10.0)
    result = harness.PassResult()
    harness.run_group(cli, harness.Group("late", [command, command]), result, deadline=0.0)
    assert (result.attempted, result.failed) == (2, 2)


def test_self_time_excludes_child_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        wrapped_inner()
        now[0] += 3.0

    tracer.wrap("outer", outer)()
    self_s, counts = tracer.snapshot()
    assert self_s == {"outer": 4.0, "inner": 2.0}
    assert counts == {"calls.outer": 1, "calls.inner": 1}


def test_counts_repeat_across_traced_passes():
    groups = workloads.setup_twobraid(3, ROOT)[:1]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        seen = []
        for _ in range(2):
            tracer.reset()
            result = harness.run_pass(cli, groups, deadline=float("inf"))
            assert result.failed == 0, result.errors
            seen.append(tracer.snapshot()[1])
    finally:
        uninstall()
    assert seen[0]["exactla.calls"] > 0 and seen[0]["links.generators"] > 0
    assert tracing.count_mismatches(seen[0], seen[1]) == []
    assert tracing.count_mismatches(seen[0], dict(seen[1], **{"exactla.calls": 1})) == ["exactla.calls"]
    # uninstall restored the originals
    assert cli.main.__module__ == "twkit.cli" and not hasattr(cli.main, "__wrapped__")


def test_run_fails_without_a_twkit_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "link", "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
