"""The harnesses under benchmarks/ still run.  The layer benchmark: its
checks pass and every stage is timed on the smallest rung of each
ladder, for one tree or for two side by side (each knot's processes
too), a front-end time is never negative, a wrong answer stops it, and
a zero budget records "over budget" without running.  The byte-identity
harness: on its small battery it finds an unchanged copy of src
identical and lists each command where a planted change shows."""

import importlib.util
import pathlib
import shutil

import pytest

from twkit.decompose import Decomposition

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def harness(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_harness_is_covered():
    assert sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")) == ["bench_layers"]


def smallest_rungs(bench):
    return {rungs[0].ladder: rungs[0] for rungs in bench.ladders()}


@pytest.mark.parametrize("ladder", ["link", "2-braid", "corpus"])
def test_smallest_rung_is_checked_and_every_stage_timed(ladder):
    bench = harness("bench_layers")
    rung = smallest_rungs(bench)[ladder]
    (result,) = bench.run_rung(rung, 1)
    other_front = {"links": "jsonio", "jsonio": "links"}[rung.front]
    # only the link report reads the minimal complex
    stages = [stage for stage in bench.STAGES if stage != other_front and (rung.minimal or stage != "complexes.minimal")]
    assert rung.minimal == (ladder == "link")
    assert sorted(result) == sorted(stages + ["generators", "nonzeros"])
    assert all(result[stage] > 0 for stage in stages), result
    assert result["generators"] > 0 and result["nonzeros"] > 0


def test_a_rebuild_slower_than_the_build_floors_the_front_end():
    """A stub build that hands back a complex built beforehand takes
    less time than the GradedComplex rebuild: the front end's time is
    floored at 0, never negative, and marked in the table."""
    bench = harness("bench_layers")
    rung = smallest_rungs(bench)["corpus"]
    built = rung.build(bench.THIS)
    rung.build = lambda tree: built
    (result,) = bench.run_rung(rung, 2)
    assert result["jsonio"] == 0 and "complexes.minimal" not in result
    assert all(result[stage] > 0 for stage in bench.STAGES[2:] if stage != "complexes.minimal"), result
    cells = bench.stage_row("corpus doc 0", "change", result).split()[-len(bench.STAGES):]
    assert cells[:2] == ["-", "0.0*"] and not any(cell.endswith("*") for cell in cells[2:])


def test_two_trees_are_timed_round_by_round():
    bench = harness("bench_layers")
    # this tree once more, imported side by side under its own name
    second = bench.Tree("twkit_second", bench.THIS.src)
    assert second.pages is not bench.THIS.pages
    assert bench.rounds([second, bench.THIS], 3) == [[second, bench.THIS], [bench.THIS, second], [second, bench.THIS]]
    ran = []
    stage_pass = bench.stage_pass
    bench.stage_pass = lambda rung, tree: ran.append(tree) or stage_pass(rung, tree)
    rung = smallest_rungs(bench)["corpus"]
    results = bench.run_rung(rung, 2, [second, bench.THIS])
    assert ran == [second, bench.THIS, bench.THIS, second]
    stages = [stage for stage in bench.STAGES[1:] if stage != "complexes.minimal"]
    assert [sorted(result) for result in results] == [sorted(stages + ["generators", "nonzeros"])] * 2
    assert results[0]["generators"] == results[1]["generators"] > 0
    ran.clear()
    bench.run_process = lambda knot, budget, tree: ran.append((knot, tree)) or {"wall_s": budget}
    bench.PROCESSES = (("T(2,8)", 1), ("T(3,5)", 2), ("T(2,9)", 3))
    assert bench.run_processes([second, bench.THIS]) == [
        (("T(2,8)", 1), [{"wall_s": 1}] * 2), (("T(3,5)", 2), [{"wall_s": 2}] * 2), (("T(2,9)", 3), [{"wall_s": 3}] * 2)]
    assert ran == [("T(2,8)", second), ("T(2,8)", bench.THIS), ("T(3,5)", bench.THIS), ("T(3,5)", second),
                   ("T(2,9)", second), ("T(2,9)", bench.THIS)]


def test_a_wrong_answer_stops_the_harness():
    bench = harness("bench_layers")
    rung = smallest_rungs(bench)["corpus"]
    rung.expected = Decomposition(rung.expected.k, rung.expected.free_pieces + ((0, 0),), rung.expected.torsion_pieces)
    with pytest.raises(SystemExit, match="not the decomposition the document was drawn from"):
        bench.run_rung(rung, 1)


def test_zero_budget_records_over_budget():
    bench = harness("bench_layers")
    # the child is killed as soon as it starts, so no unbounded run begins
    assert bench.run_process("T(2,11)", 0) == bench.OVER_BUDGET
    rung = smallest_rungs(bench)["link"]
    rung.budget = 0
    assert bench.run_rung(rung, 1) == bench.OVER_BUDGET


def test_rungs_after_one_over_budget_are_not_run():
    bench = harness("bench_layers")
    ran = []

    def run(n):
        ran.append(n)
        return bench.OVER_BUDGET if n == 2 else {}

    assert bench.run_ladder([1, 2, 3, 4], run) == [(1, {}), (2, bench.OVER_BUDGET), (3, bench.OVER_BUDGET), (4, bench.OVER_BUDGET)]
    assert ran == [1, 2]


def test_twin_finds_a_copy_identical_and_a_planted_change(tmp_path, capsys, monkeypatch):
    twin = harness("twin")
    monkeypatch.setattr(twin, "full_battery", twin.small_battery)
    same = tmp_path / "same"
    shutil.copytree(BENCHMARKS.parent / "src" / "twkit", same / "twkit", ignore=shutil.ignore_patterns("__pycache__"))
    assert twin.main(["--against", str(same)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("11 commands: ")
    assert out.endswith("identical: stdout, stderr and exit code agree on every command\n")

    planted = tmp_path / "planted"
    shutil.copytree(same, planted)
    cli = planted / "twkit" / "cli.py"
    text = cli.read_text()
    for old, new in (('"F{%d}"', '"F[%d]"'), ('"delta rank = %d%s"', '"delta rank: %d%s"')):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text)
    assert twin.main(["--against", str(planted)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[1].startswith("difference at command 3: twkit pages '{")
    assert lines[1].endswith(" --page 1 --module --format table")
    assert lines[2].endswith(": line 3: '  1  F{0}     .\\n'")
    assert lines[3].endswith(": line 3: '  1  F[0]     .\\n'")
    assert lines[4] == "difference at command 9: twkit link --braid '1 1 1' --format table"
    assert lines[5].startswith("  stdout, ") and lines[5].endswith(": line 47: 'delta rank = 1 (by degree: -3 -> 1)\\n'")
    assert lines[6].startswith("  stdout, ") and lines[6].endswith(": line 47: 'delta rank: 1 (by degree: -3 -> 1)\\n'")
    assert lines[7] == "2 of 11 commands differ"

    # past the cap, the rest are counted, not shown
    monkeypatch.setattr(twin, "SHOWN", 1)
    assert twin.main(["--against", str(planted)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[1].startswith("difference at command 3: ")
    assert lines[4] == "2 of 11 commands differ, the first 1 shown"
