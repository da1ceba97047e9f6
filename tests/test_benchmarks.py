"""The layer benchmark under benchmarks/ still runs: its checks pass and
every stage is timed on the smallest rung of each ladder, a wrong answer
stops it, and a zero budget records "over budget" without running."""

import importlib.util
import pathlib

import pytest

from twkit.decompose import Decomposition

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def harness():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCHMARKS / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_harness_is_covered():
    assert sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")) == ["bench_layers"]


def smallest_rungs(bench):
    return {rungs[0].ladder: rungs[0] for rungs in bench.ladders()}


@pytest.mark.parametrize("ladder", ["link", "2-braid", "corpus"])
def test_smallest_rung_is_checked_and_every_stage_timed(ladder):
    bench = harness()
    rung = smallest_rungs(bench)[ladder]
    result = bench.run_rung(rung, 1)
    other_front = {"links": "jsonio", "jsonio": "links"}[rung.front]
    stages = [stage for stage in bench.STAGES if stage != other_front]
    assert sorted(result) == sorted(stages + ["generators", "nonzeros"])
    assert all(result[stage] > 0 for stage in stages), result
    assert result["generators"] > 0 and result["nonzeros"] > 0


def test_a_wrong_answer_stops_the_harness():
    bench = harness()
    rung = smallest_rungs(bench)["corpus"]
    rung.expected = Decomposition(rung.expected.k, rung.expected.free_pieces + ((0, 0),), rung.expected.torsion_pieces)
    with pytest.raises(SystemExit, match="not the decomposition the document was drawn from"):
        bench.run_rung(rung, 1)


def test_zero_budget_records_over_budget():
    bench = harness()
    # the child is killed as soon as it starts, so no unbounded run begins
    assert bench.run_process("T(2,11)", 0) == bench.OVER_BUDGET
    rung = smallest_rungs(bench)["link"]
    rung.budget = 0
    assert bench.run_rung(rung, 1) == bench.OVER_BUDGET


def test_rungs_after_one_over_budget_are_not_run():
    bench = harness()
    ran = []

    def run(n):
        ran.append(n)
        return bench.OVER_BUDGET if n == 2 else {}

    assert bench.run_ladder([1, 2, 3, 4], run) == [(1, {}), (2, bench.OVER_BUDGET), (3, bench.OVER_BUDGET), (4, bench.OVER_BUDGET)]
    assert ran == [1, 2]
