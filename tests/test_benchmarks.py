"""Each timing harness under benchmarks/ still runs: its equality check
against the reference passes on its smallest input."""

import importlib.util
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def harness(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_harness_is_covered():
    assert sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")) == sorted(SMALLEST)


def kernel():
    bench = harness("bench_kernel")
    bench.check(*bench.inputs(bench.SEED)[0])


def couples():
    bench = harness("bench_couples")
    (d,) = bench.ladder(bench.SEED, 1)
    bench.check(0, bench.couple_from_decomposition(d), bench.torsion_width(d) + 1)


def pages():
    bench = harness("bench_pages")
    ((d, c),) = bench.ladder(bench.SEED, 1)
    bench.check(0, c, bench.page_range(d))


def homology():
    bench = harness("bench_homology")
    _, build = bench.builders()[0]
    bench.check(build())


def complexes():
    bench = harness("bench_complexes")
    label, build, reference = bench.builders()[0]
    c = build()
    bench.check(label, c, bench.dense_mats(c), reference)


def cli():
    bench = harness("bench_cli")
    bench.check(bench.ladder(bench.SEED, 1))


def twobraid():
    bench = harness("bench_twobraid")
    argvs = bench.ladder()
    # the smallest twobraid and the smallest delta command
    bench.check([argvs[0], argvs[len(bench.TWOBRAID_N)]])


SMALLEST = {
    "bench_cli": cli,
    "bench_kernel": kernel,
    "bench_couples": couples,
    "bench_pages": pages,
    "bench_homology": homology,
    "bench_complexes": complexes,
    "bench_twobraid": twobraid,
}


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_equality_check_on_the_smallest_input(name):
    SMALLEST[name]()
