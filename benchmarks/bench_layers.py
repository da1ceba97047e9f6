"""Stage timings of twkit, layer by layer, on three seeded ladders, and
the wall time and peak memory of whole `twkit link` processes.

The ladders:

* link: perfbench's link ladder, then T(3,4), T(2,8), T(3,5) and
  T(3,6), each cube built over the integral form of the standard
  potential, as `twkit link --braid` builds it;
* 2-braid: N = 10, 20 and 30 with i = N/2;
* corpus: conjugated complex documents of 20 to 200 generators, k
  cycling through 1..3, drawn from SEED.

On each rung every stage runs in turn and is timed, best of --repeats
passes.  The stages carry perfbench's per-layer names: the front end
(`links`, the cube or 2-braid build, or `jsonio`, reading a document
with jsonio.complex_from_json), `complexes.validate` (the GradedComplex
rebuilt from the built rows; the front end's time is its total less
this, in the same pass, floored at 0 and marked * in the table when the
rebuild ran slower than the whole build), on a link rung
`complexes.minimal` (minimal_complex of the cube, the complex the
`twkit link` report reads, which the next three stages then read too),
`decompose`, `complexes.homology` (reduce_mod_a and
homology_field), `complexes.first_differential` (induced_differential,
the d_1 lift on that homology), `pages.generic` (generic_pages for r = 1
up to pages.collapse_page, 2k tw + 1, on the built complex), `couples`
(couple_tables(d, tw + 2)) and `recover` (recover of
pages_from_decomposition(d)).  The built complex's generators and
nonzeros are recorded too.  A tree without minimal_complex skips its
stage and runs the next three on the built complex.

Before any time is printed, each rung's answer is checked: d_1 out of
degree i - 1 has rank the number of torsion pieces (i, 1, s), the
paper's page formula at r = 1; recover returns the decomposition; the
couple pages equal the assembled hat pages; and a corpus document
decomposes to the decomposition it was drawn from.

Before the stages, `python -m twkit.cli link --braid WORD` runs as a
child process on T(2,8), T(3,5), T(2,9), T(3,6) and T(2,11), once
each per tree; its wall time and peak RSS come from the child's own
rusage.
On Linux a child's ru_maxrss starts from the spawning process's peak,
so the processes run while this harness is still small, and a reading
no larger than the harness's own peak stops the run.

Every rung has a budget in seconds, for each pass over its stages or
for its process.  A rung past it is recorded as "over budget" (the
pass is stopped, the child process killed), and the larger rungs of
the same ladder after it are recorded so without being run.

With --against SRC a second twkit tree, the directory SRC that holds
its twkit package, is imported side by side under its own package name
and timed round by round with the one on PYTHONPATH: each knot's
process, and each pass over a rung's stages, runs on both trees in
turn, the order reversed every other knot and every other pass, so
drift on a shared machine lands on both alike.  Corpus documents are
drawn once, by the tree on PYTHONPATH.

The table goes to stdout.  With --json the run is also written to
BENCH_layers.json, in place of the record there, as "change" (and the
second tree's as "parent").  Run from the repository root as

    PYTHONPATH=src python benchmarks/bench_layers.py [--repeats N] [--json] [--against SRC]
"""

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import pathlib
import platform
import random
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

SEED = 20261019
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_layers.json")
OVER_BUDGET = "over budget"

# braid word and strand count of each link the ladders name: perfbench's
# link ladder, then torus knots
BRAIDS = {
    "1 1 1": ("1 1 1", 2),
    "1 -2 1 -2": ("1 -2 1 -2", 3),
    "1 1 1 1 1": ("1 1 1 1 1", 2),
    "1 1 1 2 -1 2": ("1 1 1 2 -1 2", 3),
    "T(3,4)": ("1 2 " * 4, 3),
    "T(2,8)": ("1 " * 8, 2),
    "T(3,5)": ("1 2 " * 5, 3),
    "T(2,9)": ("1 " * 9, 2),
    "T(3,6)": ("1 2 " * 6, 3),
    "T(2,11)": ("1 " * 11, 2),
}
# (link, budget in seconds for one pass over every stage)
LINKS = (
    ("1 1 1", 10),
    ("1 -2 1 -2", 10),
    ("1 1 1 1 1", 10),
    ("1 1 1 2 -1 2", 10),
    ("T(3,4)", 10),
    ("T(2,8)", 30),
    ("T(3,5)", 60),
    ("T(3,6)", 300),
)
# (N, budget in seconds for one pass)
TWOBRAIDS = ((10, 10), (20, 10), (30, 10))
CORPUS_DOCS = 10
CORPUS_MIN, CORPUS_MAX = 20, 200
CORPUS_BUDGET = 10
CONJUGATION_OPS = 16
# (link, budget in seconds for its `twkit link` process)
PROCESSES = (("T(2,8)", 30), ("T(3,5)", 30), ("T(2,9)", 60), ("T(3,6)", 120), ("T(2,11)", 240))
# the front-end stages, timed as the build less the rebuild
FRONTS = ("links", "jsonio")
STAGES = (
    "links",
    "jsonio",
    "complexes.validate",
    "complexes.minimal",
    "decompose",
    "complexes.homology",
    "complexes.first_differential",
    "pages.generic",
    "couples",
    "recover",
)


class OverBudget(Exception):
    pass


class Tree:
    """The twkit modules a pass calls, from one source tree: the twkit
    package on sys.path, or, given src, the twkit package in the
    directory src imported under the package name package."""

    MODULES = ("complexes", "corpus", "couples", "decompose", "jsonio", "links", "pages", "recover")

    def __init__(self, package="twkit", src=None):
        if src is not None:
            path = pathlib.Path(src).resolve() / "twkit"
            spec = importlib.util.spec_from_file_location(package, path / "__init__.py", submodule_search_locations=[str(path)])
            sys.modules[package] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[package])
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(package + "." + name))
        self.src = pathlib.Path(self.jsonio.__file__).resolve().parents[1]


THIS = Tree()


@dataclass
class Rung:
    """One input: build(tree) returns its graded complex, built by that
    tree through the front-end stage front; expected is the
    decomposition it must split into, when known; minimal, whether the
    report reads the complex's minimal complex (as twkit link's does)."""

    ladder: str
    name: str
    front: str
    build: Callable
    budget: float
    expected: object = None
    minimal: bool = False


def link_rungs():
    def build(tree, name):
        word, strands = BRAIDS[name]
        links = tree.links
        diagram = links.LinkDiagram.from_braid_text(word.strip(), strands)
        return links.build_sl2_cube(diagram, links.Sl2Potential.standard().integral_form())

    return [Rung("link", name, "links", lambda tree, name=name: build(tree, name), budget, minimal=True)
            for name, budget in LINKS]


def twobraid_rungs():
    def build(tree, N):
        return tree.links.build_twobraid(tree.links.TwoBraidSpec.power_basis(N, N // 2))

    return [Rung("2-braid", "N=%d i=%d" % (N, N // 2), "links", lambda tree, N=N: build(tree, N), budget) for N, budget in TWOBRAIDS]


def corpus_rungs():
    """Documents with k = 1, 2, 3 in turn and generator counts climbing
    evenly from CORPUS_MIN to CORPUS_MAX."""
    rng = random.Random(SEED)
    rungs = []
    for n in range(CORPUS_DOCS):
        k = 1 + n % 3
        generators = CORPUS_MIN + (CORPUS_MAX - CORPUS_MIN) * n // (CORPUS_DOCS - 1)
        while True:
            d = THIS.corpus.random_decomposition(rng, max_generators=generators)
            if d.k == k and len(d.free_pieces) + 2 * len(d.torsion_pieces) == generators:
                break
        c = THIS.corpus.conjugate(rng, THIS.decompose.reassemble(d), CONJUGATION_OPS)
        text = THIS.jsonio.dumps(THIS.jsonio.complex_to_data(c))
        build = lambda tree, text=text: tree.jsonio.complex_from_json(json.loads(text))
        rungs.append(Rung("corpus", "doc %d k=%d" % (n, k), "jsonio", build, CORPUS_BUDGET, d))
    return rungs


def ladders():
    return [link_rungs(), twobraid_rungs(), corpus_rungs()]


@contextlib.contextmanager
def alarm(seconds):
    """Raise OverBudget in the body once seconds have passed, at once
    when seconds is not positive."""
    if seconds <= 0:
        raise OverBudget

    def fire(signum, frame):
        raise OverBudget

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def stage_pass(rung, tree):
    """({stage: seconds}, answers) of one pass over the rung on tree."""
    seconds = {}
    cx = tree.complexes

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds[stage] = time.perf_counter() - t0
        return out

    def homology(c):
        fc = cx.reduce_mod_a(c)
        return fc, cx.homology_field(fc)

    def generic_pages(c, last):
        fc = cx.specialize_a_to_1(c)
        return [tree.pages.generic_pages(fc, r) for r in range(1, last + 1)]

    c = timed(rung.front, rung.build, tree)
    timed("complexes.validate", cx.GradedComplex, c.ring, c.degrees, c.mats)
    # the build less the rebuild, in this pass; exactly 0 only when the
    # rebuild ran slower than the whole build, which the table marks
    seconds[rung.front] = max(0.0, seconds[rung.front] - seconds["complexes.validate"])
    # what the report reads
    m = timed("complexes.minimal", cx.minimal_complex, c) if rung.minimal and hasattr(cx, "minimal_complex") else c
    d = timed("decompose", tree.decompose.decompose, m)
    fc, hb = timed("complexes.homology", homology, m)
    d1 = timed("complexes.first_differential", cx.induced_differential, m, fc, hb)
    tw = tree.decompose.torsion_width(d)
    timed("pages.generic", generic_pages, c, tree.pages.collapse_page(d))
    tables = timed("couples", tree.couples.couple_tables, d, tw + 2)
    recovered = timed("recover", lambda d: tree.recover.recover(tree.recover.pages_from_decomposition(d)), d)
    return seconds, (c, d, d1, tables, recovered)


def pieces(d):
    """A decomposition as plain tuples, comparable across trees."""
    return d.k, d.free_pieces, d.torsion_pieces


def check(rung, answers, tree):
    """The page formula at r = 1, the recover round trip, the couple
    pages and, for a corpus document, its decomposition."""
    c, d, d1, tables, recovered = answers
    width_one = Counter(i - 1 for i, m, _ in d.torsion_pieces if m == 1)
    failures = [
        (d1.ranks() != dict(width_one), "the ranks of d_1 differ from the width-one torsion pieces"),
        (recovered != d, "recover does not return the decomposition"),
        (not tree.couples.correspondence_check(d, tree.decompose.torsion_width(d) + 2, tables),
         "the couple pages differ from the hat pages"),
        (rung.expected is not None and pieces(rung.expected) != pieces(d),
         "not the decomposition the document was drawn from"),
    ]
    for failed, message in failures:
        if failed:
            raise SystemExit("%s %s: %s" % (rung.ladder, rung.name, message))


def rounds(trees, repeats):
    """The order of the trees in each of repeats rounds: as given, then
    reversed, in turn."""
    return [trees if n % 2 == 0 else trees[::-1] for n in range(repeats)]


def run_rung(rung, repeats, trees=(THIS,)):
    """[{"generators", "nonzeros", stage: best seconds}], one per tree,
    the passes of the trees interleaved (see rounds) and each tree's
    first pass checked, or OVER_BUDGET once any pass is."""
    best = {}
    try:
        for order in rounds(list(trees), repeats):
            for tree in order:
                with alarm(rung.budget):
                    seconds, answers = stage_pass(rung, tree)
                if tree in best:
                    best[tree] = {key: min(t, seconds.get(key, t)) for key, t in best[tree].items()}
                else:
                    check(rung, answers, tree)
                    c = answers[0]
                    sizes = {"generators": c.total_rank(), "nonzeros": sum(len(r) for rows in c.mats.values() for r in rows)}
                    best[tree] = {**sizes, **seconds}
                answers = c = None
    except OverBudget:
        return OVER_BUDGET
    return [best[tree] for tree in trees]


def run_process(name, budget, tree=THIS):
    """{"wall_s", "peak_rss_mb"} of one `twkit link` child process on
    tree, or OVER_BUDGET."""
    word, strands = BRAIDS[name]
    argv = [sys.executable, "-m", "twkit.cli", "link", "--braid", word.strip(), "--strands", str(strands)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(tree.src), os.environ.get("PYTHONPATH")))))
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        with alarm(budget):
            _, status, usage = os.wait4(child.pid, 0)
    except OverBudget:
        child.kill()
        child.wait()
        return OVER_BUDGET
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit("%s exits %d" % (" ".join(argv), child.returncode))
    if usage.ru_maxrss <= own_kb:
        raise SystemExit("%s: its peak RSS reads no more than this harness's own" % name)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def run_processes(trees):
    """run_ladder over PROCESSES of [run_process(knot, budget, tree)],
    one per tree, each knot's processes run in the order rounds gives
    it, or OVER_BUDGET once one is."""
    orders = dict(zip(PROCESSES, rounds(list(trees), len(PROCESSES))))

    def run(knot):
        results = {}
        for tree in orders[knot]:
            results[tree] = run_process(*knot, tree)
            if results[tree] == OVER_BUDGET:
                return OVER_BUDGET
        return [results[tree] for tree in trees]

    return run_ladder(PROCESSES, run)


def run_ladder(items, run):
    """[(item, run(item))] in order; once one is OVER_BUDGET, so is
    every item after it, unrun."""
    out = []
    for item in items:
        result = OVER_BUDGET if out and out[-1][1] == OVER_BUDGET else run(item)
        out.append((item, result))
    return out


def ms(result, key):
    """result[key] in milliseconds; a front-end time floored at 0 is
    marked *."""
    if key not in result:
        return "-"
    return "%.1f" % (result[key] * 1e3) + ("*" if key in FRONTS and result[key] == 0 else "")


def stage_row(name, label, result):
    """One table row: the rung, the tree's label, the sizes, then every
    stage in milliseconds."""
    return ("%-26s %-8s %7d %8d " % (name, label, result["generators"], result["nonzeros"])
            + " ".join("%9s" % ms(result, stage) for stage in STAGES))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", action="store_true", help="also write the run to %s" % JSON_PATH.name)
    ap.add_argument("--against", metavar="SRC", help="a second twkit tree, the directory holding its twkit package, "
                                                     "timed round by round with the one on PYTHONPATH "
                                                     "and recorded as parent")
    args = ap.parse_args()
    trees, labels = [THIS], ["change"]
    if args.against:
        trees, labels = [Tree("twkit_against", args.against), THIS], ["parent", "change"]

    processes = run_processes(trees)
    stages = [pair for rungs in ladders() for pair in run_ladder(rungs, lambda r: run_rung(r, args.repeats, trees))]

    heads = ("links", "jsonio", "validate", "minimal", "decompose", "homology", "d_1", "generic", "couples", "recover")
    header = "%-26s %-8s %7s %8s " % ("rung", "run", "gens", "nonzeros") + " ".join("%9s" % h for h in heads)
    print("best of %d, milliseconds" % args.repeats)
    print(header)
    print("-" * len(header))
    for rung, results in stages:
        name = "%s %s" % (rung.ladder, rung.name)
        if results == OVER_BUDGET:
            print("%-26s %s" % (name, OVER_BUDGET))
            continue
        for label, result in zip(labels, results):
            print(stage_row(name, label, result))
    print("* floored at 0: the GradedComplex rebuild ran slower than the whole build")
    print()
    print("%-26s %-8s %9s %12s" % ("twkit link process", "run", "wall s", "peak RSS MB"))
    for (name, _), results in processes:
        if results == OVER_BUDGET:
            print("%-26s %s" % (name, OVER_BUDGET))
            continue
        for label, result in zip(labels, results):
            print("%-26s %-8s %9.2f %12.1f" % (name, label, result["wall_s"], result["peak_rss_mb"]))

    if not args.json:
        return
    record = {
        "harness": "benchmarks/bench_layers.py",
        "seed": SEED,
        "repeats": args.repeats,
        "timing": "stages: best of repeats, seconds, a front-end time of exactly 0 floored there (its rebuild ran "
                  "slower than the build); processes: one run each, wall seconds and peak RSS in MB; "
                  "runs with interleaved_with were timed round by round in one harness",
        "runs": {},
    }

    def pick(results, n):
        return results if results == OVER_BUDGET else results[n]

    for n, label in enumerate(labels):
        record["runs"][label] = {
            "python": platform.python_version(),
            "machine": "%s, %d cores" % (platform.machine(), os.cpu_count()),
            **({"interleaved_with": [other for other in labels if other != label]} if len(labels) > 1 else {}),
            "stages": [{"ladder": r.ladder, "rung": r.name, "result": pick(results, n)} for r, results in stages],
            "processes": [{"knot": p[0], "result": pick(results, n)} for p, results in processes],
        }
    JSON_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
