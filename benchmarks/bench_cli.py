"""Timing harness for the shared CLI parser: twkit commands run in one
process with the parser built once, against a parser built anew for
every command.

twkit.cli.build_parser builds its argparse parser on the first call and
returns that object on every later one, so a process that runs many
commands through twkit.cli.main (a test suite, a batch driver) builds
it once.  Before that, main built it for every command.  The "before"
route clears build_parser's cache ahead of each command, which is what
main did then.

The ladder: seeded corpus-style documents (random decompositions of 20
to 40 generators, k = 1, 2, 3 in turn, each reassembled and conjugated),
each piped through decompose, pages, recover (reading the pages
document on stdin), pages --generic and couple; then
`link --braid "1 1 1"` and `twobraid --N 10 --i 5`.  Every command runs
in process through twkit.cli.main with stdin, stdout and stderr
redirected; each command's stdin is the previous command's stdout, as
in a pipe.  Exit code, stdout and stderr of every command are checked
equal between the two routes, and every command checked to exit 0,
before any time is printed.  Times are best of --repeats, per command
and for the whole ladder; each repeat runs both routes in turn.  The
table goes to stdout and the times, in seconds, to --json.  Run from the
repository root as

    PYTHONPATH=src python benchmarks/bench_cli.py [--seed N] [--repeats N] [--json PATH]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import platform
import random
import sys
import time

from twkit import cli, jsonio
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import reassemble

SEED = 20261019
DOCS = 6
MIN_GENERATORS = 20
MAX_GENERATORS = 40
CONJUGATION_OPS = 16
FRONT_ENDS = (
    ["link", "--braid", "1 1 1"],
    ["twobraid", "--N", "10", "--i", "5"],
)
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_cli.json")


def document(rng, n):
    """Complex document text of the n-th rung."""
    k = 1 + n % 3
    generators = MIN_GENERATORS + (MAX_GENERATORS - MIN_GENERATORS) * n // (DOCS - 1)
    while True:
        d = random_decomposition(rng, max_generators=generators)
        if d.k == k and len(d.free_pieces) + 2 * len(d.torsion_pieces) == generators:
            break
    return jsonio.dumps(jsonio.complex_to_data(conjugate(rng, reassemble(d), CONJUGATION_OPS)))


def ladder(seed, count=DOCS + len(FRONT_ENDS)):
    """[(label, [argv])], the first count groups of the ladder; a front
    end's group is one command, labelled by that command alone."""
    rng = random.Random(seed)
    groups = []
    for n in range(DOCS):
        doc = document(rng, n)
        groups.append(("doc %d" % n, [
            ["decompose", doc],
            ["pages", doc],
            ["recover", "-"],
            ["pages", "--generic", doc],
            ["couple", doc],
        ]))
    groups += [("", [argv]) for argv in FRONT_ENDS]
    return groups[:count]


def run_command(argv, stdin_text, fresh):
    """(exit code, stdout, stderr) of one command run through cli.main."""
    if fresh:
        cli.build_parser.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def run_ladder(groups, fresh):
    """([(exit code, stdout, stderr)], [seconds]) per command, in order."""
    outcomes, seconds = [], []
    for _, argvs in groups:
        stdin_text = ""
        for argv in argvs:
            t0 = time.perf_counter()
            outcome = run_command(argv, stdin_text, fresh)
            seconds.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            stdin_text = outcome[1]
    return outcomes, seconds


def check(groups):
    """Both routes give the same exit code, stdout and stderr on every
    command, and every command exits 0."""
    cached, _ = run_ladder(groups, fresh=False)
    fresh, _ = run_ladder(groups, fresh=True)
    commands = [(label, argv) for label, argvs in groups for argv in argvs]
    for (label, argv), a, b in zip(commands, cached, fresh):
        assert a == b, "the shared parser changes the output of %s" % command_label(label, argv)
        assert a[0] == 0, "%s exits %r: %s" % (command_label(label, argv), a[0], a[2])


def command_label(label, argv):
    """The command with its inline documents left out."""
    return " ".join(a for a in [label, *argv] if a and not a.startswith("{"))


def best_of(groups, repeats):
    """{route: best seconds of each command, then of the whole ladder};
    each repeat runs both routes in turn, so a drift in machine speed
    reaches them alike."""
    runs = {"before": [], "after": []}
    for _ in range(repeats):
        for route, fresh in (("before", True), ("after", False)):
            gc.collect()
            t0 = time.perf_counter()
            _, seconds = run_ladder(groups, fresh)
            runs[route].append(seconds + [time.perf_counter() - t0])
    return {route: [min(times) for times in zip(*r)] for route, r in runs.items()}


def ms(t):
    return "%.2f ms" % (t * 1e3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--json", default=str(JSON_PATH), help="where the times go (default %(default)s)")
    args = ap.parse_args()

    groups = ladder(args.seed)
    check(groups)

    best = best_of(groups, args.repeats)
    labels = [command_label(label, argv) for label, argvs in groups for argv in argvs]
    header = "%-36s  %10s  %10s  %7s" % ("command", "before", "after", "speedup")
    print(header)
    print("-" * len(header))
    rows = []
    for label, before, after in zip(labels, best["before"], best["after"]):
        rows.append({"command": label, "before_s": before, "after_s": after})
        print("%-36s  %10s  %10s  %6.2fx" % (label, ms(before), ms(after), before / after))
    before, after = best["before"][-1], best["after"][-1]
    print("%-36s  %10s  %10s  %6.2fx" % ("whole ladder (%d commands)" % len(labels), ms(before), ms(after), before / after))

    record = {
        "harness": "benchmarks/bench_cli.py",
        "seed": args.seed,
        "repeats": args.repeats,
        "timing": "best of repeats, seconds; before = parser built for every command, after = one shared parser",
        "python": platform.python_version(),
        "machine": "%s, %d cores" % (platform.machine(), os.cpu_count()),
        "ladder": {"commands": len(labels), "before_s": before, "after_s": after},
        "rungs": rows,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
