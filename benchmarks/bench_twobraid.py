"""Timing harness for the 2-braid path: twkit twobraid and twkit delta
with x2^(N-1) from one recurrence, one mod-a homology per delta battery
and one assembled page per block of r, against the routes they
replaced.

The "before" route swaps the frozen references back in for the
duration of each command: x2^(N-1) as N - 2 sparse products of the
matrix of x2 (reference_x_power in tests/frozen_twobraid.py), the
battery running first_differential on each of its complexes
(reference_delta_battery, same file), and every assembled page built on
its own (reference_page_by_page_list in tests/frozen_pages.py).

The ladder: `twobraid --N N --i N//2 --coefficient=-3/2` for N = 10, 15,
20, 25, 30, then `delta --N N` for N = 5 to 9.  Every command runs in
process through twkit.cli.main with stdout and stderr captured.  Exit
code, stdout and stderr of every command are checked equal between the
two routes, and every command checked to exit 0, before any time is
printed.  Times are best of --repeats, per command and for the whole
ladder; each repeat runs both routes in turn.  The table goes to stdout
and the times, in seconds, to --json.  Run from the repository root as

    PYTHONPATH=src python benchmarks/bench_twobraid.py [--repeats N] [--json PATH]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import platform
import sys
import time

from twkit import cli, links

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from frozen_pages import reference_page_by_page_list  # noqa: E402
from frozen_twobraid import reference_delta_battery, reference_x_power  # noqa: E402

COEFFICIENT = "-3/2"
TWOBRAID_N = (10, 15, 20, 25, 30)
DELTA_N = (5, 6, 7, 8, 9)
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_twobraid.json")
# (owner, attribute, the route it replaced)
BEFORE = (
    (links, "_x_power", reference_x_power),
    (cli, "delta_battery", reference_delta_battery),
    (cli, "assembled_page_list", reference_page_by_page_list),
)


def ladder():
    """The commands, as argv lists: the twobraid rungs, then the delta ones."""
    argvs = [["twobraid", "--N", str(N), "--i", str(N // 2), "--coefficient=" + COEFFICIENT] for N in TWOBRAID_N]
    return argvs + [["delta", "--N", str(N)] for N in DELTA_N]


@contextlib.contextmanager
def route(before):
    """Run the body on the replaced routes when before is true."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in BEFORE]
    if before:
        for owner, name, old in BEFORE:
            setattr(owner, name, old)
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def run_command(argv, before):
    """(exit code, stdout, stderr, seconds) of one command run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with route(before), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def check(argvs):
    """Both routes give the same exit code, stdout and stderr on every
    command, and every command exits 0."""
    for argv in argvs:
        after, before = run_command(argv, False)[:3], run_command(argv, True)[:3]
        assert after == before, "the new route changes the output of %s" % " ".join(argv)
        assert after[0] == 0, "%s exits %r: %s" % (" ".join(argv), after[0], after[2])


def best_of(argvs, repeats):
    """{route: best seconds of each command, then of the whole ladder};
    each repeat runs both routes in turn, so a drift in machine speed
    reaches them alike."""
    runs = {"before": [], "after": []}
    for _ in range(repeats):
        for name, before in (("before", True), ("after", False)):
            gc.collect()
            seconds = [run_command(argv, before)[3] for argv in argvs]
            runs[name].append(seconds + [sum(seconds)])
    return {name: [min(times) for times in zip(*r)] for name, r in runs.items()}


def ms(t):
    return "%.2f ms" % (t * 1e3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--json", default=str(JSON_PATH), help="where the times go (default %(default)s)")
    args = ap.parse_args()

    argvs = ladder()
    check(argvs)

    best = best_of(argvs, args.repeats)
    labels = [" ".join(argv) for argv in argvs]
    header = "%-42s  %10s  %10s  %7s" % ("command", "before", "after", "speedup")
    print(header)
    print("-" * len(header))
    rows = []
    for label, before, after in zip(labels, best["before"], best["after"]):
        rows.append({"command": label, "before_s": before, "after_s": after})
        print("%-42s  %10s  %10s  %6.2fx" % (label, ms(before), ms(after), before / after))
    before, after = best["before"][-1], best["after"][-1]
    print("%-42s  %10s  %10s  %6.2fx" % ("whole ladder (%d commands)" % len(labels), ms(before), ms(after), before / after))

    record = {
        "harness": "benchmarks/bench_twobraid.py",
        "repeats": args.repeats,
        "timing": "best of repeats, seconds; before = x2^(N-1) by repeated products, "
        "first_differential per battery complex, every assembled page built; "
        "after = one recurrence, one mod-a homology per battery, one page per block of r",
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
