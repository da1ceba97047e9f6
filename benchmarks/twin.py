"""Byte-identity of two twkit trees on a committed battery of commands.

Each tree runs the battery in its own child process, every command
through that tree's twkit.cli.main in turn, with stdin, stdout and
stderr redirected as perfbench runs its commands; a command shown
"< command n" reads the stdout of command n of the same tree.
The harness compares stdout, stderr and exit code byte for byte,
prints each differing command (up to SHOWN of them) with its first
differing field and line, then how many commands differ, and exits 1
on any difference (differential testing: McKeeman, "Differential
testing for software", Digital Technical Journal 10(1), 1998).  It exits 0 when
the trees agree on every command, and 2 when a child cannot run.

The full battery is built once, by the twkit package in this
repository's src, and handed to both children as JSON:

* every perfbench command at seeds 1, 7 and 23, through
  perfbench/workloads.py's set-up, recover fed by pages;
* verify --count 40 at seeds 3, 11 and 101, as JSON and as a table;
* link on perfbench's ladder, T(3,4), T(2,8) and T(3,5) as JSON, as a
  table and with --lambdas 1=-3/2, the ladder under three more
  potentials, a PD code, and the links at the edges of the minimal
  complex the report reads: no differential, every pair cancelled, an
  untouched strand, pairs across two letters and a potential at k = 1;
* 32 seeded, conjugated corpus documents, each through decompose,
  pages, pages --generic and couple with --r-max, --page, --module,
  --hat-index, --r 0 and table forms, recover fed by both pages
  routes, and couple and pages fed the decomposition;
* twobraid up to N = 25, as JSON and as a table, with
  --coefficient=-3/2 and with --k and --lambdas, and delta, with and
  without --scalings;
* refusals: couple windows too small (exit 4), malformed cells of a
  complex document (zero denominators, bools, floats, over-long
  digits, surrounding whitespace), malformed documents and options
  (exit 1) and usage errors (exit 2).

The small battery is 11 commands of the same kinds; the harness's
own test runs it in place of the full one.

Run from the repository root, the other tree taken from a local commit:

    mkdir /tmp/parent && git archive REV src | tar -x -C /tmp/parent
    python benchmarks/twin.py --against /tmp/parent/src

--tree SRC puts another tree in place of this repository's src, so two
older commits compare with each other.  The full battery, 1,129
commands, takes about 2 s per tree on a 2-core 2.1 GHz VM (Python
3.11), and 7 s in all with the set-up and both children; a child that
runs past 600 s stops the harness.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHILD_TIMEOUT_S = 600
# the most differing commands printed one by one
SHOWN = 20
# perfbench's seeds, and the seed and size of the corpus documents
PERFBENCH_SEEDS = (1, 7, 23)
CORPUS_SEED = 20261021
CORPUS_DOCUMENTS = 32

TORSION_CX = json.dumps(
    {"format": "tw/1", "type": "complex", "k": 1, "modules": {"0": [4], "1": [0]}, "differentials": {"0": [["1"]]}}
)
# one torsion piece of width 2 at k = 1: its couple window [0, 4] holds
# pages up to 5, so --r-max 12 is refused with exit 4
WIDE_DECOMPOSITION = json.dumps(
    {"format": "tw/1", "type": "decomposition", "k": 1, "free": [[0, 0]], "torsion": [[1, 2, 0]]}
)
HOPF_PD = "[[1,[1,3,2,0]],[1,[3,1,0,2]]]"

# braid word and strand count: perfbench's link ladder, then T(3,4),
# T(2,8) and T(3,5)
LADDER = (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3))
TORUS_KNOTS = (("1 2 1 2 1 2 1 2", 3), ("1 1 1 1 1 1 1 1", 2), ("1 2 1 2 1 2 1 2 1 2", 3))

# one cell of a 1 x 1 complex document: every reading the cell reader
# accepts or refuses, each refusal with its own text
CELLS = (
    "1/0", "0/0", "-3/0", "0/00", " 2 ", "\t-7/3\n", "+4/2", "-0", "0", "00", "٣", "1 /2", "1/ 2",
    "1.5", "1e3", "", " ", "1_000", "0x1", "1/2/3", "--1", "1/-2", True, False, None, 1.5, 4.0, [], {},
    7, -7, 0, "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000, "9" * 5000 + "/0", "0/" + "0" * 4301,
)


def cell_document(cell):
    return json.dumps(
        {"format": "tw/1", "type": "complex", "k": 1, "modules": {"0": [4], "1": [0]}, "differentials": {"0": [[cell]]}}
    )


class Battery:
    """Commands in order, each (argv, index of the command whose stdout
    is its stdin, or None)."""

    def __init__(self):
        self.commands = []

    def add(self, *argv, stdin_from=None):
        self.commands.append((list(argv), stdin_from))
        return len(self.commands) - 1


def small_battery():
    b = Battery()
    b.add("decompose", TORSION_CX)
    pages = b.add("pages", TORSION_CX)
    b.add("recover", "-", "--format", "table", stdin_from=pages)
    b.add("pages", TORSION_CX, "--page", "1", "--module", "--format", "table")
    b.add("couple", TORSION_CX, "--hat-index", "--format", "table")
    b.add("couple", WIDE_DECOMPOSITION, "--r-max", "12")
    b.add("decompose", cell_document("1/0"))
    b.add("decompose", cell_document(" -7/3 "))
    b.add("twobraid", "--N", "3", "--i", "1", "--coefficient=-3/2")
    b.add("link", "--braid", "1 1 1", "--format", "table")
    b.add("couple", TORSION_CX, "--r", "1", "--r-max", "2")
    return b.commands


def perfbench_commands(b):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in PERFBENCH_SEEDS:
        for setup in workloads.SETUP.values():
            for group in setup(seed, ROOT):
                first = len(b.commands)
                for command in group.commands:
                    b.add(*command.argv, stdin_from=None if command.stdin_from is None else first + command.stdin_from)


def corpus_commands(b):
    from twkit import jsonio
    from twkit.corpus import conjugate, random_decomposition
    from twkit.decompose import reassemble

    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_DOCUMENTS):
        d = random_decomposition(rng)
        doc = jsonio.dumps(jsonio.complex_to_data(conjugate(rng, reassemble(d), 16)))
        decomposition = b.add("decompose", doc)
        b.add("decompose", doc, "--format", "table")
        pages = b.add("pages", doc)
        b.add("recover", "-", stdin_from=pages)
        b.add("pages", doc, "--format", "table")
        b.add("pages", doc, "--r-max", "3")
        b.add("pages", doc, "--page", "1")
        b.add("pages", doc, "--page", "3", "--module")
        b.add("pages", doc, "--page", "2", "--module", "--format", "table")
        b.add("pages", doc, "--page", "0")
        generic = b.add("pages", "--generic", doc)
        b.add("recover", "-", "--format", "table", stdin_from=generic)
        b.add("pages", "--generic", doc, "--r-max", "2", "--format", "table")
        b.add("pages", "--generic", doc, "--page", "0")
        b.add("pages", "--generic", doc, "--page", "3", "--format", "table")
        b.add("couple", doc)
        b.add("couple", doc, "--r", "3")
        b.add("couple", doc, "--r-max", "9")
        b.add("couple", doc, "--r-max", "4", "--hat-index", "--format", "table")
        b.add("couple", doc, "--r", "2", "--hat-index", "--format", "table")
        b.add("couple", doc, "--r", "0")
        b.add("couple", "-", "--hat-index", stdin_from=decomposition)
        b.add("pages", "-", "--page", "2", "--module", stdin_from=decomposition)


def link_commands(b):
    for word, strands in LADDER + TORUS_KNOTS:
        for extra in ((), ("--format", "table"), ("--lambdas", "1=-3/2")):
            b.add("link", "--braid", word, "--strands", str(strands), *extra)
    for word, strands in LADDER:
        for extra in (("--lambdas", "1=2"), ("--lambdas", "1=1/2"), ("--k", "1", "--lambdas", "1=1,2=-1")):
            b.add("link", "--braid", word, "--strands", str(strands), *extra)
    b.add("link", "--pd", HOPF_PD)
    b.add("link", "--pd", HOPF_PD, "--free-loops", "1", "--format", "table")
    # the minimal complex's edge cases: no differential, every pair
    # cancelled in one degree, a strand no crossing touches, cancelled
    # pairs across two letters, and a potential at k = 1
    b.add("link", "--pd", "[]", "--free-loops", "2")
    b.add("link", "--braid", "1 -1")
    b.add("link", "--braid", "1 1", "--strands", "3")
    b.add("link", "--braid", "1 1 -2 -2")
    b.add("link", "--braid", "1 1 1", "--k", "1", "--lambdas", "1=2,2=-1/3")


def twobraid_commands(b):
    for N in (3, 10, 20, 25):
        b.add("twobraid", "--N", str(N), "--i", str(N // 2), "--coefficient=-3/2")
    b.add("twobraid", "--N", "25", "--i", "12", "--coefficient=-3/2", "--format", "table")
    b.add("twobraid", "--N", "20", "--i", "10", "--format", "table")
    b.add("twobraid", "--N", "5", "--i", "2", "--format", "table")
    b.add("twobraid", "--N", "4", "--k", "1", "--lambdas", "1=1,2=-1/3")
    b.add("delta", "--N", "3")
    b.add("delta", "--N", "7")
    b.add("delta", "--N", "4", "--scalings", "1,5,-2/3", "--format", "table")


def verify_commands(b):
    for seed in ("3", "11", "101"):
        b.add("verify", "--count", "40", "--seed", seed)
        b.add("verify", "--count", "40", "--seed", seed, "--format", "table")


def refusal_commands(b):
    for cell in CELLS:
        b.add("decompose", cell_document(cell))
    b.add("pages", "--generic", cell_document("1/0"))
    b.add("couple", WIDE_DECOMPOSITION, "--r-max", "12")
    b.add("couple", WIDE_DECOMPOSITION, "--r", "9", "--format", "table")
    b.add("couple", WIDE_DECOMPOSITION, "--r-max", "3")
    for option in ("--coefficient=1/0", "--coefficient=abc", "--coefficient= 3/2 "):
        b.add("twobraid", "--N", "3", "--i", "1", option)
    b.add("twobraid", "--N", "3")
    b.add("twobraid", "--N", "1", "--i", "1")
    b.add("link", "--braid", "1", "--lambdas", "1=1/0")
    b.add("link", "--braid", "1 1 1", "--lambdas", "nope")
    b.add("link")
    b.add("link", "--pd", "[[true,[1,2,2,1]]]")
    b.add("link", "--pd", "no-such-file")
    for scalings in ("1,1/0", "0", "1,,5", "1.5"):
        b.add("delta", "--N", "3", "--scalings", scalings)
    pages = b.add("pages", TORSION_CX)
    b.add("couple", "-", stdin_from=pages)
    b.add("recover", json.dumps({"format": "tw/1", "type": "pages", "k": 1, "pages": [[[0, 2, 1.0]]]}))
    b.add("recover", json.dumps({"format": "tw/1", "type": "pages", "k": 1, "pages": [[[0, 0, 1]], [[0, 0, 2]]]}))
    b.add("pages", json.dumps({"format": "tw/1", "type": "decomposition", "k": 1, "free": [[0, 2.5]]}))
    b.add("couple", json.dumps({"format": "tw/1", "type": "decomposition", "k": True}))
    b.add("decompose", "{not json")
    b.add("decompose", "no-such-file")
    b.add("decompose", json.dumps({"format": "tw/1", "type": "complex", "k": 1, "modules": {"0": [0], "1": [1]},
                                   "differentials": {"0": [[1]]}}))
    b.add("verify", "--count", "0")
    # usage errors, exit 2
    b.add("couple", TORSION_CX, "--r", "1", "--r-max", "2")
    b.add("pages", TORSION_CX, "--generic", "--module", "--page", "1")
    b.add("link", "--braid", "1 1", "--pd", HOPF_PD)
    b.add("no-such-command")


def full_battery():
    sys.path.insert(0, str(ROOT / "src"))
    b = Battery()
    perfbench_commands(b)
    verify_commands(b)
    link_commands(b)
    corpus_commands(b)
    twobraid_commands(b)
    refusal_commands(b)
    return b.commands


# -- one tree, in a child process ------------------------------------------


def run_battery(commands):
    """[(stdout, stderr, exit code)] of each command through this
    process's twkit.cli.main; an exception that escapes main is
    recorded as its type and text with the code "raised"."""
    from twkit.cli import main

    results = []
    for argv, stdin_from in commands:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO("" if stdin_from is None else results[stdin_from][0])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = "raised"
            err.write("%s: %s\n" % (type(e).__name__, e))
        finally:
            sys.stdin = saved
        results.append((out.getvalue(), err.getvalue(), code))
    return results


def child():
    commands = json.load(sys.stdin)
    import twkit

    start = time.perf_counter()
    results = run_battery(commands)
    json.dump({"twkit": twkit.__file__, "seconds": time.perf_counter() - start, "results": results}, sys.stdout)


def run_tree(src, commands):
    """The battery's results from the tree src (the directory holding
    its twkit package), in a child process: (results, seconds)."""
    src = pathlib.Path(src).resolve()
    env = {key: value for key, value in os.environ.items() if key != "TW_SEED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--child"],
        input=json.dumps(commands), capture_output=True, text=True, env=env, cwd=str(src), timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError("the child for %s failed:\n%s" % (src, proc.stderr))
    data = json.loads(proc.stdout)
    if pathlib.Path(data["twkit"]).resolve().parent.parent != src:
        raise RuntimeError("the child for %s imported twkit from %s" % (src, data["twkit"]))
    return [tuple(r) for r in data["results"]], data["seconds"]


# -- comparison -------------------------------------------------------------


def shown(argv):
    """argv as a shell command line, a long word cut short."""
    words = map(shlex.quote, argv)
    return "twkit " + " ".join(w if len(w) <= 100 else "%s... (%d characters)" % (w[:60], len(w)) for w in words)


def differences(ours, theirs):
    """[(index, field, our value, their value)] of every command whose
    stdout, stderr or exit code differs, at its first differing field."""
    found = []
    for n, (a, b) in enumerate(zip(ours, theirs)):
        apart = [(field, x, y) for field, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
        if apart:
            found.append((n, *apart[0]))
    return found


def first_line_apart(x, y):
    """The first line where two outputs differ, from each."""
    if not isinstance(x, str) or not isinstance(y, str):
        return repr(x), repr(y)
    xs, ys = x.splitlines(True), y.splitlines(True)
    for n in range(max(len(xs), len(ys))):
        a, b = xs[n] if n < len(xs) else "", ys[n] if n < len(ys) else ""
        if a != b:
            cut = lambda s: repr(s if len(s) <= 200 else s[:200] + "...")
            return "line %d: %s" % (n + 1, cut(a)), "line %d: %s" % (n + 1, cut(b))
    return repr(x), repr(y)


def main(argv):
    parser = argparse.ArgumentParser(description="Compare two twkit trees' outputs byte for byte.")
    parser.add_argument("--against", help="the other tree: the directory holding its twkit package")
    parser.add_argument("--tree", default=str(ROOT / "src"), help="this tree (default: the repository's src)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    if args.against is None:
        parser.error("--against is required")

    commands = full_battery()
    try:
        ours, our_s = run_tree(args.tree, commands)
        theirs, their_s = run_tree(args.against, commands)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print("%d commands: %.2f s on %s, %.2f s on %s" % (len(commands), our_s, args.tree, their_s, args.against))
    found = differences(ours, theirs)
    if not found:
        print("identical: stdout, stderr and exit code agree on every command")
        return 0
    for n, field, x, y in found[:SHOWN]:
        argv, stdin_from = commands[n]
        piped = "" if stdin_from is None else " < command %d" % stdin_from
        print("difference at command %d: %s%s" % (n, shown(argv), piped))
        ours_line, theirs_line = first_line_apart(x, y)
        print("  %s, %s: %s" % (field, args.tree, ours_line))
        print("  %s, %s: %s" % (field, args.against, theirs_line))
    cut = "" if len(found) <= SHOWN else ", the first %d shown" % SHOWN
    print("%d of %d commands differ%s" % (len(found), len(commands), cut))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
