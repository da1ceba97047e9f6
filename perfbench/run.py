"""twkit benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload link --seed 1 --seconds 25 --trace 0

``--workload`` is ``link``, ``twobraid``, ``corpus`` or ``all`` (each
workload in turn, each in a fresh child process).  Commands run
in-process through ``twkit.cli.main``, one at a time (a closed loop with
one caller), until ``--seconds`` have passed; every output is checked.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("link", "twobraid", "corpus")
# set-up is repeated (at least this often, and for at least this long)
# and its median reported, so one slow import, a burst of machine noise
# or a first-run bytecode compile does not decide setup_s
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
# calibration-loop seconds on the reference machine; reported times
# are scaled to it (see harness.calibration_s)
CALIBRATION_REFERENCE_S = 0.00117
# no command starts after this many seconds into a run, so every run
# ends well inside three minutes even when inputs run over budget
HARD_LIMIT_S = 150.0
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "largest_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class HarnessError(Exception):
    """The benchmark cannot run or cannot trust its own measurement."""


def purge_twkit():
    for name in list(sys.modules):
        if name == "twkit" or name.startswith("twkit."):
            del sys.modules[name]


def scaled(seconds, calibration):
    """Seconds at reference speed: the time the work would take on a
    machine where the calibration loop takes its reference time."""
    return seconds * CALIBRATION_REFERENCE_S / calibration


def setup(workload, seed):
    """(cli module, groups, median set-up seconds at reference speed).

    Each repetition re-imports twkit from scratch, then generates the
    inputs and references; the last repetition's objects are used."""
    from harness import sample_seconds, sampling, window_calibration, window_start
    from workloads import SETUP

    times = []
    raw = 0.0
    while len(times) < SETUP_MIN_REPS or raw < SETUP_MIN_S:
        purge_twkit()
        with sampling():
            start, sampled = window_start(), sample_seconds()
            t0 = time.perf_counter()
            cli = importlib.import_module("twkit.cli")
            groups = SETUP[workload](seed, ROOT)
            seconds = time.perf_counter() - t0 - (sample_seconds() - sampled)
            times.append(scaled(seconds, window_calibration(start)))
        raw += seconds
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise HarnessError("twkit was imported from %s, not from %s" % (cli.__file__, src))
    return cli, groups, statistics.median(times)


def measure(cli, groups, seconds, deadline):
    """Whole passes over the groups until `seconds` have passed."""
    from harness import run_pass

    passes = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(cli, groups, deadline))
        now = time.perf_counter()
        if now >= deadline or now - t0 >= seconds:
            return passes


def scaled_groups(p):
    return [scaled(s, c) for s, c in zip(p.group_s, p.group_cal)]


def end_to_end(passes, setup_s):
    """Times at reference speed.  wall_s adds up each input's median over
    the passes, so a burst of machine noise during one input does not
    move the whole pass."""
    per_input = zip(*(scaled_groups(p) for p in passes))
    return {
        "wall_s": sum(statistics.median(times) for times in per_input),
        "largest_s": statistics.median(scaled_groups(p)[p.largest] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def traced(cli, groups, seconds, deadline):
    """(passes, per-layer metrics) of a traced run.

    Untraced and traced passes alternate (one untraced, two traced, then
    pairs) until `seconds` have passed, so the overhead compares passes
    run close together.  Counts must repeat exactly from one traced pass
    to the next, since every pass runs the same inputs."""
    from harness import run_pass
    from tracing import COUNTS, SELF_TIMES, Tracer, count_mismatches, install

    tracer = Tracer()
    plain, passes, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        plain.append(run_pass(cli, groups, deadline))
        uninstall = install(tracer)
        try:
            for _ in range(MIN_TRACED_PASSES if not passes else 1):
                tracer.reset()
                gc.collect()
                p = run_pass(cli, groups, deadline)
                self_s, counts = tracer.snapshot()
                counts["jsonio.bytes_in"] = p.bytes_in
                passes.append(p)
                layers.append((self_s, counts))
        finally:
            uninstall()
        now = time.perf_counter()
        if now >= deadline or now - t0 >= seconds:
            break
    first = layers[0][1]
    for _, counts in layers[1:]:
        diff = count_mismatches(first, counts)
        if diff:
            raise HarnessError("counts differ between traced passes of one seed: %s" % ", ".join(diff))
    metrics = {}
    calibrations = [statistics.median(p.group_cal) for p in passes]
    for metric, span in SELF_TIMES.items():
        times = (scaled(s.get(span, 0.0), c) for (s, _), c in zip(layers, calibrations))
        metrics[metric] = (statistics.median(times), "s")
    for metric, (key, unit) in COUNTS.items():
        metrics[metric] = (first.get(key, 0), unit)
    overhead = statistics.median(sum(scaled_groups(p)) for p in passes) - statistics.median(
        sum(scaled_groups(p)) for p in plain
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return plain + passes, metrics


def git_commit():
    """HEAD of the checkout's own .git, or None (parents are not searched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of every file under src/ plus the oracle, so results from
    a checkout without git history can still be told apart."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files + [ROOT / "tests" / "oracles.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args):
    exactla = sys.modules["twkit.exactla"]
    return {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "backend": exactla.BACKEND,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args):
    deadline = time.perf_counter() + HARD_LIMIT_S
    cli, groups, setup_s = setup(args.workload, args.seed)
    print("provenance %s" % json.dumps(provenance(args), sort_keys=True))
    if args.trace:
        passes, metrics = traced(cli, groups, args.seconds, deadline)
    else:
        passes = measure(cli, groups, args.seconds, deadline)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(passes, setup_s).items()}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for e in errors[:20]:
        print("failed: %s" % e, file=sys.stderr)
    print("passes %d, commands %d, failed %d" % (len(passes), attempted, failed))
    print("pass seconds %s" % " ".join("%.3f" % p.wall_s for p in passes))
    calibration = statistics.median(c for p in passes for c in p.group_cal)
    print("calibration %.3f ms (reference %.3f ms)" % (calibration * 1e3, CALIBRATION_REFERENCE_S * 1e3))
    # fail_rate is printed here and carried by `failed` and `attempted`
    # in the result line; a metric that is 0 on correct code has no
    # relative bound, so it is not one of the result's metrics
    rows = list(metrics.items()) + [("fail_rate", (failed / attempted, "ratio"))]
    for name, (value, unit) in rows:
        print("  %-38s %16s %s" % (name, value if isinstance(value, int) else "%.6f" % value, unit))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh child process, one after another, so
    peak_rss_mb stays per workload; metric names get the workload as a
    prefix in the combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            child = subprocess.run(argv, capture_output=True, text=True, timeout=200)
        except subprocess.TimeoutExpired:
            raise HarnessError("workload %s did not finish in 200 s" % workload)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise HarnessError("workload %s exited with %d" % (workload, child.returncode))
        print("== %s" % workload)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "twkit" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print("error: %s is missing; run from a twkit checkout" % needed.relative_to(ROOT), file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except HarnessError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
