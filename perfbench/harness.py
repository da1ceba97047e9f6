"""Runs twkit commands in-process, one at a time, and checks each output.

A workload is a list of groups; a group is one input of the workload,
made of one or more ``twkit`` commands run back to back (a pipe such as
``pages | recover`` is two commands, the second reading the first's
output on stdin).  Each command runs through ``twkit.cli.main`` with
stdin, stdout and stderr redirected, under a time budget, and its
output goes through the group's correctness check.  A command fails
when it exits non-zero, raises, overruns its budget or prints a wrong
answer; a command whose pipe input failed fails too.

The host's speed drifts by tens of percent, over minutes and within
a second (other tenants share the cores).  So while a pass runs, a
short calibration loop is sampled from a SIGPROF handler every 40 ms
of process CPU time.  A group's time, less the samples' own time,
divided by the mean sample taken during it (and the last one before
it) is the group's cost in units of that loop, which the drift leaves
alone.
"""

from __future__ import annotations

import contextlib
import io
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional


class OverBudget(Exception):
    """Raised inside a command that ran past its time budget."""


@dataclass
class Command:
    argv: list
    # error message for a wrong output, None when the output is right
    check: Callable[[str], Optional[str]]
    budget_s: float
    # index of an earlier command in the group whose stdout is piped in
    stdin_from: Optional[int] = None


@dataclass
class Group:
    label: str
    commands: list
    largest: bool = False


@dataclass
class PassResult:
    # seconds per group, in workload order
    group_s: list = field(default_factory=list)
    # mean calibration sample during each group (see window_calibration)
    group_cal: list = field(default_factory=list)
    # index of the workload's largest input in group_s
    largest: Optional[int] = None
    attempted: int = 0
    failed: int = 0
    bytes_in: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(self.group_s)


# fixed 8 x 8 rational matrix the calibration loop reduces
_CALIBRATION_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, (i * j) % 4 + 1) for j in range(8)) for i in range(8)
)
# process CPU seconds between two calibration samples
SAMPLE_INTERVAL_S = 0.04


def calibration_s():
    """Seconds one run of the calibration loop takes right now.

    The loop is a Gauss-Jordan reduction of a fixed rational matrix,
    the same kind of interpreter work as twkit's kernels, written here
    so that no change to twkit can change it.  On a shared 2-core
    2.1 GHz Xeon VM it takes about 1.2 ms when the host is quiet and
    2-3 ms under load."""
    t0 = time.perf_counter()
    mat = [list(row) for row in _CALIBRATION_MATRIX]
    n = len(mat)
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        pivot = mat[r]
        for i in range(n):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], pivot)]
        r += 1
    return time.perf_counter() - t0


def _on_alarm(signum, frame):
    raise OverBudget()


# calibration samples of the current process, in the order taken, and
# the seconds they took in all
_samples = []
_spent_s = 0.0


def _on_prof(signum, frame):
    global _spent_s
    seconds = calibration_s()
    _samples.append(seconds)
    _spent_s += seconds


@contextlib.contextmanager
def sampling():
    """Take one calibration sample now and one every SAMPLE_INTERVAL_S
    of CPU time until the block ends."""
    previous = signal.signal(signal.SIGPROF, _on_prof)
    _on_prof(None, None)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def window_start():
    """Mark the start of a measured window (see window_calibration)."""
    return len(_samples)


def window_calibration(start):
    """Mean calibration seconds over the window begun at `start`: the
    samples taken in it and the last one before it."""
    window = _samples[max(start - 1, 0):]
    if not window:
        raise RuntimeError("no calibration sample; measure inside sampling()")
    return statistics.mean(window)


def sample_seconds():
    """Seconds the calibration samples have taken so far; measured
    windows subtract the part that fell inside them."""
    return _spent_s


def run_command(main, argv, stdin_text, budget_s):
    """(exit code or exception, stdout, stderr, seconds) of one command.

    The seconds leave out calibration samples taken meanwhile.  The
    budget is enforced with SIGALRM, so an overrun stops the command
    instead of stretching the run."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(budget_s, 1e-6))
    sampled = _spent_s
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:  # argparse exits on a usage error
        rc = e.code
    except Exception as e:  # any other escape from the CLI is a failed command
        rc = e
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - (_spent_s - sampled)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue(), elapsed


def _input_bytes(command, stdin_text):
    inline = sum(len(a.encode()) for a in command.argv if a.lstrip().startswith("{"))
    return inline + len((stdin_text or "").encode())


def run_group(cli, group, result, deadline):
    """Run one group, adding its command counts and failures to
    `result`; returns the seconds its commands took."""
    outputs = []
    group_s = 0.0
    for command in group.commands:
        result.attempted += 1
        if command.stdin_from is not None and outputs[command.stdin_from] is None:
            result.failed += 1
            result.errors.append("%s: %s: pipe input failed" % (group.label, command.argv[0]))
            outputs.append(None)
            continue
        stdin_text = outputs[command.stdin_from] if command.stdin_from is not None else None
        budget = min(command.budget_s, deadline - time.perf_counter())
        if budget <= 0:
            result.failed += 1
            result.errors.append("%s: %s: run deadline reached" % (group.label, command.argv[0]))
            outputs.append(None)
            continue
        result.bytes_in += _input_bytes(command, stdin_text)
        rc, out, err, elapsed = run_command(cli.main, command.argv, stdin_text, budget)
        group_s += elapsed
        error = None
        if isinstance(rc, OverBudget) or elapsed > command.budget_s:
            error = "over its %.0f s budget" % command.budget_s
        elif isinstance(rc, BaseException):
            error = "raised %r" % (rc,)
        elif rc != 0:
            last = err.strip().splitlines()
            error = "exit code %s: %s" % (rc, last[-1] if last else "")
        else:
            try:
                error = command.check(out)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                error = "unreadable output: %r" % (e,)
        if error is not None:
            result.failed += 1
            result.errors.append("%s: %s: %s" % (group.label, command.argv[0], error))
            outputs.append(None)
        else:
            outputs.append(out)
    return group_s


def run_pass(cli, groups, deadline):
    result = PassResult()
    with sampling():
        for group in groups:
            start = window_start()
            seconds = run_group(cli, group, result, deadline)
            if group.largest:
                result.largest = len(result.group_s)
            result.group_s.append(seconds)
            result.group_cal.append(window_calibration(start))
    return result
