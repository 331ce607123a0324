"""One repetition of a benchmark workload, in a fresh interpreter.

Usage (from the root of a checkout; ``bench/run.py`` starts it):

    python3 bench/worker.py --workload volumes --seed 1 --rep 0 --blocks 5 \
        --trace 0 --t0 <time.monotonic() of the parent just before spawning>

Runs ``--blocks`` whole input blocks (0: set up only), timing each op alone
and checking its answer untimed right after it, and prints one JSON line:
set-up time, per-op times, failures, peak RSS and, with ``--trace 1``, the
per-layer trace.

Each op also carries reference times for scaling (see ``bench/run.py``).
The CPU speed of a shared host swings by a fifth or more within seconds as
other tenants load it.  Before each op the worker times REFERENCE_LOOPS of
fixed pure-Python Fraction arithmetic, the kind of work gkzkit does; during
an untraced library op it samples the same loop every SAMPLE_EVERY_S from a
timer signal and leaves that time out of the op's.  A change to gkzkit does
not touch the reference loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import TRACE_MARK, Tracer

# A library op longer than this counts as failed; so does a CLI invocation.
OP_TIMEOUT_S = 60
REFERENCE_LOOPS = 1500
SAMPLE_EVERY_S = 0.25
# Times are reported as if the reference loop took this long: about its
# median on a 2-vCPU Xeon host under other tenants' load.
REFERENCE_S = 0.010
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


class OpTimeout(Exception):
    pass


def reference_s():
    """Seconds the fixed reference loop takes right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_LOOPS):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
    return time.perf_counter() - start


class OpClock:
    """Times library ops under a SIGALRM timer that enforces OP_TIMEOUT_S
    and, unless the op is traced, samples the reference loop."""

    def __init__(self, sample: bool):
        self.sample = sample
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if time.monotonic() - self.start > OP_TIMEOUT_S:
            raise OpTimeout(f"op ran over {OP_TIMEOUT_S} s")
        if self.sample:
            begin = time.monotonic()
            self.refs.append(reference_s())
            self.paused += time.monotonic() - begin

    def __enter__(self):
        self.refs = [reference_s()]
        self.paused = 0.0
        self.start = time.monotonic()
        every = SAMPLE_EVERY_S if self.sample else OP_TIMEOUT_S
        signal.setitimer(signal.ITIMER_REAL, every, every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.monotonic() - self.start - self.paused
        return False


def run_library(name, blocks, tracer):
    import library

    op, check = library.OPS[name], library.CHECKS[name]
    clock = OpClock(sample=tracer is None)
    for block in blocks:
        for inp in block:
            error = None
            try:
                with clock:
                    if tracer:
                        tracer.active = True
                    try:
                        out = op(inp)
                    finally:
                        if tracer:
                            tracer.active = False
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"op raised {type(exc).__name__}: {exc}"
            if error is None:
                try:
                    error = check(inp, out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                error = f"{error} (input {inp})"
            yield clock.refs, clock.elapsed, error


def merge_trace(total, part):
    for key, (calls, self_s, extra) in part["functions"].items():
        acc = total["functions"].setdefault(key, [0, 0.0, 0])
        acc[0] += calls
        acc[1] += self_s
        acc[2] += extra
    for key, (hits, misses) in part["caches"].items():
        acc = total["caches"].setdefault(key, [0, 0])
        acc[0] += hits
        acc[1] += misses


def run_cli(blocks, trace):
    """A closed loop with one client: each invocation starts after the last ends.

    With ``trace`` (a dict like ``Tracer.snapshot()``) every invocation runs
    under the tracer and its per-layer counts are added into ``trace``.
    """
    traced = trace is not None
    prefix = [sys.executable, str(TRACED_CLI)] if traced else [sys.executable, "-m", "gkzkit"]
    for block in blocks:
        for case in block:
            refs = [reference_s()]
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [*prefix, *case["args"]],
                    input=case["stdin"].encode(),
                    capture_output=True,
                    timeout=OP_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                yield refs, time.monotonic() - start, f"{case['id']}: ran over {OP_TIMEOUT_S} s"
                continue
            elapsed = time.monotonic() - start
            error = None
            if proc.returncode != case["exit"]:
                error = f"{case['id']}: exit {proc.returncode}, contract says {case['exit']}"
            elif proc.stdout != case["stdout"].encode():
                error = f"{case['id']}: stdout differs from the expected report"
            if traced:
                lines = proc.stderr.decode().splitlines()
                if not lines or not lines[-1].startswith(TRACE_MARK):
                    error = error or f"{case['id']}: no trace from the traced CLI"
                else:
                    merge_trace(trace, json.loads(lines[-1][len(TRACE_MARK):]))
            yield refs, elapsed, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--blocks", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    tracer = cli_trace = None
    if args.workload == "cli":
        cli_trace = {"functions": {}, "caches": {}} if args.trace else None
    else:
        import gkzkit

        src = Path.cwd() / "src" / "gkzkit"
        if Path(gkzkit.__file__).resolve().parent != src.resolve():
            print(f"gkzkit imported from {gkzkit.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.trace:
            tracer = Tracer().install()
        import library  # noqa: F401  (imported here so that set-up time covers it)
    from workloads import WORKLOADS

    stream = WORKLOADS[args.workload].blocks(args.seed, args.rep)
    blocks = [next(stream) for _ in range(args.blocks)]
    setup_s = time.monotonic() - args.t0
    setup_ref_s = reference_s()
    if args.workload == "cli":
        ops = run_cli(blocks, cli_trace)
    else:
        ops = run_library(args.workload, blocks, tracer)

    start = time.monotonic()
    timings, failures = [], []
    for refs, elapsed, error in ops:
        timings.append([elapsed, refs, error is None])
        if error:
            failures.append(error)
    ref_end = reference_s()
    wall_s = time.monotonic() - start
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "ops": timings,  # [seconds, reference seconds before and during, passed]
        "ref_end_s": ref_end,
        "wall_s": wall_s,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "trace": tracer.snapshot() if tracer else cli_trace,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
