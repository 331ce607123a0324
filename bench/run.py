"""The gkzkit benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload volumes --seed 1 --seconds 20 --trace 0

Workloads: volumes, saturations, triangulations, cli (see workloads.py for
their inputs and why each was chosen).  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones; BENCHMARK.json at the repository
root lists both.  Human-readable lines come first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run starts REPS repetitions one after another, each in a fresh interpreter,
so no ``lru_cache`` or ``cached_property`` outlives a repetition, and then
SETUP_PROBES interpreters that only set up; set-up time is their median.  Each
repetition runs the number of whole input blocks that took ``--seconds`` /
REPS at the seed commit (NOMINAL_BLOCK_S): every run at one seed times the
same inputs, on a parent commit and on a change alike.

Reported times are scaled to the reference speed (see worker.py): an op that
took t seconds while the reference loop took r seconds around it counts as
t * (REFERENCE_S / r) ** e.  Library ops use e = 1.  A CLI invocation is
about half process start and import, kernel and file work that the
reference loop does not exercise; for the cli workload e = 0.5, which across
10-seed sets tracked its times best (e = 1 overcorrected when the host's
speed shifted).  The record line also gives the unscaled figures.

The traced run (``--trace 1``) runs the first ``trace_blocks`` blocks of
repetition 0 three times in fresh interpreters: once untraced and twice
traced.  Its self-check requires every exact count (calls, LP outcomes, hull
subsets, lattice points, triangulations, cache hits) to repeat between the two
traced passes.  The traced minus the untraced timed seconds is reported as the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, cli_corpus  # noqa: E402
from worker import REFERENCE_S, reference_s, run_cli  # noqa: E402

REPS = 3
# Extra set-up-only interpreters per run, so set-up time is a median of many.
SETUP_PROBES = 6
# Wall seconds one block took at the seed commit, checks and reference loops
# included, with the reference loop at REFERENCE_S (Python 3.11.7, 2 vCPUs).
NOMINAL_BLOCK_S = {"volumes": 2.45, "saturations": 1.3, "triangulations": 8.0, "cli": 5.5}
RUN_DEADLINE_S = 170
START_PROBES = 5
# Exponent e of the reference-speed scaling, by workload (default 1).
SCALE_EXPONENT = {"cli": 0.5}
# A timing's tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
ELIMINATION = (
    "intlinalg.rational_rank",
    "intlinalg.solve_rational",
    "intlinalg.rational_nullspace",
    "intlinalg.det_fraction",
)

END_TO_END = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("ratio") or stat.endswith("yield"):
        return "ratio"
    return "count"


def spawn(worker_args, deadline):
    """Run one worker; past the deadline, kill it with any CLI child it runs."""
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), *worker_args, "--t0", repr(t0)]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {worker_args} ran past the run deadline") from exc
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {worker_args} failed:\n{err.strip()[-4000:]}")
    return json.loads(out.splitlines()[-1])


def tail(sorted_values):
    """The sample with TAIL_BEYOND samples beyond it, with a statement of its
    percentile and the sample count.  With too few samples for that to lie
    above the median, the median is reported and the statement says so."""
    n = len(sorted_values)
    k = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return sorted_values[k], f"p{100.0 * (k + 1) / n:.1f}: {n - k - 1} of {n} samples beyond it"


def scaled_ops(rep, exponent):
    """(seconds scaled to REFERENCE_S, passed) for each op of a repetition,
    using the mean of the reference times taken before, during and just
    after the op."""
    ops = rep["ops"]
    after = [refs[0] for _, refs, _ in ops[1:]] + [rep["ref_end_s"]]
    out = []
    for (elapsed, refs, ok), ref_after in zip(ops, after):
        around = [*refs, ref_after]
        out.append((elapsed * (REFERENCE_S * len(around) / sum(around)) ** exponent, ok))
    return out


def timed_run(args, deadline, notes):
    name = args.workload
    blocks = max(1, round(args.seconds / REPS / NOMINAL_BLOCK_S[name]))

    def repetition(r, blocks):
        return spawn(["--workload", name, "--seed", str(args.seed), "--rep", str(r),
                      "--blocks", str(blocks), "--trace", "0"], deadline)

    reps = [repetition(r, blocks) for r in range(REPS)]
    setups = reps + [repetition(REPS + r, 0) for r in range(SETUP_PROBES)]
    exponent = SCALE_EXPONENT.get(name, 1.0)
    ops = [op for rep in reps for op in scaled_ops(rep, exponent)]
    lat = sorted(t for t, ok in ops if ok)
    if not lat:
        raise BenchError("no op completed")
    tail_s, notes["op_tail_ms"] = tail(lat)
    raw = [(t, ok) for rep in reps for t, _, ok in rep["ops"]]
    raw_ok = [t for t, ok in raw if ok]
    notes["blocks_per_rep"] = blocks
    notes["wall_s_per_block"] = sum(rep["wall_s"] for rep in reps) / (REPS * blocks)
    notes["reference_ms"] = 1000 * statistics.median(
        ref for rep in reps for _, refs, _ in rep["ops"] for ref in refs
    )
    notes["unscaled"] = {
        "throughput_ops_s": len(raw_ok) / sum(t for t, _ in raw),
        "op_p50_ms": 1000 * statistics.median(raw_ok),
        "setup_s": statistics.median(rep["setup_s"] for rep in setups),
    }
    metrics = {
        "throughput_ops_s": len(lat) / sum(t for t, _ in ops),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(
            rep["setup_s"] * REFERENCE_S / rep["setup_ref_s"] for rep in setups
        ),
        "peak_rss_mb": max(rep["peak_rss_kb"] for rep in reps) / 1024,
    }
    return metrics, reps


def exact_counts(trace):
    counts = {f"{k}.calls": v[0] for k, v in trace["functions"].items()}
    counts.update({f"{k}.extra": v[2] for k, v in trace["functions"].items() if v[2]})
    counts.update({f"{k}.cache": tuple(v) for k, v in trace["caches"].items()})
    return counts


def median_ms(argv):
    """Median scaled milliseconds of START_PROBES runs of a command, scaled
    as CLI invocations are."""
    runs = []
    for _ in range(START_PROBES):
        ref = reference_s()
        start = time.monotonic()
        subprocess.run(argv, check=True, capture_output=True)
        scale = (REFERENCE_S / ref) ** SCALE_EXPONENT["cli"]
        runs.append(1000 * (time.monotonic() - start) * scale)
    return statistics.median(runs)


def layer_metrics(trace, scale):
    """Per-layer metrics from a trace; self times are multiplied by ``scale``."""
    fn = {k: (v[0], v[1] * scale, v[2]) for k, v in trace["functions"].items()}

    def get(key):
        return fn.get(key, (0, 0.0, 0))

    def total(keys):
        return [sum(get(k)[i] for k in keys) for i in range(3)]

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(key):
        hits, misses = trace["caches"].get(key, (0, 0))
        return ratio(hits, hits + misses)

    lpm, lps = get("lp.lp_maximize"), get("lp.lp_feasible_strict")
    hull, points = get("polytope.convex_hull"), get("polytope.lattice_points_in")
    mfc, hnf = get("polytope.minimal_face_containing"), get("intlinalg.column_hnf")
    elim = total(ELIMINATION)
    lattice = total([k for k in fn if k.startswith("lattice.")])
    regular, enum = get("secondary.is_regular"), get("secondary.enumerate_regular_triangulations")
    out = {
        "lp.lp_maximize.calls": lpm[0],
        "lp.lp_maximize.self_s": lpm[1],
        "lp.lp_maximize.feasible_ratio": ratio(lpm[2], lpm[0]),
        "lp.lp_feasible_strict.calls": lps[0],
        "lp.lp_feasible_strict.self_s": lps[1],
        "polytope.convex_hull.calls": hull[0],
        "polytope.convex_hull.self_s": hull[1],
        "polytope.convex_hull.subsets": hull[2],
        "polytope.normalized_volume.self_s": get("polytope.normalized_volume")[1],
        "polytope.face_poset.self_s": get("polytope.face_poset")[1],
        "polytope.minimal_face_containing.calls": mfc[0],
        "polytope.minimal_face_containing.self_s": mfc[1],
        "polytope.lattice_points_in.calls": points[0],
        "polytope.lattice_points_in.points": points[2],
        "polytope.lattice_points_in.self_s": points[1],
        "intlinalg.elimination.calls": elim[0],
        "intlinalg.elimination.self_s": elim[1],
        "intlinalg.column_hnf.calls": hnf[0],
        "intlinalg.column_hnf.self_s": hnf[1],
        "lattice.calls": lattice[0],
        "lattice.self_s": lattice[1],
        "configuration.index_i.cache_hit_ratio": hit_ratio("configuration.index_i"),
        "configuration.subdiagram_volume.cache_hit_ratio": hit_ratio("configuration.subdiagram_volume"),
        "secondary.secondary_polytope.cache_hit_ratio": hit_ratio("secondary.secondary_polytope"),
        "secondary.is_regular.calls": regular[0],
        "secondary.is_regular.self_s": regular[1],
        "secondary.regular_yield": ratio(enum[2], regular[0]),
        "secondary.enumerate_regular_triangulations.self_s": enum[1],
        "secondary.enumerate_regular_triangulations.triangulations": enum[2],
    }
    for key in (
        "configuration.subdiagram_volume",
        "configuration.saturate",
        "configuration.reduction_chain",
        "configuration.is_lattice_redundant",
        "hyper.is_nonresonant",
        "hyper.gamma_series",
        "hyper.extend_solution",
        "hyper.annihilation_check",
        "curves.verify_factorization",
        "polynomials.sylvester_resultant",
        "continuation.numeric_monodromy",
    ):
        out[f"{key}.self_s"] = get(key)[1]
    return out


def timed_s(rep, exponent):
    return sum(t for t, _ in scaled_ops(rep, exponent))


def traced_run(args, deadline, notes):
    name = args.workload
    blocks = WORKLOADS[name].trace_blocks

    def one_pass(trace):
        return spawn(["--workload", name, "--seed", str(args.seed), "--rep", "0",
                      "--blocks", str(blocks), "--trace", str(trace)], deadline)

    plain, first, second = one_pass(0), one_pass(1), one_pass(1)
    a, b = exact_counts(first["trace"]), exact_counts(second["trace"])
    drift = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if drift:
        notes["self_check"] = f"exact counts differ between two traced passes: {drift[:20]}"
    else:
        notes["self_check"] = f"{len(a)} exact counts repeat across two traced passes"
    interp_ms = median_ms([sys.executable, "-c", "pass"])
    import_ms = median_ms([sys.executable, "-c", "import gkzkit.cli"]) - interp_ms
    exponent = SCALE_EXPONENT.get(name, 1.0)
    ref = statistics.median(refs[0] for _, refs, _ in first["ops"])
    metrics = layer_metrics(first["trace"], (REFERENCE_S / ref) ** exponent)
    overhead = timed_s(first, exponent) - timed_s(plain, exponent)
    metrics.update(
        {
            "cli.interp_start_ms": interp_ms,
            "cli.import_ms": import_ms,
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / timed_s(plain, exponent),
        }
    )
    notes["blocks_traced"] = blocks
    notes["untraced_timed_s"] = timed_s(plain, exponent)
    notes["traced_timed_s"] = timed_s(first, exponent)
    return metrics, [plain, first, second], bool(drift)


def contract_probes():
    """Known CLI contract defects: checked every cli run, outside the timed ops."""
    cases = [c for c in cli_corpus()["cases"] if c.get("known_defect")]
    out = {}
    for case, (_, _, error) in zip(cases, run_cli([cases], None)):
        out[case["id"]] = error or "now meets the contract"
    return out


def source_record(root: Path):
    files = sorted((root / "src" / "gkzkit").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gkzkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gkzkit" / "__init__.py").is_file():
        print("bench: src/gkzkit not found; run from the root of a gkzkit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # Fixed string hashing, so set iteration order and hence work repeat.
    os.environ["PYTHONHASHSEED"] = "0"
    # Bytecode is compiled before any timing: every import reads cached bytecode.
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", src, str(HERE)], capture_output=True, text=True
    )
    if build.returncode != 0:
        print(f"bench: compileall failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    notes = {}
    try:
        if args.trace:
            metrics, passes, drift = traced_run(args, deadline, notes)
        else:
            metrics, passes = timed_run(args, deadline, notes)
            drift = False
        if args.workload == "cli":
            notes["contract_probes"] = contract_probes()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["ops"]) for p in passes)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "inputs": wl.inputs,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": len(passes),
        **source_record(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        **notes,
        "failures": failures[:10],
    }
    print("record " + json.dumps(record))
    for key, value in metrics.items():
        print(f"{key:58s} {value:14.6g} {unit_of(key)}")
    result = {
        "correct": not failures and not drift,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
