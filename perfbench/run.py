#!/usr/bin/env python3
"""Benchmark of the gbcsp package, one workload per invocation.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --regen-fingerprints

Run from anywhere; the package is imported from ``src/`` beside this
directory and nowhere else.  Every metric is printed as ``name value unit``
and the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--trace 0`` reports the end-to-end metrics
(items_per_s, setup_s, peak_rss_mb); ``--trace 1`` reports the per-layer
metrics of a traced run and writes its spans to ``perfbench/traces/``.

Each set-up sample is a fresh worker process timed from spawn to the moment
it would start its first timed item; the last worker goes on to the timed
phase.  The timed phase runs whole blocks of work until ``--seconds`` of
block time have passed; items_per_s is items completed over block time.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
WORKLOADS = ("sweep_small", "sweep_deep", "uc_large", "predict_grid")

# Set-up is timed in this many fresh processes; each warms up on about one
# block of work, so that set-up time is not dominated by process start and
# imports, which drift with the host far more than computation does.
SETUP_SAMPLES = 3
MIN_BLOCKS = 3
# A run goes on past --seconds, for at most this long, until the workload has
# what its checks need (a UC success in uc_large, a whole grid in predict_grid).
GRACE_S = 40
WORKER_TIMEOUT_S = 170
# The traced run takes its exact counts from this workload seed, whatever --seed is.
REFERENCE_SEED = 0


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def import_package():
    sys.path.insert(0, str(SRC))
    import gbcsp

    if Path(gbcsp.__file__).resolve().parent != SRC / "gbcsp":
        raise SystemExit(f"perfbench: imported gbcsp from {gbcsp.__file__}, not from {SRC}")


# --- worker -------------------------------------------------------------------


def peak_private_rss_kb() -> int:
    """Peak resident set size less the file-backed pages mapped now.

    File-backed pages (the interpreter and shared libraries) count in the
    peak, but how many of them are resident depends on the host's page
    cache: it moved the peak by about 15 MB between identical runs made at
    different times.  The pages the program allocates itself do not move.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        status = dict(line.split(":", 1) for line in fh)
    return int(status["VmHWM"].split()[0]) - int(status["RssFile"].split()[0])


def timed_blocks(wl, seconds, chk, run_block):
    """Run blocks j = 0, 1, ... of ``wl`` through ``run_block(inp)`` and
    return the per-block durations in seconds."""
    durations = []
    while (len(durations) < MIN_BLOCKS or sum(durations) < seconds
           or (not wl.done() and sum(durations) < seconds + GRACE_S)):
        inp = wl.input(len(durations))
        start = time.perf_counter()
        out = run_block(inp)
        durations.append(time.perf_counter() - start)
        wl.observe(inp, out, chk)
    return durations


def worker(args) -> dict:
    import_package()
    import checks
    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.warm_up()
    ready_ns = monotonic_ns()
    if args.worker == "probe":
        return {"ready_ns": ready_ns}

    chk = checks.Checks()
    if args.trace:
        metrics, blocks = traced_run(args, wl, chk)
    else:
        durations = timed_blocks(wl, args.seconds, chk, wl.run)
        blocks = len(durations)
        metrics = {
            "items_per_s": (blocks * wl.items_per_block / sum(durations), "1/s"),
            "peak_rss_mb": (peak_private_rss_kb() / 1024, "MB"),
        }
    wl.check(chk)
    return {
        "ready_ns": ready_ns,
        "metrics": metrics,
        "failures": chk.failures,
        "attempted": blocks * wl.items_per_block + chk.compared,
        "failed": chk.mismatched,
    }


def traced_run(args, wl, chk):
    """Per-layer metrics: counts from one traced block on fixed inputs, then
    pairs of (untraced, traced) runs of the same block for the timings."""
    import tracing
    import workloads

    reference_wl = workloads.make(args.workload, REFERENCE_SEED)
    reference = tracing.Tracer(measure_alloc=True)
    with reference.installed():
        reference.wrap("bench.block", reference_wl.run)(reference_wl.input(0))

    timed = tracing.Tracer()
    traced_block = timed.wrap("bench.block", wl.run)
    ratios = []

    def paired(inp):
        start = time.perf_counter()
        out = wl.run(inp)
        untraced_s = time.perf_counter() - start
        with timed.installed():
            traced_block(inp)
        traced_s = (timed.spans[-1][4] - timed.spans[-1][3]) / 1e9
        ratios.append(untraced_s / traced_s)
        return out

    blocks = len(timed_blocks(wl, args.seconds, chk, paired))
    block_spans = timed.by_name("bench.block")
    metrics = tracing.per_layer(
        timed, reference,
        reference_items=reference_wl.items_per_block,
        timed_items=len(block_spans) * wl.items_per_block,
        timed_wall_ns=sum(e - s for _, _, _, s, e in block_spans),
        overhead=statistics.median(ratios),
    )
    TRACE_DIR.mkdir(exist_ok=True)
    timed.write_jsonl(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    return metrics, 2 * blocks


# --- orchestrator -------------------------------------------------------------


def spawn(args, mode: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start_ns = monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready_ns"] - start_ns) / 1e9
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-fingerprints", action="store_true",
                    help="recompute perfbench/fingerprints.json from the current sources")
    ap.add_argument("--worker", choices=("probe", "run"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "gbcsp" / "__init__.py").is_file():
        print(f"perfbench: no gbcsp sources under {SRC}", file=sys.stderr)
        return 2
    if args.regen_fingerprints:
        import_package()
        import checks

        checks.regenerate_fingerprints()
        return 0
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        ap.error("--workload is required, --seed must be >= 0 and --seconds >= 1")
    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    # SIGTERM unwinds through subprocess.run, which kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    setups = [] if args.trace else [spawn(args, "probe")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(args, "run")
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups + [result["setup_s"]]), "s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
