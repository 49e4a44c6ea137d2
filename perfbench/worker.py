#!/usr/bin/env python3
"""One repetition of one workload in a fresh interpreter; ``run.py`` starts these.

The process imports the package from ``src/`` of the checkout it sits in,
makes its inputs, runs the timed region once with cold caches, reads its
peak RSS, then checks every output.  It prints one JSON line.

Modes: ``setup`` stops after making the inputs; ``plain`` times the
workload; ``trace`` also records per-layer spans and counts; ``memory``
measures ``ball_with_depths`` with tracemalloc.

A check that needs an expensive oracle (``distance``: a ball of radius 8)
leaves it in ``inputs["oracle"]``, and the report carries it.  With
``--oracle`` the process reads it back from stdin instead of computing it
again, so later repetitions on the same inputs skip that work.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "plain", "trace", "memory"), default="plain")
    parser.add_argument(
        "--oracle", action="store_true",
        help="read the check's oracle, as JSON from an earlier report, from stdin",
    )
    parser.add_argument(
        "--spawned-ns", type=int, default=None,
        help="time.monotonic_ns() when the parent started this process",
    )
    args = parser.parse_args(argv)
    spawned_ns = time.monotonic_ns() if args.spawned_ns is None else args.spawned_ns

    sys.path.insert(0, str(SRC))
    import lampgrid

    if Path(lampgrid.__file__).resolve().parent != SRC / "lampgrid":
        print(f"lampgrid imported from {lampgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import BallMemory, Tracer

    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, workloads.SIZES[args.size][args.workload])
    report = {"setup_s": (time.monotonic_ns() - spawned_ns) / 1e9}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0
    if args.oracle:
        inputs["oracle"] = json.load(sys.stdin)

    hooks = {"plain": None, "trace": Tracer(), "memory": BallMemory()}[args.mode]
    if hooks is not None:
        hooks.install()
    start = time.perf_counter()
    result = run(lampgrid, inputs)
    wall = time.perf_counter() - start
    if hooks is not None:
        hooks.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        failed = check(lampgrid, inputs, result)
    except Exception:  # an oracle that cannot run fails every operation
        traceback.print_exc()
        failed = inputs["ops"]

    report.update(
        wall_s=wall,
        busy_s=result["busy_s"],
        ops=result["ops"],
        latencies=result["latencies"],
        peak_rss_mb=peak_rss_mb,
        attempted=inputs["ops"],
        failed=failed,
    )
    if "oracle" in inputs:
        report["oracle"] = inputs["oracle"]
    if args.mode == "trace":
        report["layers"] = hooks.summary()
        hooks.write_spans(ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json")
    elif args.mode == "memory":
        report["traced_peak_bytes"] = hooks.peak
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
