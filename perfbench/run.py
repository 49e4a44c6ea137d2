#!/usr/bin/env python3
"""lampgrid benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``), so the timed
region always starts with cold caches, as a CLI user's does, and peak RSS
belongs to the workload alone.  Repetitions run one after another for
``--seconds`` seconds.  Every output is checked; the last line of stdout is
one JSON object, and the exit code is 1 when a check failed.
``--trace 0`` reports the end-to-end metrics: times as means over the
repetitions (per operation, where operations are timed one by one), set-up
and memory as medians.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics.  See README.md in this
directory.
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
ROOT = HERE.parent
WORKLOADS = ("certify", "spheres", "distance", "hexagon")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, from the traced run.  The tour's counts are computed
# from its array sizes and depth, not measured, and their units say so.
PER_LAYER = {
    "core.multiply.calls": "count",
    "core.multiply.self_s": "s",
    "core.press_effect.calls": "count",
    "core.press_effect.self_s": "s",
    "core.press_effect.memo_entries": "count",
    "core.apply_letter.calls": "count",
    "core.apply_letter.self_s": "s",
    "words.evaluate.calls": "count",
    "words.evaluate.self_s": "s",
    "words.parse.calls": "count",
    "words.parse.self_s": "s",
    "words.parse.letters_out": "count",
    "words.format_word.self_s": "s",
    "metric.witness_word.calls": "count",
    "metric.witness_word.self_s": "s",
    "metric.witness_word.letters": "count",
    "metric.trapezoid_summits.calls": "count",
    "metric.trapezoid_summits.self_s": "s",
    "metric.arc_press_solve.calls": "count",
    "metric.arc_press_solve.self_s": "s",
    "gf2.solve_subset_xor.calls": "count",
    "gf2.solve_subset_xor.self_s": "s",
    "gf2.solve_subset_xor.columns": "count",
    "metric.ball_with_depths.self_s": "s",
    "metric.ball_with_depths.states": "count",
    "metric.ball_with_depths.attempts": "count",
    "metric.ball_with_depths.yield": "ratio",
    "metric.ball_with_depths.traced_peak_bytes": "B",
    "metric.exact_distance.calls": "count",
    "metric.exact_distance.self_s": "s",
    "metric.exact_distance.expansions": "count",
    "metric.exact_distance.radius_exceeded": "count",
    "metric.tour_lower_bound.self_s": "s",
    "metric.tour_lower_bound.cell_updates": "cells-computed",
    "metric.tour_lower_bound.bytes": "B-computed",
    "metric.certify_depth.self_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 5  # extra set-up-only processes, so set-up has a median
DEADLINE_S = 150.0  # start no repetition that might end later than this
KILL_AFTER_S = 175.0  # stop a repetition still running this long into the run
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, started: float, oracle=None) -> dict:
    """Run one repetition; ``oracle`` is the check's oracle from an earlier one."""
    timeout = KILL_AFTER_S - (time.monotonic() - started)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if oracle is not None:
        cmd.append("--oracle")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            input=None if oracle is None else json.dumps(oracle),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition of {workload} passed the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} repetition of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mean_time(reps: list[dict], key: str) -> float:
    """The mean of ``key`` over the repetitions.

    The host the benchmark was tuned on switches, for seconds to minutes at
    a time, between states up to 50% apart.  A median or a minimum over
    repetitions jumps from one state to the other as their mix in a run
    shifts; the mean moves with the mix, so it spreads least from run to
    run (README.md has the figures).
    """
    return statistics.fmean(r[key] for r in reps)


def per_op_mean(reps: list[dict]) -> list[float] | None:
    """Each operation's mean latency over the repetitions, in seconds.

    Every repetition runs the same operations in the same order from cold
    caches, so an operation's cost is the same in each.
    """
    if reps[0]["latencies"] is None:
        return None
    return [statistics.fmean(column) for column in zip(*(r["latencies"] for r in reps))]


def latency_summary(reps: list[dict]) -> dict:
    """Throughput, per-operation p50 and tail, from the per-operation means.

    The tail is the highest percentile with TAIL_BEYOND operations above it.
    Where only the whole job is timed, throughput is operations over the
    mean job time and both latencies are the amortised time per operation.
    """
    latencies = per_op_mean(reps)
    if latencies is None:
        throughput = reps[0]["ops"] / mean_time(reps, "busy_s")
        return {
            "throughput": throughput,
            "op_p50_ms": 1000 / throughput,
            "op_tail_ms": 1000 / throughput,
            "op_latency": "amortised over the job",
        }
    samples = len(latencies)
    index = max(samples - TAIL_BEYOND - 1, 0)
    return {
        "throughput": samples / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * sorted(latencies)[index],
        "op_latency": "timed one by one",
        "tail_percentile": 100 * (index + 1) / samples,
        "tail_samples": samples,
    }


def repeat(workload, seed, seconds, modes, started) -> dict[str, list[dict]]:
    """Cycle through ``modes`` until the run has lasted ``seconds``.

    Runs at least one cycle, and starts none that would likely end after
    ``seconds`` (or DEADLINE_S) from the start of the run, judging by the
    length of the cycle before it.
    """
    reps = {mode: [] for mode in modes}
    oracle = None
    while True:
        begun = time.monotonic()
        for mode in modes:
            rep = spawn(workload, seed, mode, started, oracle)
            reps[mode].append(rep)
            oracle = rep.get("oracle", oracle)
        now = time.monotonic()
        if now - started + (now - begun) > min(seconds, DEADLINE_S):
            return reps


def end_to_end(workload: str, seed: int, seconds: float, started: float):
    setups = [
        spawn(workload, seed, "setup", started)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    reps = repeat(workload, seed, seconds, ("plain",), started)["plain"]
    setups += [r["setup_s"] for r in reps]
    latency = latency_summary(reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": mean_time(reps, "wall_s"),
        "throughput": latency.pop("throughput"),
        "op_p50_ms": latency.pop("op_p50_ms"),
        "op_tail_ms": latency.pop("op_tail_ms"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    detail = {
        "repetitions": len(reps),
        "setup_samples": len(setups),
        **latency,
        "wall_s_each": [r["wall_s"] for r in reps],
    }
    return reps, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, detail


def per_layer(workload: str, seed: int, seconds: float, started: float):
    runs = repeat(workload, seed, seconds, ("plain", "trace"), started)
    plain, traced = runs["plain"], runs["trace"]
    layers = [r["layers"] for r in traced]
    for name, value in layers[0].items():
        if not name.endswith("self_s") and any(l[name] != value for l in layers):
            raise BenchError(f"traced repetitions disagree on {name}: tracer is not exact")
    values = {
        name: statistics.median(l[name] for l in layers) if name.endswith("self_s")
        else layers[0][name]
        for name in layers[0]
    }
    memory = []
    if values["metric.ball_with_depths.states"]:
        memory = [spawn(workload, seed, "memory", started)]
    values["metric.ball_with_depths.traced_peak_bytes"] = (
        memory[0]["traced_peak_bytes"] if memory else 0
    )
    values["trace.overhead_s"] = mean_time(traced, "wall_s") - mean_time(plain, "wall_s")
    detail = {"plain_repetitions": len(plain), "traced_repetitions": len(traced)}
    return plain + traced + memory, {k: (values[k], u) for k, u in PER_LAYER.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lampgrid" / "__init__.py").is_file():
        print(f"no lampgrid package under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2

    # A SIGTERM unwinds like an error, so subprocess.run kills and reaps the
    # repetition in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    measure = per_layer if args.trace else end_to_end
    try:
        reps, metrics, detail = measure(args.workload, args.seed, args.seconds, started)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        timed_region="cold: fresh interpreter per repetition",
        error_ratio=failed / attempted,
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
