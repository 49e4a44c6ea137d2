"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the package's own test run; it is collected
only when named.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lampgrid  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def worker(workload: str, mode: str, oracle=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", "3", "--size", "tiny", "--mode", mode]
    if oracle is not None:
        cmd.append("--oracle")
    proc = subprocess.run(
        cmd, input=None if oracle is None else json.dumps(oracle),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    report = worker(workload, "plain")
    assert report["attempted"] >= 1
    assert report["failed"] == 0
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = worker(workload, "trace")["layers"], worker(workload, "trace")["layers"]
    counts = {k: v for k, v in first.items() if not k.endswith("self_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("self_s")}
    assert any(v for k, v in counts.items() if k.endswith(".calls"))


def test_traced_counts_see_calls_made_through_imported_names():
    # certify_depth reaches multiply and witness_word through metric's own
    # imports; a patch on lampgrid.core alone would count none of them.
    layers = worker("certify", "trace")["layers"]
    assert layers["core.multiply.calls"] > 0
    assert layers["metric.witness_word.calls"] == layers["metric.ball_with_depths.states"]
    assert layers["metric.ball_with_depths.states"] == sum(workloads.SPHERES[:3])


def _tiny(name: str):
    make_inputs, run_workload, check = workloads.WORKLOADS[name]
    inputs = make_inputs(3, workloads.SIZES["tiny"][name])
    return inputs, run_workload(lampgrid, inputs), check


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    make_inputs = workloads.WORKLOADS[workload][0]
    size = workloads.SIZES["full"][workload]
    assert repr(make_inputs(7, size)) == repr(make_inputs(7, size))


def test_distance_quota_fixes_the_distance_mix():
    size = workloads.SIZES["full"]["distance"]
    for seed in (1, 2):
        drawn = [d for _, _, d in workloads.distance_inputs(seed, size)["queries"][:-1]]
        assert [drawn.count(d) for d in range(len(size["quota"]))] == list(size["quota"])


def test_gate_fails_a_wrong_sphere_size():
    inputs, result, check = _tiny("spheres")
    assert check(lampgrid, inputs, result) == 0
    result["out"][2] += 1
    assert check(lampgrid, inputs, result) == inputs["ops"]


def test_gate_fails_a_wrong_certificate():
    inputs, result, check = _tiny("certify")
    assert check(lampgrid, inputs, result) == 0
    result["out"] = dataclasses.replace(result["out"], max_witness_length=inputs["n"] * 6 - 1)
    assert check(lampgrid, inputs, result) == inputs["ops"]


def test_gate_fails_a_wrong_distance_and_a_missed_radius_error():
    inputs, result, check = _tiny("distance")
    assert check(lampgrid, inputs, result) == 0
    result["out"][0] += 1
    result["out"][-1] = 6
    assert check(lampgrid, inputs, result) == 2


def test_a_later_repetition_checks_against_the_oracle_it_is_given():
    first = worker("distance", "plain")
    assert first["failed"] == 0 and len(first["oracle"]) == first["attempted"]
    assert worker("distance", "plain", first["oracle"])["failed"] == 0
    wrong = [None if depth is None else depth + 1 for depth in first["oracle"]]
    assert worker("distance", "plain", wrong)["failed"] > 0


def test_gate_fails_a_witness_that_does_not_replay():
    inputs, result, check = _tiny("hexagon")
    assert check(lampgrid, inputs, result) == 0
    tour, outs = result["out"]
    g, witness, _ = outs[0]
    outs[0] = (g, witness, lampgrid.identity())
    result["out"] = (tour + 1, outs)
    assert check(lampgrid, inputs, result) == 2


def test_run_exits_nonzero_when_the_program_is_wrong(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "lampgrid", tmp_path / "src" / "lampgrid",
                    ignore=shutil.ignore_patterns("__pycache__"))
    metric = tmp_path / "src" / "lampgrid" / "metric.py"
    source = metric.read_text()
    assert "    return counts\n" in source
    metric.write_text(source.replace("    return counts\n", "    counts[1] += 1\n    return counts\n"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spheres", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every declared workload is runnable; run.py may run more (spheres).
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
