"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric is reported with its unit, that the result object
has the shape BENCHMARK.json promises, and that the output checks can fail.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

TINY_TICKS = 60  # above the 50 golden ticks


@pytest.fixture()
def scratch(tmp_path):
    path = tmp_path / "scratch"
    path.mkdir()
    return path


def reference_digest(workload: run.Workload, tmp_path: Path) -> str:
    """Trace digest of the same run made in this process, without the benchmark."""
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        from semsim import cli
    finally:
        sys.path.remove(str(run.ROOT / "src"))
    trace = tmp_path / "reference.trace"
    assert cli.main(workload.semsim_args(0, trace)) == 0
    return hashlib.sha256(trace.read_bytes()).hexdigest()


def tiny(name: str, tmp_path: Path, **changes) -> run.Workload:
    workload = dataclasses.replace(run.load_workloads()[name], ticks=TINY_TICKS)
    if workload.trace_sha256 is not None:
        workload = dataclasses.replace(
            workload, trace_sha256=reference_digest(workload, tmp_path))
    return dataclasses.replace(workload, **changes)


def assert_result_shape(result: dict, names: list[tuple[str, str]]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [name for name, _ in names]
    for name, unit in names:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    benchmarked = [n for n in run.load_workloads() if n != "cardio_concurrent"]
    assert [w["name"] for w in spec["workloads"]] == benchmarked


@pytest.mark.parametrize("name", list(run.load_workloads()))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, scratch, capsys):
    workload = tiny(name, tmp_path)
    result = run.report(run.measure(workload, 3, 0.0, False, scratch))
    assert_result_shape(result, list(run.END_TO_END))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_RUNS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = capsys.readouterr().out
    for metric, unit in (*run.END_TO_END, ("runs_failed", "runs")):
        assert f"{metric} " in printed and f" {unit}" in printed


def test_traced_run_reports_every_per_layer_metric(tmp_path, scratch, capsys):
    workload = tiny("cardio_halt", tmp_path)
    result = run.report(run.measure(workload, 0, 0.0, True, scratch))
    assert_result_shape(result, list(run.PER_LAYER))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for name in ("validation.match_calls", "validation.derive_s", "engine.self_s",
                 "engine.dispatches", "topology.moves", "cli.write_outputs_s",
                 "models.build_s", "trace.overhead_ratio"):
        assert metrics[name] > 0, name
    assert "not found in semsim: []" in capsys.readouterr().out


def test_concurrent_traced_run_counts_threads(tmp_path, scratch):
    workload = tiny("cardio_concurrent", tmp_path)
    result = run.report(run.measure(workload, 5, 0.0, True, scratch))
    assert result["correct"]
    assert result["metrics"]["engine.threads_started"]["value"] > 0


def test_wrong_digest_fails_every_run(tmp_path, scratch, capsys):
    workload = tiny("cardio_halt", tmp_path, trace_sha256="0" * 64)
    result = run.report(run.measure(workload, 0, 0.0, False, scratch))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_RUNS
    assert "trace sha256" in capsys.readouterr().out


def test_missing_pool_line_fails():
    workload = dataclasses.replace(run.load_workloads()["waterfall_pool"], trace_sha256=None)
    three_steps = run.Run(traced=False, metrics={"steps_timed": 3})
    problems = run.check_outputs(workload, 3, three_steps, {}, b"0 pool\n1 pool\n", 3, 0)
    assert problems == ["trace is not one '<i> pool' line per portion, in order"]


def test_causal_check_catches_contraction_without_nerve():
    assert run.causal_problems(["into diaphragm contract"])
    assert run.causal_problems(["completed inhale Nose Air to Alv Air"])
    assert not run.causal_problems([
        "past phrenicNerve trigger", "into diaphragm contract", "inhale cycle",
        "completed inhale ExternalAir to Nose Air", "completed inhale Nose Air to Alv Air",
    ])


def test_command_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, the command prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cardio_halt",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scales_and_skips_calibration_time():
    ref = run.REF_CAL_S
    # calibrations at 0, 1 and 3 s; the host runs at half speed until the second
    speed = run.HostSpeed(run.array("d", [0.0, 1.0, 3.0]), run.array("d", [2 * ref, ref, ref]))
    gap = 1.0 - 2 * ref
    assert speed.scaled(2 * ref, 1.0) == pytest.approx(gap / 1.5)
    assert speed.scaled(1.0 + ref, 3.0) == pytest.approx(2.0 - ref)
    # an interval spanning the second calibration leaves its time out
    assert speed.scaled(0.5, 2.0) == pytest.approx((0.5 / 1.5) + (1.0 - ref))
    # before the first and after the last calibration, the nearest one scales
    assert speed.scaled(-1.0, 0.0) == pytest.approx(0.5)
    assert speed.scaled(3.0 + ref, 4.0 + ref) == pytest.approx(1.0)
