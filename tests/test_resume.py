"""A saved world carries on its run exactly.

The world owns every fact a run carries on from: the clock (the tick the
next step runs), the signals in transit and the id counters. A model file
saves them, so a plain kernel on a reloaded world continues where the run
stopped, with no tick handed to it. Concurrent mode draws each tick's order
from (seed, tick) alone, so there a kernel given the run's seed carries on
exactly too, and the order does not depend on Python's string hashing.
"""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semsim import Kernel
from semsim.cli import EXIT_OK, RunConfig, console_command, main, standard_rules, step_entry
from semsim.engine import MODES
from semsim.modelfile import load_model, save_model, save_model_file
from semsim.models import build_cardio, build_waterfall
from semsim.scenarios import apply_scenario, load_scenario

HORIZON = 60
BUILDS = {"cardio": build_cardio, "waterfall": lambda: build_waterfall(n_portions=20)}
REPO = Path(__file__).resolve().parents[1]


def _kernel(world, mode="deterministic", seed=0, policy="halt") -> Kernel:
    kernel = Kernel(world, seed=seed, mode=mode, validate_policy=policy)
    standard_rules(kernel)
    return kernel


def _run(kernel: Kernel, ticks: int):
    """The (step, line) trace pairs and sidecar step entries of ticks more steps."""
    reports = kernel.run(ticks)
    return [(r.step, line) for r in reports for line in r.lines], [step_entry(r) for r in reports]


def _resumes_at_every_cut(build, mode, seed, policy="halt") -> list[int]:
    """Check that a run of HORIZON steps, cut at each tick from 0 to HORIZON,
    saved, reloaded and carried on by a fresh kernel, is the uncut run; the
    cuts at which a signal was in transit."""
    whole = _run(_kernel(build(), mode, seed, policy), HORIZON)
    in_transit = []
    for cut in range(HORIZON + 1):
        first = _kernel(build(), mode, seed, policy)
        trace, entries = _run(first, cut)
        if first.world.signals:
            in_transit.append(cut)
        saved = json.loads(json.dumps(save_model(first.world)))
        rest = _kernel(load_model(saved), mode, seed, policy)
        assert rest.tick == cut
        more_trace, more_entries = _run(rest, HORIZON - cut)
        assert (trace + more_trace, entries + more_entries) == whole, (
            f"{mode}, seed {seed}: cut at {cut}"
        )
    return in_transit


@pytest.mark.parametrize("model", BUILDS)
def test_a_reloaded_world_carries_on_its_run_at_every_cut(model):
    for mode in MODES:
        for seed in (11, 12):
            in_transit = _resumes_at_every_cut(BUILDS[model], mode, seed)
            # The cuts at which a Medulla -> Diaphragm contract signal is in flight.
            if model == "waterfall":
                assert in_transit == []
            elif mode == "deterministic":
                assert in_transit == [1, 7, 25, 31, 49, 55]
            else:
                assert len(in_transit) == 6, seed  # as many, some at other cuts


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model, scenario, policy", [
    ("cardio", "heart_stop", "halt"),
    ("cardio", "cut_phrenic", "warn"),
    ("waterfall", "freeze", "halt"),
])
def test_a_reloaded_world_carries_on_a_shipped_scenario_at_every_cut(model, scenario, policy, mode):
    def build():
        world = BUILDS[model]()
        apply_scenario(world, load_scenario(REPO / "scripts" / "scenarios" / f"{scenario}.json"))
        return world

    _resumes_at_every_cut(build, mode, 11, policy)


def test_concurrent_runs_under_different_string_hashes_write_one_trace(tmp_path):
    traces = []
    for hash_seed in ("1", "2"):
        trace = tmp_path / f"hash-{hash_seed}.trace"
        subprocess.run(
            [sys.executable, "-m", "semsim", "run", "--model", "cardio", "--steps", "200",
             "--mode", "concurrent", "--seed", "11", "--trace", str(trace)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed}, check=True, capture_output=True,
        )
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1] != b""


def test_a_saved_file_carries_its_clock_and_the_signals_in_transit():
    kernel = _kernel(build_cardio())
    kernel.run(25)
    data = save_model(kernel.world)
    assert (data["version"], data["clock"]) == (4, 25)
    assert data["signals"] == [["Medulla", "Diaphragm", "contract"]]
    reloaded = load_model(data)
    assert reloaded.clock == 25 and reloaded.signals == kernel.world.signals
    assert save_model(reloaded) == data


def test_semsim_run_on_a_saved_world_writes_the_rest_of_the_run(tmp_path):
    whole = tmp_path / "whole.trace"
    assert main(["run", "--model", "cardio", "--steps", "60", "--trace", str(whole)]) == EXIT_OK
    kernel = _kernel(build_cardio())
    kernel.run(25)
    saved = save_model_file(kernel.world, tmp_path / "saved.json")
    rest = tmp_path / "rest.trace"
    assert main(["run", "--model", str(saved), "--steps", "35", "--trace", str(rest)]) == EXIT_OK

    uninterrupted = _kernel(build_cardio())
    uninterrupted.run(60)
    assert rest.read_text() == "".join(e.line + "\n" for e in uninterrupted.trace if e.step >= 25)
    assert whole.read_text().endswith(rest.read_text())
    reports = json.loads((tmp_path / "rest.trace.report.json").read_text())["reports"]
    assert [r["step"] for r in reports] == list(range(25, 60))
    assert reports == json.loads((tmp_path / "whole.trace.report.json").read_text())["reports"][25:]


def test_the_console_budget_counts_from_the_clock_the_session_starts_at(tmp_path):
    kernel = _kernel(build_cardio())
    kernel.run(25)
    saved = save_model_file(kernel.world, tmp_path / "saved.json")
    config = RunConfig(model=str(saved), steps=5, trace_path=str(tmp_path / "c.trace"))
    out = io.StringIO()
    assert console_command(config, inp=io.StringIO("resume\nstep\nquit\n"), out=out) == EXIT_OK
    lines = out.getvalue().splitlines()
    assert lines[1:] == ["paused at step 30", "step budget exhausted"]


def test_between_steps_the_world_is_at_the_tick_the_next_step_runs(tmp_path):
    scenario = tmp_path / "stop.json"
    scenario.write_text(json.dumps({"name": "heart-stop", "overrides": []}), encoding="utf-8")
    inp = io.StringIO(f"step 4\nscenario {scenario}\nannotations cardio\nquit\n")
    out = io.StringIO()
    config = RunConfig(model="cardio", steps=10, trace_path=str(tmp_path / "s.trace"))
    assert console_command(config, inp=inp, out=out) == EXIT_OK
    assert out.getvalue().splitlines()[-1] == (
        "[user_comment] cardio: scenario 'heart-stop' applied at step 4"
    )
