"""A saved world carries on its run exactly.

The world owns every fact a run carries on from: the clock (the tick the
next step runs), the signals in transit and the id counters. A model file
saves them, so a plain kernel on a reloaded world continues where the run
stopped, with no tick handed to it.
"""
import io
import json

import pytest

from semsim import Kernel
from semsim.cli import EXIT_OK, RunConfig, console_command, main, standard_rules, step_entry
from semsim.modelfile import load_model, save_model, save_model_file
from semsim.models import build_cardio, build_waterfall

HORIZON = 60
BUILDS = {"cardio": build_cardio, "waterfall": lambda: build_waterfall(n_portions=20)}


def _kernel(world) -> Kernel:
    kernel = Kernel(world)  # deterministic, seed 0, halt
    standard_rules(kernel)
    return kernel


def _run(kernel: Kernel, ticks: int):
    """The (step, line) trace pairs and sidecar step entries of ticks more steps."""
    reports = kernel.run(ticks)
    return [(r.step, line) for r in reports for line in r.lines], [step_entry(r) for r in reports]


@pytest.mark.parametrize("model", BUILDS)
def test_a_reloaded_world_carries_on_its_run_at_every_cut(model):
    whole = _run(_kernel(BUILDS[model]()), HORIZON)
    in_transit = []
    for cut in range(HORIZON + 1):
        first = _kernel(BUILDS[model]())
        trace, entries = _run(first, cut)
        if first.world.signals:
            in_transit.append(cut)
        rest = _kernel(load_model(json.loads(json.dumps(save_model(first.world)))))
        assert rest.tick == cut
        more_trace, more_entries = _run(rest, HORIZON - cut)
        assert (trace + more_trace, entries + more_entries) == whole, f"cut at {cut}"
    # The cuts at which a Medulla -> Diaphragm contract signal is in flight.
    assert in_transit == ([1, 7, 25, 31, 49, 55] if model == "cardio" else [])


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
