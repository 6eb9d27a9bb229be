"""The console driven in-process: its inspect, set, scenario and stop paths,
and the two ways the command line runs as __main__."""
import io
import runpy
import sys
from pathlib import Path

import pytest

from semsim.cli import standard_rules
from semsim.console import USAGE, Console
from semsim.engine import Kernel
from semsim.models import build_cardio

from saved_forms import CARDIO_FILE

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
BANNER = "semsim console: model 'cardio' (type a command; quit to exit)"


def session(commands: str, steps=None, policy="warn") -> list[str]:
    """The lines a console on a fresh cardio prints for commands."""
    world = build_cardio()
    kernel = Kernel(world, validate_policy=policy)
    standard_rules(kernel)
    out = io.StringIO()
    Console(world, kernel, steps, out=out, inp=io.StringIO(commands)).run()
    return out.getvalue().splitlines()


def test_inspect_reads_each_kind_of_entity_and_names_what_it_cannot():
    commands = [
        ("inspect LeftAtrium", "compartment LeftAtrium medium=blood_path capacity=1 contents=[blood-0]"),
        ("inspect cardio.LeftAtrium.contents", "blood-0"),
        ("inspect ExternalAir.capacity", "None"),
        ("inspect LeftAtrium.volume", "error: compartment 'LeftAtrium' has no attribute 'volume'"),
        ("inspect blood", "substance blood: phase=liquid"),
        ("inspect blood.phase", "liquid"),
        ("inspect blood.colour", "error: substance 'blood' has no attribute 'colour'"),
        ("inspect blood-0", "portion blood-0 of blood at LeftAtrium location=LeftAtrium "
                            "[O2Level=low, CO2Level=high, Warmth=low]"),
        ("inspect blood-0.X", "None"),
        ("inspect blood-0.y", "None"),
        ("inspect blood-0.Location", "LeftAtrium"),
        ("inspect blood-0.compartment", "LeftAtrium"),
        ("inspect LeftAtriumBlood.O2Level", "low"),
        ("inspect blood-0.colour", "error: portion 'blood-0' has no property 'colour'"),
        ("inspect diaphragm", "object diaphragm of kind DiaphragmOrgan [tension=relaxed]"),
        ("inspect diaphragm.tension", "relaxed"),
        ("inspect diaphragm.colour", "error: object 'diaphragm' has no state or property 'colour'"),
        ("inspect ambient", "temperature=standard, pressure=standard, humidity=standard, gravity=standard"),
        ("inspect ambient.temperature", "standard"),
        ("inspect MedullaBlood", "error: Medulla is empty"),
        ("inspect nothing", "error: cannot resolve 'nothing'"),
        ("inspect cardio", "error: empty path"),
    ]
    lines = session("\n".join(command for command, _ in commands) + "\n\nquit\n")
    assert lines == [BANNER] + [line for _, line in commands]


def test_set_writes_through_the_worlds_checks():
    lines = session(
        "set blood solid\n"
        "set ambient.temperature cold\n"
        "set blood.phase solid\n"
        "set diaphragm.tension contracted\n"
        "set diaphragm.tension limp\n"
        "inspect diaphragm.tension\n"
    )
    assert lines == [
        BANNER,
        "error: set needs <entity>.<variable>",
        "ambient temperature = cold",
        "blood.phase = solid",
        "diaphragm.tension = contracted",
        "error: label 'limp' is outside the 'tension' space ['relaxed', 'contracted']",
        "contracted",
    ]


def test_pause_resume_and_step_respect_the_budget():
    assert session("pause\nresume\n") == [
        BANNER, "paused at step 0", "no step budget; use `step [k]`, or restart with --steps",
    ]
    first, budget = session("step 2\nresume\n", steps=1)[1:3]
    assert first.startswith("step 0: fired=DiffusionCheck, GasExchangeAlv, HeartbeatPush")
    assert budget == "step budget exhausted"
    assert session("resume\nstep\n", steps=3) == [BANNER, "paused at step 3", "step budget exhausted"]


def test_a_scenario_applied_at_the_prompt_can_halt_the_next_step():
    lines = session(f"scenario {SCENARIOS / 'cut_phrenic.json'}\nstep 3\n", steps=2, policy="halt")
    assert lines[:2] == [BANNER, "scenario 'cut-phrenic' applied"]
    assert lines[2].startswith("step 0: ") and "violations=1" in lines[2]
    assert lines[3:] == ["halted at step 0"]


def test_an_unknown_command_prints_the_usage():
    assert session("frobnicate\nquit\nstep\n") == [BANNER, "unknown command 'frobnicate'", *USAGE.splitlines()]


def test_a_command_missing_an_argument_prints_its_usage_line_and_changes_nothing():
    lines = session("set\nset blood-0.O2Level\ninspect\nscenario\n"
                    "step abc\nstep -2\nstep 1 2\n"
                    "inspect blood-0.O2Level extra\npause now\nresume 3\n"
                    "annotations a b\nquit now\n"
                    "inspect blood-0.O2Level\npause\nquit\n")
    assert lines == [
        BANNER,
        "usage: set <path> <value>",
        "usage: set <path> <value>",
        "usage: inspect <path>",
        "usage: scenario <file>",
        "usage: step [k]",
        "usage: step [k]",
        "usage: step [k]",
        "usage: inspect <path>",
        "usage: pause",
        "usage: resume",
        "usage: annotations [<element>]",
        "usage: quit",
        "low",
        "paused at step 0",
    ]


# runpy warns that it runs semsim.cli afresh though the package has imported it.
@pytest.mark.filterwarnings("ignore:'semsim.cli' found in sys.modules:RuntimeWarning")
@pytest.mark.parametrize("module", ["semsim", "semsim.cli"])
def test_the_command_line_runs_as_main(monkeypatch, capsys, module):
    monkeypatch.setattr(sys, "argv", ["semsim", "validate-file", str(CARDIO_FILE)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ok: model 'cardio' (12 compartments, 7 mechanisms)")
