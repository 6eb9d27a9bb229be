import gc
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from semsim import Mechanism, Trigger, World, cli
from semsim.cli import (
    EXIT_CONFIG,
    EXIT_HALTED,
    EXIT_OK,
    RunConfig,
    console_command,
    main,
    planned_steps,
    prepare,
    run_command,
)
from semsim.modelfile import save_model, save_model_file
from semsim.engine import StepReport, register_mechanism, register_trigger
from semsim.models import (
    build_cardio,
    build_waterfall,
    cell_respiration,
    diffusion_check,
    medulla_sense,
    mix_external_air,
)
from semsim.world import Vocabulary

from saved_forms import saved_cardio_version_2, saved_heartbeat_push, saved_water_flowing


def run_cli(args, cwd, input=None):
    return subprocess.run(
        [sys.executable, "-m", "semsim", *args],
        cwd=cwd,
        input=input,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_run_waterfall_via_subprocess(tmp_path):
    result = run_cli(
        ["run", "--model", "waterfall", "--portions", "3", "--trace", "wf.trace"],
        cwd=tmp_path,
    )
    assert result.returncode == EXIT_OK
    assert (tmp_path / "wf.trace").read_text() == "0 pool\n1 pool\n2 pool\n"


def test_run_unknown_model_exits_1(tmp_path):
    result = run_cli(["run", "--model", "unicorn", "--steps", "1"], cwd=tmp_path)
    assert result.returncode == EXIT_CONFIG
    assert "unknown model" in result.stderr


def test_the_waterfall_has_one_builtin_name(tmp_path, capsys):
    args = ["run", "--model", "waterfall-frames", "--portions", "3",
            "--trace", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: unknown model 'waterfall-frames' (not a builtin, not a file)\n"
    )


def test_run_negative_steps_exits_1(tmp_path, capsys):
    args = ["run", "--model", "cardio", "--steps", "-3", "--trace", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: --steps must be >= 0\n")
    assert list(tmp_path.iterdir()) == []


def test_a_run_without_a_trace_path_writes_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(RunConfig("cardio", steps=3)) == EXIT_OK
    assert list(tmp_path.iterdir()) == []


def test_run_malformed_scenario_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    result = run_cli(
        ["run", "--model", "cardio", "--steps", "1", "--scenario", str(bad)],
        cwd=tmp_path,
    )
    assert result.returncode == EXIT_CONFIG


def test_report_sidecar_counts_steps(tmp_path):
    config = RunConfig(
        model="cardio", steps=25, seed=0, trace_path=str(tmp_path / "c.trace")
    )
    assert run_command(config) == EXIT_OK
    sidecar = json.loads((tmp_path / "c.trace.report.json").read_text())
    assert sidecar["steps_executed"] == 25
    assert len(sidecar["reports"]) == 25
    assert sidecar["halted_at_step"] is None


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMSIM_SEED", "17")
    from semsim.cli import default_seed

    assert default_seed() == 17


def test_removed_connection_halts_with_exit_2(tmp_path):
    scenario = tmp_path / "cut.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "cut-wire",
                "overrides": [
                    {"op": "remove_connection", "from": "RightAtrium", "to": "RightVentricle"}
                ],
            }
        ),
        encoding="utf-8",
    )
    config = RunConfig(
        model="cardio",
        steps=50,
        trace_path=str(tmp_path / "cut.trace"),
        scenario_path=str(scenario),
    )
    assert run_command(config) == EXIT_HALTED
    sidecar = json.loads((tmp_path / "cut.trace.report.json").read_text())
    assert sidecar["halted_at_step"] == 0
    violating_step = sidecar["reports"][sidecar["halted_at_step"]]
    assert any(v["rule"] == "PushWithoutConnection" for v in violating_step["violations"])


def test_severed_nerve_halts_like_other_wiring_bugs(tmp_path):
    scenario = tmp_path / "cut_phrenic.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "cut-phrenic",
                "overrides": [
                    {"op": "remove_connection", "from": "Medulla", "to": "Diaphragm",
                     "kind": "nerve"}
                ],
            }
        ),
        encoding="utf-8",
    )
    config = RunConfig(
        model="cardio",
        steps=10,
        trace_path=str(tmp_path / "nerve.trace"),
        scenario_path=str(scenario),
    )
    assert run_command(config) == EXIT_HALTED
    sidecar = json.loads((tmp_path / "nerve.trace.report.json").read_text())
    step = sidecar["reports"][sidecar["halted_at_step"]]
    assert any(v["rule"] == "NoNervePath" for v in step["violations"])


def test_validate_policy_warn_keeps_running(tmp_path):
    scenario = tmp_path / "cut.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "cut-wire",
                "overrides": [
                    {"op": "remove_connection", "from": "RightAtrium", "to": "RightVentricle"}
                ],
            }
        ),
        encoding="utf-8",
    )
    config = RunConfig(
        model="cardio",
        steps=10,
        validate_policy="warn",
        trace_path=str(tmp_path / "warn.trace"),
        scenario_path=str(scenario),
    )
    assert run_command(config) == EXIT_OK
    sidecar = json.loads((tmp_path / "warn.trace.report.json").read_text())
    assert sidecar["steps_executed"] == 10


def test_model_file_runs_from_cli(tmp_path):
    path = tmp_path / "cardio.json"
    save_model_file(build_cardio(), path)
    result = run_cli(
        ["run", "--model", str(path), "--steps", "12", "--trace", "file.trace"],
        cwd=tmp_path,
    )
    assert result.returncode == EXIT_OK
    assert "SANode pulse" in (tmp_path / "file.trace").read_text()


def test_validate_file_command(tmp_path):
    path = tmp_path / "cardio.json"
    save_model_file(build_cardio(), path)
    assert main(["validate-file", str(path)]) == EXIT_OK
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["validate-file", str(bad)]) == EXIT_CONFIG


def test_console_step_prints_reports(tmp_path):
    inp = io.StringIO("step 3\nquit\n")
    out = io.StringIO()
    config = RunConfig(
        model="cardio", steps=10, trace_path=str(tmp_path / "con.trace")
    )
    assert console_command(config, inp=inp, out=out) == EXIT_OK
    printed = out.getvalue()
    assert printed.count("step 0:") == 1
    assert printed.count("step 1:") == 1
    assert printed.count("step 2:") == 1
    assert printed.count("step 3:") == 0


def test_console_inspect_and_set(tmp_path):
    inp = io.StringIO(
        "inspect cardio.MedullaCapBlood.CO2Level\n"
        "set cardio.MedullaCapBlood.CO2Level low\n"
        "inspect cardio.MedullaCapBlood.CO2Level\n"
        "inspect cardio.ambient.pressure\n"
        "annotations ExternalAir\n"
        "assertions\n"
        "quit\n"
    )
    out = io.StringIO()
    config = RunConfig(model="cardio", steps=5, trace_path=str(tmp_path / "i.trace"))
    console_command(config, inp=inp, out=out)
    printed = out.getvalue()
    lines = [l for l in printed.splitlines() if l]
    assert "high" in lines
    assert "low" in lines
    assert "standard" in lines  # STP default pressure
    assert "[idealization] ExternalAir:" in printed
    assert "diaphragm: drives inhalation (in respiration)" in printed
    assert "rule compartment-capacity: must_not_exist" in printed


def test_inspect_prints_the_labels_a_world_holds():
    from semsim.console import inspect_path

    world = build_cardio()
    world.set_ambient("pressure", "high")
    world.objects["heart"].properties["Warmth"] = "high"  # as a model file's object may carry
    assert inspect_path(world, "ambient") == (
        "temperature=standard, pressure=high, humidity=standard, gravity=standard"
    )
    assert inspect_path(world, "cardio.blood-0") == (
        "portion blood-0 of blood at LeftAtrium location=LeftAtrium "
        "[O2Level=low, CO2Level=high, Warmth=low]"
    )
    assert inspect_path(world, "blood-0.CO2Level") == "high"
    assert inspect_path(world, "heart.Warmth") == "high"


def test_console_set_freeze_surfaces_guard_failure(tmp_path):
    inp = io.StringIO("set water.phase solid\nstep 1\nquit\n")
    out = io.StringIO()
    config = RunConfig(
        model="waterfall", portions=3, trace_path=str(tmp_path / "f.trace")
    )
    console_command(config, inp=inp, out=out)
    printed = out.getvalue()
    assert "water.phase = solid" in printed
    assert "water is fluid" in printed  # guard failure names the fluidity check


def test_console_bad_command_keeps_session_alive(tmp_path):
    inp = io.StringIO("dance\ninspect cardio.heart\nquit\n")
    out = io.StringIO()
    config = RunConfig(model="cardio", steps=1, trace_path=str(tmp_path / "b.trace"))
    assert console_command(config, inp=inp, out=out) == EXIT_OK
    printed = out.getvalue()
    assert "unknown command 'dance'" in printed
    assert "object heart of kind Heart" in printed


def test_console_neutral_session_matches_plain_run(tmp_path):
    plain = RunConfig(model="cardio", steps=30, seed=0, trace_path=str(tmp_path / "a.trace"))
    assert run_command(plain) == EXIT_OK

    inp = io.StringIO("pause\ninspect cardio.AlvCapBlood.O2Level\nresume\nquit\n")
    consoled = RunConfig(model="cardio", steps=30, seed=0, trace_path=str(tmp_path / "b.trace"))
    assert console_command(consoled, inp=inp, out=io.StringIO()) == EXIT_OK

    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()


def test_heart_stop_scenario_file_via_cli(tmp_path):
    scenario = tmp_path / "stop.json"
    scenario.write_text(
        json.dumps(
            {"name": "heart-stop", "overrides": [{"op": "disable_trigger", "target": "SANode"}]}
        ),
        encoding="utf-8",
    )
    result = run_cli(
        ["run", "--model", "cardio", "--steps", "100", "--trace", "hs.trace",
         "--scenario", str(scenario)],
        cwd=tmp_path,
    )
    assert result.returncode == EXIT_OK
    lines = (tmp_path / "hs.trace").read_text().splitlines()
    assert not any(l.startswith("pushed") for l in lines)
    assert lines.count("inhale cycle") >= 3


def test_semsim_seed_env_is_equivalent_to_flag(tmp_path):
    flagged = run_cli(
        ["run", "--model", "cardio", "--steps", "40", "--seed", "9",
         "--trace", "flag.trace"],
        cwd=tmp_path,
    )
    assert flagged.returncode == EXIT_OK
    env_run = subprocess.run(
        [sys.executable, "-m", "semsim", "run", "--model", "cardio", "--steps", "40",
         "--trace", "env.trace"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={**__import__("os").environ, "SEMSIM_SEED": "9"},
    )
    assert env_run.returncode == EXIT_OK
    assert (tmp_path / "flag.trace").read_bytes() == (tmp_path / "env.trace").read_bytes()


def test_console_unresolvable_path_keeps_session(tmp_path):
    inp = io.StringIO("inspect cardio.Nothing.x\ninspect cardio.heart.ghost\nquit\n")
    out = io.StringIO()
    config = RunConfig(model="cardio", steps=1, trace_path=str(tmp_path / "u.trace"))
    assert console_command(config, inp=inp, out=out) == EXIT_OK
    printed = out.getvalue()
    assert "error: cannot resolve 'Nothing'" in printed
    assert "error: object 'heart' has no state or property 'ghost'" in printed


def test_shipped_scenario_files_parse():
    from pathlib import Path

    from semsim.scenarios import load_scenario

    scenario_dir = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
    names = set()
    for path in sorted(scenario_dir.glob("*.json")):
        names.add(load_scenario(path).name)
    assert names == {"heart-stop", "freeze", "cut-phrenic"}


def test_console_scenario_midway(tmp_path):
    scenario = tmp_path / "stop.json"
    scenario.write_text(
        json.dumps(
            {"name": "heart-stop", "overrides": [{"op": "disable_trigger", "target": "SANode"}]}
        ),
        encoding="utf-8",
    )
    inp = io.StringIO(f"step 5\nscenario {scenario}\nresume\nquit\n")
    out = io.StringIO()
    config = RunConfig(model="cardio", steps=40, trace_path=str(tmp_path / "s.trace"))
    console_command(config, inp=inp, out=out)
    trace = (tmp_path / "s.trace").read_text().splitlines()
    pushes = [i for i, l in enumerate(trace) if l.startswith("pushed")]
    # pushes happen early, none after the scenario lands
    assert pushes and all_before_scenario(trace, pushes)


def all_before_scenario(trace, push_indexes):
    # after the 5 pre-scenario steps (2 heartbeats: ticks 0 and 4) no pushes
    last_push_line = max(push_indexes)
    heartbeat_lines = [i for i, l in enumerate(trace) if l == "SANode pulse"]
    return len(heartbeat_lines) == 2 and last_push_line < len(trace)


def test_negative_portions_exits_1_without_traceback(tmp_path):
    for command in ("run", "console"):
        result = run_cli(
            [command, "--model", "waterfall", "--portions", "-3"], cwd=tmp_path
        )
        assert result.returncode == EXIT_CONFIG
        assert "error: --portions must be >= 0" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("model", ["saved-waterfall", "cardio"])
def test_portions_for_any_model_but_the_builtin_waterfall_exits_1(tmp_path, monkeypatch,
                                                                  capsys, model):
    # Such a run would otherwise never end: the kernel is not even built.
    def no_kernel(world, config):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(cli, "make_kernel", no_kernel)
    if model == "saved-waterfall":
        model = str(tmp_path / "wf.json")
        save_model_file(build_waterfall(n_portions=3), model)
    trace = tmp_path / "run.trace"
    for command in ("run", "console"):
        code = main([command, "--model", model, "--portions", "3", "--trace", str(trace)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --portions applies to the builtin waterfall only\n"
        )
        assert not trace.exists()


# ----------------------------------------------------------------------
# malformed input: exit 1 with a message naming the place, never a traceback

_SAVED_CARDIO = save_model(build_cardio())


def _model_variants():
    """A saved cardio model with one section set to 5 (the clock, whose 5 is
    a tick, to -1), or a list section replaced by [5] or [{}]."""
    for section, value in _SAVED_CARDIO.items():
        yield section, -1 if section == "clock" else 5
        if isinstance(value, list):
            yield section, [5]
            yield section, [{}]


@pytest.mark.parametrize(
    "section,value", list(_model_variants()), ids=lambda v: json.dumps(v)
)
@pytest.mark.parametrize("command", ["validate-file", "run"])
def test_malformed_model_file_exits_1_naming_the_section(tmp_path, capsys, command, section, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(_SAVED_CARDIO, **{section: value})), encoding="utf-8")
    if command == "run":
        args = ["run", "--model", str(path), "--steps", "3", "--trace", str(tmp_path / "t")]
    else:
        args = ["validate-file", str(path)]
    assert main(args) == EXIT_CONFIG
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert message.startswith(("invalid: ", "error: "))
    assert section in message


@pytest.mark.parametrize(
    "overrides,expected",
    [
        ([{"op": "set_state", "target": "water"}], "overrides[0]: missing field 'variable'"),
        ([5], "overrides[0]: expected an object"),
        (5, "overrides: expected a list"),
        ([{"op": "disable_trigger", "target": ["Flow"]}], "overrides[0]: fields must be strings"),
        ([{"op": "fly"}], "overrides[0]: unknown op 'fly'"),
        ([{"op": "disable_trigger", "target": "Flow", "extra": 1}],
         "overrides[0]: disable_trigger takes no field 'extra'"),
        # Well formed, but the world refuses the write.
        ([{"op": "set_state", "target": "water", "variable": "phase", "label": "solid"},
          {"op": "set_state", "target": "water", "variable": "temperature", "label": "hot"}],
         "overrides[1]: substances only have a phase, not 'temperature'"),
        ([{"op": "set_state", "target": "pool", "variable": "depth", "label": "deep"}],
         "overrides[0]: variable 'depth' not declared for kind 'Place'"),
    ],
)
def test_malformed_scenario_exits_1_naming_the_override(tmp_path, capsys, overrides, expected):
    path = tmp_path / "bad-scenario.json"
    path.write_text(json.dumps({"name": "x", "overrides": overrides}), encoding="utf-8")
    args = ["run", "--model", "waterfall", "--portions", "2", "--scenario", str(path),
            "--trace", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"error: {expected}"


@pytest.mark.parametrize("command, text, expected", [
    ("validate-file", None, "invalid: cannot read {path}: [Errno 21] Is a directory: '{path}'"),
    ("run", None, "error: cannot read scenario {path}: [Errno 21] Is a directory: '{path}'"),
    ("run", "[]", "error: scenario file needs a top-level object with a name (a string)"),
], ids=["model-a-directory", "scenario-a-directory", "scenario-a-list"])
def test_an_unreadable_or_non_object_file_exits_1_naming_it(tmp_path, capsys, command, text, expected):
    path = tmp_path / "given"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text, encoding="utf-8")
    args = ["validate-file", str(path)] if command == "validate-file" else [
        "run", "--model", "cardio", "--steps", "1", "--scenario", str(path),
        "--trace", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == expected.format(path=path)


def test_a_scenario_with_an_unknown_top_level_key_exits_1_naming_it(tmp_path, capsys):
    # A misspelled "overrides" once ran the model as if no scenario were given.
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(
        {"name": "x", "override": [{"op": "disable_trigger", "target": "SANode"}]}
    ), encoding="utf-8")
    trace = tmp_path / "t"
    args = ["run", "--model", "cardio", "--steps", "3", "--scenario", str(path),
            "--trace", str(trace)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "error: scenario file has no key 'override' (only name and overrides)\n"
    )
    assert not trace.exists()


def test_bad_vocabulary_pattern_is_a_schema_error(tmp_path, capsys):
    data = save_model(build_waterfall(n_portions=2))
    data["vocabulary"]["patterns"] = ["("]
    path = tmp_path / "bad-pattern.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate-file", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("invalid: vocabulary: malformed entry: missing )")


def test_malformed_model_file_subprocess_has_no_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(_SAVED_CARDIO, systems=[{}])), encoding="utf-8")
    for args in (["validate-file", str(path)], ["run", "--model", str(path), "--steps", "3"]):
        result = run_cli(args, cwd=tmp_path)
        assert result.returncode == EXIT_CONFIG
        assert "Traceback" not in result.stderr
        assert "systems[0]: missing field 'name'" in result.stderr


def test_broken_placement_exits_1_without_traceback(tmp_path, placement_breach):
    data, message = placement_breach
    path = tmp_path / "bad-placement.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli(["validate-file", str(path)], cwd=tmp_path)
    assert result.returncode == EXIT_CONFIG
    assert "Traceback" not in result.stderr
    assert result.stderr.strip() == f"invalid: {message}"


@pytest.mark.parametrize(
    "param, value, diagnosis",
    [
        ("upper_bed_length", 2.5, "bed length and drop must be positive ints, not 2.5"),
        ("upper_delta", [1], "a per-unit delta must be a pair of ints, not (1,)"),
        ("upper_delta", [0.1, -1], "a per-unit delta must be a pair of ints, not (0.1, -1)"),
        ("n_portions", "3", "n_portions must be an int >= 0, not '3'"),
    ],
)
def test_malformed_water_flowing_params_fail_at_load(tmp_path, capsys, param, value, diagnosis):
    data = saved_water_flowing()
    assert data["mechanisms"][0]["builtin"] == "water_flowing"
    data["mechanisms"][0]["params"][param] = value
    path = tmp_path / "bad-flow.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    message = f"mechanisms[0]: malformed entry: {diagnosis}"
    assert main(["validate-file", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"invalid: {message}"
    args = ["run", "--model", str(path), "--steps", "2", "--trace", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"error: {message}"


def assert_refused_at_load(tmp_path, capsys, data, message):
    """validate-file and run both refuse the model file with this message."""
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate-file", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"invalid: {message}"
    args = ["run", "--model", str(path), "--steps", "2", "--trace", str(tmp_path / "t")]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("capacity", [True, 2.5, "2"], ids=repr)
def test_a_capacity_that_is_no_int_is_refused_at_load(tmp_path, capsys, capacity):
    # It once loaded and ran, and validate-file printed ok: for it.
    data = save_model(build_cardio())
    data["compartments"][2]["capacity"] = capacity
    assert_refused_at_load(
        tmp_path, capsys, data,
        f"compartments[2]: capacity must be an int >= 1, or None for unbounded, not {capacity!r}",
    )


def test_a_path_flow_whose_goal_is_no_place_is_refused_at_load(tmp_path, capsys):
    data = save_model(build_waterfall(n_portions=2))
    data["bindings"][0]["elements"]["Goal"] = {"type": "config", "value": {"lake": 1}}
    assert_refused_at_load(
        tmp_path, capsys, data, "mechanisms[0]: a path flow's Goal must name a place, not {'lake': 1}"
    )


def _drop_water_portion_kind(data):
    data["kinds"] = [k for k in data["kinds"] if k["name"] != "WaterPortion"]


def _drop_location_space(data):
    data["kinds"][0]["state_spaces"] = []


@pytest.mark.parametrize(
    "breach, diagnosis",
    [
        (
            lambda data: data["mechanisms"][0]["params"].update(labels=["upper", "drop", "lake"]),
            "label 'lake' is outside the 'Location' space ['null', 'upper', 'drop', 'pool']",
        ),
        (_drop_water_portion_kind, "no kind 'WaterPortion'"),
        (_drop_location_space, "kind 'WaterPortion' has no 'Location' space"),
    ],
    ids=["unknown-label", "no-kind", "no-location-space"],
)
def test_water_flowing_labels_are_checked_at_load(tmp_path, capsys, breach, diagnosis):
    data = saved_water_flowing()
    assert data["kinds"][0]["name"] == "WaterPortion"
    breach(data)
    assert_refused_at_load(tmp_path, capsys, data, f"mechanisms[0]: {diagnosis}")


def _source_and_goal_only(data):
    # The hop form: Source and Goal are connected compartments, and Path
    # names a compartment, neither a PathSpec nor a circuit.
    elements = data["bindings"][0]["elements"]
    elements["Goal"] = {"type": "ref", "id": "LeftVentricle"}
    elements["Path"] = {"type": "ref", "id": "LeftAtrium"}


def _pulse_not_a_line(data):
    data["bindings"][0]["elements"]["Configuration"]["value"]["pulse"] = 3


def _heartbeat_builtin_over_no_circuit(data):
    # The version-1 file, whose heartbeat had a builtin of its own.
    data.update(saved_heartbeat_push(circuit="nowhere"))


@pytest.mark.parametrize(
    "breach, message",
    [
        (_source_and_goal_only,
         "binding satisfies neither path mode: need a PathSpec or a declared circuit"),
        (_pulse_not_a_line, "a circuit flow's pulse must be a trace line, not 3"),
        (_heartbeat_builtin_over_no_circuit,
         "no circuit 'nowhere' with compartments for the heartbeat"),
    ],
    ids=["source-and-goal-only", "pulse-not-a-line", "heartbeat-builtin-over-no-circuit"],
)
def test_a_heartbeat_no_flow_fits_is_refused_without_traceback(tmp_path, breach, message):
    data = save_model(build_cardio())
    assert data["mechanisms"][0] == {
        "name": "HeartbeatPush", "builtin": "fluidic_motion",
        "params": {"binding": 0, "n_portions": None, "portion_kind": None},
    }
    breach(data)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli(["validate-file", str(path)], cwd=tmp_path)
    assert result.returncode == EXIT_CONFIG
    assert result.stderr == f"invalid: mechanisms[0]: {message}\n"


@pytest.mark.parametrize(
    "param, value, diagnosis",
    [
        ("n_portions", "3", "malformed entry: n_portions must be an int >= 0, not '3'"),
        ("n_portions", -1, "malformed entry: n_portions must be an int >= 0, not -1"),
        ("binding", -1, "binding index -1 out of range"),
        ("binding", 1, "binding index 1 out of range"),
        ("binding", True, "binding index True out of range"),
        ("binding", "0", "binding index '0' out of range"),
    ],
)
def test_malformed_fluidic_motion_params_fail_at_load(tmp_path, capsys, param, value, diagnosis):
    data = save_model(build_waterfall(n_portions=2))
    assert data["mechanisms"][0]["builtin"] == "fluidic_motion"
    assert len(data["bindings"]) == 1
    data["mechanisms"][0]["params"][param] = value
    assert_refused_at_load(tmp_path, capsys, data, f"mechanisms[0]: {diagnosis}")


def _frames_path_breach(field, value):
    def breach(data):
        data["bindings"][0]["elements"]["Path"]["segments"][0][field] = value
    return breach


def _frames_goal_breach(data):
    data["bindings"][0]["elements"]["Goal"]["id"] = "lake"


_LAKE = "label 'lake' is outside the 'Location' space ['null', 'upper', 'drop', 'pool']"


@pytest.mark.parametrize(
    "breach, message",
    [
        (_frames_path_breach("length", 2.5),
         "bindings[0]: malformed entry: a segment length must be a positive int, not 2.5"),
        (_frames_path_breach("length", True),
         "bindings[0]: malformed entry: a segment length must be a positive int, not True"),
        (_frames_path_breach("slope", [0.5, 1]),
         "bindings[0]: malformed entry: a slope must be a pair of ints, not (0.5, 1)"),
        (_frames_path_breach("label", "lake"), f"mechanisms[0]: {_LAKE}"),
        (_frames_goal_breach, f"mechanisms[0]: {_LAKE}"),
        (lambda data: data["mechanisms"][0]["params"].update(portion_kind="Place"),
         "mechanisms[0]: kind 'Place' is not a portion of 'water'"),
    ],
    ids=["float-length", "bool-length", "float-slope", "segment-label", "goal-label",
         "kind-of-another-substance"],
)
def test_malformed_fluidic_motion_path_fails_at_load(tmp_path, capsys, breach, message):
    data = save_model(build_waterfall(n_portions=2))
    breach(data)
    assert_refused_at_load(tmp_path, capsys, data, message)


def _mechanism(data, name):
    (entry,) = [m for m in data["mechanisms"] if m["name"] == name]
    return entry


def _rebuilt(name, template, **params):
    """The saved cardio's entry called name, replaced by its template's data
    form for these params: a version-2 param edit, made on version 3."""
    def edit(data):
        data["mechanisms"][data["mechanisms"].index(_mechanism(data, name))] = template(**params)
    return edit


def _inhale_params(**params):
    return lambda data: _mechanism(data, "InhaleCycle")["params"].update(params)


def _fire_members_as_one_list(data):
    effects = _mechanism(data, "DiffusionCheck")["effects"]
    effects[1:] = [["fire", [member for _, member in effects[1:]]]]


def _drop_literal(data):
    data["vocabulary"]["literals"].remove("diffusion check")


def _trigger(index, **fields):
    return lambda data: data["triggers"][index].update(fields)


def _mix_called_5(data):
    # Renamed everywhere, it loaded, and the console's step report then
    # failed to join the fired mechanisms' names.
    _mechanism(data, "MixExternalAir")["name"] = 5
    for trigger in data["triggers"]:
        if trigger["target"] == "MixExternalAir":
            trigger["target"] = 5
    for system in data["systems"]:
        system["members"] = [5 if m == "MixExternalAir" else m for m in system["members"]]


def _second_heart(data):
    data["objects"].append(dict(data["objects"][0], kind="Lungs"))


def _portion_called_heart(data):
    data["portions"].append(dict(data["portions"][0], id="heart", alive=False, compartment=None))


# One-field edits of the saved cardio, each of which the version-2 loader
# accepted and `semsim run` then faulted on or ran as another model, and the
# loader's diagnosis of each.
LOAD_CHECKS = {
    "members-unknown": (
        _rebuilt("DiffusionCheck", diffusion_check, members=["Nope"]),
        "mechanisms[3]: no mechanism to fire 'Nope'",
    ),
    "members-one-list": (
        _fire_members_as_one_list,
        "mechanisms[3]: effects: ['fire', ['GasExchangeAlv', 'CellRespiration']] "
        "is not a list of strings",
    ),
    "reservoir-an-object": (
        _rebuilt("MixExternalAir", mix_external_air, reservoir="heart"),
        "mechanisms[6]: no compartment 'heart'",
    ),
    "diaphragm-a-compartment": (
        _inhale_params(diaphragm="Diaphragm"), "mechanisms[5]: no object 'Diaphragm'",
    ),
    "diaphragm-the-heart": (
        _inhale_params(diaphragm="heart"),
        "mechanisms[5]: no Heart state 'tension'",
    ),
    "nerve-to-an-object": (
        _rebuilt("MedullaSense", medulla_sense, nerve_to="lungs"),
        "mechanisms[4]: no compartment 'lungs'",
    ),
    "respiration-in-the-nose": (
        _rebuilt("CellRespiration", cell_respiration, blood_at="NoseAir"),
        "mechanisms[2]: line 'NoseAirBlood O2 diffusion' is not in the declared vocabulary "
        "of 'cardio'",
    ),
    "literal-dropped": (
        _drop_literal,
        "mechanisms[3]: line 'diffusion check' is not in the declared vocabulary of 'cardio'",
    ),
    "breath-listens-on-the-medulla": (
        _inhale_params(on_signal="Medulla"),
        "mechanisms[4]: signal to 'Diaphragm' has no receiving mechanism",
    ),
    "trigger-phase-a-string": (
        _trigger(0, phase="x"),
        "triggers[0]: trigger 'SANode' needs int period >= 1 and phase >= 0, not 4, 'x'",
    ),
    "trigger-period-a-string": (
        _trigger(0, period="4"),
        "triggers[0]: trigger 'SANode' needs int period >= 1 and phase >= 0, not '4', 0",
    ),
    "trigger-enabled-a-string": (
        _trigger(0, enabled="no"),
        "triggers[0]: trigger 'SANode' needs enabled true or false, not 'no'",
    ),
    "literals-a-string": (
        lambda data: data["vocabulary"].update(literals="abc"),
        "vocabulary: literals and patterns must be lists of strings",
    ),
    "counter-a-bool": (
        lambda data: data["counters"].update(blood=True),
        "counters: counter 'blood' must be a non-negative integer",
    ),
    "name-a-number": (_mix_called_5, "mechanisms[6]: a mechanism's name must be a string, not 5"),
    "second-heart": (_second_heart, "objects[9]: duplicate object id 'heart'"),
    "portion-called-heart": (_portion_called_heart, "portions[10]: duplicate portion id 'heart'"),
    # Both loaded; the first heartbeat then faulted with PushWithoutConnection
    # (the circuit dead-ends at 'Nowhere') or DuplicateMover.
    "circuit-through-nowhere": (
        lambda data: data["circuits"][0]["order"].append("Nowhere"),
        "circuits[0]: no compartment 'Nowhere'",
    ),
    "circuit-order-repeated": (
        lambda data: data["circuits"][0]["order"].append("LeftAtrium"),
        "circuits[0]: circuit 'cardio' lists ['LeftAtrium'] more than once",
    ),
    "pattern-unbalanced": (
        lambda data: data["vocabulary"]["patterns"].append("(\\d+"),
        "vocabulary: malformed entry: missing ), unterminated subpattern at position 0",
    ),
}

# The same kind of edit made to the params of a version-2 file, which the
# upgrade turns into data before the loader checks it.
VERSION_2_LOAD_CHECKS = {
    "members-unknown": (
        ("DiffusionCheck", {"members": ["Nope"]}),
        "mechanisms[3]: no mechanism to fire 'Nope'",
    ),
    "members-a-string": (
        ("DiffusionCheck", {"members": "GasExchangeAlv"}),
        "mechanisms[3]: members must be a list of mechanism names, not 'GasExchangeAlv'",
    ),
    "reservoir-an-object": (
        ("MixExternalAir", {"reservoir": "heart"}), "mechanisms[6]: no compartment 'heart'",
    ),
    "respiration-in-the-nose": (
        ("CellRespiration", {"blood_at": "NoseAir"}),
        "mechanisms[2]: line 'NoseAirBlood O2 diffusion' is not in the declared vocabulary "
        "of 'cardio'",
    ),
    "diaphragm-a-compartment": (
        ("InhaleCycle", {"diaphragm": "Diaphragm"}), "mechanisms[5]: no object 'Diaphragm'",
    ),
}


def _load_check_cases():
    for case, (edit, message) in LOAD_CHECKS.items():
        data = json.loads(json.dumps(_SAVED_CARDIO))
        edit(data)
        yield pytest.param(data, message, id=f"version-3-{case}")
    for case, ((name, params), message) in VERSION_2_LOAD_CHECKS.items():
        yield pytest.param(saved_cardio_version_2(name, **params), message, id=f"version-2-{case}")


@pytest.mark.parametrize("data, message", _load_check_cases())
def test_a_file_that_would_fault_on_its_own_data_is_refused_at_load(tmp_path, capsys, data, message):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command, prefix in (["validate-file", str(path)], "invalid"), (
        ["run", "--model", str(path), "--steps", "30", "--trace", str(tmp_path / "t")], "error"
    ):
        assert main(command) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{prefix}: {message}\n")


def test_a_refused_file_prints_no_traceback(tmp_path):
    data = saved_cardio_version_2("DiffusionCheck", members=["Nope"])
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for args in (["validate-file", str(path)], ["run", "--model", str(path), "--steps", "3"]):
        result = run_cli(args, cwd=tmp_path)
        assert result.returncode == EXIT_CONFIG
        assert "Traceback" not in result.stderr
        assert result.stderr.endswith(": mechanisms[3]: no mechanism to fire 'Nope'\n")


_SAVED_WATERFALL = save_model(build_waterfall(n_portions=3))


def _entry_with(model, section, index, field, value):
    data = json.loads(json.dumps(model))
    data[section][index][field] = value
    return data


_DIAPHRAGM = [o["id"] for o in _SAVED_CARDIO["objects"]].index("diaphragm")

# Object parts, states and alive flags the loader took unchecked: each
# loaded, and `semsim run` then raised at step 0, ran a portion marked "no"
# as live, or overwrote an off-space tension and kept an undeclared state.
PART_AND_ALIVE_CHECKS = {
    "part-without-an-id": (
        _entry_with(_SAVED_WATERFALL, "objects", 1, "parts", [["r"]]),
        "objects[1]: parts must be [role, id] pairs of strings, not [['r']]",
    ),
    "part-of-numbers": (
        _entry_with(_SAVED_WATERFALL, "objects", 1, "parts", [[1, 2]]),
        "objects[1]: parts must be [role, id] pairs of strings, not [[1, 2]]",
    ),
    "part-a-string": (
        _entry_with(_SAVED_WATERFALL, "objects", 1, "parts", ["ab"]),
        "objects[1]: parts must be [role, id] pairs of strings, not ['ab']",
    ),
    "parts-an-object": (
        _entry_with(_SAVED_WATERFALL, "objects", 1, "parts", {"r": "bedInlet"}),
        "objects[1]: parts must be [role, id] pairs of strings, not {'r': 'bedInlet'}",
    ),
    "part-naming-nothing": (
        _entry_with(_SAVED_WATERFALL, "objects", 1, "parts", [["r", "nonexistent"]]),
        "objects[1]: part 'nonexistent' is no object or portion",
    ),
    "portion-alive-a-string": (
        _entry_with(_SAVED_CARDIO, "portions", 0, "alive", "no"),
        "portions[0]: alive must be true or false, not 'no'",
    ),
    "object-alive-a-number": (
        _entry_with(_SAVED_CARDIO, "objects", 0, "alive", 1),
        "objects[0]: alive must be true or false, not 1",
    ),
    "state-off-its-space": (
        _entry_with(_SAVED_CARDIO, "objects", _DIAPHRAGM, "states",
                    {"tension": "bogus", "nonsense": "x"}),
        f"objects[{_DIAPHRAGM}]: label 'bogus' is outside the 'tension' space "
        "['relaxed', 'contracted']",
    ),
    "state-its-kind-lacks": (
        _entry_with(_SAVED_CARDIO, "objects", _DIAPHRAGM, "states", {"nonsense": "x"}),
        f"objects[{_DIAPHRAGM}]: variable 'nonsense' not declared for kind 'DiaphragmOrgan'",
    ),
}


@pytest.mark.parametrize(
    "data, message", list(PART_AND_ALIVE_CHECKS.values()), ids=list(PART_AND_ALIVE_CHECKS)
)
@pytest.mark.parametrize("command", ["validate-file", "run"])
def test_malformed_parts_and_alive_flags_are_refused_at_load(
    tmp_path, capsys, command, data, message
):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    trace = tmp_path / "t"
    if command == "run":
        args, prefix = ["run", "--model", str(path), "--steps", "3", "--trace", str(trace)], "error"
    else:
        args, prefix = ["validate-file", str(path)], "invalid"
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"{prefix}: {message}\n")
    assert not trace.exists()  # refused before any step


def test_a_whole_may_list_a_part_that_comes_later_or_is_a_portion(tmp_path):
    heart = _SAVED_CARDIO["objects"][0]
    assert heart["id"] == "heart"  # its chambers come after it in the file
    parts = [*heart["parts"], ["blood", "blood-0"]]
    data = _entry_with(_SAVED_CARDIO, "objects", 0, "parts", parts)
    path = tmp_path / "wholes.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate-file", str(path)]) == EXIT_OK


def _world_that_faults_at_tick_2():
    world = World("faulty")
    world.vocabulary = Vocabulary(literals=frozenset({"melting"}))
    world.define_substance("water", phase="solid")

    def melt(kernel):
        kernel.emit_trace("melting")
        kernel.world.set_state("water", "phase", "plasma")  # not a phase: StateError

    register_mechanism(world, Mechanism("Melt", guard=(), effect=melt))
    register_trigger(world, Trigger("Sun", period=100, target="Melt", phase=2))
    return world


def test_a_fault_inside_a_step_exits_1_and_keeps_the_steps_before_it(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "resolve_model", lambda config: _world_that_faults_at_tick_2())
    trace = tmp_path / "faulty.trace"
    config = RunConfig(model="faulty", steps=5, trace_path=str(trace))
    assert run_command(config) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "error: label 'plasma' is outside the 'phase' space ['solid', 'liquid', 'gas']"
    )
    # The failed step never finished, so neither its report nor the trace
    # event it emitted before the fault is written.
    assert trace.read_text() == ""
    report = json.loads((tmp_path / "faulty.trace.report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert report["steps_executed"] == 2
    assert [r["step"] for r in report["reports"]] == [0, 1]


def _step_interrupted_at_tick_2(untimed_step):
    def step(kernel):
        if kernel.tick == 2:
            raise KeyboardInterrupt
        return untimed_step(kernel)
    return step


@pytest.mark.parametrize("model", ["cardio", "faulty", "interrupted"])
def test_a_run_steps_with_the_collector_off_and_restores_it(tmp_path, monkeypatch, model):
    if model == "faulty":
        monkeypatch.setattr(cli, "resolve_model", lambda config: _world_that_faults_at_tick_2())
    collecting_during = []
    untimed_step = cli.Kernel.step
    if model == "interrupted":
        untimed_step = _step_interrupted_at_tick_2(untimed_step)

    def step(kernel):
        collecting_during.append(gc.isenabled())
        return untimed_step(kernel)

    monkeypatch.setattr(cli.Kernel, "step", step)
    assert gc.isenabled() and gc.get_freeze_count() == 0
    config = RunConfig(model="cardio" if model == "interrupted" else model, steps=5,
                       trace_path=str(tmp_path / "r.trace"))
    run_command(config)
    assert collecting_during and not any(collecting_during)
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.mark.parametrize("model", ["cardio", "faulty"])
def test_a_run_keeps_a_collector_its_caller_disabled(tmp_path, monkeypatch, model):
    if model == "faulty":
        monkeypatch.setattr(cli, "resolve_model", lambda config: _world_that_faults_at_tick_2())
    gc.disable()
    try:
        run_command(RunConfig(model=model, steps=5, trace_path=str(tmp_path / "r.trace")))
        assert not gc.isenabled()
        assert gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_a_run_leaves_its_history_in_the_oldest_generation(tmp_path, monkeypatch):
    # Left young, the history would be rescanned by the first collection
    # after the run, which then costs as much as the history is long.
    kernels = []
    untimed_step = cli.Kernel.step

    def step(kernel):
        kernels.append(kernel)
        return untimed_step(kernel)

    monkeypatch.setattr(cli.Kernel, "step", step)
    run_command(RunConfig(model="cardio", steps=50, trace_path=str(tmp_path / "r.trace")))
    young = gc.get_objects(generation=0) + gc.get_objects(generation=1)
    assert len(kernels[0].reports) == 50
    assert not any(isinstance(o, StepReport) for o in young)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
# The model each shipped scenario (test_shipped_scenario_files_parse) loads on.
SCENARIO_MODELS = {"cut_phrenic": "cardio", "heart_stop": "cardio", "freeze": "waterfall"}
GARBAGE_FREE_RUNS = {
    **{
        f"cardio-{policy}-{mode}": (RunConfig(
            model="cardio", steps=400, seed=5, mode=mode, validate_policy=policy
        ), None)
        for policy in ("halt", "warn", "off") for mode in ("deterministic", "concurrent")
    },
    "waterfall": (RunConfig(model="waterfall", portions=200), None),
    **{
        f"scenario-{name}": (RunConfig(
            model=model, steps=200, portions=200 if model == "waterfall" else None,
            validate_policy="warn",
            scenario_path=str(SCENARIO_DIR / f"{name}.json"),
        ), None)
        for name, model in SCENARIO_MODELS.items()
    },
    "faulty": (RunConfig(model="faulty", steps=5), _world_that_faults_at_tick_2),
}


@pytest.mark.parametrize("name", sorted(GARBAGE_FREE_RUNS))
def test_a_run_makes_no_cyclic_garbage(monkeypatch, name):
    # The premise of `run_command` stepping with the collector off: what a
    # run allocates is freed by reference counting or stays reachable.
    config, build = GARBAGE_FREE_RUNS[name]
    if build is not None:
        monkeypatch.setattr(cli, "resolve_model", lambda config: build())
    kernel = prepare(config)
    gc.collect()
    gc.disable()
    try:
        try:
            kernel.run(planned_steps(config))
        except Exception:
            assert name == "faulty" and kernel.fault is not None
        assert kernel.reports
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cyclic_garbage_after(config) -> int:
    """The objects a collection finds once run_command, stepped with the
    collector off, has returned and dropped its kernel."""
    gc.collect()
    gc.disable()
    try:
        run_command(config)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("model, policy", [
    ("cardio", "halt"), ("cardio", "off"), ("waterfall", "halt"),
])
def test_a_finished_runs_history_is_freed_by_reference_counting(tmp_path, model, policy):
    # test_a_run_makes_no_cyclic_garbage collects while the kernel is alive,
    # so a cycle through the kernel itself passes there; here the whole
    # history must go when run_command drops the kernel, and so must the
    # model's build: a state space holds its values weakly, so it makes no cycle.
    def config(steps):
        return RunConfig(model=model, steps=steps, validate_policy=policy,
                         trace_path=str(tmp_path / f"{steps}.trace"))

    assert _cyclic_garbage_after(config(200)) == _cyclic_garbage_after(config(0)) == 0


def test_a_run_keeps_a_freeze_its_caller_made(tmp_path):
    gc.freeze()
    try:
        frozen_before = gc.get_freeze_count()
        run_command(RunConfig(model="cardio", steps=5, trace_path=str(tmp_path / "r.trace")))
        assert gc.get_freeze_count() == frozen_before > 0
    finally:
        gc.unfreeze()
    assert gc.get_freeze_count() == 0


def test_the_console_takes_no_step_after_a_step_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "resolve_model", lambda config: _world_that_faults_at_tick_2())
    trace = tmp_path / "faulty.trace"
    config = RunConfig(model="faulty", steps=10, trace_path=str(trace))
    out = io.StringIO()
    inp = io.StringIO("step 3\nstep\nstep\nresume\ninspect water.phase\nquit\n")
    assert console_command(config, inp=inp, out=out) == EXIT_CONFIG
    fault = "label 'plasma' is outside the 'phase' space ['solid', 'liquid', 'gas']"
    lines = out.getvalue().splitlines()
    assert lines[1:] == [
        "step 0: fired=- violations=0",
        "step 1: fired=- violations=0",
        f"error: {fault}",
        f"stopped: step 2 raised: {fault}",
        f"stopped: step 2 raised: {fault}",
        f"stopped: step 2 raised: {fault}",
        "solid",
    ]
    assert trace.read_text() == ""
    report = json.loads((tmp_path / "faulty.trace.report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert [r["step"] for r in report["reports"]] == [0, 1]


@pytest.mark.parametrize("command", ["run", "console"])
def test_a_bug_inside_a_step_exits_1_with_one_error_line(tmp_path, command):
    data = json.loads(json.dumps(_SAVED_CARDIO))
    # A blood portion strays into the air reservoir behind its air. No breath
    # moves either (the medulla is off), so the first mix, at step 4, merges
    # air with blood and raises. The loader checks data, not where a
    # portion of a substance may be.
    (blood,) = [p for p in data["portions"] if p["id"] == "blood-0"]
    data["portions"].append(dict(blood, id="stray", compartment="ExternalAir"))
    (reservoir,) = [c for c in data["compartments"] if c["name"] == "ExternalAir"]
    reservoir["contents"].append("stray")
    triggers = {t["name"]: t for t in data["triggers"]}
    triggers["ExternalMix"]["phase"] = 4
    triggers["Medulla"]["enabled"] = False
    path = tmp_path / "stray-blood.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    args = [command, "--model", str(path), "--steps", "10", "--trace", "t.trace"]
    result = run_cli(args, cwd=tmp_path, input="step 10\nstep\nquit\n")
    assert result.returncode == EXIT_CONFIG
    output = result.stdout + result.stderr
    assert "Traceback" not in output
    errors = [line for line in output.splitlines() if line.startswith("error:")]
    assert errors == ["error: cannot merge portions of different substances"]
    report = json.loads((tmp_path / "t.trace.report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert report["steps_executed"] == 4
    assert [r["step"] for r in report["reports"]] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "pid, missing", [("blood-5", "['O2Level', 'CO2Level', 'Warmth']"),
                     ("air-alv", "['O2Level', 'CO2Level']")],
)
def test_a_portion_without_its_substance_properties_is_refused_at_load(
    tmp_path, capsys, pid, missing
):
    data = json.loads(json.dumps(_SAVED_CARDIO))
    (index,) = [i for i, p in enumerate(data["portions"]) if p["id"] == pid]
    data["portions"][index]["properties"] = {}
    message = f"portions[{index}]: portion {pid!r} lacks its substance's properties {missing}"
    assert_refused_at_load(tmp_path, capsys, data, message)


def _world_interrupted_at_tick_2(ticks):
    """Each firing records its tick; the first firing at tick 2 is interrupted."""
    world = World("interrupted")
    world.vocabulary = Vocabulary(literals=frozenset({"tock"}))

    def tock(kernel):
        ticks.append(kernel.tick)
        kernel.emit_trace("tock")
        if ticks.count(2) == 1 and kernel.tick == 2:
            raise KeyboardInterrupt

    register_mechanism(world, Mechanism("Tock", guard=(), effect=tock))
    register_trigger(world, Trigger("Clock", period=1, target="Tock"))
    return world


@pytest.mark.parametrize("commands", ["resume\nstep\nstep 2\nresume\n", "step 4\nstep\n"])
def test_an_interrupted_console_step_ends_stepping(tmp_path, monkeypatch, commands):
    ticks = []
    monkeypatch.setattr(cli, "resolve_model", lambda config: _world_interrupted_at_tick_2(ticks))
    trace = tmp_path / "interrupted.trace"
    config = RunConfig(model="interrupted", steps=10, trace_path=str(trace))
    out = io.StringIO()
    assert console_command(config, inp=io.StringIO(commands), out=out) == EXIT_OK
    assert ticks == [0, 1, 2]
    lines = out.getvalue().splitlines()
    assert "interrupted at step 2" in lines
    after = lines[lines.index("interrupted at step 2") + 1:]
    assert after and set(after) == {"stopped: step 2 was interrupted"}
    assert trace.read_text() == "tock\ntock\n"
    report = json.loads((tmp_path / "interrupted.trace.report.json").read_text())
    assert report["exit_code"] == EXIT_OK
    assert [r["step"] for r in report["reports"]] == [0, 1]


def test_ctrl_c_at_the_console_prompt_ends_the_session_as_quit_does(tmp_path):
    def typed():
        yield "step 2\n"
        raise KeyboardInterrupt

    config = RunConfig(model="cardio", steps=10, trace_path=str(tmp_path / "c.trace"))
    assert console_command(config, inp=typed(), out=io.StringIO()) == EXIT_OK
    report = json.loads((tmp_path / "c.trace.report.json").read_text())
    assert [r["step"] for r in report["reports"]] == [0, 1]


@pytest.mark.parametrize("steps", [5, None])
def test_an_interrupted_run_exits_0_with_the_finished_steps(tmp_path, monkeypatch, steps):
    ticks = []
    monkeypatch.setattr(cli, "resolve_model", lambda config: _world_interrupted_at_tick_2(ticks))
    trace = tmp_path / "interrupted.trace"
    config = RunConfig(model="interrupted", steps=steps, trace_path=str(trace))
    assert run_command(config) == EXIT_OK
    assert ticks == [0, 1, 2]
    assert trace.read_text() == "tock\ntock\n"
    report = json.loads((tmp_path / "interrupted.trace.report.json").read_text())
    assert report["exit_code"] == EXIT_OK
    assert [r["step"] for r in report["reports"]] == [0, 1]


def test_a_malformed_seed_variable_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEMSIM_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--model", "cardio", "--steps", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: SEMSIM_SEED must be an integer, not 'abc'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "console"])
@pytest.mark.parametrize("where", ["missing/c.trace", "."])
def test_an_unwritable_trace_path_exits_1_before_any_step(
    tmp_path, capsys, monkeypatch, command, where
):
    monkeypatch.setattr(cli, "resolve_model", lambda config: pytest.fail("model built"))
    monkeypatch.chdir(tmp_path)
    argv = [command, "--model", "cardio", "--steps", "3", "--trace", where]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --trace {where!r} is not a file in an existing directory\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_concurrent_runs_with_one_seed_write_identical_traces(tmp_path):
    traces = []
    for attempt in range(2):
        config = RunConfig(
            model="cardio", steps=200, seed=11, mode="concurrent",
            trace_path=str(tmp_path / f"concurrent-{attempt}.trace"),
        )
        assert run_command(config) == EXIT_OK
        traces.append((tmp_path / f"concurrent-{attempt}.trace").read_bytes())
    assert traces[0] == traces[1]
