import hashlib
import json

import pytest

from pathlib import Path

from semsim import Kernel, Mechanism, Trigger
from semsim.cli import EXIT_CONFIG, main, standard_rules
from semsim.engine import register_mechanism, register_trigger
from semsim.errors import ModelError, SchemaError, StateError
from semsim.frames import bind, fluidic_motion
from semsim.mechanisms import build_mechanism
from semsim.modelfile import (
    load_model,
    load_model_file,
    medulla_sense,
    save_model,
    save_model_file,
    upgrade,
)
from semsim.models import build_builtin, build_cardio, build_waterfall
from semsim.scenarios import Scenario, apply_scenario, load_scenario, scenario_from_dict
from semsim.validation import Snapshot, Triple, derive_triples

from saved_forms import (
    CARDIO_FILE,
    WATER_FLOWING_FILE,
    WATERFALL_FILE,
    saved_cardio_version_2,
    saved_heartbeat_push,
    saved_water_flowing,
)


def test_cardio_roundtrip_triples_equal():
    original = build_cardio()
    reloaded = load_model(save_model(original))
    assert derive_triples(original) == derive_triples(reloaded)


def test_waterfall_roundtrip_triples_equal():
    original = build_waterfall(n_portions=4)
    reloaded = load_model(save_model(original))
    assert derive_triples(original) == derive_triples(reloaded)


def test_frames_waterfall_roundtrip():
    original = build_waterfall(n_portions=2)
    reloaded = load_model(save_model(original))
    assert derive_triples(original) == derive_triples(reloaded)
    assert reloaded.mechanisms["WaterFlowing"].spec["params"]["binding"] == 0


def test_a_file_saved_while_the_waterfall_was_built_by_hand_runs_as_before():
    data = json.loads(WATER_FLOWING_FILE.read_text(encoding="utf-8"))
    assert data["version"] == 1
    assert [m["builtin"] for m in data["mechanisms"]] == ["water_flowing"]
    assert data["bindings"] == [] and data["objects"] == []
    worlds = [load_model_file(WATER_FLOWING_FILE), build_waterfall(n_portions=2)]
    # It saves as version 3: the form the builder saves, not its own.
    assert json.dumps(save_model(worlds[0])) == json.dumps(save_model(worlds[1]))

    traces = []
    for world in worlds:
        kernel = Kernel(world)
        standard_rules(kernel)
        kernel.run(3)
        assert not kernel.halted
        traces.append(kernel.trace_lines())
    assert traces[0] == traces[1] == ["0 pool", "1 pool"]
    assert json.dumps(save_model(worlds[0])) == json.dumps(save_model(worlds[1]))


def test_the_waterfall_saves_its_binding_and_the_flow_built_from_it():
    data = save_model(build_waterfall(n_portions=2))
    assert [k["name"] for k in data["kinds"]] == ["WaterPortion", "Place"]
    assert [(o["kind"], o["id"]) for o in data["objects"]] == [
        ("Place", "bedInlet"), ("Place", "pool"),
    ]
    (binding,) = data["bindings"]
    assert binding["frame"] == "Fluidic_Motion"
    assert data["mechanisms"] == [{
        "name": "WaterFlowing", "builtin": "fluidic_motion",
        "params": {"binding": 0, "n_portions": 2, "portion_kind": "WaterPortion"},
    }]
    assert load_model(data).mechanisms["WaterFlowing"].spec["params"]["binding"] == 0


def test_reloaded_cardio_runs_like_the_original():
    k1 = Kernel(build_cardio())
    standard_rules(k1)
    k1.run(40)

    k2 = Kernel(load_model(save_model(build_cardio())))
    standard_rules(k2)
    k2.run(40)
    assert k1.trace_lines() == k2.trace_lines()
    assert not k1.halted and not k2.halted


def _renamed(data: dict, old: str, new: str) -> dict:
    """The document with mechanism old renamed new, and every reference to it."""
    for spec in data["mechanisms"]:
        if spec["name"] == old:
            spec["name"] = new
    for trigger in data["triggers"]:
        if trigger["target"] == old:
            trigger["target"] = new
    for system in data["systems"]:
        system["members"] = [new if m == old else m for m in system["members"]]
    return data


@pytest.mark.parametrize(
    "build, old",
    [
        (lambda: load_model(saved_heartbeat_push()), "HeartbeatPush"),
        (lambda: load_model(saved_water_flowing(n_portions=3)), "WaterFlowing"),
        (lambda: build_waterfall(n_portions=2), "WaterFlowing"),
        (build_cardio, "HeartbeatPush"),
    ],
    ids=["heartbeat_push", "water_flowing", "fluidic_motion", "cardio"],
)
def test_a_mechanism_entry_is_named_by_its_name(build, old):
    data = _renamed(save_model(build()), old, "Beat")
    world = load_model(data)
    assert "Beat" in world.mechanisms and old not in world.mechanisms
    saved = json.dumps(save_model(world))
    assert saved == json.dumps(data)
    assert json.dumps(save_model(load_model(json.loads(saved)))) == saved


def test_a_compartment_entry_whose_id_is_not_its_name_is_refused():
    data = save_model(build_cardio())
    assert data["compartments"][0]["name"] == "LeftAtrium"
    data["compartments"][0]["id"] = "Elsewhere"
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == "compartments[0]: id 'Elsewhere' is not its name 'LeftAtrium'"
    del data["compartments"][0]["id"]  # an entry without an id is named by its name
    assert save_model(load_model(data)) == save_model(build_cardio())


def test_a_mechanism_names_the_binding_it_was_built_from_not_an_equal_one():
    world = build_cardio()
    len_before = len(world.bindings)  # cardio's own heartbeat binding
    elements = {"Fluid": "blood", "Source": "LeftAtrium", "Goal": "LeftAtrium", "Path": "cardio"}
    bind(world, "Fluidic_Motion", elements)
    bind(world, "Fluidic_Motion", elements)
    fluidic_motion(world, {"binding": len_before + 1, "name": "Second"})
    data = save_model(world)
    assert [m["params"]["binding"] for m in data["mechanisms"] if m["name"] == "Second"] == [
        len_before + 1
    ]
    reloaded = load_model(data)
    flows = {m.name: m.spec["params"]["binding"] for m in reloaded.mechanisms.values()
             if m.spec.get("builtin") == "fluidic_motion"}
    assert flows == {"HeartbeatPush": 0, "Second": len_before + 1}


def run_trace(world, ticks: int) -> list[str]:
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(ticks)
    assert not kernel.halted
    return kernel.trace_lines()


def test_a_file_naming_the_heartbeat_builtin_runs_the_same_trace_and_saves_as_a_binding():
    old = saved_heartbeat_push()
    assert old["version"] == 1 and old["bindings"] == []
    assert old["mechanisms"][0] == {
        "name": "HeartbeatPush", "builtin": "heartbeat_push", "params": {"circuit": "cardio"},
    }
    saved = json.dumps(save_model(load_model(old)))
    assert saved == json.dumps(save_model(build_cardio()))
    assert json.dumps(save_model(load_model(json.loads(saved)))) == saved

    worlds = [load_model(old), build_cardio()]
    trace = run_trace(worlds[0], 200)
    assert trace == run_trace(worlds[1], 200)
    text = "".join(line + "\n" for line in trace).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == (
        "cded0b1e1cb55a80478313dcdaad685cbb315eabb836bcb9cac3858948e48552"
    )
    assert json.dumps(save_model(worlds[0])) == json.dumps(save_model(worlds[1]))


def test_a_version_2_cardio_file_runs_the_same_trace_and_saves_its_mechanisms_as_data():
    old = saved_cardio_version_2()
    assert old["version"] == 2
    assert [m["builtin"] for m in old["mechanisms"]] == [
        "fluidic_motion", "gas_exchange_alv", "cell_respiration", "diffusion_check",
        "medulla_sense", "inhale_cycle", "mix_external_air",
    ]
    worlds = [load_model(old), build_cardio()]
    saved = json.dumps(save_model(worlds[0]))
    assert saved == json.dumps(save_model(worlds[1]))
    assert [m.get("builtin") for m in json.loads(saved)["mechanisms"]] == [
        "fluidic_motion", None, None, None, None, "inhale_cycle", None,
    ]
    kernels = [Kernel(world) for world in worlds]
    for kernel in kernels:
        standard_rules(kernel)
    for ticks in (3, 197):  # the saved forms agree after 3 and after 200 ticks
        for kernel in kernels:
            kernel.run(ticks)
        assert json.dumps(save_model(worlds[0])) == json.dumps(save_model(worlds[1]))
    trace = kernels[0].trace_lines()
    assert not kernels[0].halted and trace == kernels[1].trace_lines()
    text = "".join(line + "\n" for line in trace).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == (
        "cded0b1e1cb55a80478313dcdaad685cbb315eabb836bcb9cac3858948e48552"
    )


def test_a_version_2_freeze_watch_freezes_the_water_as_its_data_form_does():
    old = save_model(build_waterfall(n_portions=5))
    old["version"] = 2
    old["mechanisms"].append({"name": "Frost", "builtin": "freeze_watch", "params": {}})
    old["triggers"].append({"name": "FrostTimer", "period": 1, "target": "Frost"})
    assert upgrade(old)["mechanisms"][1] == {
        "name": "Frost",
        "subsystem": "ambient",
        "guard": [["ambient", "temperature", "below_freezing"], ["not_phase", "water", "solid"]],
        "effects": [["set", "water", "phase", "solid"]],
    }
    world = load_model(old)
    kernel = Kernel(world)
    kernel.run(1)
    world.set_ambient("temperature", "below_freezing")
    kernel.run(2)  # the flow fires before the frost at tick 1, and not at tick 2
    assert kernel.trace_lines() == ["0 pool", "1 pool"]
    assert world.substances["water"].phase == "solid"


def test_upgrade_writes_each_retired_builtin_as_its_template_with_the_entry_params():
    old = saved_cardio_version_2("MedullaSense", blood_at="CellCap")
    new = upgrade(old)
    assert new["mechanisms"][4] == medulla_sense(
        name="MedullaSense", blood_at="CellCap", nerve_from="Medulla", nerve_to="Diaphragm"
    )
    assert new["mechanisms"][4]["guard"] == [["occupant", "blood", "CellCap", "CO2Level", "high"]]
    old["mechanisms"][4]["params"]["nerve_form"] = "Medulla"
    with pytest.raises(SchemaError) as exc:
        upgrade(old)
    assert str(exc.value).startswith("mechanisms[4]: malformed entry: ")
    assert "nerve_form" in str(exc.value)


def test_a_file_naming_the_heartbeat_builtin_needs_no_frames():
    old = saved_heartbeat_push()
    old["frames"] = []
    world = load_model(old)
    assert list(world.frames) == ["Fluidic_Motion"]
    assert run_trace(world, 40) == run_trace(build_cardio(), 40)
    # The upgrade adds the missing frame after the file's others.
    old = saved_heartbeat_push()
    old["frames"] = [f for f in old["frames"] if f["name"] != "Fluidic_Motion"]
    assert list(load_model(old).frames) == ["Motion", "Natural_Features", "Fluidic_Motion"]


@pytest.mark.parametrize("saved", [saved_heartbeat_push, saved_water_flowing, saved_cardio_version_2])
def test_upgrade_leaves_its_argument_unchanged(saved):
    old = saved()
    new = upgrade(old)
    assert old == saved()
    assert new["version"] == 4 and old["version"] in (1, 2)
    assert new["mechanisms"][0]["builtin"] == "fluidic_motion"


def test_upgrade_returns_a_version_4_document_unchanged():
    data = save_model(build_cardio())
    assert upgrade(data) is data
    assert data == save_model(build_cardio())


@pytest.mark.parametrize("saved", [saved_heartbeat_push, saved_water_flowing])
def test_a_version_2_document_naming_a_version_1_builtin_is_refused(saved):
    data = dict(saved(), version=2)
    builtin = data["mechanisms"][0]["builtin"]
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == f"mechanisms[0]: unknown builtin mechanism {builtin!r}"


def test_a_version_1_file_without_its_version_marker_loads_as_version_1():
    data = saved_water_flowing()
    del data["version"]
    assert json.dumps(save_model(load_model(data))) == json.dumps(
        save_model(build_waterfall(n_portions=2))
    )


def test_a_mechanism_registered_without_a_spec_is_refused_by_save_model():
    # A saved file without it would fail to load: its trigger names no mechanism.
    world = build_cardio()
    register_mechanism(world, Mechanism("Extra", guard=(), effect=lambda kernel: None))
    register_trigger(world, Trigger("ExtraTimer", 3, "Extra"))
    with pytest.raises(ModelError, match="mechanism 'Extra' has no saved form"):
        save_model(world)


def test_a_registered_spec_does_not_follow_later_changes_to_the_callers_dict():
    world = build_cardio()
    spec = {key: value for key, value in save_model(world)["mechanisms"][0].items()
            if key != "name"}
    register_mechanism(world, Mechanism("Extra", guard=(), effect=lambda kernel: None), spec)
    saved = save_model(world)["mechanisms"][-1]
    assert saved == {"name": "Extra", **spec}
    spec.clear()
    assert save_model(world)["mechanisms"][-1] == saved


SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


@pytest.mark.parametrize("model, scenario", [
    ("cardio", None), ("cardio", "heart_stop"), ("cardio", "cut_phrenic"),
    ("waterfall", None), ("waterfall", "freeze"),
])
def test_every_shipped_model_and_scenario_round_trips_unchanged(model, scenario):
    world = build_builtin(model, portions=3 if model == "waterfall" else None)
    if scenario is not None:
        apply_scenario(world, load_scenario(str(SCENARIOS / f"{scenario}.json")))
    saved = json.dumps(save_model(world))
    assert [entry["name"] for entry in json.loads(saved)["mechanisms"]] == list(world.mechanisms)
    assert json.dumps(save_model(load_model(json.loads(saved)))) == saved


def test_applied_scenarios_survive_save_and_load():
    world = build_cardio()
    apply_scenario(world, load_scenario(SCENARIOS / "heart_stop.json"))
    apply_scenario(world, Scenario("drill"))
    world.assert_function("diaphragm", "rests", "heart-stop")
    data = save_model(world)
    assert data["scenarios"] == ["heart-stop", "drill"]
    reloaded = load_model(data)
    assert reloaded.scenarios == ["heart-stop", "drill"]
    assert reloaded.assertions == world.assertions
    assert save_model(reloaded) == data
    # A file without the section loads with no scenario applied, so an
    # assertion in a scenario's context is refused there.
    del data["scenarios"]
    with pytest.raises(SchemaError, match=r"^assertions\[3\]: .* got 'heart-stop'$"):
        load_model(data)
    data["assertions"].pop()
    assert load_model(data).scenarios == []


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "cardio.json"
    save_model_file(build_cardio(), path)
    reloaded = load_model_file(path)
    assert derive_triples(build_cardio()) == derive_triples(reloaded)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_model_file(path)


def test_invalid_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "semsim-model",', encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_model_file(path)
    assert "line" in str(exc.value)


def test_missing_circuit_edge_names_the_edge(tmp_path):
    data = save_model(build_cardio())
    data["connections"] = [
        c
        for c in data["connections"]
        if not (c["from"] == "LeftVentricle" and c["to"] == "MedullaCap")
    ]
    path = tmp_path / "unwired.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_model_file(path)
    message = str(exc.value)
    assert "LeftVentricle" in message and "MedullaCap" in message


def test_wrong_format_marker():
    with pytest.raises(SchemaError):
        load_model({"format": "something-else", "name": "x"})


@pytest.mark.parametrize("version", [5, "1", True, None, 2.0])
def test_unsupported_version_marker_rejected(version):
    data = dict(save_model(build_waterfall(n_portions=1)), version=version)
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value).startswith("version: ")


def test_document_without_version_marker_loads():
    data = save_model(build_waterfall(n_portions=1))
    del data["version"]
    assert load_model(data).name == "waterfall"


def test_unknown_builtin_mechanism():
    data = save_model(build_waterfall(n_portions=1))
    data["mechanisms"] = [{"name": "m", "builtin": "antigravity", "params": {}}]
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert "antigravity" in str(exc.value)


def test_bad_portion_compartment_diagnosed():
    data = save_model(build_cardio())
    data["portions"][0]["compartment"] = "Nowhere"
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert "portions[0]" in str(exc.value)


def test_contents_breaking_the_placement_rule_diagnosed(placement_breach):
    data, message = placement_breach
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == message


def test_contents_keep_their_saved_order_and_list_each_portion_once():
    # blood-1 comes after blood-0 among the portions but before it in the
    # contents, which hold the order of placement.
    data = save_model(build_cardio())
    data["portions"][0]["compartment"] = "LeftVentricle"
    data["compartments"][0]["contents"] = []
    data["compartments"][1]["contents"] = ["blood-1", "blood-0"]
    world = load_model(data)
    assert world.compartments["LeftVentricle"].contents == ["blood-1", "blood-0"]
    assert world.compartments["LeftAtrium"].contents == []


def test_dead_portion_in_a_compartment_is_rejected():
    # Listed in no contents, so only the portion itself shows the breach.
    data = save_model(build_cardio())
    data["portions"].append(
        {"id": "ghost", "substance": "blood", "alive": False, "compartment": "LeftVentricle"}
    )
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    ghost = len(data["portions"]) - 1
    assert str(exc.value) == (
        f"portions[{ghost}]: dead portion 'ghost' cannot be placed in 'LeftVentricle'"
    )


def test_a_live_portion_must_carry_its_substance_properties():
    data = save_model(build_cardio())
    (index,) = [i for i, p in enumerate(data["portions"]) if p["id"] == "blood-5"]
    del data["portions"][index]["properties"]["CO2Level"]
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == (
        f"portions[{index}]: portion 'blood-5' lacks its substance's properties ['CO2Level']"
    )
    # A dead portion is never read, so its properties may be partial.
    data["portions"][index].update(alive=False, compartment=None)
    for compartment in data["compartments"]:
        compartment["contents"] = [p for p in compartment["contents"] if p != "blood-5"]
    assert "CO2Level" not in load_model(data).portions["blood-5"].properties


def test_duplicate_portion_id_diagnosed():
    data = save_model(build_cardio())
    data["portions"].append(dict(data["portions"][0], alive=False, compartment=None))
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert "duplicate portion id" in str(exc.value)


def _object(data, **fields):
    data["objects"].append(dict(data["objects"][0], **fields))
    return f"objects[{len(data['objects']) - 1}]"


def _portion(data, **fields):
    data["portions"].append(dict(data["portions"][0], alive=False, compartment=None, **fields))
    return f"portions[{len(data['portions']) - 1}]"


@pytest.mark.parametrize(
    "add, what, entity",
    [
        (lambda data: _object(data, kind="Lungs"), "object", "heart"),
        (lambda data: _object(data, id="blood", kind="Lungs"), "object", "blood"),
        (lambda data: _portion(data, id="heart"), "portion", "heart"),
        (lambda data: _portion(data, id="air"), "portion", "air"),
    ],
    ids=["second-heart", "object-called-blood", "portion-called-heart", "portion-called-air"],
)
def test_an_entity_id_already_in_use_is_refused(add, what, entity):
    data = save_model(build_cardio())
    loc = add(data)
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == f"{loc}: duplicate {what} id {entity!r}"


@pytest.mark.parametrize(
    "vocabulary",
    [{"literals": "abc"}, {"literals": ("a",)}, {"patterns": r"\\d+ pool"}, {"literals": [1]}],
    ids=repr,
)
def test_vocabulary_literals_and_patterns_are_lists_of_strings(vocabulary):
    data = save_model(build_waterfall(n_portions=1))
    data["vocabulary"] = vocabulary
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == "vocabulary: literals and patterns must be lists of strings"


def _append(section, entry):
    """Add entry at the end of a section; the refusal names that index."""
    def breach(data):
        data[section].append(entry(data) if callable(entry) else entry)
        return f"{section}[{len(data[section]) - 1}]"
    return breach


def _set(section, field, value):
    """Set a field of a section's first entry; the refusal names it."""
    def breach(data):
        data[section][0][field] = value
        return f"{section}[0]"
    return breach


def _heartbeat_over_no_circuit(data):
    """The version-1 file, its heartbeat builtin over a circuit it lacks."""
    data.clear()
    data.update(saved_heartbeat_push(circuit="nowhere"))
    return "mechanisms[0]"


def _heartbeat_binding(edit, loc):
    """Edit cardio's heartbeat binding; the refusal names loc."""
    def breach(data):
        edit(data["bindings"][0])
        return loc
    return breach


def _heartbeat_flow(edit):
    """Edit the saved cardio so that its heartbeat binding holds and only the
    flow built from it refuses it."""
    def breach(data):
        edit(data)
        return "mechanisms[0]"
    return breach


def _bound_to_motion(data):
    """The heartbeat's elements bound to Motion, as that frame takes them."""
    elements = data["bindings"][0]["elements"]
    elements["Theme"] = elements.pop("Fluid")
    del elements["Configuration"]
    data["bindings"][0]["frame"] = "Motion"


def _ink(data):
    """The heartbeat's Fluid an object called ink."""
    data["objects"].append({"id": "ink", "kind": "Lungs"})
    data["bindings"][0]["elements"]["Fluid"] = {"type": "ref", "id": "ink"}


@pytest.mark.parametrize("breach, message", [
    (_append("scales", lambda data: data["scales"][0]), "scale 'O2Level' already defined"),
    (_append("substances", lambda data: data["substances"][0]), "substance 'blood' already defined"),
    (_append("kinds", {"name": "Orphan", "parent": "Ghost"}), "parent kind 'Ghost' not defined"),
    (_append("kinds", {"name": "Shell", "part_schema": [
        {"role_name": "core", "part_kind": "Ghost", "cardinality": [1]}]}),
     "part kind 'Ghost' of role 'core' not defined"),
    (_append("kinds", {"name": "Ichor", "substance": "ichor"}), "substance 'ichor' not defined"),
    (_set("compartments", "medium", "lymph_path"),
     "medium must be one of ('blood_path', 'air_path', 'other')"),
    (_set("compartments", "capacity", True),
     "capacity must be an int >= 1, or None for unbounded, not True"),
    (_set("compartments", "capacity", 2.5),
     "capacity must be an int >= 1, or None for unbounded, not 2.5"),
    (_set("compartments", "capacity", "2"),
     "capacity must be an int >= 1, or None for unbounded, not '2'"),
    (_set("connections", "kind", "wire"), "conduit kind must be one of ('fluid', 'nerve')"),
    (_append("circuits", lambda data: data["circuits"][0]), "circuit 'cardio' already defined"),
    (_append("triggers", lambda data: data["triggers"][0]), "trigger 'SANode' already registered"),
    (_append("triggers", {"name": "Ghostly", "period": 2, "target": "Ghost"}),
     "trigger target 'Ghost' is not a mechanism"),
    (_append("systems", lambda data: data["systems"][0]), "system 'circulation' already defined"),
    (_append("systems", {"name": "haunting", "members": ["Ghost"]}),
     "system member 'Ghost' is not a mechanism"),
    (_append("annotations", {"kind": "rumour", "target": "cardio", "note": ""}),
     "unknown annotation kind 'rumour'"),
    (_append("objects", {"id": "ghost", "kind": "Ghost"}), "unknown kind 'Ghost'"),
    (_append("objects", {"id": "cart", "kind": "Heart", "properties": {"tone": "taut"}}),
     "property 'tone' has no scale"),
    (_append("bindings", {"frame": "Fluidic_Motion", "elements": {"Fluid": {"type": "blob"}}}),
     "unknown binding value type 'blob'"),
    (_set("compartments", "contents", ["ghost"]), "contents reference unknown portion 'ghost'"),
    (_set("compartments", "contents", ["blood-1"]),
     "portion 'blood-1' does not agree it is in 'LeftAtrium'"),
    (_heartbeat_over_no_circuit, "no circuit 'nowhere' with compartments for the heartbeat"),
    (_append("frames", lambda data: data["frames"][0]), "frame 'Motion' already defined"),
    (_append("lexicon", {"word": "gushing", "frame": "Gush"}),
     "no frame 'Gush' for lexical entry 'gushing'"),
    (_heartbeat_binding(lambda b: b["elements"].update(Path={"type": "path", "segments": []}),
                        "bindings[0]"),
     "a path needs at least one segment"),
    (_heartbeat_flow(_bound_to_motion), "only Fluidic_Motion bindings instantiate here"),
    (_heartbeat_flow(_ink), "Fluid must name a substance, got 'ink'"),
], ids=lambda case: case if isinstance(case, str) else None)
def test_an_entry_the_world_refuses_is_named(breach, message):
    data = save_model(build_cardio())
    loc = breach(data)
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == f"{loc}: {message}"


def _warm_heart():
    """A loaded cardio whose heart carries a Warmth property, as a model file may give it."""
    data = save_model(build_cardio())
    (heart,) = [o for o in data["objects"] if o["id"] == "heart"]
    heart["properties"] = {"Warmth": "low"}
    return load_model(data)


def test_an_objects_property_takes_a_scenario_set_state_and_its_triple_follows():
    world = _warm_heart()
    snapshot = Snapshot(world)
    assert Triple("heart", "hasState:Warmth", "low") in snapshot.triples
    apply_scenario(world, scenario_from_dict({"name": "fever", "overrides": [
        {"op": "set_state", "target": "heart", "variable": "Warmth", "label": "high"},
    ]}))
    assert world.objects["heart"].properties == {"Warmth": "high"}
    snapshot.refresh()
    assert Triple("heart", "hasState:Warmth", "high") in snapshot.triples
    assert Triple("heart", "hasState:Warmth", "low") not in snapshot.triples
    assert set(snapshot.triples) == derive_triples(world)
    with pytest.raises(StateError) as exc:
        world.set_state("heart", "Warmth", "tepid")
    assert str(exc.value) == "label 'tepid' is outside the 'Warmth' space ['low', 'high']"


def test_a_set_effect_compiles_for_a_property_an_object_carries():
    world = _warm_heart()
    build_mechanism(world, {"name": "Flush", "guard": [["always"]],
                            "effects": [["set", "heart", "Warmth", "high"]]})
    kernel = Kernel(world)
    assert kernel.attempt(world.mechanisms["Flush"], "direct")
    assert world.objects["heart"].properties == {"Warmth": "high"}
    with pytest.raises(StateError) as exc:
        build_mechanism(world, {"name": "Chill", "guard": [["always"]],
                                "effects": [["set", "heart", "Warmth", "tepid"]]})
    assert str(exc.value) == "label 'tepid' is outside the 'Warmth' space ['low', 'high']"


@pytest.mark.parametrize("count", [True, False, -1, 1.0, "1"])
def test_a_counter_is_an_int_not_a_bool(count):
    data = save_model(build_cardio())
    data["counters"]["blood"] = count
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == "counters: counter 'blood' must be a non-negative integer"


def test_counters_roundtrip_prevents_id_collisions():
    original = build_cardio()
    k = Kernel(original)
    standard_rules(k)
    k.run(8)  # splits and merges allocate blood-7, blood-8, ...
    reloaded = load_model(save_model(original))
    fresh = reloaded.create_portion("blood")
    assert fresh.id not in {p["id"] for p in save_model(original)["portions"]}


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("clock", -1, "clock: must be an int >= 0, not -1"),
        ("clock", True, "clock: must be an int >= 0, not True"),
        ("signals", [["Medulla", "Diaphragm"]],
         "signals[0]: signal: 'signal' takes 3 arguments, not 2"),
        ("signals", [["Ghost", "Diaphragm", "contract"]], "signals[0]: no compartment 'Ghost'"),
        ("signals", [["Diaphragm", "Medulla", "x"]],
         "signals[0]: signal to 'Medulla' has no receiving mechanism"),
    ],
)
def test_a_malformed_clock_or_signal_in_transit_is_refused(section, value, message):
    data = dict(save_model(build_cardio()), **{section: value})
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == message


def test_a_version_3_file_loads_at_clock_0_with_no_signals_in_transit():
    data = save_model(build_cardio())
    del data["clock"], data["signals"]
    world = load_model(dict(data, version=3))
    assert world.clock == 0 and world.signals == []
    assert save_model(world) == save_model(build_cardio())


# ----------------------------------------------------------------------
# the shipped models are their files

SHIPPED_DIGESTS = {
    CARDIO_FILE: "930e09b6365045a1a79be0be17103641f73bd313e442d3ce3912822b8d94766e",
    WATERFALL_FILE: "b08d316868f5fc679e213e49a0a276bc4e8859c69cee564f0948ae417a1a618f",
}


@pytest.mark.parametrize("path", sorted(SHIPPED_DIGESTS), ids=lambda path: path.name)
def test_a_shipped_model_file_is_pinned_and_saves_to_itself(tmp_path, path):
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHIPPED_DIGESTS[path]
    saved = save_model_file(load_model_file(path), tmp_path / path.name)
    assert saved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("path", sorted(SHIPPED_DIGESTS), ids=lambda path: path.name)
def test_a_shipped_model_file_validates(capsys, path):
    assert main(["validate-file", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"ok: model {path.stem!r} (")


@pytest.mark.parametrize("name, portions", [("cardio", None), ("waterfall", None), ("waterfall", 7)])
def test_a_shipped_model_is_its_file_loaded(name, portions):
    data = json.loads((CARDIO_FILE if name == "cardio" else WATERFALL_FILE).read_text(encoding="utf-8"))
    if portions is not None:
        data["mechanisms"][0]["params"]["n_portions"] = portions
    assert save_model(build_builtin(name, portions)) == data


def _rebound(edit):
    """The saved cardio with its heartbeat binding's elements edited."""
    data = json.loads(CARDIO_FILE.read_text(encoding="utf-8"))
    edit(data["bindings"][0]["elements"])
    return data


@pytest.mark.parametrize("data, message", [
    (_rebound(lambda elements: elements.update(Vibe=elements.pop("Source"))),
     "core element 'Source' is not bound"),
    (_rebound(lambda elements: elements.update(Vibe={"type": "ref", "id": "heart"})),
     "frame 'Fluidic_Motion' has no element 'Vibe'"),
    (_rebound(lambda elements: elements.update(Source={"type": "ref", "id": "Nowhere"})),
     "element 'Source' maps to unresolvable value 'Nowhere'"),
], ids=["core-renamed", "unknown-element", "unresolvable"])
def test_a_binding_is_loaded_through_bind(tmp_path, capsys, data, message):
    # Each once loaded: the loader appended the binding without bind's checks.
    path = tmp_path / "rebound.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate-file", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid: bindings[0]: {message}\n"


def test_a_loaded_object_lists_every_state_its_kind_declares():
    # It once loaded, and the diaphragm had no tension until a breath wrote one.
    data = json.loads(CARDIO_FILE.read_text(encoding="utf-8"))
    (i,) = [i for i, o in enumerate(data["objects"]) if o["id"] == "diaphragm"]
    data["objects"][i]["states"] = {}
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == f"objects[{i}]: object 'diaphragm' lacks its kind's states ['tension']"
