"""Mechanisms as data: the closed set of guard conditions and effects, the
type checks made when a data mechanism is compiled, and the link checks made
once every mechanism is registered."""
import json

import pytest

from semsim import Kernel, Mechanism, StateSpace
from semsim.cli import EXIT_CONFIG, main
from semsim.engine import register_mechanism
from semsim.errors import ModelError, StateError, TraceVocabularyError, UnknownEntityError
from semsim.mechanisms import CONDITIONS, EFFECTS, build_mechanism, check_links, compile_items
from semsim.modelfile import freeze_watch, load_model, save_model
from semsim.models import build_cardio, build_waterfall


def guard(world, *items):
    """The compiled conditions, as (description, value) pairs on world."""
    return [(d, test(world)) for d, test in compile_items(world, CONDITIONS, list(items), "guard")]


def test_the_builders_keep_every_guard_description_and_subsystem():
    mechanisms = build_cardio().mechanisms
    assert {name: ([c.description for c in m.guard], m.subsystem) for name, m in mechanisms.items()} == {
        "HeartbeatPush": (["blood is fluid", "circuit occupied"], "circulation"),
        "GasExchangeAlv": (
            ["blood at AlvCap has O2Level=low", "air at AlvAir has O2Level=high"], "diffusion",
        ),
        "CellRespiration": (["blood at CellCap has O2Level=high"], "diffusion"),
        "DiffusionCheck": (["always"], "diffusion"),
        "MedullaSense": (["blood at MedullaCap has CO2Level=high"], "respiration"),
        "InhaleCycle": (["diaphragm alive"], "respiration"),
        "MixExternalAir": (["ExternalAir holds air"], "respiration"),
    }
    waterfall = build_waterfall(n_portions=1)
    freeze = build_mechanism(waterfall, freeze_watch())
    assert [c.description for c in freeze.guard] == [
        "ambient temperature below freezing", "water not yet solid",
    ]
    assert freeze.subsystem == "ambient"


def test_each_condition_reads_the_world():
    world = build_cardio()
    assert guard(
        world,
        ["occupant", "blood", "AlvCap", "O2Level", "low"],
        ["occupant", "blood", "AlvCap", "O2Level", "high"],
        ["holds", "ExternalAir", "air"],
        ["holds", "Medulla", "air"],
        ["alive", "diaphragm"],
        ["ambient", "temperature", "standard"],
        ["ambient", "temperature", "below_freezing"],
        ["not_phase", "blood", "solid"],
        ["not_phase", "blood", "liquid"],
        ["always"],
    ) == [
        ("blood at AlvCap has O2Level=low", True),
        ("blood at AlvCap has O2Level=high", False),
        ("ExternalAir holds air", True),
        ("Medulla holds air", False),
        ("diaphragm alive", True),
        ("ambient temperature standard", True),
        ("ambient temperature below freezing", False),
        ("blood not yet solid", True),
        ("blood not yet liquid", False),
        ("always", True),
    ]


def test_an_occupant_of_another_substance_fails_the_condition_without_reading_it():
    world = build_cardio()
    world.place_portion("air-alv", "Medulla")
    # Air has no Warmth, and the condition asks for blood.
    assert guard(world, ["occupant", "blood", "Medulla", "Warmth", "low"],
                 ["holds", "Medulla", "blood"]) == [
        ("blood at Medulla has Warmth=low", False), ("Medulla holds blood", False),
    ]


def fire_effects(world, *items, side_effects=()):
    """Register and fire a data mechanism with these effects: its trace lines and the kernel."""
    build_mechanism(world, {"name": "M", "guard": [["always"]], "effects": list(items),
                            "side_effects": list(side_effects)})
    kernel = Kernel(world)
    kernel.attempt(world.mechanisms["M"], "direct")
    return kernel.current_report.lines, kernel


def test_each_effect_acts_through_the_fire_context():
    world = build_cardio()
    blood = world.occupant("CellCap")
    world.create_portion("air", entity_id="extra", compartment="ExternalAir")
    lines, kernel = fire_effects(
        world,
        ["set_occupant", "blood", "CellCap", "O2Level", "high"],
        ["set", "diaphragm", "tension", "contracted"],
        ["set", "blood", "phase", "gas"],
        ["emit", "mixing external air"],
        ["signal", "Medulla", "Diaphragm", "contract"],
        ["merge", "ExternalAir"],
        ["fire", "CellRespiration"],
    )
    assert blood.properties["O2Level"] == "low"  # set high, then respired
    assert world.objects["diaphragm"].states["tension"] == "contracted"
    assert world.substances["blood"].phase == "gas"
    assert lines == ["mixing external air", "CellCapBlood O2 diffusion"]
    assert [(s.sender, s.receiver, s.payload) for s in world.signals] == [
        ("Medulla", "Diaphragm", "contract")
    ]
    (merged,) = world.compartments["ExternalAir"].contents
    assert world.portions[merged].provenance == ("air-external", "extra")
    assert [f.mechanism for f in kernel.current_report.fired] == ["M", "CellRespiration"]


def test_setting_an_occupant_skips_an_empty_compartment_and_one_without_the_property():
    world = build_cardio()
    world.place_portion("air-alv", "Medulla")
    before = len(world.transitional_log)
    fire_effects(world, ["set_occupant", "blood", "Diaphragm", "Warmth", "high"],
                 ["set_occupant", "blood", "Medulla", "Warmth", "high"])
    assert len(world.transitional_log) == before
    assert "Warmth" not in world.portions["air-alv"].properties


@pytest.mark.parametrize("substance, compartment, prop, level", [
    ("blood", "AlvCap", "O2Level", "high"),  # a new label
    ("blood", "CellCap", "Warmth", "low"),   # the label it holds
    ("air", "AlvAir", "CO2Level", "high"),
])
def test_an_occupant_write_leaves_what_set_state_leaves(substance, compartment, prop, level):
    written, checked = build_cardio(), build_cardio()
    for world in (written, checked):
        world.clock = 5
    built = len(written.changes), len(written.transitional_log)
    (effect,) = compile_items(written, EFFECTS, [["set_occupant", substance, compartment, prop,
                                                  level]], "effects")
    effect(Kernel(written))
    checked.set_state(checked.occupant(compartment).id, prop, level)
    assert (len(written.changes), len(written.transitional_log)) == (built[0] + 1, built[1] + 1)
    assert written.changes == checked.changes
    assert written.transitional_log == checked.transitional_log
    assert save_model(written) == save_model(checked)


def test_an_occupant_write_refuses_a_property_named_location_when_compiled():
    # set_state reads "Location" as a portion's location, not as its property.
    world = build_cardio()
    world.define_scale(StateSpace("Location", ("here", "there"), "nominal"))
    world.define_substance("ink", default_properties={"Location": "here"})
    assert guard(world, ["occupant", "ink", "AlvCap", "Location", "here"]) == [
        ("ink at AlvCap has Location=here", False),
    ]
    with pytest.raises(ModelError, match="^set_occupant cannot write 'Location'"):
        compile_items(world, EFFECTS, [["set_occupant", "ink", "AlvCap", "Location", "there"]],
                      "effects")


def test_a_side_effect_runs_after_the_effects():
    world = build_cardio()
    lines, _ = fire_effects(
        world,
        ["set_occupant", "blood", "CellCap", "Warmth", "low"],
        ["emit", "diffusion check"],
        side_effects=[["set_occupant", "blood", "CellCap", "Warmth", "high"],
                      ["emit", "mixing external air"]],
    )
    assert world.occupant("CellCap").properties["Warmth"] == "high"
    assert lines == ["diffusion check", "mixing external air"]


@pytest.mark.parametrize(
    "table, item, error, message",
    [
        (CONDITIONS, "always", ModelError, "guard: 'always' is not a list of strings"),
        (CONDITIONS, [], ModelError, "guard: [] is not a list of strings"),
        (CONDITIONS, ["alive", 5], ModelError, "guard: ['alive', 5] is not a list of strings"),
        (CONDITIONS, ["sometimes"], UnknownEntityError, "no guard kind 'sometimes'"),
        (CONDITIONS, ["alive"], ModelError, "guard: 'alive' takes 1 arguments, not 0"),
        (CONDITIONS, ["occupant", "blood", "Nowhere", "O2Level", "low"], UnknownEntityError,
         "no compartment 'Nowhere'"),
        (CONDITIONS, ["occupant", "ink", "AlvCap", "O2Level", "low"], UnknownEntityError,
         "no substance 'ink'"),
        (CONDITIONS, ["occupant", "air", "AlvAir", "Warmth", "low"], UnknownEntityError,
         "no air property 'Warmth'"),
        (CONDITIONS, ["occupant", "blood", "AlvCap", "O2Level", "medium"], StateError,
         "label 'medium' is outside the 'O2Level' space ['low', 'high']"),
        (CONDITIONS, ["holds", "ExternalAir", "smoke"], UnknownEntityError, "no substance 'smoke'"),
        (CONDITIONS, ["alive", "Diaphragm"], UnknownEntityError, "no object 'Diaphragm'"),
        (CONDITIONS, ["ambient", "mood", "calm"], UnknownEntityError, "no ambient property 'mood'"),
        (CONDITIONS, ["ambient", "temperature", "tepid"], StateError,
         "label 'tepid' is outside the 'temperature' space "
         "['below_freezing', 'cold', 'standard', 'warm', 'hot']"),
        (CONDITIONS, ["not_phase", "blood", "plasma"], StateError,
         "label 'plasma' is outside the 'phase' space ['solid', 'liquid', 'gas']"),
        (EFFECTS, ["set_occupant", "blood", "CellCap", "Warmth", "tepid"], StateError,
         "label 'tepid' is outside the 'Warmth' space ['low', 'high']"),
        (EFFECTS, ["set", "heart", "tension", "contracted"], UnknownEntityError,
         "no Heart state 'tension'"),
        (EFFECTS, ["set", "diaphragm", "tension", "limp"], StateError,
         "label 'limp' is outside the 'tension' space ['relaxed', 'contracted']"),
        (EFFECTS, ["set", "blood", "O2Level", "high"], UnknownEntityError, "no object 'blood'"),
        (EFFECTS, ["set", "blood-0", "O2Level", "high"], UnknownEntityError, "no object 'blood-0'"),
        (EFFECTS, ["emit", "hello"], TraceVocabularyError,
         "line 'hello' is not in the declared vocabulary of 'cardio'"),
        (EFFECTS, ["signal", "Medulla", "lungs", "contract"], UnknownEntityError,
         "no compartment 'lungs'"),
        (EFFECTS, ["merge", "heart"], UnknownEntityError, "no compartment 'heart'"),
        # A built heart carries no properties: Warmth is neither its state nor its property.
        (EFFECTS, ["set", "heart", "Warmth", "high"], UnknownEntityError,
         "no Heart state 'Warmth'"),
    ],
)
def test_a_malformed_or_mistyped_item_is_refused_when_compiled(table, item, error, message):
    field = "guard" if table is CONDITIONS else "effects"
    with pytest.raises(error) as exc:
        compile_items(build_cardio(), table, [item], field)
    assert str(exc.value) == message


def test_a_guard_or_effect_list_must_be_a_list_and_an_entry_has_known_fields():
    world = build_cardio()
    with pytest.raises(ModelError, match="guard must be a list"):
        build_mechanism(world, {"name": "M", "guard": {}, "effects": []})
    with pytest.raises(ModelError, match=r"unknown fields \['effect'\]"):
        build_mechanism(world, {"name": "M", "guard": [], "effect": []})
    with pytest.raises(UnknownEntityError, match="no compartment to listen on 'lungs'"):
        build_mechanism(world, {"name": "M", "guard": [], "effects": [], "on_signal": "lungs"})
    assert "M" not in world.mechanisms and len(world.mechanisms) == 7


def test_links_are_checked_against_every_registered_mechanism():
    world = build_cardio()
    for mechanism in world.mechanisms.values():
        check_links(world, mechanism.name, mechanism.spec)
    with pytest.raises(UnknownEntityError, match="no mechanism to fire 'Nope'"):
        check_links(world, "M", {"effects": [["fire", "Nope"]]})
    with pytest.raises(UnknownEntityError, match="signal to 'Medulla' has no receiving mechanism"):
        check_links(world, "M", {"effects": [], "side_effects": [["signal", "Diaphragm", "Medulla", "x"]]})
    # A mechanism without a saved form fires nothing a spec could name.
    register_mechanism(world, Mechanism("Bare", guard=(), effect=lambda kernel: None))
    check_links(world, "M", {"effects": [["fire", "Bare"]]})


@pytest.mark.parametrize(
    "fires, message",
    [
        ({"DiffusionCheck": "DiffusionCheck"},
         "mechanisms[3]: fire cycle DiffusionCheck -> DiffusionCheck"),
        ({"CellRespiration": "DiffusionCheck"},
         "mechanisms[2]: fire cycle CellRespiration -> DiffusionCheck -> CellRespiration"),
    ],
    ids=["self", "through-a-member"],
)
def test_a_mechanism_that_fires_itself_is_refused_at_load(tmp_path, capsys, fires, message):
    data = save_model(build_cardio())
    for spec in data["mechanisms"]:
        if spec["name"] in fires:
            spec["effects"].append(["fire", fires[spec["name"]]])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate-file", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"invalid: {message}\n"


def test_a_data_mechanism_saves_as_it_was_given_and_reloads_to_the_same_guard():
    world = build_cardio()
    spec = {"name": "Cool", "subsystem": "ambient", "guard": [["not_phase", "blood", "solid"]],
            "effects": [["set", "blood", "phase", "solid"]], "on_signal": "Medulla"}
    build_mechanism(world, spec)
    saved = save_model(world)
    assert saved["mechanisms"][-1] == spec
    reloaded = load_model(saved)
    assert save_model(reloaded) == saved
    assert [c.description for c in reloaded.mechanisms["Cool"].guard] == ["blood not yet solid"]
