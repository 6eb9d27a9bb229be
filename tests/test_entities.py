import pytest
from hypothesis import given, strategies as st

from semsim import Kernel, PartSpec, Portion, StateSpace, World, cardinality
from semsim.errors import (
    CyclicInheritanceError,
    DeadSubjectError,
    DuplicateNameError,
    MissingContextError,
    ModelError,
    SchemaError,
    StateError,
    TransitionalError,
    UnknownEntityError,
)
from semsim.modelfile import load_model, save_model
from semsim.models import build_cardio
from semsim.world import Microworld, stp_ambient


def mammal_world():
    w = World("zoo")
    for leaf in ("Ear", "Eye", "Leg"):
        w.define_kind(leaf)
    w.define_kind(
        "Mammal",
        part_schema=(
            PartSpec("ears", "Ear", "structural", cardinality(2)),
            PartSpec("eyes", "Eye", "structural", cardinality(2)),
            PartSpec("legs", "Leg", "functional", cardinality({2, 4})),
        ),
    )
    return w


def test_define_kind_with_part_specs():
    w = mammal_world()
    assert len(w.kinds["Mammal"].part_schema) == 3


def test_child_kind_inherits_parent_schema():
    w = mammal_world()
    w.define_kind("Dog", parent="Mammal")
    assert w.effective_part_schema("Dog") == w.effective_part_schema("Mammal")


def test_a_childs_part_spec_overrides_its_parents_in_the_parents_position():
    w = mammal_world()
    w.define_kind("Tail")
    w.define_kind("Biped", parent="Mammal", part_schema=(
        PartSpec("legs", "Leg", "functional", cardinality(2)), PartSpec("tail", "Tail")))
    schema = w.effective_part_schema("Biped")
    assert list(schema) == ["ears", "eyes", "legs", "tail"]
    assert schema["legs"].cardinality == {2}
    assert w.effective_part_schema("Mammal")["legs"].cardinality == {2, 4}
    with pytest.raises(TypeError):
        schema["legs"] = PartSpec("legs", "Leg")
    assert [role for role, _ in w.instantiate("Biped").parts] == ["ears"] * 2 + ["eyes"] * 2 + [
        "legs"] * 2 + ["tail"]


def test_self_parent_is_cyclic():
    w = World("w")
    with pytest.raises(CyclicInheritanceError):
        w.define_kind("A", parent="A")


def test_duplicate_kind_name():
    w = mammal_world()
    with pytest.raises(DuplicateNameError):
        w.define_kind("Mammal")


def test_instantiate_uses_minimum_cardinality():
    w = mammal_world()
    m = w.instantiate("Mammal")
    assert len(m.parts_in_role("ears")) == 2
    assert len(m.parts_in_role("eyes")) == 2
    assert len(m.parts_in_role("legs")) == 2  # minimum of {2, 4}


def test_instantiate_unknown_kind():
    w = World("w")
    with pytest.raises(UnknownEntityError):
        w.instantiate("Ghost")


def test_instantiate_portion_kind_starts_at_origin():
    w = World("w")
    w.define_substance("water", phase="liquid")
    w.define_kind(
        "WaterPortion",
        state_spaces=(StateSpace("Location", ("null", "upper", "drop", "pool")),),
        substance="water",
    )
    p = w.instantiate("WaterPortion")
    assert (p.x, p.y, p.location_state) == (0, 0, "null")


def test_set_state_and_rejection():
    w = World("w")
    w.define_substance("water", phase="liquid")
    w.define_kind(
        "WaterPortion",
        state_spaces=(StateSpace("Location", ("null", "upper", "drop", "pool")),),
        substance="water",
    )
    p = w.instantiate("WaterPortion")
    t = w.set_state(p.id, "Location", "drop")
    assert p.location_state == "drop"
    assert t.kind == "state_change" and t.subjects == (p.id,)
    with pytest.raises(StateError):
        w.set_state(p.id, "Location", "ocean")
    with pytest.raises(StateError):
        w.set_state(p.id, "Altitude", "high")


def test_substance_phase_set_state():
    w = World("w")
    w.define_substance("water", phase="liquid")
    w.set_state("water", "phase", "solid")
    assert not w.substances["water"].is_fluid
    w.set_state("water", "Phase", "gas")  # capitalized alias accepted
    assert w.substances["water"].is_fluid


def test_exactly_one_label_per_declared_variable():
    w = World("w")
    w.define_kind(
        "Lamp",
        state_spaces=(
            StateSpace("power", ("off", "on"), "binary"),
            StateSpace("color", ("green", "yellow", "red")),
        ),
    )
    lamp = w.instantiate("Lamp")
    assert lamp.states == {"power": "off", "color": "green"}
    spaces = w.effective_state_spaces("Lamp")
    for var, label in lamp.states.items():
        assert label in spaces[var].labels


def test_binary_space_needs_two_labels():
    with pytest.raises(StateError):
        StateSpace("broken", ("just-one",), "binary")


def test_qual_value_comparisons_scale_bound():
    # A qualitative value is a label; its world scale orders it, by label
    # order, not by the strings ("high" < "low" < "mid" as text).
    w = World("w")
    w.define_scale(StateSpace("O2Level", ("low", "mid", "high"), "ordinal"))
    w.define_scale(StateSpace("Color", ("red", "dark"), "nominal"))
    w.define_substance("blood", merge_policy={"O2Level": "min", "Color": "max"})
    w.define_substance("air", merge_policy={"O2Level": "max"})

    def merged(substance, prop, labels):
        ids = [w.create_portion(substance, properties={prop: label}).id for label in labels]
        return w.merge_portions(ids).properties[prop]

    assert merged("blood", "O2Level", ["high", "mid"]) == "mid"
    assert merged("air", "O2Level", ["mid", "high", "low"]) == "high"
    with pytest.raises(StateError, match="scale 'Color' is nominal"):
        merged("blood", "Color", ["red", "dark"])  # nominal scales have no order
    with pytest.raises(StateError, match="label 'medium' is outside the 'O2Level' space"):
        w.create_portion("blood", properties={"O2Level": "medium"})


def test_interval_scales_rejected_at_registration():
    w = World("w")
    with pytest.raises(ModelError):
        w.define_scale(StateSpace("height", ("1", "2", "3"), "interval"))
    with pytest.raises(ModelError):
        w.define_kind("K", state_spaces=(StateSpace("v", ("a", "b"), "ratio"),))


# ----------------------------------------------------------------------
# cardinality checking


def test_cardinality_violation_names_role():
    w = mammal_world()
    m = w.instantiate("Mammal")
    extra = w.instantiate("Leg")
    w.add_part(m.id, "legs", extra.id)  # 3 legs: not in {2, 4}
    violations = w.check_cardinality(m.id)
    assert [v[0] for v in violations] == ["legs"]
    assert violations[0][1] == 3


def test_four_legs_is_fine():
    w = mammal_world()
    m = w.instantiate("Mammal")
    for _ in range(2):
        w.add_part(m.id, "legs", w.instantiate("Leg").id)
    assert w.check_cardinality(m.id) == []


def test_empty_schema_never_violates():
    w = World("w")
    w.define_kind("Rock")
    r = w.instantiate("Rock")
    assert w.check_cardinality(r.id) == []


def test_child_instance_passes_ancestor_checks():
    w = mammal_world()
    w.define_kind("Dog", parent="Mammal")
    d = w.instantiate("Dog")
    assert w.check_cardinality(d.id) == []
    assert d.states == {}


def test_recursive_part_schema_with_positive_minimum_rejected():
    w = World("w")
    w.define_kind(
        "Box", part_schema=(PartSpec("inner", "Box", "structural", cardinality(1)),)
    )
    with pytest.raises(ModelError):
        w.instantiate("Box")


@given(
    counts=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    allowed=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
)
def test_cardinality_check_sound_and_complete(counts, allowed):
    w = World("w")
    w.define_kind("Widget")
    schema = tuple(
        PartSpec(f"role{i}", "Widget", "structural", cardinality(allowed))
        for i in range(len(counts))
    )
    w.define_kind("Gadget", part_schema=schema)
    g = w.instantiate("Gadget")
    g.parts.clear()
    for i, n in enumerate(counts):
        for _ in range(n):
            w.add_part(g.id, f"role{i}", w.instantiate("Widget").id)
    violated = {f"role{i}" for i, n in enumerate(counts) if n not in allowed}
    assert {v[0] for v in w.check_cardinality(g.id)} == violated


# ----------------------------------------------------------------------
# transitionals


def gas_world():
    w = World("w")
    w.define_scale(StateSpace("O2Level", ("low", "high"), "binary"))
    w.define_scale(StateSpace("CO2Level", ("low", "high"), "binary"))
    w.define_substance(
        "blood", phase="liquid", merge_policy={"O2Level": "min", "CO2Level": "max"}
    )
    return w


def test_merge_uses_min_max_mixing_rule():
    w = gas_world()
    a = w.create_portion("blood", properties={"O2Level": "low", "CO2Level": "high"})
    b = w.create_portion("blood", properties={"O2Level": "high", "CO2Level": "high"})
    merged = w.merge_portions((a.id, b.id))
    assert merged.properties["O2Level"] == "low"
    assert merged.properties["CO2Level"] == "high"
    assert set(merged.provenance) == {a.id, b.id}
    assert not a.alive and not b.alive


def rules_world(policy):
    """Blood with an ordinal, a binary and a nominal property, merged by policy."""
    w = World("w")
    w.define_scale(StateSpace("Warmth", ("cold", "warm", "hot"), "ordinal"))
    w.define_scale(StateSpace("O2Level", ("low", "high"), "binary"))
    w.define_scale(StateSpace("Color", ("red", "dark"), "nominal"))
    w.define_substance("blood", phase="liquid", merge_policy=policy)
    return w


@pytest.mark.parametrize("rule", ["min", "max"])
def test_a_merge_tie_keeps_the_first_parents_value(rule):
    w = rules_world({"Warmth": rule})
    # Two equal labels that are distinct strings, to tell whose is kept.
    a = w.create_portion("blood", properties={"Warmth": "".join("warm")})
    b = w.create_portion("blood", properties={"Warmth": "".join("warm")})
    assert a.properties["Warmth"] is not b.properties["Warmth"]
    merged = w.merge_portions((a.id, b.id))
    assert merged.properties["Warmth"] is a.properties["Warmth"]


def test_a_merged_property_comes_from_the_parents_that_carry_it():
    w = rules_world({"Warmth": "max", "O2Level": "min"})
    a = w.create_portion("blood", properties={"O2Level": "high"})
    b = w.create_portion("blood", properties={"Warmth": "warm"})
    c = w.create_portion("blood", properties={"Warmth": "cold", "O2Level": "high"})
    merged = w.merge_portions((a.id, b.id, c.id))
    assert merged.properties["Warmth"] is b.properties["Warmth"]
    assert merged.properties["O2Level"] is a.properties["O2Level"]  # a tie: the first carrier
    d = w.create_portion("blood")
    e = w.create_portion("blood", properties={"Color": "dark"})
    assert w.merge_portions((d.id, e.id)).properties["Color"] is e.properties["Color"]


def test_merged_properties_keep_their_first_seen_order():
    w = rules_world({"Warmth": "max", "O2Level": "min"})
    a = w.create_portion("blood", properties={"Color": "red"})
    b = w.create_portion("blood", properties={"Warmth": "hot", "O2Level": "low"})
    c = w.create_portion("blood", properties={"O2Level": "high", "Color": "dark"})
    merged = w.merge_portions((a.id, b.id, c.id))
    assert list(merged.properties) == ["Color", "Warmth", "O2Level"]


@pytest.mark.parametrize("policy", [{"Warmth": "first"}, {"Warmth": "average"}, {}])
def test_first_or_an_undeclared_rule_keeps_the_first_carriers_value(policy):
    w = rules_world(policy)
    a = w.create_portion("blood")
    b = w.create_portion("blood", properties={"Warmth": "cold"})
    c = w.create_portion("blood", properties={"Warmth": "hot"})
    merged = w.merge_portions((a.id, b.id, c.id))
    assert merged.properties["Warmth"] is b.properties["Warmth"]


@pytest.mark.parametrize("rule", ["min", "max"])
def test_min_or_max_on_a_nominal_scale_raises_before_any_change(rule):
    w = rules_world({"Color": rule})
    a = w.create_portion("blood", properties={"Color": "red"})
    b = w.create_portion("blood", properties={"Color": "dark"})
    before = (set(w.live_registry), len(w.portions), len(w.transitional_log))
    with pytest.raises(StateError, match="scale 'Color' is nominal; ordinal comparison undefined"):
        w.merge_portions((a.id, b.id))
    assert (set(w.live_registry), len(w.portions), len(w.transitional_log)) == before


def test_split_copies_properties_and_provenance():
    w = gas_world()
    p = w.create_portion("blood", properties={"O2Level": "high", "CO2Level": "low"})
    kids = w.split_portion(p.id, 2)
    assert len(kids) == 2
    for kid in kids:
        assert kid.properties["O2Level"] == "high"
        assert kid.provenance == (p.id,)
    assert not p.alive


def test_dead_subject_rejected():
    w = gas_world()
    p = w.create_portion("blood")
    w.kill(p.id)
    with pytest.raises(DeadSubjectError):
        w.set_state(p.id, "O2Level", "high")
    with pytest.raises(DeadSubjectError):
        w.kill(p.id)  # never resurrected, never re-killed


@pytest.mark.parametrize("call, error, message", [
    (lambda w: w.entity("ghost"), UnknownEntityError, "no entity 'ghost'"),
    (lambda w: w.effective_part_schema("Ghost"), UnknownEntityError, "no kind 'Ghost'"),
    (lambda w: w.set_state("heart", "tension", "contracted"), DeadSubjectError,
     "object 'heart' is dead"),
    (lambda w: w.split_portion("blood-0", 2), DeadSubjectError, "portion 'blood-0' is dead"),
    (lambda w: w.merge_portions(["blood-1", "blood-0"]), DeadSubjectError,
     "portion 'blood-0' is dead"),
    (lambda w: w.ambient("wind"), ModelError, "unknown ambient property 'wind'"),
    (lambda w: Kernel(w).run(-1), ModelError, "n_ticks must be >= 0"),
], ids=["entity", "part_schema", "set_state", "split", "merge", "ambient", "run"])
def test_a_call_on_an_unknown_or_dead_subject_changes_nothing(call, error, message):
    w = build_cardio()
    w.kill("heart")
    w.kill("blood-0")
    before = save_model(w)
    with pytest.raises(error) as exc:
        call(w)
    assert str(exc.value) == message
    assert save_model(w) == before


def test_a_substance_cannot_be_killed():
    w = build_cardio()
    blood = w.substances["blood"]
    before = (vars(blood).copy(), list(w.changes), list(w.transitional_log))
    with pytest.raises(TransitionalError, match="^cannot kill substance 'blood': "):
        w.kill("blood")
    assert (vars(blood), list(w.changes), list(w.transitional_log)) == before
    assert not hasattr(blood, "alive")


def test_split_needs_two_results():
    w = gas_world()
    p = w.create_portion("blood")
    with pytest.raises(TransitionalError):
        w.split_portion(p.id, 1)


def test_merge_needs_two_subjects():
    w = gas_world()
    p = w.create_portion("blood")
    with pytest.raises(TransitionalError):
        w.merge_portions((p.id,))


@pytest.mark.parametrize("ids", [["blood-0", "blood-0"], ["blood-1", "blood-0", "blood-1"]])
def test_a_merge_that_lists_a_portion_twice_changes_nothing(ids):
    from semsim.models import build_cardio

    w = build_cardio()

    def state():
        return (
            list(w.live_registry),
            {cid: list(c.contents) for cid, c in w.compartments.items()},
            dict(w._counters),
            list(w.transitional_log),
        )

    before = state()
    with pytest.raises(TransitionalError, match=r"merge lists \['blood-\d'\] more than once"):
        w.merge_portions(ids, "LeftAtrium")
    assert state() == before


def test_a_merge_of_two_substances_changes_nothing():
    w = build_cardio()
    blood = next(p for p in w.live_registry.values() if p.substance == "blood")
    air = next(p for p in w.live_registry.values() if p.substance == "air")

    def state():
        return (
            [repr(p) for p in (blood, air)],
            list(w.live_registry),
            {cid: list(c.contents) for cid, c in w.compartments.items()},
            dict(w._counters),
            list(w.transitional_log),
            list(w.changes),
        )

    before = state()
    with pytest.raises(TransitionalError, match="^cannot merge portions of different substances$"):
        w.merge_portions((blood.id, air.id), blood.compartment)
    assert state() == before


def test_split_then_merge_counts():
    w = gas_world()
    p = w.create_portion("blood")
    kids = w.split_portion(p.id, 3)
    live = [q for q in w.live_portions("blood")]
    assert len(live) == 3
    merged = w.merge_portions(tuple(k.id for k in kids))
    assert [q.id for q in w.live_portions("blood")] == [merged.id]


def test_provenance_chains_acyclic():
    w = gas_world()
    p = w.create_portion("blood")
    frontier = [p.id]
    for _ in range(3):
        pid = frontier.pop()
        frontier.extend(k.id for k in w.split_portion(pid, 2))
    for pid in list(w.portions):
        seen = set()
        stack = [pid]
        while stack:
            cur = stack.pop()
            assert cur not in seen
            seen.add(cur)
            stack.extend(w.portions[cur].provenance)


def test_dead_entities_retained_for_queries():
    w = gas_world()
    p = w.create_portion("blood")
    w.split_portion(p.id, 2)
    assert p.id in w.portions
    assert not w.portions[p.id].alive


# ----------------------------------------------------------------------
# functions need context


def test_assert_function_requires_context():
    from semsim.engine import Mechanism, register_mechanism

    w = World("w")
    w.define_kind("Bracket")
    b = w.instantiate("Bracket")
    with pytest.raises(MissingContextError):
        w.assert_function(b.id, "positions carburetor", None)
    register_mechanism(
        w, Mechanism("mount", guard=(), effect=lambda kernel: None, subsystem="car")
    )
    fa = w.assert_function(b.id, "positions carburetor", "mount")
    assert fa in w.assertions


def test_assert_function_unknown_subject():
    w = World("w")
    w.define_kind("K")
    w.define_system("sys", [])
    with pytest.raises(UnknownEntityError):
        w.assert_function("nobody", "does things", "sys")


def test_a_scenario_is_a_context_for_a_function():
    from semsim.scenarios import Scenario, apply_scenario

    w = World("w")
    w.define_kind("Valve")
    valve = w.instantiate("Valve")
    apply_scenario(w, Scenario("drill"))
    fa = w.assert_function(valve.id, "stays shut", "drill")
    assert w.assertions == [fa]


@pytest.mark.parametrize("target", ["pump", "loop"])
def test_a_system_or_a_circuit_can_be_annotated(target):
    w = World("w")
    for name in ("A", "B"):
        w.add_compartment(name, "blood_path")
    w.connect("A", "B")
    w.connect("B", "A")
    w.define_circuit("loop", ("A", "B"), {"A": ("B",), "B": ("A",)})
    w.define_system("pump", [])
    note = w.annotate(target, "simplification", "one chamber stands for the heart")
    assert w.list_annotations(target) == [note]
    with pytest.raises(UnknownEntityError, match="annotation target 'ghost' does not exist"):
        w.annotate("ghost", "simplification", "nothing to pin it to")


def test_a_world_keeps_its_attributes_inline():
    # CPython 3.11 reads an instance's attributes fastest while it has at
    # most 29; every step reads the world's registries many times. One
    # change list in place of three change records left it 27, and keeping
    # each mechanism's spec on the mechanism 26.
    assert len(vars(World("w"))) <= 26


def test_a_kinds_state_spaces_are_derived_once_and_read_only():
    import copy
    import pickle

    w = World("w")
    power = StateSpace("power", ("off", "on"), "binary")
    w.define_kind("Device", state_spaces=(power, StateSpace("color", ("green", "red"))))
    w.define_kind("Lamp", parent="Device", state_spaces=(StateSpace("color", ("white", "blue")),
                                                         StateSpace("bulb", ("ok", "blown"))))
    spaces = w.effective_state_spaces("Lamp")
    # The child's color overrides its parent's in the parent's position.
    assert list(spaces) == ["power", "color", "bulb"]
    assert spaces["power"] is power and spaces["color"].labels == ("white", "blue")
    with pytest.raises(TypeError):
        spaces["power"] = StateSpace("power", ("on", "off"), "binary")
    assert w.effective_state_spaces("Lamp") == spaces  # the cache was not written
    for clone in (copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert clone.effective_state_spaces("Lamp") == spaces
    with pytest.raises(UnknownEntityError, match="no kind 'Ghost'"):
        w.effective_state_spaces("Ghost")


def test_a_kinds_substance_is_derived_once_from_its_ancestry():
    w = World("w")
    w.define_substance("blood", phase="liquid")
    w.define_substance("water", phase="liquid")
    w.define_kind("Fluid")
    w.define_kind("BloodPortion", parent="Fluid", substance="blood")
    w.define_kind("Arterial", parent="BloodPortion")
    w.define_kind("Odd", parent="Arterial", substance="water")
    assert [w.effective_substance(k) for k in ("Fluid", "BloodPortion", "Arterial", "Odd")] == [
        None, "blood", "blood", "water",
    ]
    assert w.instantiate("Arterial").substance == "blood"
    with pytest.raises(UnknownEntityError, match="no kind 'Ghost'"):
        w.effective_substance("Ghost")


def test_a_minted_id_skips_the_slots_explicit_ids_claimed():
    w = World("w")
    w.define_substance("blood", phase="liquid")
    w.create_portion("blood", entity_id="blood-0")
    w.create_portion("blood", entity_id="blood-2")
    assert [w.create_portion("blood").id for _ in range(3)] == ["blood-1", "blood-3", "blood-4"]
    with pytest.raises(DuplicateNameError, match="entity id 'blood-4' already in use"):
        w.create_portion("blood", entity_id="blood-4")



def _file_with(edit):
    """A write that loads the world's saved document after edit(data)."""
    def write(world):
        data = save_model(world)
        edit(data)
        load_model(data)
    return write


# Blood's properties, so that only the label is wrong.
BLOOD = {"O2Level": "low", "CO2Level": "low", "Warmth": "low"}
OFF_O2 = "label 'medium' is outside the 'O2Level' space ['low', 'high']"
OFF_TEMPERATURE = (
    "label 'tepid' is outside the 'temperature' space "
    "['below_freezing', 'cold', 'standard', 'warm', 'hot']"
)


@pytest.mark.parametrize("write, error, message", [
    (lambda w: w.define_substance("ink", default_properties={"O2Level": "medium"}),
     StateError, OFF_O2),
    (lambda w: w.define_substance("ink", default_properties={"nib": "blunt"}),
     StateError, "property 'nib' has no scale"),
    (lambda w: w.create_portion("blood", properties={"O2Level": "medium"}), StateError, OFF_O2),
    (lambda w: w.set_state("blood-0", "O2Level", "medium"), StateError, OFF_O2),
    (lambda w: w.set_ambient("temperature", "tepid"), StateError, OFF_TEMPERATURE),
    (lambda w: Microworld({**stp_ambient(), "temperature": "tepid"}), StateError, OFF_TEMPERATURE),
    (lambda w: w.add_portion(Portion("extra", "blood", properties={**BLOOD, "O2Level": "medium"})),
     StateError, OFF_O2),
    (_file_with(lambda d: d["substances"][0]["default_properties"].update(O2Level="medium")),
     SchemaError, f"substances[0]: {OFF_O2}"),
    (_file_with(lambda d: d["objects"][0].update(properties={"O2Level": "medium"})),
     SchemaError, f"objects[0]: {OFF_O2}"),
    (_file_with(lambda d: d["portions"][0]["properties"].update(O2Level="medium")),
     SchemaError, f"portions[0]: {OFF_O2}"),
], ids=["define_substance", "define_substance-no-scale", "create_portion", "set_state",
        "set_ambient", "Microworld", "add_portion", "file-substance", "file-object",
        "file-portion"])
def test_a_label_off_its_scale_is_refused_at_each_write(write, error, message):
    w = build_cardio()
    before = save_model(w)
    with pytest.raises(error) as exc:
        write(w)
    assert str(exc.value) == message
    assert save_model(w) == before


def test_a_loaded_world_keeps_one_string_per_label():
    world = load_model(save_model(build_cardio()))
    values = [v for p in world.portions.values() for v in p.properties.values()]
    assert len(values) == 27 and len({id(v) for v in values}) <= 6
    for p in world.portions.values():
        for prop, label in p.properties.items():
            assert label is world.scales[prop].labels[world.scales[prop].index(label)]


@pytest.mark.parametrize("portion, error, message", [
    (Portion("blood-0", "blood", properties=BLOOD, compartment="AlvAir"),
     DuplicateNameError, "duplicate portion id 'blood-0'"),
    (Portion("heart", "blood", properties=BLOOD), DuplicateNameError, "duplicate portion id 'heart'"),
    (Portion("blood", "blood", properties=BLOOD), DuplicateNameError, "duplicate portion id 'blood'"),
    (Portion("ghost", "nosuch"), UnknownEntityError, "no substance 'nosuch'"),
    (Portion("extra", "blood", properties={**BLOOD, "nib": "blunt"}),
     StateError, "property 'nib' has no scale"),
    (Portion("extra", "blood", properties={"O2Level": "low"}),
     ModelError, "portion 'extra' lacks its substance's properties ['CO2Level', 'Warmth']"),
    (Portion("extra", "blood", properties=BLOOD, compartment="AlvAir", alive=False),
     DeadSubjectError, "dead portion 'extra' cannot be placed in 'AlvAir'"),
], ids=["a-portion-id", "an-object-id", "a-substance-name", "unknown-substance",
        "property-without-scale", "live-without-defaults", "dead-and-placed"])
def test_registering_a_portion_checks_it_before_anything_changes(portion, error, message):
    w = build_cardio()
    before = save_model(w)
    with pytest.raises(error) as exc:
        w.add_portion(portion)
    assert str(exc.value) == message
    assert save_model(w) == before
    assert w.portions["blood-0"].compartment == "LeftAtrium"


def test_a_dead_portion_is_registered_without_its_substances_properties():
    w = build_cardio()
    w.add_portion(Portion("spent", "blood", alive=False))
    assert w.portions["spent"].alive is False and "spent" not in w.live_registry
