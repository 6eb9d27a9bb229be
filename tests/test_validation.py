import pytest

from semsim import Kernel, StateSpace, Triple, TriplePattern, Var, World
from semsim.errors import DuplicateNameError, ModelError
from semsim.validation import (
    AssertionRule,
    capacity_rule,
    connection_present_rule,
    dangling_location_rule,
    derive_triples,
    fluidity_rule,
    Snapshot,
    register_rule,
)

from reference import reference_triples


def small_world():
    w = World("w")
    w.define_substance("blood", phase="liquid")
    w.add_compartment("LeftAtrium", "blood_path", 1)
    w.add_compartment("LeftVentricle", "blood_path", 1)
    w.connect("LeftAtrium", "LeftVentricle", "fluid")
    return w


def test_derive_triples_portion_location():
    w = small_world()
    p = w.create_portion("blood", compartment="LeftAtrium")
    triples = derive_triples(w)
    assert Triple(p.id, "locatedIn", "LeftAtrium") in triples
    assert Triple("LeftAtrium", "connectedTo", "LeftVentricle") in triples


def test_derive_triples_empty_world():
    assert derive_triples(World("empty")) == frozenset()


def test_derive_triples_excludes_dead():
    w = small_world()
    p = w.create_portion("blood", compartment="LeftAtrium")
    w.kill(p.id)
    assert all(t.subject != p.id for t in derive_triples(w))


def test_derive_triples_object_states_and_parts():
    w = World("w")
    w.define_kind("Wheel")
    w.define_kind(
        "Cart",
        state_spaces=(StateSpace("motion", ("still", "rolling"), "binary"),),
    )
    cart = w.instantiate("Cart")
    wheel = w.instantiate("Wheel")
    w.add_part(cart.id, "wheels", wheel.id)
    # A qualitative property, as a model file's object may carry one.
    tone = w.define_scale(StateSpace("tone", ("slack", "taut"), "binary"))
    cart.properties["tone"] = "taut"
    triples = derive_triples(w)
    assert Triple(cart.id, "hasState:motion", "still") in triples
    assert Triple(cart.id, "hasPart:wheels", wheel.id) in triples
    assert Triple(cart.id, "hasState:tone", "taut") in triples
    assert triples == reference_triples(w)


def test_cardio_initial_world_has_seven_blood_locations(cardio_world):
    blood_compartments = {
        c.id for c in cardio_world.compartments.values() if c.medium == "blood_path"
    }
    located = [
        t for t in derive_triples(cardio_world)
        if t.predicate == "locatedIn" and t.obj in blood_compartments
    ]
    assert len(located) == 7


def test_register_rule_duplicate_and_fully_variable():
    rules = {}
    register_rule(rules, capacity_rule())
    with pytest.raises(DuplicateNameError):
        register_rule(rules, capacity_rule())
    with pytest.raises(ModelError):
        AssertionRule("loose", TriplePattern(Var("a"), Var("b"), Var("c")))


def test_validate_passes_clean_world():
    w = small_world()
    w.create_portion("blood", compartment="LeftAtrium")
    rules = {}
    register_rule(rules, capacity_rule())
    register_rule(rules, dangling_location_rule())
    assert not Snapshot(w).violations(rules)


def test_dangling_location_detected():
    w = small_world()
    p = w.create_portion("blood", compartment="LeftAtrium")
    del w.compartments["LeftAtrium"]
    rules = {}
    register_rule(rules, dangling_location_rule())
    violations = Snapshot(w).violations(rules)
    assert violations
    assert violations[0].rule == "location-resolves"
    assert violations[0].bindings["p"] == p.id


def test_fluidity_rule_flags_frozen_mid_path():
    w = World("w")
    w.define_substance("water", phase="liquid")
    w.define_kind(
        "WaterPortion",
        state_spaces=(StateSpace("Location", ("null", "upper", "drop", "pool")),),
        substance="water",
    )
    p = w.instantiate("WaterPortion")
    w.set_state(p.id, "Location", "drop")
    # Another substance's portion mid-path is not the rule's to flag.
    w.define_substance("oil", phase="liquid")
    w.define_kind("OilPortion", parent="WaterPortion", substance="oil")
    oil = w.instantiate("OilPortion")
    w.set_state(oil.id, "Location", "drop")
    rules = {}
    register_rule(rules, fluidity_rule("water"))
    assert not Snapshot(w).violations(rules)
    w.set_state("water", "phase", "solid")
    w.set_state("oil", "phase", "solid")
    assert [(v.rule, v.bindings["p"]) for v in Snapshot(w).violations(rules)] == [
        ("water-fluid-while-moving", p.id)
    ]


def test_validate_is_pure():
    w = small_world()
    w.create_portion("blood", compartment="LeftAtrium")
    rules = {}
    register_rule(rules, capacity_rule())
    assert Snapshot(w).violations(rules) == Snapshot(w).violations(rules)
    assert derive_triples(w) == derive_triples(w)


def test_rule_monotonicity():
    w = small_world()
    p = w.create_portion("blood", compartment="LeftAtrium")
    del w.compartments["LeftAtrium"]

    few = {}
    register_rule(few, capacity_rule())
    many = dict(few)
    register_rule(many, dangling_location_rule())
    v_few = {(v.rule, tuple(sorted(v.bindings.items()))) for v in Snapshot(w).violations(few)}
    v_many = {(v.rule, tuple(sorted(v.bindings.items()))) for v in Snapshot(w).violations(many)}
    assert v_few <= v_many


def test_count_in_set_expectation():
    w = small_world()
    w.create_portion("blood", compartment="LeftAtrium")
    rule = AssertionRule(
        "exactly-one-located",
        TriplePattern(Var("p"), "locatedIn", Var("c")),
        expectation="count_in_set",
        counts=frozenset({1}),
    )
    rules = {"exactly-one-located": rule}
    assert not Snapshot(w).violations(rules)
    w.create_portion("blood", compartment="LeftVentricle")
    assert Snapshot(w).violations(rules)


def test_connection_rule_clean_on_unmodified_cardio(cardio_world):
    from semsim.cli import standard_rules

    kernel = Kernel(cardio_world)
    standard_rules(kernel)
    kernel.run(50)
    connection_violations = [
        v
        for r in kernel.reports
        for v in r.validation.violations
        if v.rule == "connection-present"
    ]
    assert connection_violations == []
    assert len(kernel.reports) == 50
