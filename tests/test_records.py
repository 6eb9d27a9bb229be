"""The contract every record class keeps: constructor, repr, equality, hashing,
immutability, slots, fresh defaults and construction checks.

The repr strings are the ones the classes printed when they were dataclasses;
the console prints property reprs, so they must not drift.
"""
import pytest

from semsim.cli import RunConfig
from semsim.engine import StepReport, Trigger
from semsim.entities import (
    PartSpec,
    Portion,
    QualValue,
    SemObject,
    StateSpace,
    Substance,
    Transitional,
)
from semsim.errors import ModelError, ScenarioError, StateError, TransitionalError
from semsim.frames import Frame, FrameBinding, PathSegment
from semsim.models.cardio import CardioConfig
from semsim.models.waterfall import WaterfallConfig
from semsim.scenarios import Directive, Scenario
from semsim.topology import Circuit, Compartment, Connection, Move, MoveBatch
from semsim.validation import AssertionRule, TriplePattern, ValidationReport, Var, Violation
from semsim.world import Microworld, Vocabulary

O2 = StateSpace("O2Level", ("low", "high"), "ordinal")


def test_repr_prints_the_dataclass_text():
    assert repr(O2) == (
        "StateSpace(variable='O2Level', labels=('low', 'high'), scale_kind='ordinal')"
    )
    assert repr(QualValue(O2, "high")) == (
        "QualValue(scale=StateSpace(variable='O2Level', labels=('low', 'high'), "
        "scale_kind='ordinal'), level='high')"
    )
    portion = Portion("blood-1", "blood", compartment="LeftAtrium")
    assert repr(portion) == (
        "Portion(id='blood-1', substance='blood', kind=None, properties={}, x=None, y=None, "
        "compartment='LeftAtrium', location_state='null', provenance=(), alive=True)"
    )
    assert repr(Violation("capacity", {"c": "LeftAtrium"})) == (
        "Violation(rule='capacity', bindings={'c': 'LeftAtrium'})"
    )
    # The derived _ground and _vars are left out, as repr=False left them out.
    assert repr(TriplePattern(Var("p"), "locatedIn", Var("c"))) == (
        "TriplePattern(subject=Var(name='p'), predicate='locatedIn', obj=Var(name='c'))"
    )
    assert repr(RunConfig("cardio", steps=3)) == (
        "RunConfig(model='cardio', steps=3, portions=None, seed=0, mode='deterministic', "
        "validate_policy='halt', trace_path=None, scenario_path=None)"
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: QualValue(O2, "low"),
        lambda: StateSpace("O2Level", ("low", "high"), "ordinal"),
        lambda: Var("p"),
        lambda: TriplePattern(Var("p"), "locatedIn", "LeftAtrium"),
        lambda: Connection("LeftAtrium", "LeftVentricle"),
        lambda: Move("blood-1", "LeftAtrium", "LeftVentricle"),
    ],
    ids=lambda make: type(make()).__name__,
)
def test_equal_frozen_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_frozen_records_differ_by_any_field_and_never_equal_another_class():
    assert QualValue(O2, "low") != QualValue(O2, "high")
    assert Connection("A", "B") != Connection("A", "B", "nerve")
    assert Var("p") != ("p",)
    assert TriplePattern("a", "b", "c") != TriplePattern("a", "b", Var("c"))


def test_derived_fields_take_no_part_in_equality_and_are_set_at_construction():
    pattern = TriplePattern(Var("p"), "locatedIn", "LeftAtrium")
    assert pattern._ground == ((1, "locatedIn"), (2, "LeftAtrium"))
    assert pattern._vars == ((0, "p"),)
    vocabulary = Vocabulary({"a"}, (r"\d+ pool",))
    assert vocabulary == Vocabulary(frozenset({"a"}), (r"\d+ pool",))
    assert vocabulary.canonical("a") == "a" and vocabulary.allows("3 pool")


@pytest.mark.parametrize(
    "record, name",
    [
        (O2, "labels"),
        (QualValue(O2, "low"), "level"),
        (Var("p"), "name"),
        (TriplePattern(Var("p"), "locatedIn", "A"), "obj"),
        (Connection("A", "B"), "to_id"),
        (Move("p", "A", "B"), "dst"),
        (Vocabulary(), "literals"),
        (Directive("disable_trigger", ("SANode",)), "op"),
        (WaterfallConfig(), "vertical_drop"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_assigning_or_deleting_a_frozen_field_raises(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_mutable_records_compare_by_value_but_do_not_hash():
    assert Portion("p", "blood") == Portion("p", "blood")
    assert Portion("p", "blood") != Portion("p", "blood", alive=False)
    assert Trigger("t", 2, "M") == Trigger("t", 2, "M")
    with pytest.raises(TypeError):
        hash(Portion("p", "blood"))


def test_move_batches_with_equal_contents_are_not_equal():
    a, b = MoveBatch(), MoveBatch()
    assert a != b and not a == b
    assert a == a
    assert a in [a] and b not in [a]
    assert len({a, b}) == 2
    assert repr(a) == "MoveBatch(moves=[], splits=[], status='staging', movers=set())"


@pytest.mark.parametrize(
    "record",
    [
        Portion("p", "blood"),
        Transitional("birth", ("p",), ("blood",)),
        StepReport(0),
        Move("p", "A", "B"),
        Violation("rule"),
        ValidationReport(0),
    ],
    ids=lambda record: type(record).__name__,
)
def test_slotted_records_have_no_attribute_dict(record):
    assert not hasattr(record, "__dict__")
    if type(record) is not Move:  # frozen: the assignment test above covers it
        with pytest.raises(AttributeError):
            record.not_a_field = 1


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: SemObject("o", "Heart"), ("parts", "states", "properties")),
        (lambda: Substance("water", StateSpace("phase", ("solid", "liquid")), "liquid"),
         ("default_properties", "merge_policy")),
        (lambda: Portion("p", "blood"), ("properties",)),
        (lambda: StepReport(0), ("fired", "guard_failures", "traces")),
        (lambda: Compartment("A", "A"), ("contents",)),
        (lambda: Circuit("ring", ("A",)), ("successors",)),
        (lambda: MoveBatch(), ("moves", "splits", "movers")),
        (lambda: Violation("rule"), ("bindings",)),
        (lambda: ValidationReport(0), ("violations",)),
        (lambda: FrameBinding(Frame("F", ("Theme",))), ("element_map",)),
        (lambda: Scenario("s"), ("overrides",)),
        (lambda: CardioConfig(), ("circuit", "periods", "initial_blood", "initial_air")),
        (lambda: Microworld(), ("ambient",)),
    ],
    ids=lambda value: type(value()).__name__ if callable(value) else "",
)
def test_default_lists_and_dicts_are_fresh_per_instance(make, fields):
    a, b = make(), make()
    for name in fields:
        assert getattr(a, name) is not getattr(b, name), name
        assert getattr(a, name) == getattr(b, name), name


def test_constructors_keep_their_positional_order_and_defaults():
    portion = Portion("p", "blood", "BloodPortion", {}, 1, 2, "A", "here", ("q",), False)
    assert (portion.kind, portion.x, portion.y, portion.compartment) == ("BloodPortion", 1, 2, "A")
    assert (portion.location_state, portion.provenance, portion.alive) == ("here", ("q",), False)
    trigger = Trigger("t", 3, "M")
    assert (trigger.phase, trigger.enabled) == (0, True)
    rule = AssertionRule("r", TriplePattern(Var("p"), "locatedIn", Var("c")), reads={"locatedIn"})
    assert rule.expectation == "must_exist" and rule.reads == frozenset({"locatedIn"})
    assert type(rule.reads) is frozenset
    assert PartSpec("valve", "Valve").cardinality == frozenset({1})


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: StateSpace("v", ("a", "a")), StateError),
        (lambda: StateSpace("v", ("a", "b"), "interval_ish"), StateError),
        (lambda: QualValue(O2, "medium"), StateError),
        (lambda: Transitional("teleport", ("p",)), TransitionalError),
        (lambda: Transitional("split", ("p",), ("q",)), TransitionalError),
        (lambda: PartSpec("valve", "Valve", "decorative"), StateError),
        (lambda: PartSpec("valve", "Valve", cardinality=frozenset()), StateError),
        (lambda: Frame("F", ()), ModelError),
        (lambda: Frame("F", ("Theme",), ("Theme",)), ModelError),
        (lambda: PathSegment(0), ValueError),
        (lambda: PathSegment(2, slope=(0.5, 1)), ValueError),
        (lambda: WaterfallConfig(upper_bed_length=True), ValueError),
        (lambda: WaterfallConfig(drop_delta=(1,)), ValueError),
        (lambda: Directive("explode", ()), ScenarioError),
        (lambda: AssertionRule("r", TriplePattern("a", "b", "c"), "maybe"), ModelError),
        (lambda: AssertionRule("r", TriplePattern(Var("a"), Var("b"), Var("c"))), ModelError),
        (lambda: AssertionRule("r", TriplePattern("a", "b", "c"), "count_in_set"), ModelError),
        (lambda: Trigger("t", 0, "M"), ModelError),
        (lambda: Microworld({}), ModelError),
    ],
)
def test_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()
