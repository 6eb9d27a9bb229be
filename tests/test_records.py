"""The contract every record class keeps: constructor, repr, equality, hashing,
immutability, slots, fresh defaults, construction checks, copying and pickling.

The repr strings are the ones the classes printed when they were dataclasses;
the console prints property reprs, so they must not drift.
"""
import copy
import pickle
import re

import pytest

from semsim import Kernel
from semsim.cli import RunConfig, standard_rules
from semsim.engine import (
    Condition,
    FiringRecord,
    GuardFailure,
    Mechanism,
    Signal,
    StepReport,
    TraceEvent,
    Trigger,
)
from semsim.entities import (
    FunctionAssertion,
    KindDef,
    PartSpec,
    Portion,
    SemObject,
    StateSpace,
    Substance,
    Transitional,
)
from semsim.errors import ModelError, ScenarioError, StateError, TransitionalError
from semsim.frames import Frame, FrameBinding, LexicalEntry, PathSegment, PathSpec
from semsim.models import build_cardio
from semsim.records import FrozenRecord, Record
from semsim.scenarios import Directive, Scenario
from semsim.topology import Circuit, CommitRecord, Compartment, Connection
from semsim.validation import AssertionRule, TriplePattern, ValidationReport, Var, Violation
from semsim.world import Annotation, Microworld, System, Vocabulary

from reference import Move, MoveBatch, SplitPlan

O2 = StateSpace("O2Level", ("low", "high"), "ordinal")
O2_3 = StateSpace("O2Level", ("low", "mid", "high"), "ordinal")


def test_repr_prints_the_dataclass_text():
    assert repr(O2) == (
        "StateSpace(variable='O2Level', labels=('low', 'high'), scale_kind='ordinal')"
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
    assert O2 != O2_3
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
        (Var("p"), "name"),
        (TriplePattern(Var("p"), "locatedIn", "A"), "obj"),
        (Connection("A", "B"), "to_id"),
        (Move("p", "A", "B"), "dst"),
        (Vocabulary(), "literals"),
        (Directive("disable_trigger", ("SANode",)), "op"),
        (PathSegment(2, slope=(-1, 10)), "slope"),
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
    assert repr(a) == "MoveBatch(moves=[], splits=[], movers=set())"


@pytest.mark.parametrize(
    "record",
    [
        Portion("p", "blood"),
        Transitional("birth", ("p",), ("blood",)),
        StepReport(0),
        Move("p", "A", "B"),
        Violation("rule"),
        ValidationReport(),
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
        (lambda: StepReport(0), ("fired", "guard_failures", "lines")),
        (lambda: Compartment("A", "A"), ("contents",)),
        (lambda: Circuit("ring", ("A",)), ("successors",)),
        (lambda: MoveBatch(), ("moves", "splits", "movers")),
        (lambda: Violation("rule"), ("bindings",)),
        (lambda: ValidationReport(), ("violations",)),
        (lambda: FrameBinding(Frame("F", ("Theme",))), ("element_map",)),
        (lambda: Scenario("s"), ("overrides",)),
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
        (lambda: Substance("water", StateSpace("phase", ("solid", "liquid")), "gas"), StateError),
        (lambda: Transitional("teleport", ("p",)), TransitionalError),
        (lambda: Transitional("split", ("p",), ("q",)), TransitionalError),
        (lambda: PartSpec("valve", "Valve", "decorative"), StateError),
        (lambda: PartSpec("valve", "Valve", cardinality=frozenset()), StateError),
        (lambda: Frame("F", ()), ModelError),
        (lambda: Frame("F", ("Theme",), ("Theme",)), ModelError),
        (lambda: PathSegment(0), ValueError),
        (lambda: PathSegment(2, slope=(0.5, 1)), ValueError),
        (lambda: PathSegment(True), ValueError),
        (lambda: PathSegment(2, slope=(1,)), ValueError),
        (lambda: Directive("explode", ()), ScenarioError),
        (lambda: AssertionRule("r", TriplePattern("a", "b", "c"), "maybe"), ModelError),
        (lambda: AssertionRule("r", TriplePattern(Var("a"), Var("b"), Var("c"))), ModelError),
        (lambda: AssertionRule("r", TriplePattern("a", "b", "c"), "count_in_set"), ModelError),
        (lambda: Trigger("t", 0, "M"), ModelError),
        (lambda: Microworld({}), ModelError),
        (lambda: PartSpec("valve", "Valve", cardinality=frozenset({-1})), StateError),
        (lambda: Transitional("split", ("p", "q"), ("r", "s")), TransitionalError),
        (lambda: Transitional("merge", ("p",), ("r",)), TransitionalError),
        (lambda: Transitional("merge", ("p", "q"), ("r", "s")), TransitionalError),
    ],
)
def test_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


ALWAYS = Condition("always", lambda w: True)

#: One instance of every record class.
EXAMPLES = [
    Connection("A", "B"),
    Circuit("ring", ("A", "B"), {"A": ("B",), "B": ("A",)}),
    Move("p", "A", "B"),
    SplitPlan("p", "A", ("B", "C")),
    Var("p"),
    TriplePattern(Var("p"), "locatedIn", "LeftAtrium"),
    O2,
    PartSpec("valve", "Valve"),
    FunctionAssertion("heart", "pumps blood", "circulation"),
    Annotation("idealization", "blood", "stays intact"),
    System("circulation", ("HeartbeatPush",)),
    Vocabulary({"a"}, (r"\d+ pool",)),
    ALWAYS,
    Signal("Medulla", "Diaphragm", "contract"),
    TraceEvent(3, "SANode pulse"),
    Frame("F", ("Theme",), ("Manner",), "text"),
    LexicalEntry("flowing", "F"),
    PathSegment(2, slope=(-1, 10), label="upper"),
    PathSpec((PathSegment(2),)),
    Directive("disable_trigger", ("SANode",)),
    Compartment("A", "A", contents=["p"]),
    MoveBatch(),
    CommitRecord([("p", "A", "B")]),
    AssertionRule("r", TriplePattern(Var("p"), "locatedIn", Var("c")), reads={"locatedIn"}),
    Violation("rule", {"c": "A"}),
    ValidationReport([Violation("rule")]),
    KindDef("Heart", part_schema=(PartSpec("valve", "Valve"),)),
    SemObject("o", "Heart", states={"tension": "relaxed"}),
    Substance("water", StateSpace("phase", ("solid", "liquid")), "liquid"),
    Portion("p", "blood", properties={"O2Level": "low"}),
    Transitional("birth", ("p",), ("blood",)),
    Microworld(),
    Mechanism("M", (ALWAYS,), lambda kernel: None),
    Trigger("t", 2, "M"),
    FiringRecord("M", "trigger:t"),
    GuardFailure("M", "trigger:t", ["always"]),
    StepReport(0, lines=["x"], validation=ValidationReport()),
    FrameBinding(Frame("F", ("Theme",)), {"Theme": "water"}),
    Scenario("s", [Directive("disable_trigger", ("SANode",))]),
    RunConfig("cardio", steps=3),
]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub is not FrozenRecord:
            yield sub
        yield from _record_classes(sub)


def test_the_examples_cover_every_record_class():
    assert {type(r) for r in EXAMPLES} == set(_record_classes())


def _assert_same_record(copied, record):
    assert copied is not record and type(copied) is type(record)
    assert repr(copied) == repr(record)
    if type(record) is not MoveBatch:  # a batch compares by identity
        assert copied == record


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
def test_every_record_deep_copies(record):
    _assert_same_record(copy.deepcopy(record), record)
    _assert_same_record(copy.copy(record), record)


@pytest.mark.parametrize(
    "record",
    [r for r in EXAMPLES if not any(callable(v) for v in r._values())],
    ids=lambda r: type(r).__name__,
)
def test_every_record_without_a_callable_field_pickles(record):
    _assert_same_record(pickle.loads(pickle.dumps(record)), record)


def test_a_circuit_hashes_on_its_name_and_order_and_compares_all_three_fields():
    ring = Circuit("ring", ("A", "B"), {"A": ("B",), "B": ("A",)})
    same = Circuit("ring", ("A", "B"), {"A": ("B",), "B": ("A",)})
    assert hash(ring) == hash(same) and len({ring, same}) == 1
    dead_end = Circuit("ring", ("A", "B"), {"A": ("B",)})
    assert dead_end != ring and hash(dead_end) == hash(ring)
    assert hash(copy.deepcopy(ring)) == hash(ring) and copy.copy(ring) == ring


def test_a_copied_record_rebuilds_its_derived_fields():
    pattern = copy.deepcopy(TriplePattern(Var("p"), "locatedIn", "LeftAtrium"))
    assert pattern._ground == ((1, "locatedIn"), (2, "LeftAtrium"))
    assert pattern._vars == ((0, "p"),)


def test_a_kernel_that_has_traced_a_line_deep_copies():
    kernel = Kernel(build_cardio())
    standard_rules(kernel)
    kernel.run(4)
    assert kernel.trace_lines()
    clone = copy.deepcopy(kernel)
    assert clone.trace_lines() == kernel.trace_lines()
    assert clone.world is not kernel.world


@pytest.mark.parametrize(
    "make, tables",
    [
        (lambda: StateSpace("O2Level", ("low", "mid", "high"), "ordinal"),
         {"_ranks": {"low": 0, "mid": 1, "high": 2}}),
        (lambda: Vocabulary({"a"}, (r"\d+ pool", "b+")),
         {"_literal_table": {"a": "a"},
          "_compiled": (re.compile(r"\d+ pool"), re.compile("b+"))}),
    ],
    ids=["StateSpace", "Vocabulary"],
)
def test_records_with_derived_tables_compare_hash_copy_and_pickle_by_their_fields(make, tables):
    record, twin = make(), make()
    assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)
    assert not any(name in repr(record) for name in tables)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        _assert_same_record(clone, record)
        assert hash(clone) == hash(record)
        for name, table in tables.items():
            assert getattr(clone, name) == table


def test_a_state_spaces_rank_table_answers_index_and_rank():
    space = StateSpace("O2Level", ("low", "mid", "high"), "ordinal")
    assert [space.index(label) for label in space.labels] == [0, 1, 2]
    for outside in ("none", ["low"]):  # an unknown label, and an unhashable one
        with pytest.raises(StateError, match="is outside the 'O2Level' space"):
            space.index(outside)


def test_a_vocabulary_compiles_its_patterns_once_and_refuses_a_bad_one():
    vocabulary = Vocabulary({"a"}, (r"\d+ pool",))
    assert vocabulary.canonical("12 pool") == "12 pool"
    assert vocabulary.canonical("12 pools") is None and vocabulary.canonical("a") == "a"
    with pytest.raises(re.error, match="missing \\)"):
        Vocabulary(patterns=("(",))
