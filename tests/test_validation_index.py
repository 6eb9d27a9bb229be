"""The predicate-indexed validator against the algorithm it replaced.

The reference evaluator (tests/reference.py) is the original one: sort the
whole snapshot by (subject, predicate, obj) and try every rule's pattern on
every triple. The indexed validator must report the same violations in the
same order, bindings included. The live-portion registry must always equal
the live subset of the portion history, in birth order, and each
compartment's contents the live portions placed there.
"""
from unittest import mock

from hypothesis import given, settings, strategies as st

from semsim import Kernel, Triple, TriplePattern, Var, World, topology
from semsim.cli import standard_rules
from semsim.modelfile import load_model, load_model_file, save_model, save_model_file
from semsim.models import build_cardio, build_waterfall
from semsim.validation import EXPECTATIONS, AssertionRule, Snapshot, derive_triples

from reference import as_items, reference_triples, reference_violations


# ----------------------------------------------------------------------
# random snapshots and rules

NODES = ("a", "b", "c", "d")
PREDICATES = ("p", "q", "r")
VARS = ("x", "y", "z")


def _check_pointed_at_a(bindings, world, triples):
    return Triple(bindings.get("x", "a"), "p", "a") in triples


def _check_even_snapshot(bindings, world, triples):
    return len(triples) % 2 == 0


def _check_binds_b(bindings, world, triples):
    return "b" in bindings.values()


def _check_reverse_edge(bindings, world, triples):
    return Triple(bindings.get("y", "b"), bindings.get("z", "q"), bindings.get("x", "c")) in triples


CHECKS = (None, _check_pointed_at_a, _check_even_snapshot, _check_binds_b, _check_reverse_edge)

triple_sets = st.frozensets(
    st.builds(
        Triple, st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(NODES)
    ),
    max_size=40,
)


def _term(ground):
    return st.one_of(st.sampled_from(ground), st.builds(Var, st.sampled_from(VARS)))


patterns = st.builds(
    TriplePattern, _term(NODES), _term(PREDICATES + ("absent",)), _term(NODES)
).filter(lambda p: p.ground_terms() > 0)


@st.composite
def rule_sets(draw):
    rules = {}
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        expectation = draw(st.sampled_from(EXPECTATIONS))
        counts = None
        if expectation == "count_in_set":
            counts = draw(st.frozensets(st.integers(min_value=0, max_value=6), max_size=3))
        name = f"r{i}"
        rules[name] = AssertionRule(
            name,
            draw(patterns),
            expectation=expectation,
            counts=counts,
            check=draw(st.sampled_from(CHECKS)),
        )
    return rules


@settings(max_examples=300, deadline=None)
@given(triples=triple_sets, rules=rule_sets())
def test_indexed_validation_equals_full_scan(triples, rules):
    world = World("snapshot")
    # An empty world whose only triples are these, fed in where a build
    # reads the wiring.
    with mock.patch("semsim.validation._wiring_triples", return_value=list(triples)):
        assert derive_triples(world) == triples
        violations = Snapshot(world, rules).violations()
    assert as_items(violations) == reference_violations(world, triples, rules)


def test_repeated_variable_pattern_binds_once():
    pattern = TriplePattern(Var("x"), "p", Var("x"))
    assert pattern.match(Triple("a", "p", "a")) == {"x": "a"}
    assert pattern.match(Triple("a", "p", "b")) is None
    assert pattern.match(Triple("a", "q", "a")) is None


def test_predicate_only_pattern_binds_subject_and_object():
    pattern = TriplePattern(Var("s"), "p", Var("o"))
    assert pattern.match(Triple("a", "p", "b")) == {"s": "a", "o": "b"}
    assert pattern.match(Triple("a", "q", "b")) is None


# ----------------------------------------------------------------------
# shipped models, step by step


def _extra_rules():
    return {
        "seven-located": AssertionRule(
            "seven-located",
            TriplePattern(Var("p"), "locatedIn", Var("c")),
            expectation="count_in_set",
            counts=frozenset({7}),
        ),
        "nothing-points-at-lv": AssertionRule(
            "nothing-points-at-lv",
            TriplePattern(Var("s"), Var("p"), "LeftVentricle"),
            expectation="must_not_exist",
        ),
        "some-push": AssertionRule(
            "some-push", TriplePattern(Var("a"), "pushedTo", Var("b"))
        ),
    }


@settings(max_examples=10, deadline=None)
@given(
    ticks=st.integers(min_value=0, max_value=120),
    model=st.sampled_from(["cardio", "waterfall"]),
)
def test_model_runs_validate_like_full_scan(ticks, model):
    world = build_cardio() if model == "cardio" else build_waterfall(n_portions=6)
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    rules = {**kernel.rules, **_extra_rules()}
    for _ in range(ticks):
        kernel.step()
        triples = reference_triples(world)
        assert derive_triples(world) == triples
        violations = Snapshot(world, rules).violations()
        assert as_items(violations) == reference_violations(world, triples, rules)


# ----------------------------------------------------------------------
# live-portion registry


def assert_registry_consistent(world):
    expected = [(pid, p) for pid, p in world.portions.items() if p.alive]
    assert list(world.live_registry.items()) == expected


def assert_placement_invariant(world):
    for cid, comp in world.compartments.items():
        placed = {pid for pid, p in world.live_registry.items() if p.compartment == cid}
        assert len(set(comp.contents)) == len(comp.contents)
        assert set(comp.contents) == placed  # so no dead id is in any contents


SUCCESSORS = {"A": ("B", "C"), "B": ("C",), "C": ("A",)}


def _small_world():
    w = World("registry")
    w.define_substance("blood", phase="liquid")
    for name in ("A", "B", "C"):
        # B fills up, so commits into it merge.
        w.add_compartment(name, "blood_path", capacity=1 if name == "B" else None)
    for src, dsts in SUCCESSORS.items():
        for dst in dsts:
            w.connect(src, dst)
    return w


OPS = ("create", "split", "merge", "kill", "place", "move")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_registry_tracks_random_lifecycles(data):
    w = _small_world()
    compartments = sorted(w.compartments)
    for _ in range(data.draw(st.integers(min_value=1, max_value=25), label="ops")):
        live = list(w.live_registry)
        placed = [pid for pid in live if w.portions[pid].compartment is not None]
        op = data.draw(st.sampled_from(OPS), label="op")
        if op == "create" or not live:
            where = data.draw(st.sampled_from([None, *compartments]), label="where")
            w.create_portion("blood", compartment=where)
        elif op == "split":
            w.split_portion(data.draw(st.sampled_from(live)), data.draw(st.integers(2, 3)))
        elif op == "merge" and len(live) >= 2:
            ids = data.draw(st.lists(st.sampled_from(live), min_size=2, max_size=3, unique=True))
            where = data.draw(st.sampled_from([None, *compartments]), label="dest")
            w.merge_portions(ids, where)
        elif op == "kill":
            w.kill(data.draw(st.sampled_from(live)))
        elif op == "place":
            where = data.draw(st.sampled_from(compartments), label="to")
            w.place_portion(data.draw(st.sampled_from(live)), where)
        elif op == "move" and placed:
            moves, splits = [], []
            movers = st.lists(st.sampled_from(placed), min_size=1, max_size=3, unique=True)
            for pid in data.draw(movers, label="movers"):
                src = w.portions[pid].compartment
                dsts = SUCCESSORS[src]
                if len(dsts) > 1 and data.draw(st.booleans(), label="split"):
                    splits.append((pid, src, dsts))
                else:
                    moves.append((pid, src, data.draw(st.sampled_from(dsts))))
            topology.commit(w, moves, splits, {pid for pid, _src, _dst in moves + splits})
        assert_registry_consistent(w)
        assert_placement_invariant(w)
        for cid in compartments:
            first_live = next(
                (w.portions[p] for p in w.compartments[cid].contents if w.portions[p].alive), None
            )
            assert w.occupant(cid) is first_live
    reloaded = load_model(save_model(w))
    assert_registry_consistent(reloaded)
    assert_placement_invariant(reloaded)
    assert list(reloaded.live_registry) == list(w.live_registry)
    for cid, comp in w.compartments.items():
        assert reloaded.compartments[cid].contents == comp.contents


def test_registry_survives_midrun_file_roundtrip(tmp_path):
    world = build_cardio()
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(37)
    assert len(world.portions) > len(world.live_registry)  # dead history exists
    path = tmp_path / "cardio-midrun.json"
    save_model_file(world, path)
    reloaded = load_model_file(path)
    assert_registry_consistent(reloaded)
    assert list(reloaded.live_registry) == list(world.live_registry)
    assert derive_triples(reloaded) == reference_triples(reloaded)
