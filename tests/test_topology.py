import copy
import re

import pytest
from hypothesis import given, settings, strategies as st

from semsim import Kernel, Portion, StateSpace, Transitional, Vocabulary, World, topology
from semsim.errors import (
    CapacityExceeded,
    DeadSubjectError,
    DuplicateMover,
    DuplicateNameError,
    ModelError,
    PortionNotPresent,
    PushWithoutConnection,
    SemsimError,
    StateError,
    UnknownEntityError,
)
from semsim.modelfile import save_model

from semsim.frames import _circuit_flow
from semsim.validation import Snapshot, capacity_rule, derive_triples

from reference import merged_properties, staged_circuit_flow, staged_move, staged_ring_push


def world_state(w):
    """Everything a failed commit must leave as it was."""
    return (
        {pid: (p.alive, p.compartment) for pid, p in w.portions.items()},
        {cid: list(c.contents) for cid, c in w.compartments.items()},
        len(w.transitional_log),
        list(w.changes),
    )


def flow_push(w, circuit):
    """One firing of a circuit flow over circuit: the commit record it made
    and the lines it emitted."""
    w.vocabulary = Vocabulary(patterns=(r"pushed \w+Blood", "trigger updates"))
    kernel = Kernel(w, validate_policy="off")
    _circuit_flow(w, "Flow", "blood", circuit).effect(kernel)
    return w.changes[-1], kernel.current_report.lines


def transitionals(w, kind):
    """The change list's transitionals of one kind: a commit's splits and merges."""
    return [r for r in w.changes if isinstance(r, Transitional) and r.kind == kind]


def line_world(n=3, capacity=1, medium="blood_path"):
    w = World("line")
    w.define_substance("blood", phase="liquid")
    names = [f"C{i}" for i in range(n)]
    for name in names:
        w.add_compartment(name, medium, capacity)
    for a, b in zip(names, names[1:]):
        w.connect(a, b, "fluid")
    return w, names


def test_add_compartment_and_duplicates():
    w = World("w")
    w.add_compartment("LeftAtrium", "blood_path", 1)
    w.add_compartment("ExternalAir", "air_path", capacity=None)
    with pytest.raises(DuplicateNameError):
        w.add_compartment("LeftAtrium", "blood_path", 1)
    with pytest.raises(ModelError):
        w.add_compartment("Bad", "blood_path", 0)


def test_connect_and_direction():
    w, names = line_world()
    assert w.is_connected("C0", "C1", "fluid")
    assert not w.is_connected("C1", "C0", "fluid")
    with pytest.raises(UnknownEntityError):
        w.connect("C0", "Nowhere", "fluid")
    with pytest.raises(DuplicateNameError):
        w.connect("C0", "C1", "fluid")


def test_is_connected_empty_graph():
    w = World("w")
    assert not w.is_connected("A", "B", "fluid")


def test_stage_requires_connection():
    w, names = line_world()
    p = w.create_portion("blood", compartment="C1")
    before = world_state(w)
    with pytest.raises(PushWithoutConnection):
        topology.move(w, p.id, "C1", "C0")  # edge is C0 -> C1 only
    assert world_state(w) == before


def test_stage_requires_presence():
    w, names = line_world()
    p = w.create_portion("blood", compartment="C0")
    before = world_state(w)
    with pytest.raises(PortionNotPresent):
        topology.move(w, p.id, "C1", "C2")
    assert world_state(w) == before


def test_placing_a_dead_portion_is_refused():
    w, names = line_world()
    dead = w.create_portion("blood", compartment="C0")
    w.create_portion("blood", compartment="C1")
    w.kill(dead.id)
    before = world_state(w)
    with pytest.raises(DeadSubjectError):
        w.place_portion(dead.id, "C1")
    assert world_state(w) == before


def test_a_registered_portion_joins_the_contents_of_the_compartment_it_names():
    w, _names = line_world()
    w.create_portion("blood", entity_id="first", compartment="C0")
    w.add_portion(Portion("second", "blood", compartment="C0"))
    assert w.compartments["C0"].contents == ["first", "second"]
    # The locatedIn triples and the capacity rule's count see the same two
    # portions, so the over-full compartment is reported for both.
    located = sorted(t.subject for t in derive_triples(w) if t.predicate == "locatedIn")
    assert located == sorted(w.compartments["C0"].contents)
    rules = {"compartment-capacity": capacity_rule()}
    assert [v.bindings for v in Snapshot(w).violations(rules)] == [
        {"p": "first", "c": "C0"}, {"p": "second", "c": "C0"},
    ]


def test_registering_a_portion_in_an_unknown_compartment_is_refused():
    w, _names = line_world()
    before = world_state(w)
    with pytest.raises(UnknownEntityError):
        w.add_portion(Portion("lost", "blood", compartment="Nowhere"))
    with pytest.raises(UnknownEntityError):
        w.create_portion("blood", entity_id="lost", compartment="Nowhere")
    assert world_state(w) == before and "lost" not in w.portions


def test_commit_of_a_departed_mover_changes_nothing():
    w, names = line_world(4)
    w.create_portion("blood", compartment="C0")
    gone = w.create_portion("blood", compartment="C2")
    w.kill(gone.id)
    before = world_state(w)
    with pytest.raises(PortionNotPresent, match=r"no live portion 'blood-1' in 'C2'"):
        topology.move(w, gone.id, "C2", "C3")
    assert world_state(w) == before


def test_duplicate_mover_rejected():
    # define_circuit refuses a repeated compartment; a Circuit built directly
    # can carry one, and its portions would move twice.
    w, names = line_world()
    p = w.create_portion("blood", compartment="C0")
    twice = topology.Circuit("twice", ("C0", "C1", "C0"), {"C0": ("C1",), "C1": ("C2",)})
    before = world_state(w)
    with pytest.raises(DuplicateMover, match=f"portion {p.id!r} already staged"):
        topology.ring_push(w, twice)
    assert world_state(w) == before


def test_a_split_portion_cannot_be_staged_again():
    w = World("w")
    w.define_substance("blood", phase="liquid")
    for name in ("Src", "Left", "Right"):
        w.add_compartment(name, "blood_path", 1)
    w.connect("Src", "Left", "fluid")
    w.connect("Src", "Right", "fluid")
    p = w.create_portion("blood", compartment="Src")
    twice = topology.Circuit("twice", ("Src", "Src"), {"Src": ("Left", "Right")})
    before = world_state(w)
    with pytest.raises(DuplicateMover, match=f"portion {p.id!r} already staged"):
        topology.ring_push(w, twice)
    assert world_state(w) == before


def test_staging_is_pure():
    # Every portion is checked before commit changes anything: a beat whose
    # last hop is unwired leaves the earlier portions where they were.
    w, circuit = cardio_ring()
    w.remove_connection("AC", "LA", "fluid")
    before = world_state(w)
    with pytest.raises(PushWithoutConnection, match="no fluid connection 'AC' -> 'LA'"):
        topology.ring_push(w, circuit)
    assert world_state(w) == before


def test_move_commits_and_records_one_move():
    w, names = line_world()
    p = w.create_portion("blood", compartment="C0")
    record = topology.move(w, p.id, "C0", "C1")
    assert w.compartments["C1"].contents == [p.id]
    assert p.compartment == "C1" and p.location_state == "C1"
    assert record.applied == [(p.id, "C0", "C1")]
    assert w.changes[-1] is record


def test_commit_empty_batch_is_noop():
    w, names = line_world()
    record = topology.commit(w, [], [], set())
    assert record.applied == []
    assert w.changes[-1] is record


def test_air_capacity_collision_is_error():
    w = World("w")
    w.define_substance("air", phase="gas")
    w.add_compartment("A", "air_path", 1)
    w.add_compartment("B", "air_path", 1)
    w.add_compartment("Nose", "air_path", 1)
    w.connect("A", "Nose", "fluid")
    w.connect("B", "Nose", "fluid")
    pa = w.create_portion("air", compartment="A")
    pb = w.create_portion("air", compartment="B")
    moves = [(pa.id, "A", "Nose"), (pb.id, "B", "Nose")]
    before = world_state(w)
    with pytest.raises(CapacityExceeded, match="merging disallowed for air_path"):
        topology.commit(w, moves, [], {pa.id, pb.id})
    assert world_state(w) == before


def test_blood_capacity_collision_merges():
    w = World("w")
    w.define_substance("blood", phase="liquid")
    w.add_compartment("A", "blood_path", 1)
    w.add_compartment("B", "blood_path", 1)
    w.add_compartment("RA", "blood_path", 1)
    w.connect("A", "RA", "fluid")
    w.connect("B", "RA", "fluid")
    pa = w.create_portion("blood", compartment="A")
    pb = w.create_portion("blood", compartment="B")
    moves = [(pa.id, "A", "RA"), (pb.id, "B", "RA")]
    topology.commit(w, moves, [], {pa.id, pb.id})
    (merge,) = transitionals(w, "merge")
    merged = w.portions[merge.results[0]]
    assert merged.compartment == "RA"
    assert set(merged.provenance) == {pa.id, pb.id}
    assert len(w.live_portions("blood")) == 1


def cardio_ring(scales=(), **blood):
    """Seven blood compartments in cardio's ring, one portion in each; the
    scales are defined first and blood takes define_substance's keywords."""
    w = World("ring")
    for scale in scales:
        w.define_scale(scale)
    w.define_substance("blood", phase="liquid", **blood)
    order = ("LA", "LV", "MC", "CC", "RA", "RV", "AC")
    succ = {
        "LA": ("LV",), "LV": ("MC", "CC"), "MC": ("RA",), "CC": ("RA",),
        "RA": ("RV",), "RV": ("AC",), "AC": ("LA",),
    }
    for name in order:
        w.add_compartment(name, "blood_path", 1)
    for src, dsts in succ.items():
        for dst in dsts:
            w.connect(src, dst, "fluid")
    circuit = w.define_circuit("loop", order, succ)
    for i, name in enumerate(order):
        w.create_portion("blood", entity_id=f"b-{i}", compartment=name)
    return w, circuit


def test_ring_push_stages_one_move_per_occupied_compartment():
    w, circuit = cardio_ring()
    record, lines = flow_push(w, circuit)
    assert lines == [f"pushed {cid}Blood" for cid in circuit.order] + ["trigger updates"]
    assert [t.subjects for t in transitionals(w, "split")] == [("b-1",)]
    # Six moves, then the two children LV's portion split into.
    assert [src for _pid, src, _dst in record.applied] == [
        "LA", "MC", "CC", "RA", "RV", "AC", "LV", "LV",
    ]


def test_ring_push_empty_circuit_is_empty_batch():
    w, circuit = cardio_ring()
    for p in list(w.live_portions()):
        w.kill(p.id)
    record, lines = flow_push(w, circuit)
    assert record.applied == []
    assert lines == ["trigger updates"]


def test_full_pulse_conserves_portions_and_occupancy():
    w, circuit = cardio_ring()
    for _ in range(10):
        topology.ring_push(w, circuit)
        assert len(w.live_portions("blood")) == 7
        for cid in circuit.order:
            assert len(w.compartments[cid].contents) == 1


def test_pulse_traces_in_circuit_order():
    w, circuit = cardio_ring()
    _record, lines = flow_push(w, circuit)
    assert lines == [
        "pushed LABlood", "pushed LVBlood", "pushed MCBlood", "pushed CCBlood",
        "pushed RABlood", "pushed RVBlood", "pushed ACBlood", "trigger updates",
    ]


def test_circuit_with_unwired_hop_errors_at_staging():
    w, circuit = cardio_ring()
    w.remove_connection("RA", "RV", "fluid")
    with pytest.raises(PushWithoutConnection):
        topology.ring_push(w, circuit)


def test_circuit_definition_requires_edges():
    w = World("w")
    w.define_substance("blood", phase="liquid")
    w.add_compartment("A", "blood_path")
    w.add_compartment("B", "blood_path")
    with pytest.raises(ModelError):
        w.define_circuit("c", ("A", "B"), {"A": ("B",), "B": ("A",)})


def test_circuit_definition_refuses_an_order_off_the_graph_or_repeated():
    w, circuit = cardio_ring()
    succ = circuit.successors
    with pytest.raises(UnknownEntityError, match="no compartment 'Nowhere'"):
        w.define_circuit("c", circuit.order + ("Nowhere",), succ)
    with pytest.raises(ModelError, match=r"circuit 'c' lists \['LA', 'RV'\] more than once"):
        w.define_circuit("c", ("RV",) + circuit.order + ("LA",), succ)
    assert list(w.circuits) == ["loop"]


def full_state(w):
    """Everything a commit can change: the portions in birth order with
    each one's properties in key order, each compartment's contents in
    placement order, the live registry, the id counters, the transitional
    log and the change list."""
    return (
        list(w.portions.items()),
        [list(p.properties.items()) for p in w.portions.values()],
        {cid: list(c.contents) for cid, c in w.compartments.items()},
        list(w.live_registry),
        dict(w._counters),
        list(w.transitional_log),
        list(w.changes),
    )


def _outcome(w, act):
    """The record and the world after act, or the exception's type and text
    with the world as it was."""
    before = full_state(w)
    try:
        record = act(w)
    except SemsimError as exc:
        assert full_state(w) == before
        return type(exc), str(exc)
    return record, full_state(w)


#: Property scales for merges: two ordered ones, with few labels so that
#: merges tie, and a nominal one, which a min or max rule cannot rank.
MERGE_SCALES = (
    StateSpace("O2Level", ("low", "medium", "high"), "ordinal"),
    StateSpace("Warmth", ("cool", "warm"), "binary"),
    StateSpace("Color", ("red", "blue"), "nominal"),
)
MERGE_RULES = ("min", "max", "first", "mix")  # "mix" is a rule merges do not know


def merge_world(data, substances=("blood",)):
    """A world with the merge scales and these substances, the first with a
    drawn merge policy: each scale's rule, or none."""
    w = World("merges")
    for scale in MERGE_SCALES:
        w.define_scale(scale)
    policy = {}
    for scale in MERGE_SCALES:
        rule = data.draw(st.sampled_from((None,) + MERGE_RULES), label=f"rule {scale.variable}")
        if rule is not None:
            policy[scale.variable] = rule
    w.define_substance(substances[0], phase="liquid", merge_policy=policy)
    for other in substances[1:]:
        w.define_substance(other, phase="gas")
    return w


def draw_properties(data):
    """Some of the merge scales' properties, in a drawn key order."""
    names = data.draw(st.permutations([scale.variable for scale in MERGE_SCALES]), label="keys")
    scales = {scale.variable: scale for scale in MERGE_SCALES}
    return {name: data.draw(st.sampled_from(scales[name].labels), label=name)
            for name in names if data.draw(st.booleans(), label=f"carries {name}")}


def random_world(data):
    """Compartments of random media and capacities holding blood and air,
    each with its circuit successor and up to two branches, so some split
    and some are merged into; one connection may be cut. Blood portions
    carry drawn properties, merged by a drawn policy."""
    n = data.draw(st.integers(min_value=3, max_value=6), label="compartments")
    w = merge_world(data, ("blood", "air"))
    names = [f"N{i}" for i in range(n)]
    capacities = {}
    for name in names:
        capacities[name] = data.draw(st.sampled_from([1, 2, 3, None]), label=f"capacity {name}")
        medium = data.draw(st.sampled_from(topology.MEDIA), label=f"medium {name}")
        w.add_compartment(name, medium, capacities[name])
    successors = {}
    for i, name in enumerate(names):
        succ = [names[(i + 1) % n]]
        others = [m for m in names if m not in (name, succ[0])]
        succ += data.draw(st.lists(st.sampled_from(others), max_size=2, unique=True),
                          label=f"branches at {name}")
        successors[name] = tuple(succ)
        for dst in succ:
            w.connect(name, dst, "fluid")
    circuit = w.define_circuit("ring", names, successors)
    for name in names:
        most = 3 if capacities[name] is None else capacities[name]
        for _ in range(data.draw(st.integers(0, most), label=f"portions in {name}")):
            substance = data.draw(st.sampled_from(["blood", "blood", "air"]), label="substance")
            properties = draw_properties(data) if substance == "blood" else None
            w.create_portion(substance, compartment=name, properties=properties)
    if data.draw(st.booleans(), label="cut a connection"):
        src = data.draw(st.sampled_from(names), label="cut from")
        w.remove_connection(src, data.draw(st.sampled_from(successors[src]), label="cut to"))
    w.changes.clear()
    return w, circuit


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ring_push_stages_as_stage_move_and_stage_split_do(data):
    w, circuit = random_world(data)
    if data.draw(st.booleans(), label="repeat a compartment"):
        # define_circuit refuses this order; a Circuit built directly can carry it.
        again = data.draw(st.sampled_from(circuit.order), label="repeated")
        circuit = topology.Circuit("ring", circuit.order + (again,), circuit.successors)
    twin = copy.deepcopy(w)
    assert _outcome(w, lambda w: topology.ring_push(w, circuit)) == _outcome(
        twin, lambda w: staged_ring_push(w, circuit)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_circuit_flow_narrates_its_push_as_the_staged_oracle_does(data):
    # One line per portion leaving a blood compartment, in circuit order,
    # whatever moves, splits or merges; a push that raises narrates nothing.
    w, circuit = random_world(data)
    twin = copy.deepcopy(w)
    assert _outcome(w, lambda w: flow_push(w, circuit)) == _outcome(
        twin, lambda w: staged_circuit_flow(w, circuit)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_move_commits_as_the_staged_oracle_does(data):
    w, _circuit = random_world(data)
    names = sorted(w.compartments)
    pid = data.draw(st.sampled_from(sorted(w.portions) + ["nobody"]), label="portion")
    home = w.portions[pid].compartment if pid in w.portions else None
    src = data.draw(st.sampled_from([home, *names] if home else names), label="src")
    dst = data.draw(st.sampled_from(names), label="dst")
    twin = copy.deepcopy(w)
    assert _outcome(w, lambda w: topology.move(w, pid, src, dst)) == _outcome(
        twin, lambda w: staged_move(w, pid, src, dst)
    )


@pytest.mark.parametrize("medium, mover, stayer, error", [
    ("air_path", "air", "air", "merging disallowed for air_path"),
    ("blood_path", "blood", "blood", None),
    ("blood_path", "air", "blood", r"cannot merge substances \['air', 'blood'\]"),
], ids=["air overfill", "blood merge", "mixed substances"])
def test_move_into_a_full_compartment_does_as_the_oracle_does(medium, mover, stayer, error):
    w = World("w")
    w.define_substance("blood", phase="liquid")
    w.define_substance("air", phase="gas")
    w.add_compartment("Src", medium, 1)
    w.add_compartment("Dst", medium, 1)
    w.connect("Src", "Dst", "fluid")
    pid = w.create_portion(mover, compartment="Src").id
    w.create_portion(stayer, compartment="Dst")
    twin = copy.deepcopy(w)
    outcome = _outcome(w, lambda w: topology.move(w, pid, "Src", "Dst"))
    assert outcome == _outcome(twin, lambda w: staged_move(w, pid, "Src", "Dst"))
    if error is None:
        (merge,) = transitionals(w, "merge")
        assert w.compartments["Dst"].contents == list(merge.results)
    else:
        assert outcome[0] is CapacityExceeded and re.search(error, outcome[1])


# ----------------------------------------------------------------------
# conservation property: |after| = |before| + splits*(fanout-1) - merges*(fanin-1)


@given(data=st.data())
def test_conservation_over_random_batches(data):
    n = data.draw(st.integers(min_value=3, max_value=6), label="compartments")
    w = World("rand")
    w.define_substance("blood", phase="liquid")
    names = [f"N{i}" for i in range(n)]
    for name in names:
        w.add_compartment(name, "blood_path", capacity=1)  # collisions merge
    edges = set()
    for a in names:
        for b in names:
            if a != b and data.draw(st.booleans(), label=f"edge {a}->{b}"):
                w.connect(a, b, "fluid")
                edges.add((a, b))
    occupied = []
    for i, name in enumerate(names):
        if data.draw(st.booleans(), label=f"fill {name}"):
            w.create_portion("blood", entity_id=f"p{i}", compartment=name)
            occupied.append((f"p{i}", name))

    before = len(w.live_portions("blood"))
    moves, splits, movers = [], [], set()
    split_gain = 0
    for pid, src in occupied:
        dsts = [b for (a, b) in edges if a == src]
        if not dsts:
            continue
        action = data.draw(st.sampled_from(["skip", "move", "split"]), label=f"act {pid}")
        if action == "move":
            moves.append((pid, src, dsts[0]))
        elif action == "split" and len(dsts) >= 2:
            splits.append((pid, src, tuple(dsts[:2])))
            split_gain += 1  # fan-out 2: one extra live portion
        else:
            continue
        movers.add(pid)
    topology.commit(w, moves, splits, movers)
    merge_loss = sum(len(t.subjects) - 1 for t in transitionals(w, "merge"))
    assert len(w.live_portions("blood")) == before + split_gain - merge_loss


def test_atomicity_no_partial_world_after_commit():
    # Every staged move lands in the same commit; positions and contents agree.
    w, circuit = cardio_ring()
    topology.ring_push(w, circuit)
    for cid, comp in w.compartments.items():
        for pid in comp.contents:
            assert w.portions[pid].compartment == cid
    for p in w.live_portions():
        assert p.id in w.compartments[p.compartment].contents


def test_mixed_substance_merge_fails_before_any_change():
    # LV splits toward MC and CC; MC's air and CC's blood then collide in RA.
    w, circuit = cardio_ring()
    w.define_substance("air", phase="gas")
    w.kill("b-2")
    w.create_portion("air", entity_id="air-0", compartment="MC")
    before = world_state(w)
    with pytest.raises(CapacityExceeded, match=r"cannot merge substances \['air', 'blood'\]"):
        topology.ring_push(w, circuit)
    assert world_state(w) == before


def test_a_merge_that_cannot_rank_its_properties_fails_before_any_change():
    # LV's portion splits toward MC and CC, and MC's and CC's portions
    # meet in RA: their max over the nominal Color raises, with nothing moved.
    w, circuit = cardio_ring((StateSpace("Color", ("red", "blue"), "nominal"),),
                             default_properties={"Color": "red"}, merge_policy={"Color": "max"})
    saved = save_model(w)
    before = full_state(w)
    with pytest.raises(StateError, match="scale 'Color' is nominal; ordinal comparison undefined"):
        topology.ring_push(w, circuit)
    assert save_model(w) == saved
    assert full_state(w) == before
    assert {c: comp.contents for c, comp in w.compartments.items()} == {
        name: [f"b-{i}"] for i, name in enumerate(circuit.order)
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data(), via=st.sampled_from(["merge_portions", "commit"]))
def test_merged_properties_follow_the_merge_oracle(data, via):
    # 2-4 parents carrying drawn subsets of the properties, in drawn key
    # orders, under min, max, first, unknown or no rules; few labels, so ties.
    w = merge_world(data)
    n = data.draw(st.integers(min_value=2, max_value=4), label="parents")
    w.add_compartment("Dst", "blood_path", 1)
    parents = [w.create_portion("blood", compartment="Dst" if i == 0 else None,
                                properties=draw_properties(data)) for i in range(n)]
    try:
        expected = merged_properties(w, parents)
    except StateError as exc:
        expected = (StateError, str(exc))
    ids = [p.id for p in parents]
    if via == "merge_portions":
        act = lambda w: w.merge_portions(ids)
    else:
        # The first parent stays in Dst; each other arrives from a source of its own.
        moves = []
        for pid in ids[1:]:
            src = f"Src-{pid}"
            w.add_compartment(src, "blood_path", 1)
            w.connect(src, "Dst")
            w.place_portion(pid, src)
            moves.append((pid, src, "Dst"))
        act = lambda w: topology.commit(w, moves, [], set(ids[1:]))
    outcome = _outcome(w, act)
    if isinstance(expected, tuple):
        assert outcome == expected
        return
    (merge,) = transitionals(w, "merge")
    assert merge.subjects == tuple(ids)
    merged = w.portions[merge.results[0]]
    assert list(merged.properties.items()) == list(expected.items())
