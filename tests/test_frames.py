import json

import pytest
from hypothesis import given, strategies as st

from semsim import Kernel, World
from semsim.errors import (
    DuplicateNameError,
    MissingCoreElement,
    ModelError,
    SchemaError,
    UnknownEntityError,
)
from semsim.frames import (
    PathSegment,
    PathSpec,
    bind,
    define_frame,
    fluidic_motion,
    standard_frames,
)
from semsim.models import (
    WaterfallConfig,
    build_cardio,
    build_waterfall,
    waterfall_path,
)
from semsim.engine import Trigger, guard_report, register_trigger
from semsim.modelfile import load_model, save_model

from reference import total_displacement
from saved_forms import saved_water_flowing, saved_waterfall_version_3


def test_define_frame_fluidic_motion():
    w = World("w")
    frame = define_frame(
        w, "Fluidic_Motion", ("Fluid", "Source", "Goal", "Path"), ("Configuration",)
    )
    assert frame.core_elements == ("Fluid", "Source", "Goal", "Path")


def test_define_frame_single_core_locale():
    w = World("w")
    frame = define_frame(w, "Natural_Features", ("Locale",))
    assert frame.core_elements == ("Locale",)


def test_core_noncore_overlap_rejected():
    w = World("w")
    with pytest.raises(ModelError):
        define_frame(w, "Broken", ("Fluid",), ("Fluid", "Extra"))


def test_bind_missing_core_element_names_it():
    w = World("w")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    with pytest.raises(MissingCoreElement) as exc:
        bind(w, "Fluidic_Motion", {"Source": "water", "Goal": "water", "Path": "water"})
    assert exc.value.element == "Fluid"


def test_bind_stores_noncore_configuration():
    w = World("w")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    w.define_kind("Place")
    w.instantiate("Place", entity_id="inlet")
    w.instantiate("Place", entity_id="basin")
    binding = bind(
        w,
        "Fluidic_Motion",
        {
            "Fluid": "water",
            "Source": "inlet",
            "Goal": "basin",
            "Path": waterfall_path(),
            "Configuration": {"volume": "high"},
        },
    )
    assert binding.element_map["Configuration"] == {"volume": "high"}
    assert w.mechanisms == {}  # a binding alone builds nothing


def test_bind_unknown_element_rejected():
    w = World("w")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    with pytest.raises(ModelError):
        bind(
            w,
            "Fluidic_Motion",
            {
                "Fluid": "water",
                "Source": "water",
                "Goal": "water",
                "Path": waterfall_path(),
                "Vibe": "moist",
            },
        )


@given(
    dropped=st.sampled_from(["Fluid", "Source", "Goal", "Path"]),
    extras=st.dictionaries(
        st.sampled_from(["Configuration"]), st.just({"volume": "high"}), max_size=1
    ),
)
def test_no_binding_exists_without_core(dropped, extras):
    w = World("w")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    element_map = {
        "Fluid": "water",
        "Source": "water",
        "Goal": "water",
        "Path": PathSpec((PathSegment(5, slope=(-1, 1)),)),
    }
    element_map.update(extras)
    del element_map[dropped]
    with pytest.raises(MissingCoreElement):
        bind(w, "Fluidic_Motion", element_map)
    assert w.bindings == []


def test_instantiation_requires_a_path_mode():
    w = World("w")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    # Path resolves to an entity, but it is neither a PathSpec, a circuit,
    # nor are Source/Goal compartments: no flow mode fits.
    bind(
        w,
        "Fluidic_Motion",
        {"Fluid": "water", "Source": "water", "Goal": "water", "Path": "water"},
    )
    with pytest.raises(ModelError):
        fluidic_motion(w, {"binding": 0})


def test_frozen_fluid_disables_flow():
    w = build_waterfall(n_portions=1)
    mech = w.mechanisms["WaterFlowing"]
    assert all(guard_report(mech, w).values())
    w.set_state("water", "phase", "solid")
    assert not all(guard_report(mech, w).values())


def test_waterfall_per_unit_deltas():
    path = waterfall_path(WaterfallConfig())
    assert path.segments[0].unit_delta == (10, -1)
    assert path.segments[1].unit_delta == (1, -10)


def test_frames_waterfall_trace_equivalent_to_hand_built():
    # The hand-built form survives only in files saved before the waterfall
    # was built from its binding.
    hand = load_model(saved_water_flowing(upper_bed_length=30, vertical_drop=5, n_portions=3))
    k1 = Kernel(hand)
    k1.run(3)

    framed = build_waterfall(WaterfallConfig(upper_bed_length=30, vertical_drop=5), n_portions=3)
    k2 = Kernel(framed)
    k2.run(3)

    assert k1.trace_lines() == k2.trace_lines() == ["0 pool", "1 pool", "2 pool"]
    for i in range(3):
        ph = hand.portions[f"water-{i}"]
        pf = framed.portions[f"water-{i}"]
        assert (ph.x, ph.y) == (pf.x, pf.y)
        assert ph.location_state == pf.location_state == "pool"


@pytest.mark.parametrize("cut", [0, 1, 2, 3])
def test_a_reloaded_frames_waterfall_runs_on_as_if_uninterrupted(cut):
    config = WaterfallConfig(upper_bed_length=3, vertical_drop=2)
    whole = build_waterfall(config, n_portions=3)
    k_whole = Kernel(whole)
    k_whole.run(4)

    first = build_waterfall(config, n_portions=3)
    k_first = Kernel(first)
    k_first.run(cut)
    reloaded = load_model(save_model(first))
    k_rest = Kernel(reloaded)
    k_rest.run(4 - cut)

    assert k_first.trace_lines() + k_rest.trace_lines() == k_whole.trace_lines()
    assert k_whole.trace_lines() == ["0 pool", "1 pool", "2 pool"]
    for i in range(3):
        pw, pr = whole.portions[f"water-{i}"], reloaded.portions[f"water-{i}"]
        assert (pr.x, pr.y, pr.location_state) == (pw.x, pw.y, pw.location_state)
        assert pr.location_state == "pool"


def _build_hand(n_portions):
    """The hand-built flow: a file saved before the waterfall had a binding, loaded."""
    return load_model(saved_water_flowing(upper_bed_length=3, vertical_drop=2,
                                          n_portions=n_portions))


def _build_framed(n_portions):
    return build_waterfall(WaterfallConfig(upper_bed_length=3, vertical_drop=2), n_portions)


@pytest.mark.parametrize("build", [_build_hand, _build_framed], ids=["hand", "frames"])
def test_a_flow_counts_its_own_releases_not_every_portion_of_its_fluid(build):
    world = build(2)
    world.create_portion("water", entity_id="puddle")
    kernel = Kernel(world)
    kernel.run(3)
    assert kernel.trace_lines() == ["0 pool", "1 pool"]
    assert save_model(world)["counters"] == {"water": 2}
    assert world.portions["puddle"].location_state == "null"


def test_two_path_flows_of_one_fluid_release_distinct_portions_and_both_pool():
    world = build_waterfall(WaterfallConfig(upper_bed_length=3, vertical_drop=2), n_portions=4)
    bind(world, "Fluidic_Motion", dict(world.bindings[0].element_map))
    fluidic_motion(world, {"binding": 1, "name": "SecondFlow", "portion_kind": "WaterPortion"})
    register_trigger(world, Trigger("SecondFlowTrigger", period=1, target="SecondFlow"))
    kernel = Kernel(world)
    kernel.run(2)
    # Each tick Flow releases first, then SecondFlowTrigger; both mint from one counter.
    assert kernel.trace_lines() == ["0 pool", "1 pool", "2 pool", "3 pool"]
    assert sorted(world.portions) == [f"water-{i}" for i in range(4)]
    assert all(p.location_state == "pool" for p in world.portions.values())
    reloaded = load_model(save_model(world))
    rest = Kernel(reloaded)
    rest.run(2)  # WaterFlowing's budget of 4 is spent; SecondFlow has none
    assert rest.trace_lines() == ["4 pool", "5 pool"]


@pytest.mark.parametrize("build", [_build_hand, _build_framed], ids=["hand", "frames"])
def test_a_saved_flow_cursor_resumes_and_an_old_file_resumes_as_before(build):
    # The version-3 file holds this world, saved with the flow's cursor and no clock.
    world = build(3)
    world.create_portion("water", entity_id="puddle")
    Kernel(world).run(1)
    data = saved_waterfall_version_3()
    (entry,) = [m for m in data["mechanisms"] if m["name"] == "WaterFlowing"]
    assert data["version"] == 3 and entry["cursor"] == 1
    reloaded = load_model(data)
    assert reloaded.clock == 0 and world.clock == 1
    assert json.dumps(save_model(reloaded)) == json.dumps(dict(save_model(world), clock=0))
    kernel = Kernel(reloaded)
    kernel.run(3)
    assert kernel.trace_lines() == ["1 pool", "2 pool"]

    # A file from before flows kept a cursor counts the fluid's portions, as
    # flows did then: water-0 and the puddle.
    del entry["cursor"]
    old = load_model(data)
    assert save_model(old)["counters"] == {"water": 2}
    kernel = Kernel(old)
    kernel.run(3)
    assert kernel.trace_lines() == ["2 pool"]


@pytest.mark.parametrize("cursor", [-1, True, 1.0, "1"])
def test_a_malformed_flow_cursor_is_refused(cursor):
    data = saved_waterfall_version_3()
    data["mechanisms"][0]["cursor"] = cursor
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == f"mechanisms[0]: cursor must be an int >= 0, not {cursor!r}"


def test_a_flow_whose_name_is_taken_leaves_no_cursor():
    world = build_cardio()
    path = PathSpec((PathSegment(2, slope=(0, 1)),))
    elements = {"Fluid": "blood", "Source": "LeftAtrium", "Goal": "LeftAtrium", "Path": path}
    bind(world, "Fluidic_Motion", elements)
    before = save_model(world)
    with pytest.raises(DuplicateNameError):
        fluidic_motion(world, {"binding": 1, "name": "HeartbeatPush"})
    assert save_model(world) == before


def test_a_path_flow_whose_goal_is_no_place_builds_nothing():
    world = build_waterfall(n_portions=1)
    elements = dict(world.bindings[0].element_map, Goal={"lake": 1})
    bind(world, "Fluidic_Motion", elements)
    with pytest.raises(ModelError) as exc:
        fluidic_motion(world, {"binding": 1, "name": "Lake"})
    assert str(exc.value) == "a path flow's Goal must name a place, not {'lake': 1}"
    assert list(world.mechanisms) == ["WaterFlowing"]
    assert save_model(world)["counters"] == {}


def test_a_cursor_on_a_mechanism_that_is_no_path_flow_is_refused():
    data = dict(save_model(build_cardio()), version=3)
    assert data["mechanisms"][0]["name"] == "HeartbeatPush"
    data["mechanisms"][0]["cursor"] = 0
    with pytest.raises(SchemaError) as exc:
        load_model(data)
    assert str(exc.value) == "mechanisms[0]: 'HeartbeatPush' is not a path flow; it has no cursor"


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
    rises=st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
    runs=st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
)
def test_slope_consistency_total_displacement(lengths, rises, runs):
    segments = tuple(
        PathSegment(length, slope=(rises[i], runs[i]))
        for i, length in enumerate(lengths)
    )
    path = PathSpec(segments)

    # Run a portion down the path: it ends where the closed form says.
    w = World("w")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    bind(
        w, "Fluidic_Motion",
        {"Fluid": "water", "Source": "water", "Goal": "water", "Path": path},
    )
    fluidic_motion(w, {"binding": 0, "name": "flow", "n_portions": 1})
    register_trigger(w, Trigger("t", period=1, target="flow"))
    from semsim.world import Vocabulary

    w.vocabulary = Vocabulary(patterns=(r"\d+ .*",))
    kernel = Kernel(w)
    kernel.run(sum(lengths))
    p = w.portions["water-0"]
    assert (p.x, p.y) == total_displacement(path)


def test_circuit_flow_equivalent_to_heartbeat_for_one_hop(cardio_world):
    from semsim.frames import bind as fbind

    w = cardio_world
    fbind(
        w,
        "Fluidic_Motion",
        {"Fluid": "blood", "Source": "LeftAtrium", "Goal": "LeftAtrium", "Path": "cardio"},
    )
    fluidic_motion(w, {"binding": 1, "name": "BloodFlow"})
    kernel = Kernel(w)
    snapshot_before = {cid: list(c.contents) for cid, c in w.compartments.items()}

    kernel.current_report.step = 0
    assert kernel.attempt(w.mechanisms["BloodFlow"], "direct")
    assert len(w.live_portions("blood")) == 7
    moved = {
        cid: list(c.contents)
        for cid, c in w.compartments.items()
        if c.medium == "blood_path"
    }
    assert all(len(contents) == 1 for contents in moved.values())
    assert moved != {k: v for k, v in snapshot_before.items() if k in moved}
    # A direct attempt runs outside a step: its events stay on the open report.
    pushes = [line for line in kernel.current_report.lines if line.startswith("pushed")]
    assert len(pushes) == 7


def test_cardio_heartbeat_is_the_circuit_flow_of_its_binding(cardio_kernel):
    world = cardio_kernel.world
    (binding,) = world.bindings
    assert world.mechanisms["HeartbeatPush"].spec["params"]["binding"] == 0
    assert binding.element_map == {
        "Fluid": "blood",
        "Source": "LeftAtrium",
        "Goal": "LeftAtrium",
        "Path": "cardio",
        "Configuration": {"pulse": "SANode pulse"},
    }
    cardio_kernel.run(40)
    beats = [
        (r.step, f) for r in cardio_kernel.reports for f in r.fired if f.mechanism == "HeartbeatPush"
    ]
    assert len(beats) == 10
    heartbeat = cardio_kernel.world.mechanisms["HeartbeatPush"]
    assert heartbeat.subsystem == "circulation"
    assert [c.description for c in heartbeat.guard] == ["blood is fluid", "circuit occupied"]
    assert {beat.via for _, beat in beats} == {"trigger:SANode"}
    pulses = [e.step for e in cardio_kernel.trace if e.line == "SANode pulse"]
    assert pulses == [step for step, _ in beats]


def test_a_heartbeat_over_an_empty_circuit_names_only_the_failed_condition(cardio_kernel):
    world = cardio_kernel.world
    for portion in world.live_portions("blood"):
        world.kill(portion.id)
    report = cardio_kernel.step()
    (failure,) = [g for g in report.guard_failures if g.mechanism == "HeartbeatPush"]
    assert failure.failed == ["circuit occupied"]
    assert "SANode pulse" not in report.lines


@pytest.mark.parametrize("pulse", [3, ["SANode pulse"], {"line": "SANode pulse"}])
def test_a_circuit_flow_refuses_a_pulse_that_is_not_a_line(cardio_world, pulse):
    elements = {
        "Fluid": "blood", "Source": "LeftAtrium", "Goal": "LeftAtrium", "Path": "cardio",
        "Configuration": {"pulse": pulse},
    }
    bind(cardio_world, "Fluidic_Motion", elements)
    with pytest.raises(ModelError) as exc:
        fluidic_motion(cardio_world, {"binding": 1, "name": "Beat"})
    assert str(exc.value) == f"a circuit flow's pulse must be a trace line, not {pulse!r}"
    assert "Beat" not in cardio_world.mechanisms



def test_a_circuit_object_is_refused_at_bind(cardio_world):
    circuit = cardio_world.circuits["cardio"]
    elements = {"Fluid": "blood", "Source": "LeftAtrium", "Goal": "LeftAtrium", "Path": circuit}
    with pytest.raises(UnknownEntityError):
        bind(cardio_world, "Fluidic_Motion", elements)
    assert len(cardio_world.bindings) == 1  # cardio's own


def test_a_circuit_bound_by_name_saves_and_reloads_to_the_same_trace(cardio_world, tmp_path):
    from semsim.cli import standard_rules
    from semsim.modelfile import load_model_file, save_model_file

    elements = {"Fluid": "blood", "Source": "LeftAtrium", "Goal": "LeftAtrium", "Path": "cardio"}
    bind(cardio_world, "Fluidic_Motion", elements)
    fluidic_motion(cardio_world, {"binding": 1, "name": "ExtraPush"})
    register_trigger(cardio_world, Trigger("Extra", period=7, target="ExtraPush", phase=3))
    path = tmp_path / "cardio-extra.json"
    save_model_file(cardio_world, path)

    traces = []
    for world in (cardio_world, load_model_file(path)):
        kernel = Kernel(world)
        standard_rules(kernel)
        kernel.run(60)
        assert any(f.mechanism == "ExtraPush" for r in kernel.reports for f in r.fired)
        traces.append(kernel.trace_lines())
    assert traces[0] == traces[1]
