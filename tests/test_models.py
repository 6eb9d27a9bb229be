import random

import pytest
from hypothesis import given, settings, strategies as st

from semsim import Kernel
from semsim.cli import standard_rules
from semsim.errors import ModelError
from semsim.mechanisms import build_mechanism
from semsim.modelfile import load_model, save_model
from semsim.models import (
    WaterfallConfig,
    build_builtin,
    build_cardio,
    build_waterfall,
    freeze_watch,
    waterfall_path,
)
from semsim.scenarios import (
    apply_scenario,
    heart_stop,
    scenario_from_dict,
    waterfall_freeze,
    Scenario,
)

from reference import total_displacement
from saved_forms import saved_water_flowing


def waterfall_oracle(upper_bed_length, vertical_drop, upper_delta=(10, -1), drop_delta=(1, -10)):
    """Step-by-step traversal oracle: literal unit loops, no closed form."""
    x = y = 0
    states = ["null"]
    for _ in range(upper_bed_length):
        x += upper_delta[0]
        y += upper_delta[1]
        if states[-1] != "upper":
            states.append("upper")
    mid = (x, y)
    for _ in range(vertical_drop):
        x += drop_delta[0]
        y += drop_delta[1]
        if states[-1] != "drop":
            states.append("drop")
    states.append("pool")
    return mid, (x, y), states


def build_saved_water_flowing(config, n_portions):
    """The waterfall as a file saved while it was built by hand loads."""
    return load_model(saved_water_flowing(
        upper_bed_length=config.upper_bed_length,
        vertical_drop=config.vertical_drop,
        upper_delta=list(config.upper_delta),
        drop_delta=list(config.drop_delta),
        n_portions=n_portions,
    ))


def run_waterfall(config=WaterfallConfig(), n=3, ticks=None, build=build_waterfall):
    world = build(config, n_portions=n)
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(ticks if ticks is not None else n)
    return world, kernel


def location_changes(world, pid):
    return [
        t.results[0][1]
        for t in world.transitional_log
        if t.kind == "state_change" and t.subjects == (pid,)
    ]


# ----------------------------------------------------------------------
# waterfall


def test_waterfall_oracle_values():
    mid, final, states = waterfall_oracle(1000, 100)
    assert mid == (10000, -1000)
    assert final == (10100, -2000)
    assert states == ["null", "upper", "drop", "pool"]


def test_waterfall_matches_oracle():
    _, final, _ = waterfall_oracle(1000, 100)
    world, kernel = run_waterfall(n=3)
    for i in range(3):
        p = world.portions[f"water-{i}"]
        assert (p.x, p.y) == final
        assert p.location_state == "pool"
    assert kernel.trace_lines() == ["0 pool", "1 pool", "2 pool"]


def test_waterfall_location_sequence_exactly_once():
    world, kernel = run_waterfall(n=2)
    for i in range(2):
        assert location_changes(world, f"water-{i}") == ["upper", "drop", "pool"]


def test_waterfall_monotone_coordinates():
    # X never decreases, Y never increases: both deltas have fixed signs.
    config = WaterfallConfig(upper_bed_length=10, vertical_drop=4)
    assert config.upper_delta[0] > 0 and config.drop_delta[0] > 0
    assert config.upper_delta[1] < 0 and config.drop_delta[1] < 0
    _, final, _ = waterfall_oracle(10, 4)
    world, _ = run_waterfall(config, n=1, ticks=1)
    assert (world.portions["water-0"].x, world.portions["water-0"].y) == final


def test_waterfall_totals_random_configs():
    rng = random.Random(7)
    for _ in range(10):
        length = rng.randint(1, 300)
        drop = rng.randint(1, 80)
        config = WaterfallConfig(upper_bed_length=length, vertical_drop=drop)
        world, _ = run_waterfall(config, n=1, ticks=1)
        p = world.portions["water-0"]
        _, oracle_final, _ = waterfall_oracle(length, drop)
        assert (p.x, p.y) == oracle_final == (10 * length + drop, -(length + 10 * drop))


deltas = st.tuples(st.integers(-100, 100), st.integers(-100, 100))


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(1, 10**4),
    drop=st.integers(1, 10**4),
    upper_delta=deltas,
    drop_delta=deltas,
)
def test_closed_form_flow_equals_unit_loops(length, drop, upper_delta, drop_delta):
    config = WaterfallConfig(length, drop, upper_delta, drop_delta)
    _, final, states = waterfall_oracle(length, drop, upper_delta, drop_delta)
    for build in (build_waterfall, build_saved_water_flowing):
        world, kernel = run_waterfall(config, n=1, ticks=1, build=build)
        p = world.portions["water-0"]
        assert (p.x, p.y) == final == total_displacement(waterfall_path(config)), build
        assert ["null"] + location_changes(world, "water-0") == states, build
        assert kernel.trace_lines() == ["0 pool"], build


def test_a_billion_unit_bed_pools_in_one_tick():
    config = WaterfallConfig(upper_bed_length=10**9)
    world, kernel = run_waterfall(config, n=1, ticks=1)
    p = world.portions["water-0"]
    assert kernel.trace_lines() == ["0 pool"]
    assert (p.x, p.y) == (10 * 10**9 + 100, -(10**9) - 1000)
    assert (p.x, p.y) == total_displacement(waterfall_path(config))
    assert location_changes(world, "water-0") == ["upper", "drop", "pool"]


def test_waterfall_rejects_nonpositive_config():
    with pytest.raises(ValueError):
        WaterfallConfig(upper_bed_length=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("upper_bed_length", 2.5),
        ("vertical_drop", True),
        ("vertical_drop", "100"),
        ("upper_delta", (1,)),
        ("upper_delta", (0.1, -1)),
        ("drop_delta", [1, -10]),
        ("drop_delta", (1, -10, 0)),
    ],
)
def test_waterfall_rejects_non_integer_geometry(field, value):
    # The closed form equals the unit-by-unit walk only in integers.
    with pytest.raises(ValueError):
        WaterfallConfig(**{field: value})


def test_waterfall_freeze_scenario_stops_flow():
    world = build_waterfall(n_portions=5)
    apply_scenario(world, waterfall_freeze())
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(5)
    assert kernel.trace_lines() == []
    assert len(world.live_portions("water")) == 0
    failures = [g for r in kernel.reports for g in r.guard_failures]
    assert failures and all("fluid" in " ".join(g.failed) for g in failures)


def test_freeze_midway_keeps_portions_parked():
    world = build_waterfall(n_portions=5)
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(2)
    apply_scenario(world, waterfall_freeze())
    kernel.run(3)
    assert kernel.trace_lines() == ["0 pool", "1 pool"]
    assert len(world.live_portions("water")) == 2


def test_ambient_freeze_rule():
    from semsim.engine import Trigger, register_trigger

    world = build_waterfall(n_portions=5)
    build_mechanism(world, freeze_watch())
    register_trigger(world, Trigger("FreezeWatch", period=1, target="FreezeWatch"))
    kernel = Kernel(world)
    standard_rules(kernel)
    assert world.ambient("temperature") == "standard"  # STP default
    assert world.ambient("pressure") == "standard"
    world.set_ambient("temperature", "below_freezing")
    kernel.run(1)
    assert world.substances["water"].phase == "solid"


def test_set_ambient_unknown_property():
    world = build_waterfall(n_portions=1)
    with pytest.raises(ModelError):
        world.set_ambient("flavor", "salty")


def test_empty_scenario_changes_nothing():
    world = build_cardio()
    before = {t.name: t.enabled for t in world.triggers.values()}
    apply_scenario(world, Scenario("noop"))
    assert {t.name: t.enabled for t in world.triggers.values()} == before


def test_scenario_dangling_directives_rejected():
    from semsim.errors import ScenarioError, UnknownEntityError
    from semsim.scenarios import disable_trigger, remove_connection, set_state

    world = build_cardio()
    for directive, message in [
        (disable_trigger("NoSuchTrigger"), "no trigger to disable 'NoSuchTrigger'"),
        (remove_connection("A", "B"), "no connection ('A', 'B', 'fluid')"),
        (set_state("ghost", "phase", "solid"), "no entity 'ghost'"),
    ]:
        with pytest.raises(ScenarioError) as exc:
            apply_scenario(world, Scenario("x", [heart_stop().overrides[0], directive]))
        assert str(exc.value) == f"overrides[1]: {message}"
        assert isinstance(exc.value.__cause__, UnknownEntityError)


# ----------------------------------------------------------------------
# cardio


def cardio_kernel(ticks, scenario=None, periods=None):
    world = build_cardio()
    if periods is not None:  # a model file owns its trigger periods
        data = save_model(world)
        for trigger in data["triggers"]:
            trigger["period"] = periods[trigger["name"]]
        world = load_model(data)
    if scenario is not None:
        apply_scenario(world, scenario)
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(ticks)
    return world, kernel


def test_initial_blood_portion_count():
    world = build_cardio()
    assert len(world.live_portions("blood")) == 7
    for name in world.circuits["cardio"].order:
        assert len(world.compartments[name].contents) == 1


def test_heartbeat_pulse_precedes_its_batch():
    _, kernel = cardio_kernel(1)
    lines = kernel.trace_lines()
    pulse = lines.index("SANode pulse")
    first_push = lines.index("pushed LeftAtriumBlood")
    updates = lines.index("trigger updates")
    assert pulse < first_push < updates
    assert lines[first_push:updates] == [
        f"pushed {name}Blood"
        for name in ("LeftAtrium", "LeftVentricle", "MedullaCap", "CellCap",
                     "RightAtrium", "RightVentricle", "AlvCap")
    ]


def test_alveolar_exchange_flips_both_portions():
    world = build_cardio()
    kernel = Kernel(world)
    standard_rules(kernel)
    blood = world.occupant("AlvCap")
    air = world.occupant("AlvAir")
    assert blood.properties["O2Level"] == "low"
    assert air.properties["O2Level"] == "high"
    kernel.step()  # diffusion fires before the push at tick 0
    assert blood.properties["O2Level"] == "high"
    assert blood.properties["CO2Level"] == "low"
    assert air.properties["O2Level"] == "low"
    assert air.properties["CO2Level"] == "high"


def test_cell_respiration_consumes_o2():
    world, kernel = cardio_kernel(40)
    guard = [c.description for c in world.mechanisms["CellRespiration"].guard]
    assert "blood at CellCap has O2Level=high" in guard
    assert any(
        l == "CellCapBlood O2 diffusion" for l in kernel.trace_lines()
    )


def test_gas_cycle_levels_at_departure():
    # Whenever blood leaves AlvCap right after an alveolar exchange, it
    # leaves oxygenated; whenever it leaves CellCap after respiration, it
    # leaves depleted.
    world = build_cardio()
    kernel = Kernel(world)
    standard_rules(kernel)
    for _ in range(120):
        pre_alv = world.occupant("AlvCap")
        pre_cell = world.occupant("CellCap")
        report = kernel.step()
        fired = {f.mechanism for f in report.fired}
        if {"GasExchangeAlv", "HeartbeatPush"} <= fired:
            assert pre_alv.properties["O2Level"] == "high"
            assert pre_alv.properties["CO2Level"] == "low"
        if {"CellRespiration", "HeartbeatPush"} <= fired:
            assert pre_cell.properties["O2Level"] == "low"
            assert pre_cell.properties["CO2Level"] == "high"


def test_conservation_200_ticks():
    world = build_cardio()
    kernel = Kernel(world)
    standard_rules(kernel)
    for _ in range(200):
        kernel.step()
        assert len(world.live_portions("blood")) == 7


def test_heart_stop_scenario():
    _, kernel = cardio_kernel(100, scenario=heart_stop())
    lines = kernel.trace_lines()
    assert not any(l.startswith("pushed") for l in lines)
    assert "SANode pulse" not in lines
    assert lines.count("inhale cycle") >= 5


def test_scenario_from_dict_roundtrip():
    scenario = scenario_from_dict(
        {
            "name": "heart-stop",
            "overrides": [{"op": "disable_trigger", "target": "SANode"}],
        }
    )
    world = build_cardio()
    apply_scenario(world, scenario)
    assert not world.triggers["SANode"].enabled
    assert "heart-stop" in world.scenarios
    notes = [a for a in world.list_annotations("cardio") if "heart-stop" in a.note]
    assert notes


def test_both_models_ship_idealization_annotations():
    for world in (build_cardio(), build_waterfall(n_portions=1)):
        idealizations = world.list_annotations(kind="idealization")
        assert idealizations
        for ann in world.annotations:
            assert world._element_exists(ann.target)


def test_a_builtin_model_is_built_by_one_of_its_names():
    assert build_builtin("cardio").name == "cardio"
    with pytest.raises(KeyError):
        build_builtin("waterfall-frames")


def test_cardio_config_periods_respected():
    periods = {"SANode": 2, "DiffusionTimer": 3, "ExternalMix": 5, "Medulla": 7}
    world, kernel = cardio_kernel(14, periods=periods)
    pulses = [e.step for e in kernel.trace if e.line == "SANode pulse"]
    assert pulses == [0, 2, 4, 6, 8, 10, 12]


def test_tick_with_only_pacemaker_due_is_circulation_only():
    periods = {"SANode": 3, "DiffusionTimer": 4, "ExternalMix": 5, "Medulla": 7}
    world, kernel = cardio_kernel(4, periods=periods)
    # tick 3: 3 % 4, 3 % 5, 3 % 7 are all nonzero, so only the SA node fires
    report = kernel.reports[3]
    assert {world.mechanisms[f.mechanism].subsystem for f in report.fired} == {"circulation"}
    lines = set(report.lines)
    assert lines <= {"SANode pulse", "trigger updates"} | {
        f"pushed {n}Blood" for n in world.circuits["cardio"].order
    }


def test_tick_with_nothing_due_is_empty():
    world, kernel = cardio_kernel(4)
    # tick 3: no trigger period divides it, and the only breath signal so far
    # was delivered at tick 1
    report = kernel.reports[3]
    assert report.fired == [] and report.lines == []
    assert report.validation is not None


def test_function_assertions_have_contexts():
    world = build_cardio()
    assert {a.context for a in world.assertions} <= set(world.systems)
    subjects = {a.subject for a in world.assertions}
    assert "diaphragm" in subjects and "medulla" in subjects
