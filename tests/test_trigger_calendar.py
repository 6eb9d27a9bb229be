"""The kernel's trigger calendar dispatches exactly what the per-tick scan selects.

At every tick, the triggers a step dispatches are compared with those
reference.due selects from the world's triggers sorted by (period, name): in
that order in deterministic mode, and in concurrent mode with their
subsystem groups in the order reference.concurrent_order draws from
(seed, tick). Between steps a random sequence flips triggers' enabled
flags (directly, and off by a scenario's disable_trigger), registers a
mechanism and a trigger on it, sets the world's clock, or saves and reloads
the world and carries on with a fresh kernel on it.
"""
import pytest
from hypothesis import given, settings, strategies as st

from semsim import Kernel, Trigger
from semsim.engine import register_trigger
from semsim.mechanisms import build_mechanism
from semsim.modelfile import load_model, save_model
from semsim.models import build_cardio
from semsim.scenarios import Scenario, apply_scenario, disable_trigger

from reference import concurrent_order, due

SUBSYSTEMS = ("circulation", "diffusion", "respiration", "extra")


def expected_dispatches(kernel, tick):
    """The vias of the triggers the scan selects at tick, in the order the
    kernel's step must dispatch them."""
    world = kernel.world
    ordered = sorted(world.triggers.values(), key=lambda t: (t.period, t.name))
    selected = [t for t in ordered if due(t, tick)]
    if kernel.mode == "concurrent":
        groups = {}
        for trig in selected:
            groups.setdefault(world.mechanisms[trig.target].subsystem, []).append(trig)
        groups = concurrent_order(kernel.seed, tick, list(groups.values()))
        selected = [trig for group in groups for trig in group]
    return [f"trigger:{trig.name}" for trig in selected]


def dispatched_step(kernel):
    """Step the kernel; return the vias of the triggers it dispatched, in order."""
    seen = []
    dispatch = kernel._dispatch

    def spy(mechanism, via):
        if via.startswith("trigger:"):
            seen.append(via)
        dispatch(mechanism, via)

    kernel._dispatch = spy
    try:
        kernel.step()
    finally:
        del kernel._dispatch
    return seen


def step_in_lockstep(kernel):
    tick = kernel.world.clock
    expected = expected_dispatches(kernel, tick)
    assert dispatched_step(kernel) == expected, f"tick {tick}"
    assert kernel.world.clock == tick + 1
    return expected


OPERATIONS = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 8)),
    st.tuples(st.just("flip"), st.integers(0, 99)),
    st.tuples(st.just("scenario"), st.integers(0, 99)),
    st.tuples(st.just("register"), st.integers(1, 7), st.integers(0, 12),
              st.sampled_from(SUBSYSTEMS)),
    st.tuples(st.just("clock"), st.integers(0, 60)),
    st.tuples(st.just("resume"), st.integers(0, 3)),
)


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
@settings(max_examples=60, deadline=None)
@given(operations=st.lists(OPERATIONS, max_size=25))
def test_the_calendar_dispatches_what_the_scan_selects(mode, operations):
    world = build_cardio()
    kernel = Kernel(world, seed=7, mode=mode, validate_policy="off")
    registered = 0
    for op, *args in operations:
        names = sorted(world.triggers)
        if op == "step":
            for _ in range(args[0]):
                step_in_lockstep(kernel)
        elif op == "flip":
            trig = world.triggers[names[args[0] % len(names)]]
            trig.enabled = not trig.enabled
        elif op == "scenario":
            name = names[args[0] % len(names)]
            apply_scenario(world, Scenario("quiet", [disable_trigger(name)]))
        elif op == "register":
            period, phase, subsystem = args
            name = f"Extra{registered}"
            registered += 1
            build_mechanism(world, {"name": name, "subsystem": subsystem,
                                    "guard": [["always"]], "effects": []})
            register_trigger(world, Trigger(name, period, name, phase))
        elif op == "clock":
            world.clock = args[0]
        else:
            # Carry on from a saved world a few steps later, on a fresh kernel.
            for _ in range(args[0]):
                step_in_lockstep(kernel)
            world = load_model(save_model(world))
            kernel = Kernel(world, seed=7, mode=mode, validate_policy="off")
    for _ in range(13):
        step_in_lockstep(kernel)


def test_a_trigger_first_comes_due_at_its_phase_then_every_period():
    world = build_cardio()
    build_mechanism(world, {"name": "Late", "guard": [["always"]], "effects": []})
    register_trigger(world, Trigger("Late", 5, "Late", phase=7))
    kernel = Kernel(world, validate_policy="off")
    fired = [tick for tick in range(30) if "trigger:Late" in step_in_lockstep(kernel)]
    assert fired == [7, 12, 17, 22, 27]
    world.clock = 3  # before the phase again
    fired = [tick for tick in range(3, 9) if "trigger:Late" in step_in_lockstep(kernel)]
    assert fired == [7]
