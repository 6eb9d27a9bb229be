import pytest

from semsim import Condition, Kernel, Mechanism, Signal, StateSpace, Trigger, World, topology
from semsim.engine import (
    TraceEvent,
    guard_report,
    register_mechanism,
    register_trigger,
    send_signal,
)
from semsim.errors import (
    DuplicateNameError,
    ModelError,
    NoNervePath,
    SemsimError,
    StateError,
    TraceVocabularyError,
    UnknownEntityError,
)
from semsim.models import build_cardio
from semsim.modelfile import load_model, save_model
from semsim.cli import standard_rules
from semsim.validation import AssertionRule, TriplePattern
from semsim.world import Vocabulary


def _send_go(kernel):
    send_signal(kernel, Signal("N1", "N2", "go"))


def counter_world():
    w = World("counter")
    w.vocabulary = Vocabulary(literals=frozenset({"ping", "pong"}))
    w.define_substance("blood", phase="liquid")
    w.add_compartment("A", "blood_path", 1)
    w.add_compartment("B", "blood_path", 1)
    w.add_compartment("N1", "other", 1)
    w.add_compartment("N2", "other", 1)
    w.connect("A", "B", "fluid")
    w.connect("N1", "N2", "nerve")
    return w


def test_register_mechanism_duplicate():
    w = counter_world()
    mech = Mechanism("m", guard=(), effect=lambda kernel: None)
    register_mechanism(w, mech)
    with pytest.raises(DuplicateNameError):
        register_mechanism(w, mech)


def test_register_mechanism_unknown_signal_compartment():
    w = counter_world()
    with pytest.raises(UnknownEntityError):
        register_mechanism(
            w, Mechanism("m", guard=(), effect=lambda kernel: None, on_signal="Ghost")
        )


def test_register_mechanism_dangling_reference():
    from semsim.mechanisms import build_mechanism
    from semsim.models.cardio import gas_exchange_alv

    w = counter_world()
    w.define_scale(StateSpace("O2Level", ("low", "high"), "binary"))
    with pytest.raises(UnknownEntityError):
        build_mechanism(w, gas_exchange_alv(blood_at="NotACompartment", air_at="A"))


def test_enabled_is_pure_guard_evaluation():
    w = counter_world()
    calls = []
    mech = Mechanism(
        "m",
        guard=(Condition("flag", lambda world: calls.append(1) or True),),
        effect=lambda kernel: None,
    )
    register_mechanism(w, mech)
    assert all(guard_report(mech, w).values())
    assert all(guard_report(mech, w).values())
    assert len(calls) == 2
    assert w.transitional_log == []


def test_trigger_period_validation():
    with pytest.raises(Exception):
        Trigger("bad", period=0, target="m")


@pytest.mark.parametrize(
    "fields",
    [{"period": "4"}, {"period": 4.0}, {"period": True}, {"phase": "x"}, {"phase": -1},
     {"phase": False}, {"phase": None}, {"enabled": "no"}, {"enabled": 1}, {"enabled": None}],
    ids=lambda fields: repr(fields),
)
def test_a_trigger_takes_int_period_and_phase_and_a_bool_enabled(fields):
    with pytest.raises(ModelError, match="trigger 't' needs"):
        Trigger("t", **{"period": 4, "target": "m", **fields})


def test_trigger_dueness():
    t = Trigger("t", period=4, target="m", phase=2)
    assert [tick for tick in range(12) if t.due(tick)] == [2, 6, 10]


def test_send_signal_needs_nerve_edge():
    w = counter_world()
    kernel = Kernel(w)
    with pytest.raises(NoNervePath):
        send_signal(kernel, Signal("A", "B", "x"))  # fluid edge, not nerve
    with pytest.raises(UnknownEntityError):
        send_signal(kernel, Signal("N1", "Ghost", "x"))
    send_signal(kernel, Signal("N1", "N2", "x"))
    assert w.signals == [Signal("N1", "N2", "x")]  # in transit until the next step


def test_signal_delivery_fires_receiver_next_tick():
    w = counter_world()
    hits = []
    register_mechanism(w, Mechanism("sender", guard=(), effect=_send_go))
    register_mechanism(
        w,
        Mechanism(
            "receiver", guard=(), effect=lambda kernel: hits.append(kernel.tick),
            on_signal="N2",
        ),
    )
    register_trigger(w, Trigger("once", period=100, target="sender"))
    kernel = Kernel(w)
    kernel.run(3)
    assert hits == [1]  # emitted at tick 0, delivered at tick 1


def test_signal_to_unlistened_compartment_errors():
    w = counter_world()
    register_mechanism(w, Mechanism("sender", guard=(), effect=_send_go))
    register_trigger(w, Trigger("once", period=100, target="sender"))
    kernel = Kernel(w)
    kernel.step()
    with pytest.raises(UnknownEntityError):
        kernel.step()  # delivery tick: nobody listens on N2


def test_canonical_order_by_period_then_name():
    w = counter_world()
    seen = []
    for name in ("Zeta", "Alpha", "Slow"):
        register_mechanism(
            w, Mechanism(name, guard=(), effect=lambda kernel, n=name: seen.append(n))
        )
    register_trigger(w, Trigger("Zeta", period=2, target="Zeta"))
    register_trigger(w, Trigger("Alpha", period=2, target="Alpha"))
    register_trigger(w, Trigger("Slow", period=3, target="Slow"))
    kernel = Kernel(w)
    kernel.step()  # tick 0: all due
    assert seen == ["Alpha", "Zeta", "Slow"]


def test_guard_failure_logged_not_fired():
    w = counter_world()
    register_mechanism(
        w,
        Mechanism(
            "blocked",
            guard=(Condition("moon is full", lambda _: False),),
            effect=lambda kernel: kernel.emit_trace("ping"),
        ),
    )
    register_trigger(w, Trigger("t", period=1, target="blocked"))
    kernel = Kernel(w)
    report = kernel.step()
    assert report.fired == []
    assert report.guard_failures[0].mechanism == "blocked"
    assert report.guard_failures[0].failed == ["moon is full"]
    assert kernel.trace_lines() == []


def test_each_guard_condition_runs_once_per_dispatch():
    w = counter_world()
    calls = {"open": 0, "shut": 0}

    def counted(name, value):
        def test(_):
            calls[name] += 1
            return value
        return test

    register_mechanism(
        w, Mechanism("go", guard=(Condition("open", counted("open", True)),),
                     effect=lambda kernel: kernel.emit_trace("ping")),
    )
    # Two conditions share a description; the failing one must still block.
    register_mechanism(
        w,
        Mechanism(
            "stop",
            guard=(Condition("gate", counted("shut", False)), Condition("gate", lambda _: True)),
            effect=lambda kernel: kernel.emit_trace("pong"),
        ),
    )
    register_trigger(w, Trigger("t-go", period=1, target="go"))
    register_trigger(w, Trigger("t-stop", period=1, target="stop"))
    kernel = Kernel(w)
    report = kernel.step()
    assert calls == {"open": 1, "shut": 1}
    assert [f.mechanism for f in report.fired] == ["go"]
    assert [(g.mechanism, g.failed) for g in report.guard_failures] == [("stop", ["gate"])]
    assert kernel.trace_lines() == ["ping"]


def test_trace_vocabulary_enforced():
    w = counter_world()
    register_mechanism(
        w,
        Mechanism("noisy", guard=(), effect=lambda kernel: kernel.emit_trace("undeclared line")),
    )
    register_trigger(w, Trigger("t", period=1, target="noisy"))
    kernel = Kernel(w)
    with pytest.raises(TraceVocabularyError):
        kernel.step()


def test_a_step_that_raises_publishes_none_of_its_events():
    w = counter_world()

    def ping_then_fault(kernel):
        kernel.emit_trace("ping")
        if kernel.tick == 1:
            kernel.emit_trace("undeclared line")

    register_mechanism(w, Mechanism("pinger", guard=(), effect=ping_then_fault))
    register_trigger(w, Trigger("t", period=1, target="pinger"))
    kernel = Kernel(w)
    kernel.step()
    with pytest.raises(TraceVocabularyError):
        kernel.step()
    assert [(e.step, e.line) for e in kernel.trace] == [(0, "ping")]
    assert [r.step for r in kernel.reports] == [0]
    report = kernel.current_report
    assert [(report.step, line) for line in report.lines] == [(1, "ping")]


@pytest.mark.parametrize(
    "fault, refusal",
    [
        (StateError("boom"), "step 2 raised: boom"),
        (KeyboardInterrupt(), "step 2 was interrupted"),
        (TypeError("boom"), "step 2 raised: TypeError: boom"),
    ],
)
def test_no_step_runs_after_a_step_raised_or_was_interrupted(fault, refusal):
    w = counter_world()

    def boil_then_fault(kernel):
        kernel.emit_trace("ping")
        kernel.world.set_state("blood", "phase", "gas" if kernel.tick % 2 else "liquid")
        if kernel.tick == 2:
            raise fault

    register_mechanism(w, Mechanism("boiler", guard=(), effect=boil_then_fault))
    register_trigger(w, Trigger("t", period=1, target="boiler"))
    kernel = Kernel(w)
    with pytest.raises(type(fault)):
        kernel.run(5)
    assert kernel.fault is fault
    before = (kernel.tick, len(kernel.reports), len(w.transitional_log), list(w.changes))
    for attempt in (kernel.step, lambda: kernel.run(5)):
        with pytest.raises(SemsimError, match=f"^{refusal}$"):
            attempt()
        assert (kernel.tick, len(kernel.reports), len(w.transitional_log), list(w.changes)) == before
    assert before == (2, 2, 3, [w.transitional_log[-1]])
    assert w.transitional_log[-1].subjects == ("blood",)


def test_run_without_a_count_runs_until_halted():
    w = counter_world()

    def boil_at_tick_3(kernel):
        if kernel.tick == 3:
            kernel.world.set_state("blood", "phase", "gas")

    register_mechanism(w, Mechanism("boiler", guard=(), effect=boil_at_tick_3))
    register_trigger(w, Trigger("t", period=1, target="boiler"))
    kernel = Kernel(w)
    kernel.add_rule(AssertionRule("liquid", TriplePattern("blood", "hasState:phase", "liquid")))
    assert [r.step for r in kernel.run()] == [0, 1, 2, 3]
    assert kernel.halted_at == 3 and kernel.fault is None


def test_the_trace_and_the_halt_are_each_stored_once():
    w = build_cardio()
    w.place_portion("air-nose", "RightAtrium")  # two portions in one chamber: a violation
    kernel = Kernel(w)
    standard_rules(kernel)
    kernel.run(5)
    assert kernel.halted and kernel.halted_at == 0 and len(kernel.reports) == 1
    with pytest.raises(AttributeError):
        kernel.halted = False
    assert list(kernel.trace) == [
        TraceEvent(r.step, line) for r in kernel.reports for line in r.lines
    ] != []
    assert not any(
        isinstance(value, list) and any(isinstance(x, TraceEvent) for x in value)
        for value in vars(kernel).values()
    )


def test_mixed_substance_collision_is_a_violation_not_a_wedge():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    kernel.run(3)
    world.place_portion("air-nose", "RightAtrium")
    kernel.step()
    blood_before = {p.id: p.compartment for p in world.live_portions("blood")}

    report = kernel.step()  # the heartbeat pushes air and blood into RightVentricle
    details = [
        v.bindings["detail"] for v in report.validation.violations if v.rule == "CapacityExceeded"
    ]
    assert details == [
        "HeartbeatPush: 2 portions for 'RightVentricle' (capacity 1, "
        "cannot merge substances ['air', 'blood'])"
    ]
    assert {p.id: p.compartment for p in world.live_portions("blood")} == blood_before

    reports = kernel.run(20)
    assert len(reports) == 20 and kernel.tick == 25
    assert [r.step for r in reports] == list(range(5, 25))


def test_run_zero_ticks_empty_trace():
    w = counter_world()
    kernel = Kernel(w)
    assert kernel.run(0) == []
    assert kernel.trace_lines() == []


def test_an_unknown_policy_is_refused_when_the_kernel_is_built():
    world = build_cardio()
    changes = len(world.transitional_log)
    with pytest.raises(ModelError, match=r"^policy must be one of \('halt', 'warn', 'off'\)$"):
        Kernel(world, validate_policy="Halt")
    assert world.clock == 0 and len(world.transitional_log) == changes  # no step ran


def test_a_policy_or_mode_assigned_after_construction_is_checked():
    kernel = Kernel(build_cardio())
    kernel.add_rule(AssertionRule("boiling", TriplePattern("blood", "hasState:phase", "gas")))
    with pytest.raises(ModelError, match=r"^policy must be one of \('halt', 'warn', 'off'\)$"):
        kernel.validate_policy = "Halt"
    with pytest.raises(ModelError, match=r"^mode must be one of \('deterministic', 'concurrent'\)$"):
        kernel.mode = "parallel"
    assert (kernel.validate_policy, kernel.mode) == ("halt", "deterministic")
    kernel.run(3)
    assert kernel.halted_at == 0 and len(kernel.reports) == 1


def test_a_valid_policy_still_switches_between_steps():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="off")
    standard_rules(kernel)
    kernel.step()
    assert kernel.snapshot is None
    kernel.validate_policy = "warn"
    kernel.step()
    assert kernel.snapshot is not None and kernel.validate_policy == "warn"
    kernel.mode = "concurrent"
    kernel.step()
    assert len(kernel.reports) == 3 and not kernel.halted


def test_a_triggers_period_and_phase_are_fixed_once_it_is_built():
    world = build_cardio()
    kernel = Kernel(world)
    kernel.step()
    medulla = world.triggers["Medulla"]
    period, phase = medulla.period, medulla.phase
    with pytest.raises(AttributeError, match="^trigger 'Medulla': period is fixed"):
        medulla.period = 1
    with pytest.raises(AttributeError, match="^trigger 'Medulla': phase is fixed"):
        medulla.phase = 1
    assert (medulla.period, medulla.phase) == (period, phase)
    medulla.enabled = False  # a switch, still read every tick
    assert not medulla.due(period * 4)
    # The schedule is the one a fresh kernel on the same world builds.
    fresh = Kernel(load_model(save_model(world)))
    fresh._index()
    assert [t.name for t, _, _ in kernel._schedule] == [t.name for t, _, _ in fresh._schedule]


def test_one_validation_report_per_step():
    w = counter_world()
    kernel = Kernel(w)
    kernel.run(9)
    assert len(kernel.reports) == 9
    assert [r.step for r in kernel.reports if r.validation is not None] == list(range(9))


# ----------------------------------------------------------------------
# determinism and causal structure on the cardio model


def cardio_without_side_effects():
    """The cardio model saved, stripped of every mechanism's side effects and
    loaded again."""
    data = save_model(build_cardio())
    for spec in data["mechanisms"]:
        spec.pop("side_effects", None)
    return load_model(data)


def run_cardio(seed=0, mode="deterministic", ticks=60, side_effects=True):
    world = build_cardio() if side_effects else cardio_without_side_effects()
    kernel = Kernel(world, seed=seed, mode=mode)
    standard_rules(kernel)
    kernel.run(ticks)
    return world, kernel


def test_deterministic_replay_identical():
    _, k1 = run_cardio()
    _, k2 = run_cardio()
    assert k1.trace_lines() == k2.trace_lines()
    assert [r.describe() for r in k1.reports] == [r.describe() for r in k2.reports]


def test_interleaving_stable_when_both_triggers_due():
    # Tick 12 has the pacemaker and the medulla due together; the order is
    # fixed by (period, name) and identical across runs.
    _, k1 = run_cardio(ticks=13)
    _, k2 = run_cardio(ticks=13)
    t12_1 = [f.mechanism for f in k1.reports[12].fired]
    t12_2 = [f.mechanism for f in k2.reports[12].fired]
    assert t12_1 == t12_2


def causal_violations(lines):
    problems = []
    nerve_seen = 0
    contract_seen = 0
    for i, line in enumerate(lines):
        if line == "past phrenicNerve trigger":
            nerve_seen += 1
        elif line == "into diaphragm contract":
            contract_seen += 1
            if contract_seen > nerve_seen:
                problems.append((i, "contract before nerve trigger"))
    # within each cycle, nose inhale precedes alveolar inhale
    cycle_lines = [l for l in lines if l.startswith(("inhale cycle", "completed inhale"))]
    state = "idle"
    for l in cycle_lines:
        if l == "inhale cycle":
            state = "cycle"
        elif l == "completed inhale ExternalAir to Nose Air":
            if state != "cycle":
                problems.append((l, "nose inhale outside cycle"))
            state = "nose"
        elif l == "completed inhale Nose Air to Alv Air":
            if state != "nose":
                problems.append((l, "alv inhale before nose inhale"))
            state = "idle"
    return problems


def test_causal_ordering_deterministic_mode():
    _, kernel = run_cardio(ticks=120)
    assert causal_violations(kernel.trace_lines()) == []


def test_concurrent_mode_keeps_causal_invariants():
    for seed in range(5):
        _, kernel = run_cardio(seed=seed, mode="concurrent", ticks=60)
        assert causal_violations(kernel.trace_lines()) == []
        assert not kernel.halted


def test_medulla_fired_only_with_high_co2():
    world, kernel = run_cardio(ticks=120)
    guard = [c.description for c in world.mechanisms["MedullaSense"].guard]
    assert "blood at MedullaCap has CO2Level=high" in guard
    assert any(r.mechanism == "MedullaSense" for report in kernel.reports for r in report.fired)


def test_side_effect_isolation():
    # Stripping side effects never changes which guards become true: the
    # fired sequence, guard failures, and trace are identical.
    _, with_se = run_cardio(ticks=100, side_effects=True)
    _, without_se = run_cardio(ticks=100, side_effects=False)
    assert [f.mechanism for r in with_se.reports for f in r.fired] == [
        f.mechanism for r in without_se.reports for f in r.fired
    ]
    assert with_se.trace_lines() == without_se.trace_lines()


def test_side_effect_observable_when_enabled():
    world, kernel = run_cardio(ticks=60, side_effects=True)
    warmed = [
        p for p in world.portions.values()
        if "Warmth" in p.properties and p.properties["Warmth"] == "high"
    ]
    assert warmed  # metabolic heat showed up somewhere
    world2, _ = run_cardio(ticks=60, side_effects=False)
    warmed2 = [
        p for p in world2.portions.values()
        if "Warmth" in p.properties and p.properties["Warmth"] == "high"
    ]
    assert not warmed2


def _move_back_over_no_connection(kernel):
    topology.move(kernel.world, "p", "B", "A")


@pytest.mark.parametrize("policy", ["warn", "off"])
def test_a_steps_wiring_errors_are_reported_in_the_order_they_happened(policy):
    w = counter_world()
    w.create_portion("blood", entity_id="p")
    w.place_portion("p", "B")
    for name in ("first", "second"):
        register_mechanism(w, Mechanism(name, guard=(), effect=_move_back_over_no_connection))
        register_trigger(w, Trigger(name, period=1, target=name))
    kernel = Kernel(w, validate_policy=policy)
    kernel.add_rule(AssertionRule("liquid", TriplePattern("blood", "hasState:phase", "gas")))
    (report,) = kernel.run(1)
    details = [(v.rule, v.bindings["detail"]) for v in report.validation.violations[:2]]
    assert details == [
        ("PushWithoutConnection", "first: no fluid connection 'B' -> 'A'"),
        ("PushWithoutConnection", "second: no fluid connection 'B' -> 'A'"),
    ]
    # The rule's own violation, checked only under warn, follows them.
    assert [v.rule for v in report.validation.violations[2:]] == (
        ["liquid"] if policy == "warn" else []
    )


def _ring_world(contents_of_a):
    """Blood compartments A -> B, a circuit over both that names no successor
    of B, and a mechanism that pushes it and keeps the change list from just
    before and after the push."""
    w = counter_world()
    w.create_portion("blood", entity_id="p", compartment="A")
    w.compartments["A"].contents[:] = contents_of_a
    circuit = w.define_circuit("loop", ("A", "B"), {"A": ("B",)})
    seen = []

    def push(kernel):
        seen.append(list(kernel.world.changes))
        try:
            topology.ring_push(kernel.world, circuit)
        finally:
            seen.append(list(kernel.world.changes))

    register_mechanism(w, Mechanism("push", guard=(), effect=push))
    register_trigger(w, Trigger("push", period=1, target="push"))
    return w, seen


@pytest.mark.parametrize("contents, error, detail", [
    (["p"], "PushWithoutConnection", "push: circuit 'loop' dead-ends at 'B'"),
    (["p", "ghost"], "PortionNotPresent", "push: no live portion 'ghost' in 'A'"),
], ids=["dead end", "stale contents"])
def test_a_refused_ring_push_is_a_violation_and_changes_nothing(contents, error, detail):
    w, seen = _ring_world(contents)

    def state():
        return (
            {pid: (p.alive, p.compartment) for pid, p in w.portions.items()},
            {cid: list(c.contents) for cid, c in w.compartments.items()},
            list(w.transitional_log),
        )

    before = state()
    (report,) = Kernel(w, validate_policy="warn").run(1)
    assert [(v.rule, v.bindings) for v in report.validation.violations] == [
        (error, {"detail": detail})
    ]
    assert seen[0] == seen[1]  # the change list, just before and after the push
    assert state() == before


# ----------------------------------------------------------------------
# the kernel's dispatch tables follow registrations and trigger switches


def _fired_at(kernel, name):
    return [r.step for r in kernel.reports if any(f.mechanism == name for f in r.fired)]


@pytest.mark.parametrize("mode, seed", [("deterministic", 0), ("concurrent", 11)])
def test_a_trigger_registered_mid_run_fires_at_its_next_due_tick(mode, seed):
    world = build_cardio()
    kernel = Kernel(world, seed=seed, mode=mode)
    standard_rules(kernel)
    kernel.run(5)
    register_mechanism(
        world, Mechanism("Late", guard=(), effect=lambda kernel: None, subsystem="late")
    )
    register_trigger(world, Trigger("Late", period=3, target="Late"))
    kernel.run(8)
    assert _fired_at(kernel, "Late") == [6, 9, 12]
    assert len(kernel.reports) == 13 and not kernel.halted


def test_a_receiver_registered_mid_run_gets_the_next_delivery_after_the_earlier_ones():
    w = counter_world()
    heard = []
    register_mechanism(w, Mechanism("sender", guard=(), effect=_send_go))
    register_trigger(w, Trigger("every-other", period=2, target="sender"))

    def listener(name):
        return Mechanism(
            name, guard=(), effect=lambda kernel: heard.append((kernel.tick, name)),
            on_signal="N2",
        )

    register_mechanism(w, listener("first"))
    kernel = Kernel(w)
    kernel.run(2)  # sent at tick 0, delivered at tick 1
    register_mechanism(w, listener("second"))
    kernel.run(2)  # sent at tick 2, delivered at tick 3
    assert heard == [(1, "first"), (3, "first"), (3, "second")]


def test_heart_stop_applied_mid_run_silences_the_pacemaker_at_the_next_tick():
    from semsim.scenarios import apply_scenario, heart_stop

    beating, stopped = Kernel(build_cardio()), Kernel(build_cardio())
    for kernel in (beating, stopped):
        standard_rules(kernel)
        kernel.run(8)
    apply_scenario(stopped.world, heart_stop())
    beating.run(9)
    stopped.run(9)
    assert _fired_at(beating, "HeartbeatPush") == [0, 4, 8, 12, 16]
    assert _fired_at(stopped, "HeartbeatPush") == [0, 4]


def test_a_signal_nobody_listens_for_faults_with_the_same_message():
    w = counter_world()
    register_mechanism(w, Mechanism("sender", guard=(), effect=_send_go))
    # A listener elsewhere: the receivers index is not empty, only N2's entry is.
    register_mechanism(
        w, Mechanism("elsewhere", guard=(), effect=lambda kernel: None, on_signal="A")
    )
    register_trigger(w, Trigger("once", period=100, target="sender"))
    kernel = Kernel(w)
    kernel.step()
    with pytest.raises(UnknownEntityError) as raised:
        kernel.step()
    assert str(raised.value) == "signal to 'N2' has no receiving mechanism"
