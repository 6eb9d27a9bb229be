"""The kernel's incremental validation against the independent reference.

A kernel keeps one triple snapshot from step to step and re-checks only the
rules a step's changes can affect. After every step of a random schedule,
its report must equal the naive reference evaluator's over the reference
triples (violation order and bindings included), and its snapshot and
predicate index must hold exactly those triples.

A pushedTo triple lives for the step whose commit made it: the step's
rules see it, and validate drops it once they are checked. A refresh
empties the world's change list, so after a step the world no longer names
the moves that step committed. The fixture below keeps, on each snapshot,
the commit records its last refresh consumed, and the step's violations are
checked against reference triples with those moves' pushedTo. Between
steps the snapshot holds a fresh build's triples in scope, which name no
move.
"""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semsim import (
    Kernel,
    Mechanism,
    Portion,
    StateSpace,
    Trigger,
    Triple,
    TriplePattern,
    Var,
    World,
    topology,
)
from semsim.engine import register_mechanism, register_trigger
from semsim.cli import standard_rules
from semsim.modelfile import load_model, save_model
from semsim.models import build_cardio, build_waterfall
from semsim.topology import CommitRecord
from semsim.scenarios import (
    Scenario,
    apply_scenario,
    disable_trigger,
    load_scenario,
    remove_connection,
    set_ambient,
    set_state,
)
from semsim.validation import AssertionRule, Snapshot, derive_triples, rule_scope
from semsim.world import Vocabulary

from reference import as_items, reference_triples, reference_violations

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


def _even_snapshot(bindings, world, triples):
    return len(triples) % 2 == 0  # reads everything, so reads stays None


def _co2_rich_in_lungs(bindings, world, triples):
    return Triple(bindings["p"], "locatedIn", "PulmCap") in triples


def _pushed_from_the_atrium(bindings, world, triples):
    return Triple("LeftAtrium", "pushedTo", bindings["c"]) in triples


def extra_rules():
    return (
        AssertionRule(
            "nothing-points-at-lv",
            TriplePattern(Var("s"), Var("p"), "LeftVentricle"),
            expectation="must_not_exist",
        ),
        AssertionRule(
            "located-count",
            TriplePattern(Var("p"), "locatedIn", Var("c")),
            expectation="count_in_set",
            counts=frozenset({7, 10}),
        ),
        AssertionRule("some-push", TriplePattern(Var("a"), "pushedTo", Var("b"))),
        AssertionRule("water-liquid", TriplePattern("water", "hasState:phase", "liquid")),
        AssertionRule(
            "even-snapshot",
            TriplePattern(Var("p"), "hasState:Location", Var("l")),
            expectation="must_not_exist",
            check=_even_snapshot,
        ),
        AssertionRule(
            "co2-rich-in-lungs",
            TriplePattern(Var("p"), "hasState:CO2Level", "high"),
            expectation="must_not_exist",
            check=_co2_rich_in_lungs,
            reads=frozenset({"locatedIn"}),
        ),
        # Reads pushedTo, not its own predicate: when validate drops a
        # step's pushedTo triples, the rule must be checked again.
        AssertionRule(
            "pushed-from-the-atrium",
            TriplePattern(Var("p"), "locatedIn", Var("c")),
            expectation="must_not_exist",
            check=_pushed_from_the_atrium,
            reads=frozenset({"pushedTo"}),
        ),
    )


@pytest.fixture(autouse=True)
def keep_the_commits_each_refresh_consumes(monkeypatch):
    refresh = Snapshot.refresh

    def refresh_keeping_commits(self):
        self.consumed_commits = [r for r in self.world.changes if isinstance(r, CommitRecord)]
        refresh(self)

    monkeypatch.setattr(Snapshot, "refresh", refresh_keeping_commits)


def violations(items):
    return [(v.rule, v.bindings) for v in items]


def assert_kernel_matches_full_recompute(kernel, report):
    world = kernel.world
    own = report.validation.violations[len(kernel._wiring_errors):]
    if kernel.validate_policy == "off":
        assert own == []
        assert kernel.snapshot is None
        return
    snapshot = kernel.snapshot
    triples = reference_triples(world, snapshot.consumed_commits)
    assert as_items(own) == reference_violations(world, triples, kernel.rules)
    # Between steps the kernel's snapshot holds no pushedTo triple, and only
    # the predicates its rules match or read.
    assert world.changes == []
    scope = snapshot.scope
    in_scope = {t for t in reference_triples(world) if scope is None or t.predicate in scope}
    assert snapshot.triples == in_scope
    grouped = {}
    for triple in in_scope:
        grouped.setdefault(triple.predicate, set()).add(triple)
    assert {p: s for p, s in snapshot.by_predicate.items() if s} == grouped


OPS = (
    "step", "step", "step", "step", "step", "place", "kill", "set_location",
    "set_property", "phase", "unwire", "part", "scenario", "add_rule", "toggle", "policy",
)


def perturb(data, kernel, op, extras):
    """One change between steps; an op the model cannot take is a no-op.

    Every change leaves a world the kernel can step through, so each drawn
    step is run and checked; none is skipped for raising.
    """
    world = kernel.world
    live = sorted(world.live_registry)
    if op == "place" and live and world.compartments:
        pid = data.draw(st.sampled_from(live), label="place portion")
        # Only where the portion's substance may go: air pushed into a blood
        # compartment fails the next heartbeat's merge, which wedges the kernel.
        medium = f"{world.portions[pid].substance}_path"
        fits = sorted(c for c, comp in world.compartments.items() if comp.medium == medium)
        if fits:
            world.place_portion(pid, data.draw(st.sampled_from(fits), label="compartment"))
    elif op == "kill":
        objects = sorted(i for i, o in world.objects.items() if o.alive)
        if live or objects:
            world.kill(data.draw(st.sampled_from(live + objects), label="kill"))
    elif op == "set_location" and live:
        portion = world.live_registry[data.draw(st.sampled_from(live), label="relocate")]
        labels = ("upper", "drop", "pool") if portion.kind else ("upper", "PulmCap")
        world.set_state(portion.id, "Location", data.draw(st.sampled_from(labels)))
    elif op == "set_property" and live:
        portion = world.live_registry[data.draw(st.sampled_from(live), label="prop portion")]
        if portion.properties:
            prop = data.draw(st.sampled_from(sorted(portion.properties)))
            labels = world.scales[prop].labels
            world.set_state(portion.id, prop, data.draw(st.sampled_from(labels)))
    elif op == "phase":
        sub = data.draw(st.sampled_from(sorted(world.substances)), label="substance")
        world.set_state(sub, "phase", data.draw(st.sampled_from(("solid", "liquid"))))
    elif op == "unwire" and world.connections:
        key = data.draw(st.sampled_from(sorted(world.connections)), label="connection")
        world.remove_connection(*key)
    elif op == "part" and world.objects:
        wholes = sorted(i for i, o in world.objects.items() if o.parts)
        if wholes and data.draw(st.booleans(), label="remove part"):
            parent = world.objects[data.draw(st.sampled_from(wholes), label="whole")]
            world.remove_part(parent.id, *data.draw(st.sampled_from(parent.parts)))
        else:
            parent = data.draw(st.sampled_from(sorted(world.objects)), label="parent")
            world.add_part(parent, "extra", data.draw(st.sampled_from(sorted(world.objects))))
    elif op == "scenario":
        directive = data.draw(st.sampled_from(_scenario_directives(world)), label="directive")
        apply_scenario(world, Scenario(f"s{world.clock}", [directive]))
    elif op == "add_rule":
        fresh = [r for r in extras if r.name not in kernel.rules]
        if fresh:
            kernel.add_rule(data.draw(st.sampled_from(fresh), label="rule"))
    elif op == "toggle":
        trigger = world.triggers[data.draw(st.sampled_from(sorted(world.triggers)))]
        trigger.enabled = not trigger.enabled
    elif op == "policy":
        kernel.validate_policy = data.draw(st.sampled_from(("off", "halt")), label="policy")


def _scenario_directives(world):
    directives = [set_ambient("temperature", "below_freezing")]
    directives += [disable_trigger(name) for name in sorted(world.triggers)]
    directives += [set_state(sub, "phase", "solid") for sub in sorted(world.substances)]
    directives += [remove_connection(*key) for key in sorted(world.connections)]
    return directives


@pytest.mark.parametrize("model", ["cardio", "waterfall"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_kernel_validation_equals_full_recompute(model, data):
    world = build_cardio() if model == "cardio" else build_waterfall(n_portions=40)
    kernel = Kernel(world, validate_policy="halt")
    standard_rules(kernel)
    extras = extra_rules()
    for _ in range(data.draw(st.integers(min_value=1, max_value=80), label="ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        if op != "step":
            perturb(data, kernel, op, extras)
            continue
        assert_kernel_matches_full_recompute(kernel, kernel.step())


def _in_lungs(bindings, world, triples):
    return Triple(bindings["p"], "locatedIn", "PulmCap") in triples


def _oxygen_poor(bindings, world, triples):
    return Triple(bindings["p"], "hasState:O2Level", "low") in triples


def test_rule_scope_is_what_the_rules_match_or_read():
    kernel = Kernel(build_waterfall(n_portions=2))
    standard_rules(kernel)
    assert rule_scope(kernel.rules) == {
        "locatedIn", "pushedTo", "connectedTo", "hasState:Location", "hasState:phase",
    }
    assert rule_scope({}) == frozenset()
    unchecked = AssertionRule("some-push", TriplePattern(Var("a"), "pushedTo", Var("b")))
    assert rule_scope({"r": unchecked}) == {"pushedTo"}
    co2 = AssertionRule(
        "co2", TriplePattern(Var("p"), "hasState:CO2Level", "high"),
        expectation="must_not_exist", check=_in_lungs, reads=frozenset({"locatedIn"}),
    )
    assert rule_scope({"r": co2}) == {"hasState:CO2Level", "locatedIn"}

    variable = AssertionRule(
        "anything-at-lv", TriplePattern(Var("s"), Var("p"), "LeftVentricle"),
        expectation="must_not_exist",
    )
    unknown_reads = AssertionRule(
        "even", TriplePattern(Var("p"), "locatedIn", Var("c")),
        expectation="must_not_exist", check=_even_snapshot,
    )
    for rule in (variable, unknown_reads):
        assert rule_scope({**kernel.rules, rule.name: rule}) is None


def test_the_kernel_snapshot_holds_only_what_the_standard_rules_read():
    kernel = Kernel(build_cardio())
    standard_rules(kernel)
    kernel.run(9)  # the last step, tick 8, is a heartbeat
    snapshot = kernel.snapshot
    assert snapshot.scope == {"locatedIn", "pushedTo", "connectedTo"}
    # The heartbeat's pushedTo triples left the snapshot when validate returned.
    assert {t.predicate for t in snapshot.triples} == {"locatedIn", "connectedTo"}
    assert not [t for t in snapshot.triples if t.predicate == "hasState:O2Level"]
    assert_kernel_matches_full_recompute(kernel, kernel.reports[-1])
    # A standalone validate is still a full recompute.
    assert derive_triples(kernel.world) == reference_triples(kernel.world)


@pytest.mark.parametrize(
    "names, scope",
    [((), set()), (("some-push",), {"pushedTo"}), (("located-count",), {"locatedIn"}),
     (("pushed-from-the-atrium",), {"locatedIn", "pushedTo"})],
    ids=["no-rules", "pushedTo", "locatedIn", "reads-pushedTo"],
)
def test_a_scope_without_state_or_part_predicates_stays_exact(names, scope):
    # Such a scope holds no object's or substance's triple and at most a live
    # portion's locatedIn, so the snapshot derives only that.
    kernel = Kernel(build_cardio(), validate_policy="warn")
    extras = {rule.name: rule for rule in extra_rules()}
    for name in names:
        kernel.add_rule(extras[name])
    for tick in range(40):
        if tick == 20:
            world = kernel.world
            world.kill(sorted(world.live_registry)[0])
        assert_kernel_matches_full_recompute(kernel, kernel.step())
        assert kernel.snapshot.scope == scope


@pytest.mark.parametrize("via", ["pattern", "reads"])
def test_a_rule_added_mid_run_widens_the_scope(via):
    world = build_cardio()
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    kernel.run(5)
    built = kernel.snapshot
    if via == "pattern":
        rule = AssertionRule(
            "oxygen-poor", TriplePattern(Var("p"), "hasState:O2Level", "low"),
            expectation="must_not_exist",
        )
    else:
        rule = AssertionRule(
            "oxygen-poor", TriplePattern(Var("p"), "locatedIn", Var("c")),
            expectation="must_not_exist", check=_oxygen_poor,
            reads=frozenset({"hasState:O2Level"}),
        )
    kernel.add_rule(rule)
    report = kernel.step()
    assert kernel.snapshot is built
    assert "hasState:O2Level" in built.scope
    assert [v.rule for v in report.validation.violations].count("oxygen-poor") > 0
    assert_kernel_matches_full_recompute(kernel, report)
    for _ in range(12):
        assert_kernel_matches_full_recompute(kernel, kernel.step())


def test_replaced_and_removed_rules_are_rechecked():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    count = AssertionRule(
        "located", TriplePattern(Var("p"), "locatedIn", Var("c")),
        expectation="count_in_set", counts=frozenset({0}),
    )
    kernel.add_rule(count)
    report = kernel.step()
    assert violations(report.validation.violations) == [("located", {"count": "10"})]
    kernel.rules["located"] = AssertionRule(
        "located", TriplePattern(Var("p"), "locatedIn", "LeftVentricle"),
        expectation="count_in_set", counts=frozenset({1}),
    )
    assert kernel.step().validation.violations == []
    del kernel.rules["located"]
    assert kernel.step().validation.violations == []
    kernel.add_rule(count)
    assert violations(kernel.step().validation.violations) == [("located", {"count": "10"})]

    in_lv = AssertionRule(
        "in-lv", TriplePattern(Var("p"), "locatedIn", "LeftVentricle"),
        expectation="must_not_exist",
    )
    kernel.add_rule(in_lv)
    before = kernel.step().validation.violations
    del kernel.rules["in-lv"]
    kernel.run(4)  # a heartbeat moves another portion into the ventricle
    kernel.add_rule(in_lv)  # the same rule object, back after missing changes
    report = kernel.step()
    assert violations(report.validation.violations) != violations(before)
    assert_kernel_matches_full_recompute(kernel, report)


def _ink_frozen(bindings, world, triples):
    return Triple("ink", "hasState:phase", "solid") in triples


def test_entities_defined_mid_run_enter_the_snapshot():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    # A rule over nibs that reads phases: both predicates are in the scope.
    kernel.add_rule(AssertionRule(
        "no-nib-while-ink-frozen", TriplePattern(Var("q"), "hasState:nib", Var("n")),
        expectation="must_not_exist", check=_ink_frozen, reads=frozenset({"hasState:phase"}),
    ))
    kernel.step()
    world.define_substance("ink", phase="liquid")
    nib = world.define_scale(StateSpace("nib", ("sharp", "blunt")))
    world.define_kind("Quill", state_spaces=(nib,))
    world.instantiate("Quill", entity_id="quill")
    world.add_compartment("Inkwell", capacity=None)
    world.connect("Inkwell", "LeftVentricle")
    world.add_portion(Portion("drop", "ink", properties={"nib": "blunt"}))
    report = kernel.step()
    assert {("ink", "hasState:phase", "liquid"), ("quill", "hasState:nib", "sharp"),
            ("Inkwell", "connectedTo", "LeftVentricle"),
            ("drop", "hasState:nib", "blunt")} <= kernel.snapshot.triples
    assert_kernel_matches_full_recompute(kernel, report)


def test_a_commit_that_fails_midway_leaves_the_snapshot_exact():
    world = World("jam")
    world.vocabulary = Vocabulary(literals=frozenset({"trigger updates"}))
    world.define_substance("air", phase="gas")
    for name in ("Src", "Dst"):
        world.add_compartment(name, "air_path", capacity=1)
    world.connect("Src", "Dst")
    world.create_portion("air", entity_id="mover", compartment="Src")
    world.create_portion("air", entity_id="stayer", compartment="Dst")

    def push(kernel):
        topology.move(kernel.world, "mover", "Src", "Dst")  # Dst would overflow, so nothing moves

    register_mechanism(world, Mechanism("push", guard=(), effect=push))
    register_trigger(world, Trigger("once", period=100, target="push", phase=1))
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    kernel.step()  # builds the snapshot
    report = kernel.step()
    assert [v.rule for v in report.validation.violations] == ["CapacityExceeded"]
    assert world.portions["mover"].compartment == "Src"
    assert world.compartments["Src"].contents == ["mover"]
    assert world.compartments["Dst"].contents == ["stayer"]
    assert_kernel_matches_full_recompute(kernel, report)


def test_each_violation_gets_its_own_bindings():
    world = build_waterfall(n_portions=5)
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    kernel.run(3)
    world.set_state("water-1", "Location", "drop")
    world.set_state("water", "phase", "solid")
    first = kernel.step().validation.violations
    assert violations(first) == [("water-fluid-while-moving", {"p": "water-1", "loc": "drop"})]
    first[0].bindings["p"] = "tampered"
    second = kernel.step().validation.violations
    assert violations(second) == [("water-fluid-while-moving", {"p": "water-1", "loc": "drop"})]


def test_validation_off_keeps_no_snapshot_and_rebuilds_on_return():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="off")
    standard_rules(kernel)
    kernel.run(9)
    assert kernel.snapshot is None
    assert world.changes == []
    kernel.validate_policy = "halt"
    report = kernel.step()
    assert_kernel_matches_full_recompute(kernel, report)


def test_a_standalone_full_build_leaves_the_kernels_change_records():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="halt")
    standard_rules(kernel)
    kernel.step()  # the heartbeat at tick 0; the next is at tick 4
    portion = next(p for p in world.live_registry.values() if p.compartment is not None
                   and p.substance == "blood")
    target = next(c for c, comp in sorted(world.compartments.items())
                  if comp.medium == "blood_path" and c != portion.compartment)
    world.place_portion(portion.id, target)
    changes = list(world.changes)
    assert changes == [portion.id]

    standalone = Snapshot(world).violations(kernel.rules)
    triples = reference_triples(world)
    assert derive_triples(world) == triples
    assert as_items(standalone) == reference_violations(world, triples, kernel.rules)
    assert world.changes == changes

    report = kernel.step()  # moves nothing, so only the records show the placement
    assert [v.rule for v in report.validation.violations] == ["compartment-capacity"] * 2
    assert (portion.id, "locatedIn", target) in kernel.snapshot.triples
    assert_kernel_matches_full_recompute(kernel, report)


def test_match_calls_per_step_stay_flat_as_the_pool_grows(monkeypatch):
    calls = []
    match = TriplePattern.match

    def counting(self, triple):
        calls[-1] += 1
        return match(self, triple)

    monkeypatch.setattr(TriplePattern, "match", counting)
    world = build_waterfall(n_portions=1000)
    kernel = Kernel(world)
    standard_rules(kernel)
    for _ in range(1000):
        calls.append(0)
        kernel.step()
    assert not kernel.halted
    assert len(world.live_registry) == 1000
    # From 10 pooled portions to 1000, each step matches only the new
    # portion's Location triple.
    assert calls[9:] == [1] * len(calls[9:])


def _water_scan(world):
    return len([p for p in world.portions.values() if p.substance == "water"])


def test_the_id_counters_equal_a_full_scan_across_a_run_and_a_reload():
    world = build_waterfall(n_portions=25)
    kernel = Kernel(world)
    standard_rules(kernel)
    for tick in range(10):
        kernel.step()
        assert world._counters["water"] == _water_scan(world) == tick + 1
    world.kill("water-3")  # dead portions still count
    assert world._counters["water"] == _water_scan(world) == 10

    reloaded = load_model(save_model(world))
    assert reloaded._counters == world._counters
    kernel = Kernel(reloaded)
    standard_rules(kernel)
    kernel.run(20)  # five ticks past the budget: the guard stops the flow
    assert kernel.trace_lines() == [f"{i} pool" for i in range(10, 25)]
    assert reloaded._counters["water"] == _water_scan(reloaded) == 25

    cardio = build_cardio()
    kernel = Kernel(cardio)
    standard_rules(kernel)
    kernel.run(30)  # splits and merges register new blood portions
    blood = len([p for p in cardio.portions.values() if p.substance == "blood"])
    assert cardio._counters["blood"] == blood > 7


@pytest.mark.parametrize("model, scenario, ticks", [
    ("cardio", None, 200),
    ("waterfall", None, 200),
    ("cardio", "heart_stop", 1000),
    ("cardio", "cut_phrenic", 1000),
    ("waterfall", "freeze", 1000),
], ids=["cardio", "waterfall", "heart_stop", "cut_phrenic", "freeze"])
def test_the_triples_view_is_a_fresh_build_in_scope_after_every_step(model, scenario, ticks):
    world = build_cardio() if model == "cardio" else build_waterfall(n_portions=200)
    if scenario is not None:
        apply_scenario(world, load_scenario(SCENARIOS / f"{scenario}.json"))
    # A scenario's violations (cut_phrenic's severed nerve) would halt the run.
    kernel = Kernel(world, validate_policy="halt" if scenario is None else "warn")
    standard_rules(kernel)
    for _ in range(ticks):
        kernel.step()
        view, scope = kernel.snapshot.triples, kernel.snapshot.scope
        everything = reference_triples(world)
        in_scope = {t for t in everything if t.predicate in scope}
        assert len(view) == len(in_scope)
        assert all(t in view for t in in_scope)
        assert not any(t in view for t in everything - in_scope)
        assert set(view) == in_scope
    assert not kernel.halted
    # Cardio's scope leaves out its objects' and properties' triples.
    assert (everything != in_scope) == (model == "cardio")


@pytest.mark.parametrize("scenario", [None, "heart_stop", "cut_phrenic"],
                         ids=["cardio", "heart_stop", "cut_phrenic"])
def test_between_steps_the_kernels_snapshot_is_a_fresh_build_in_scope(scenario):
    # A step's pushedTo triples leave with the step, so a fresh build, which
    # names the moves of the commits still in the world's change list (none
    # between steps), holds the same triples in the kernel's scope.
    world = build_cardio()
    if scenario is not None:
        apply_scenario(world, load_scenario(SCENARIOS / f"{scenario}.json"))
    kernel = Kernel(world, validate_policy="warn")
    standard_rules(kernel)
    pushes = 0
    for _ in range(150):
        kernel.step()
        pushes += len(kernel.snapshot.consumed_commits)
        assert world.changes == []
        scope = kernel.snapshot.scope
        assert "pushedTo" in scope
        fresh = {t for t in derive_triples(world) if t.predicate in scope}
        assert kernel.snapshot.triples == fresh
    assert pushes > 0


def test_the_triples_view_is_read_only_and_compares_as_a_set():
    kernel = Kernel(build_cardio())
    standard_rules(kernel)
    kernel.run(9)
    view = kernel.snapshot.triples
    assert not hasattr(view, "add") and not hasattr(view, "discard")
    in_scope = set(view)
    assert view == in_scope and in_scope == view and view <= in_scope and in_scope <= view
    assert view != in_scope - {next(iter(in_scope))}
    assert (view - in_scope) == set() and type(view | set()) is set
    for stranger in ("locatedIn", 42, ("a", "b"), ("a", ["b"], "c")):
        assert stranger not in view
