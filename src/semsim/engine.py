"""Guarded mechanisms, periodic triggers, nerve signals, and the step kernel.

A mechanism is a Petri-net-style transition: a pure guard over world state
and an ordered effect that runs only when the guard holds. The effect is a
callable on the Kernel: it writes the kernel's world, emits trace lines,
sends signals and attempts member mechanisms through it. Independent
subsystems are driven by periodic triggers; the kernel interleaves them.

Two execution modes:

* deterministic (default): everything due at a tick runs in a canonical
  order - triggers sorted by (period, name), then signal deliveries in
  emission order, then validation. The whole run is a pure function of
  (model, seed, periods, phases).
* concurrent: subsystems are independent, so any order of their firings
  is a valid interleaving. Each tick the due triggers are grouped by
  subsystem and the groups run in a random order drawn from the kernel's
  seeded generator, all on the kernel thread; signal delivery, commits and
  validation follow as in deterministic mode. Causal ordering holds, and a
  run replays exactly from its seed.

The world holds what a run carries on from: its clock, the tick the next
step runs, and the signals in transit, which a step takes, delivers after
the triggers, and replaces with those it sends. So a kernel on a saved and
reloaded world carries on where the run stopped.

Validation after each step is incremental: the kernel owns one
validation.Snapshot, builds it when it has none and refreshes it, which
applies and empties World.changes. With the policy off it keeps none and
empties the list itself. Every step that reports no violation, validated or
not, shares the one empty validation.NO_VIOLATIONS. Only a step with a
violation gets a report of its own: validate builds it for a rule's
violations, and the kernel for wiring errors, which come first. A mode or
policy outside MODES or validation.POLICIES is refused whenever it is set;
a valid one may change between steps.

An effect writes the world through its checked operations, set_state and
the rest. A write whose caller holds the subject and has already done the
checks may skip them: a path flow checks its labels when it is built and
holds the portion it has just released, so it moves it with
World.set_location, which records the same state_change as set_state.

A step's record is published whole: its StepReport, trace lines included,
joins Kernel.reports only when the step finishes. A firing is recorded as
its mechanism and via alone: its guard held, and its subsystem and saved
form (Mechanism.spec) are the registry's. A step keeps its trace as the
vocabulary's own strings; Kernel.trace builds a TraceEvent for each line
only as a caller iterates it. A step that raises publishes nothing and ends the
run: whatever escaped it, KeyboardInterrupt included, is kept as Kernel.fault,
and every later step() raises SemsimError and changes nothing.
"""
from __future__ import annotations

import random
from operator import attrgetter
from typing import Callable, Iterator

from . import validation
from .errors import (
    CapacityExceeded,
    DuplicateMover,
    DuplicateNameError,
    ModelError,
    NoNervePath,
    PortionNotPresent,
    PushWithoutConnection,
    SemsimError,
    TraceVocabularyError,
    UnknownEntityError,
    describe,
    need,
)
from .records import FrozenRecord, Record, set_field
from .world import World

MODES = ("deterministic", "concurrent")

# Faults in a model's wiring: a step reports them as violations instead of
# raising. A commit that raises one has changed nothing.
WIRING_ERRORS = (
    PushWithoutConnection,
    PortionNotPresent,
    DuplicateMover,
    CapacityExceeded,
    NoNervePath,
)


class Condition(FrozenRecord):
    """One readable conjunct of a guard."""

    _fields = ("description", "test")

    def __init__(self, description: str, test: Callable[[World], bool]):
        set_field(self, "description", description)
        set_field(self, "test", test)


class Mechanism(Record):
    _fields = ("name", "guard", "effect", "subsystem", "on_signal")

    def __init__(
        self,
        name: str,
        guard: tuple[Condition, ...],
        effect: Callable[[Kernel], None],
        subsystem: str = "core",
        on_signal: str | None = None,  # compartment this mechanism listens on
    ):
        self.name = name
        self.guard = guard
        self.effect = effect
        self.subsystem = subsystem
        self.on_signal = on_signal
        self.spec: dict | None = None  # its saved form, set by register_mechanism


class Trigger(Record):
    """An independent periodic source that fires one mechanism. Its period
    and phase are fixed once built, so the kernel's sorted schedule holds."""

    _fields = ("name", "period", "target", "phase", "enabled")

    def __init__(self, name: str, period: int, target: str, phase: int = 0, enabled: bool = True):
        # type() rather than isinstance(): bool is an int subclass.
        if not (type(period) is int and period >= 1 and type(phase) is int and phase >= 0):
            raise ModelError(
                f"trigger {name!r} needs int period >= 1 and phase >= 0, not {period!r}, {phase!r}"
            )
        if type(enabled) is not bool:
            raise ModelError(f"trigger {name!r} needs enabled true or false, not {enabled!r}")
        self.name = name
        set_field(self, "period", period)
        self.target = target
        set_field(self, "phase", phase)
        self.enabled = enabled

    def __setattr__(self, name, value):
        if name == "period" or name == "phase":
            raise AttributeError(f"trigger {self.name!r}: {name} is fixed once it is built")
        set_field(self, name, value)

    def due(self, tick: int) -> bool:
        return self.enabled and tick >= self.phase and (tick - self.phase) % self.period == 0


class Signal(FrozenRecord):
    """A nerve-style message between compartments."""

    _fields = ("sender", "receiver", "payload")

    def __init__(self, sender: str, receiver: str, payload: str):
        set_field(self, "sender", sender)
        set_field(self, "receiver", receiver)
        set_field(self, "payload", payload)


class TraceEvent(FrozenRecord):
    _fields = __slots__ = ("step", "line")

    def __init__(self, step: int, line: str):
        set_field(self, "step", step)
        set_field(self, "line", line)


class FiringRecord(Record):
    _fields = __slots__ = ("mechanism", "via")

    def __init__(self, mechanism: str, via: str):
        self.mechanism = mechanism
        self.via = via  # "trigger:<name>", "signal:<payload>" or "nested"


class GuardFailure(Record):
    _fields = __slots__ = ("mechanism", "via", "failed")

    def __init__(self, mechanism: str, via: str, failed: list[str]):
        self.mechanism = mechanism
        self.via = via
        self.failed = failed  # descriptions of the failing conditions


class StepReport(Record):
    _fields = __slots__ = ("step", "fired", "guard_failures", "lines", "validation")

    def __init__(
        self,
        step: int,
        fired: list[FiringRecord] | None = None,
        guard_failures: list[GuardFailure] | None = None,
        lines: list[str] | None = None,
        validation: validation.ValidationReport | None = None,
    ):
        self.step = step
        self.fired = [] if fired is None else fired
        self.guard_failures = [] if guard_failures is None else guard_failures
        self.lines = [] if lines is None else lines
        self.validation = validation

    def describe(self) -> str:
        fired = ", ".join(f.mechanism for f in self.fired) or "-"
        skipped = ", ".join(
            f"{g.mechanism}[{'; '.join(g.failed)}]" for g in self.guard_failures
        )
        nviol = len(self.validation.violations) if self.validation else 0
        text = f"step {self.step}: fired={fired} violations={nviol}"
        if skipped:
            text += f" guard_failed={skipped}"
        return text


def register_mechanism(world: World, mechanism: Mechanism, spec: dict | None = None) -> Mechanism:
    """Add a mechanism, with a copy of its spec (the model-file entry less
    the name, that a model file rebuilds it from); without one it cannot be saved.

    This is the one writer of world.mechanisms: it appends and refuses a
    duplicate name, so a Kernel sees a new mechanism by the registry's size.
    """
    if not isinstance(mechanism.name, str):
        raise ModelError(f"a mechanism's name must be a string, not {mechanism.name!r}")
    if mechanism.name in world.mechanisms:
        raise DuplicateNameError(f"mechanism {mechanism.name!r} already registered")
    if mechanism.on_signal is not None:
        need(world.compartments, mechanism.on_signal, "compartment to listen on")
    mechanism.spec = None if spec is None else dict(spec)
    world.mechanisms[mechanism.name] = mechanism
    return mechanism


def register_trigger(world: World, trigger: Trigger) -> Trigger:
    """Add a trigger. This is the one writer of world.triggers: it appends
    and refuses a duplicate name, so a Kernel sees a new trigger by the
    registry's size."""
    if trigger.name in world.triggers:
        raise DuplicateNameError(f"trigger {trigger.name!r} already registered")
    if trigger.target not in world.mechanisms:
        raise UnknownEntityError(f"trigger target {trigger.target!r} is not a mechanism")
    world.triggers[trigger.name] = trigger
    return trigger


def guard_report(mechanism: Mechanism, world: World) -> dict[str, bool]:
    """Each condition's value by description; the guard holds when all are true.

    Conditions sharing a description are and-ed, so the report never hides a
    failing one.
    """
    values: dict[str, bool] = {}
    for cond in mechanism.guard:
        ok = bool(cond.test(world))
        values[cond.description] = values.get(cond.description, True) and ok
    return values


def fire(mechanism: Mechanism, kernel: Kernel, via: str):
    """Record the firing of a mechanism whose guard held, then run its effect."""
    kernel.current_report.fired.append(FiringRecord(mechanism.name, via))
    mechanism.effect(kernel)


def send_signal(kernel: "Kernel", signal: Signal):
    """Put a signal in transit over a nerve connection; the next step delivers it."""
    world = kernel.world
    for cid in (signal.sender, signal.receiver):
        if cid not in world.compartments:
            raise UnknownEntityError(f"no compartment {cid!r} for signal")
    if not world.is_connected(signal.sender, signal.receiver, "nerve"):
        raise NoNervePath(f"no nerve connection {signal.sender!r} -> {signal.receiver!r}")
    world.signals.append(signal)


def _one_of(label: str, choices: tuple[str, ...]) -> property:
    """A Kernel setting, kept in _<label>, that refuses a value outside choices."""

    def assign(kernel, value):
        if value not in choices:
            raise ModelError(f"{label} must be one of {choices}")
        setattr(kernel, "_" + label, value)

    return property(attrgetter("_" + label), assign)


class Kernel:
    """Steps a world on its clock; owns the per-step reports, which hold the trace, and the fault."""

    mode = _one_of("mode", MODES)
    validate_policy = _one_of("policy", validation.POLICIES)

    def __init__(
        self,
        world: World,
        seed: int = 0,
        mode: str = "deterministic",
        validate_policy: str = "halt",
    ):
        self.world = world
        self.seed = seed
        self.mode = mode
        self.validate_policy = validate_policy
        self.rng = random.Random(seed)
        self.reports: list[StepReport] = []
        self.rules: dict[str, validation.AssertionRule] = {}
        self.halted_at: int | None = None
        self.current_report = StepReport(step=0)
        self.snapshot: validation.Snapshot | None = None  # None while validation is off
        self.fault: BaseException | None = None  # what escaped a step; no step runs after it
        self._wiring_errors: list[tuple[str, str]] = []
        # Dispatch tables, rebuilt when a registry's size changes (_index).
        self._indexed = (-1, -1)  # (len(world.triggers), len(world.mechanisms))
        self._schedule: list[tuple[Trigger, Mechanism, str]] = []
        self._receivers: dict[str, list[Mechanism]] = {}

    # ------------------------------------------------------------------

    @property
    def tick(self) -> int:
        """The tick the next step runs: the world's clock."""
        return self.world.clock

    @property
    def halted(self) -> bool:
        return self.halted_at is not None

    @property
    def trace(self) -> Iterator[TraceEvent]:
        """The finished steps' trace lines, in order, each built into a
        TraceEvent as the iterator reaches it."""
        return (
            TraceEvent(report.step, line) for report in self.reports for line in report.lines
        )

    def add_rule(self, rule: validation.AssertionRule):
        return validation.register_rule(self.rules, rule)

    def emit_trace(self, line: str):
        canonical = self.world.vocabulary.canonical(line)
        if canonical is None:
            raise TraceVocabularyError(
                f"line {line!r} is not in the declared vocabulary of "
                f"{self.world.name!r}"
            )
        self.current_report.lines.append(canonical)

    def trace_lines(self) -> list[str]:
        return [line for report in self.reports for line in report.lines]

    def attempt(self, mechanism: Mechanism, via: str) -> bool:
        """Evaluate the guard once, then fire, or record the failing conditions."""
        values = guard_report(mechanism, self.world)
        if all(values.values()):
            fire(mechanism, self, via)
            return True
        failed = [d for d, ok in values.items() if not ok]
        self.current_report.guard_failures.append(
            GuardFailure(mechanism.name, via, failed)
        )
        return False

    def _index(self):
        """Rebuild the dispatch tables from the world's registries.

        The schedule is every trigger, sorted by (period, name), with its
        target and its via; the receivers are the mechanisms listening on
        each compartment, in registration order. Both hold only what is fixed
        at registration; whether a trigger is due, Trigger.due, is read every
        tick, so a trigger disabled between steps is skipped at the next.
        """
        world = self.world
        ordered = sorted(world.triggers.values(), key=lambda t: (t.period, t.name))
        self._schedule = [
            (trig, world.mechanisms[trig.target], f"trigger:{trig.name}") for trig in ordered
        ]
        receivers: dict[str, list[Mechanism]] = {}
        for mech in world.mechanisms.values():
            if mech.on_signal is not None:
                receivers.setdefault(mech.on_signal, []).append(mech)
        self._receivers = receivers
        self._indexed = (len(world.triggers), len(world.mechanisms))

    def _dispatch(self, mechanism: Mechanism, via: str):
        """Attempt one mechanism; wiring bugs become violations."""
        try:
            self.attempt(mechanism, via)
        except WIRING_ERRORS as exc:
            self._wiring_errors.append((type(exc).__name__, f"{mechanism.name}: {exc}"))

    # ------------------------------------------------------------------

    def step(self) -> StepReport:
        """Run everything due at the world's clock, validate, advance the clock; refused after a fault."""
        world = self.world
        tick = world.clock
        if self.fault is not None:
            interrupted = isinstance(self.fault, KeyboardInterrupt)
            reason = "was interrupted" if interrupted else f"raised: {describe(self.fault)}"
            raise SemsimError(f"step {tick} {reason}") from self.fault
        try:
            self._wiring_errors = []
            self.current_report = StepReport(tick, [], [], [], None)
            # Signals sent during this step are delivered at the next.
            signals, world.signals = world.signals, []

            # The only writers of both registries append, so a size that
            # moved means something was registered since the last index.
            n_triggers, n_mechanisms = self._indexed
            if len(world.triggers) != n_triggers or len(world.mechanisms) != n_mechanisms:
                self._index()
            due = [entry for entry in self._schedule if entry[0].due(tick)]
            if self._mode == "concurrent":
                due = self._shuffle_subsystems(due)
            for _trig, mech, via in due:
                self._dispatch(mech, via)

            # Signal deliveries, in emission order.
            for signal in signals:
                receivers = self._receivers.get(signal.receiver)
                if not receivers:
                    raise UnknownEntityError(
                        f"signal to {signal.receiver!r} has no receiving mechanism"
                    )
                for mech in receivers:
                    self._dispatch(mech, f"signal:{signal.payload}")

            report = self.current_report
            if self._policy == "off":
                self.snapshot = None
                world.changes.clear()
                checked = validation.NO_VIOLATIONS
            else:
                if self.snapshot is None:
                    self.snapshot = validation.Snapshot(world, validation.rule_scope(self.rules))
                checked = validation.validate(self.snapshot, self.rules)
            if self._wiring_errors:
                checked = validation.ValidationReport([
                    *(validation.Violation(name, {"detail": detail})
                      for name, detail in self._wiring_errors),
                    *checked.violations,
                ])
            report.validation = checked
            self.reports.append(report)

            if self._policy == "halt" and report.validation.violations:
                self.halted_at = tick
            world.clock = tick + 1
            return report
        except BaseException as exc:
            self.fault = exc
            raise

    def _shuffle_subsystems(self, due):
        """The due schedule entries grouped by their mechanism's subsystem,
        groups in a seeded random order."""
        by_subsystem: dict[str, list] = {}
        for entry in due:
            by_subsystem.setdefault(entry[1].subsystem, []).append(entry)
        groups = list(by_subsystem.values())
        self.rng.shuffle(groups)
        return [entry for group in groups for entry in group]

    def run(self, n_ticks: int | None = None) -> list[StepReport]:
        """Step until the kernel halts, or at most n_ticks times."""
        if n_ticks is not None and n_ticks < 0:
            raise ModelError("n_ticks must be >= 0")
        start = len(self.reports)
        world = self.world
        stop = None if n_ticks is None else world.clock + n_ticks
        while self.halted_at is None and (stop is None or world.clock < stop):
            self.step()
        return self.reports[start:]
