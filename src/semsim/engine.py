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
  subsystem, groups taken in schedule order, and the groups run in an order
  that is a pure function of (seed, tick), all on the kernel thread; signal
  delivery, commits and validation follow as in deterministic mode. Causal
  ordering holds, a run replays exactly from its seed, and a kernel on a
  saved and reloaded world carries on its run, since no step reads state a
  model file does not save.

  The draw: let M = 2**64, and mix(z) be splitmix64's output function:
  z += 0x9E3779B97F4A7C15; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31, each sum and
  product taken mod M. A tick with two or more groups draws
  d = mix(mix(seed) ^ tick) and reads d as a Lehmer code: while
  groups remain, d, i = divmod(d, the number remaining), and the group at
  index i of those remaining runs next. A tick with one group draws nothing.

A step pays only for the triggers due at its tick. The kernel keeps a
calendar, a dict from each tick to the schedule entries due then; a step
takes its own tick's entries, runs them in schedule order and files each
again a period later. A trigger's period and phase are fixed once built, so
the calendar is rebuilt only when a registry grows or the world's clock is
not the tick it expects (a clock set between steps, or a kernel new to the
world). Whether a trigger is enabled is read when it comes due.

The world holds what a run carries on from: its clock, the tick the next
step runs, and the signals in transit, which a step takes, delivers after
the triggers, and replaces with those it sends. So a kernel on a saved and
reloaded world carries on where the run stopped.

Validation after each step is incremental: the kernel owns one
validation.Snapshot, built for its rules, and refreshes it, which applies
and empties World.changes; it builds a new one when its rules are not the
snapshot's. With the policy off it keeps none and empties the list itself.
Every step that reports no violation, validated or not, shares the one
empty validation.NO_VIOLATIONS. Only a step with a violation gets a report
of its own: validate builds it for a rule's violations, and the kernel for
wiring errors, which come first. A mode or policy outside MODES or
validation.POLICIES is refused whenever it is set; a valid one may change
between steps.

An effect writes the world through its checked operations, set_state and
the rest. A write whose caller holds the subject and has already done the
checks may skip them: a path flow checks its labels when it is built and
holds the portion it has just released, so it moves it with
World.set_location, which records the same state_change as set_state. A
set_occupant effect checks its compartment, property and label when it is
compiled, and an occupant is live, so it writes with World.set_property,
which records the same.

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
    and phase are fixed once built, so the kernel's sorted schedule and its
    calendar of due ticks hold; enabled may change between steps."""

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


_MASK64 = (1 << 64) - 1


def _mix(z: int) -> int:
    """splitmix64's output function for state z, taken mod 2**64."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
        self.reports: list[StepReport] = []
        self.rules: dict[str, validation.AssertionRule] = {}
        self.halted_at: int | None = None
        self.current_report = StepReport(step=0)
        self.snapshot: validation.Snapshot | None = None  # None while validation is off
        self.fault: BaseException | None = None  # what escaped a step; no step runs after it
        self._wiring_errors: list[tuple[str, str]] = []
        # Dispatch tables, rebuilt when a registry's size changes or the clock
        # is not the tick the calendar expects (_index).
        self._indexed = (-1, -1)  # (len(world.triggers), len(world.mechanisms))
        self._schedule: list[tuple[Trigger, Mechanism, str]] = []
        self._calendar: dict[int, list[int]] = {}  # tick -> indexes into _schedule
        self._calendar_tick = -1  # the tick the calendar's next step runs
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
        """Rebuild the dispatch tables from the world's registries and clock.

        The schedule is every trigger, sorted by (period, name), with its
        target and its via; the receivers are the mechanisms listening on
        each compartment, in registration order. The calendar files each
        schedule index under the first tick, from the world's clock on, at
        which its trigger is due: tick >= phase and (tick - phase) % period
        == 0. Whether a trigger is enabled is read when it comes due
        (_take_due), so a trigger disabled between steps is skipped at the next.
        """
        world = self.world
        ordered = sorted(world.triggers.values(), key=lambda t: (t.period, t.name))
        self._schedule = [
            (trig, world.mechanisms[trig.target], f"trigger:{trig.name}") for trig in ordered
        ]
        clock = world.clock
        calendar: dict[int, list[int]] = {}
        for i, trig in enumerate(ordered):
            first = trig.phase if clock <= trig.phase else clock + (trig.phase - clock) % trig.period
            calendar.setdefault(first, []).append(i)
        self._calendar = calendar
        self._calendar_tick = clock
        receivers: dict[str, list[Mechanism]] = {}
        for mech in world.mechanisms.values():
            if mech.on_signal is not None:
                receivers.setdefault(mech.on_signal, []).append(mech)
        self._receivers = receivers
        self._indexed = (len(world.triggers), len(world.mechanisms))

    def _take_due(self, tick: int) -> list[tuple[Trigger, Mechanism, str]]:
        """The enabled schedule entries filed under tick, in schedule order;
        each trigger taken is filed again at tick + period."""
        filed = self._calendar.pop(tick, None)
        self._calendar_tick = tick + 1
        if filed is None:
            return []
        filed.sort()
        schedule, calendar = self._schedule, self._calendar
        due = []
        for i in filed:
            entry = schedule[i]
            trig = entry[0]
            calendar.setdefault(tick + trig.period, []).append(i)
            if trig.enabled:
                due.append(entry)
        return due

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
            # moved means something was registered since the last index. A
            # clock the calendar does not expect was set since its last step.
            n_triggers, n_mechanisms = self._indexed
            if (tick != self._calendar_tick or len(world.triggers) != n_triggers
                    or len(world.mechanisms) != n_mechanisms):
                self._index()
            due = self._take_due(tick)
            if self._mode == "concurrent":
                due = self._shuffle_subsystems(due, tick)
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
                if self.snapshot is None or self.snapshot.rules != self.rules:
                    self.snapshot = validation.Snapshot(world, self.rules)
                checked = validation.validate(self.snapshot)
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

    def _shuffle_subsystems(self, due, tick):
        """The due schedule entries grouped by their mechanism's subsystem,
        groups in the order drawn from (seed, tick) (module docstring)."""
        by_subsystem: dict[str, list] = {}
        for entry in due:
            by_subsystem.setdefault(entry[1].subsystem, []).append(entry)
        if len(by_subsystem) < 2:
            return due
        rest = list(by_subsystem.values())
        d = _mix(_mix(self.seed) ^ tick)
        ordered = []
        while rest:
            d, i = divmod(d, len(rest))
            ordered += rest.pop(i)
        return ordered

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
