"""Interactive console: pause the run between steps, inspect and poke the world.

Commands operate only at step boundaries, so a session that never mutates
anything (pause / inspect / resume) leaves the trace identical to an
uninterrupted run.
"""
from __future__ import annotations

import sys

from .entities import Portion, Substance
from .errors import SemsimError, describe
from .scenarios import apply_scenario, load_scenario

USAGE = """commands:
  pause                    stay at the current step boundary
  resume                   run the remaining steps
  step [k]                 advance k steps (default 1), printing each report
  inspect <path>           print an entity, state, or property (dot-separated)
  set <path> <value>       change a state/property through full validation
  annotations [<element>]  list annotations, optionally for one element
  assertions               list function assertions and registered rules
  scenario <file>          apply a scenario file now
  quit                     finish the session"""


def resolve_entity(world, name: str):
    """Resolve a path segment to an entity; '<Comp>Blood'/'<Comp>Air' address
    the portion currently occupying that compartment."""
    if name in world.objects:
        return world.objects[name]
    if name in world.portions:
        return world.portions[name]
    if name in world.substances:
        return world.substances[name]
    if name in world.compartments:
        return world.compartments[name]
    for suffix in ("Blood", "Air"):
        if name.endswith(suffix) and name[: -len(suffix)] in world.compartments:
            occupant = world.occupant(name[: -len(suffix)])
            if occupant is None:
                raise SemsimError(f"{name[: -len(suffix)]} is empty")
            return occupant
    raise SemsimError(f"cannot resolve {name!r}")


def _strip_model(world, segments: list[str]) -> list[str]:
    if segments and segments[0] == world.name:
        return segments[1:]
    return segments


def inspect_path(world, path: str) -> str:
    segments = _strip_model(world, path.split("."))
    if not segments:
        raise SemsimError("empty path")
    if segments[0] == "ambient":
        if len(segments) == 1:
            return ", ".join(f"{k}={v}" for k, v in world.microworld.ambient.items())
        return world.ambient(segments[1])
    entity = resolve_entity(world, segments[0])
    if len(segments) == 1:
        return _summary(entity)
    attr = segments[1]
    if isinstance(entity, Substance):
        if attr in ("phase", "Phase"):
            return entity.phase
        raise SemsimError(f"substance {entity.name!r} has no attribute {attr!r}")
    if isinstance(entity, Portion):
        if attr in ("X", "x"):
            return str(entity.x)
        if attr in ("Y", "y"):
            return str(entity.y)
        if attr == "Location":
            return entity.location_state
        if attr == "compartment":
            return str(entity.compartment)
        if attr in entity.properties:
            return entity.properties[attr]
        raise SemsimError(f"portion {entity.id!r} has no property {attr!r}")
    if hasattr(entity, "contents"):  # compartment
        if attr == "contents":
            return ", ".join(entity.contents) or "(empty)"
        if attr in ("capacity", "medium", "region", "structure"):
            return str(getattr(entity, attr))
        raise SemsimError(f"compartment {entity.id!r} has no attribute {attr!r}")
    if attr in entity.states:
        return entity.states[attr]
    if attr in entity.properties:
        return entity.properties[attr]
    raise SemsimError(f"object {entity.id!r} has no state or property {attr!r}")


def _summary(entity) -> str:
    if isinstance(entity, Substance):
        return f"substance {entity.name}: phase={entity.phase}"
    if isinstance(entity, Portion):
        props = ", ".join(f"{k}={v}" for k, v in entity.properties.items())
        where = entity.compartment or f"({entity.x}, {entity.y})"
        return (
            f"portion {entity.id} of {entity.substance} at {where} "
            f"location={entity.location_state}"
            + (f" [{props}]" if props else "")
        )
    if hasattr(entity, "contents"):
        return (
            f"compartment {entity.id} medium={entity.medium} "
            f"capacity={entity.capacity} contents=[{', '.join(entity.contents)}]"
        )
    states = ", ".join(f"{k}={v}" for k, v in entity.states.items())
    return f"object {entity.id} of kind {entity.kind}" + (f" [{states}]" if states else "")


def set_path(world, path: str, value: str) -> str:
    segments = _strip_model(world, path.split("."))
    if len(segments) < 2:
        raise SemsimError("set needs <entity>.<variable>")
    if segments[0] == "ambient":
        world.set_ambient(segments[1], value)
        return f"ambient {segments[1]} = {value}"
    entity = resolve_entity(world, segments[0])
    if isinstance(entity, Substance):
        world.set_state(entity.name, segments[1], value)
        return f"{entity.name}.{segments[1]} = {value}"
    entity_id = entity.id
    world.set_state(entity_id, segments[1], value)
    return f"{entity_id}.{segments[1]} = {value}"


class Console:
    def __init__(self, world, kernel, steps: int | None, out=None, inp=None):
        self.world = world
        self.kernel = kernel
        self.stop = None if steps is None else kernel.tick + steps  # None: no budget
        self.out = out or sys.stdout
        self.inp = inp or sys.stdin

    def _print(self, text: str):
        print(text, file=self.out)

    def _stopped(self) -> bool:
        """Whether a step raised or was interrupted; prints the kernel's refusal."""
        if self.kernel.fault is not None:
            try:
                self.kernel.step()  # refused: raises and changes nothing
            except SemsimError as refusal:
                self._print(f"stopped: {refusal}")
        return self.kernel.fault is not None

    def _advance(self, k: int):
        for _ in range(k):
            if self._stopped():
                return
            if self.kernel.halted:
                self._print(f"halted at step {self.kernel.halted_at}")
                return
            if self.stop is not None and self.kernel.tick >= self.stop:
                self._print("step budget exhausted")
                return
            self._print(self.kernel.step().describe())

    def _resume(self):
        if self._stopped():
            return
        if self.stop is None:
            self._print("no step budget; use `step [k]`, or restart with --steps")
            return
        self.kernel.run(self.stop - self.kernel.tick)
        self._print(f"paused at step {self.kernel.tick}")

    def run(self):
        """Read commands until quit, the end of input, or Ctrl-C at the prompt;
        Ctrl-C during a command ends only that command."""
        self._print(f"semsim console: model {self.world.name!r} (type a command; quit to exit)")
        try:
            for raw in self.inp:
                parts = raw.split()
                if not parts:
                    continue
                cmd, args = parts[0], parts[1:]
                try:
                    if cmd == "quit":
                        break
                    elif cmd == "pause":
                        self._print(f"paused at step {self.kernel.tick}")
                    elif cmd == "resume":
                        self._resume()
                    elif cmd == "step":
                        k = int(args[0]) if args else 1
                        self._advance(k)
                    elif cmd == "inspect":
                        self._print(inspect_path(self.world, args[0]))
                    elif cmd == "set":
                        self._print(set_path(self.world, args[0], args[1]))
                    elif cmd == "annotations":
                        target = args[0] if args else None
                        for ann in self.world.list_annotations(target):
                            self._print(f"[{ann.kind}] {ann.target}: {ann.note}")
                    elif cmd == "assertions":
                        for fa in self.world.assertions:
                            self._print(f"{fa.subject}: {fa.function_label} (in {fa.context})")
                        for rule in self.kernel.rules.values():
                            self._print(f"rule {rule.name}: {rule.expectation}")
                    elif cmd == "scenario":
                        scenario = load_scenario(args[0])
                        apply_scenario(self.world, scenario)
                        self._print(f"scenario {scenario.name!r} applied")
                    else:
                        self._print(f"unknown command {cmd!r}")
                        self._print(USAGE)
                except Exception as exc:  # a bad command, or a fault that ends stepping
                    self._print(f"error: {describe(exc)}")
                except KeyboardInterrupt:
                    self._print(f"interrupted at step {self.kernel.tick}")
        except KeyboardInterrupt:
            pass  # at the prompt: end the session as quit does
        return self.kernel
