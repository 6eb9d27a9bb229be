"""Scenarios: targeted override sets applied to a model before or during a run."""
from __future__ import annotations

import json
from pathlib import Path

from .errors import ScenarioError, SemsimError, need
from .records import FrozenRecord, Record, set_field
from .world import AMBIENT_SCALES, Annotation, World

DIRECTIVE_OPS = ("disable_trigger", "set_ambient", "set_state", "remove_connection")


class Directive(FrozenRecord):
    _fields = ("op", "args")

    def __init__(self, op: str, args: tuple):
        if op not in DIRECTIVE_OPS:
            raise ScenarioError(f"unknown scenario directive {op!r}")
        set_field(self, "op", op)
        set_field(self, "args", args)


class Scenario(Record):
    _fields = ("name", "overrides")

    def __init__(self, name: str, overrides: list[Directive] | None = None):
        self.name = name
        self.overrides = [] if overrides is None else overrides


def disable_trigger(name: str) -> Directive:
    return Directive("disable_trigger", (name,))


def set_ambient(prop: str, label: str) -> Directive:
    return Directive("set_ambient", (prop, label))


def set_state(entity: str, variable: str, label: str) -> Directive:
    return Directive("set_state", (entity, variable, label))


def remove_connection(src: str, dst: str, conduit_kind: str = "fluid") -> Directive:
    return Directive("remove_connection", (src, dst, conduit_kind))


def _check(world: World, directive: Directive, connections: dict):
    """Raise what applying directive would raise, and write nothing to the
    world. connections holds those the scenario's earlier overrides leave."""
    op, args = directive.op, directive.args
    if op == "disable_trigger":
        need(world.triggers, args[0], "trigger to disable")
    elif op == "set_ambient":
        need(AMBIENT_SCALES, args[0], "ambient property").index(args[1])
    elif op == "set_state":
        world.check_state(*args)
    elif op == "remove_connection":
        key = tuple(args)
        need(connections, key, "connection")
        del connections[key]


def apply_scenario(world: World, scenario: Scenario) -> Annotation:
    """Apply every override in order; returns the annotation recording the
    scenario. Every override is checked before any is applied: one the world
    refuses raises a ScenarioError naming it, overrides[i], and the world is
    left unchanged."""
    connections = dict(world.connections)
    for i, directive in enumerate(scenario.overrides):
        try:
            _check(world, directive, connections)
        except SemsimError as exc:
            raise ScenarioError(f"overrides[{i}]: {exc}") from exc
    for directive in scenario.overrides:
        op, args = directive.op, directive.args
        if op == "disable_trigger":
            world.triggers[args[0]].enabled = False
        elif op == "set_ambient":
            world.set_ambient(*args)
        elif op == "set_state":
            world.set_state(*args)
        elif op == "remove_connection":
            world.remove_connection(*args)
    world.scenarios.append(scenario.name)
    note = f"scenario {scenario.name!r} applied at step {world.clock}"
    return world.annotate(world.name, "user_comment", note)


# What an override in a scenario file may name: per op, its constructor, the
# fields it passes in argument order, and the defaults of the optional ones.
_FILE_OPS = {
    "disable_trigger": (disable_trigger, ("target",), {}),
    "set_ambient": (set_ambient, ("property", "label"), {}),
    "set_state": (set_state, ("target", "variable", "label"), {}),
    "remove_connection": (remove_connection, ("from", "to", "kind"), {"kind": "fluid"}),
}


def _directive(entry: dict) -> Directive:
    op = entry.get("op")
    spec = _FILE_OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ScenarioError(f"unknown op {op!r}")
    make, fields, defaults = spec
    for key in entry:
        if key != "op" and key not in fields:
            raise ScenarioError(f"{op} takes no field {key!r}")
    given = {**defaults, **entry}
    return make(*(given[field] for field in fields))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise ScenarioError("scenario file needs a top-level object with a name (a string)")
    for key in data:
        if key not in ("name", "overrides"):
            raise ScenarioError(f"scenario file has no key {key!r} (only name and overrides)")
    entries = data.get("overrides", [])
    if not isinstance(entries, list):
        raise ScenarioError("overrides: expected a list")
    overrides = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"overrides[{i}]: expected an object")
        try:
            directive = _directive(entry)
            if not all(isinstance(arg, str) for arg in directive.args):
                raise ScenarioError("fields must be strings")
        except KeyError as exc:
            raise ScenarioError(f"overrides[{i}]: missing field {exc}") from exc
        except ScenarioError as exc:
            raise ScenarioError(f"overrides[{i}]: {exc}") from exc
        overrides.append(directive)
    return Scenario(data["name"], overrides)


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)

