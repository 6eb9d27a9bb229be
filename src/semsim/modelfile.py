"""Declarative model files: JSON documents that rebuild a world exactly.

A file holds the full model - scales, substances, kinds, topology,
portions, mechanisms (as data, or by builtin name plus parameters),
triggers, frames, bindings, the names of the applied scenarios,
assertions, annotations, ambient state, id counters, the clock and the
signals in transit - so a reloaded world produces the same triple snapshot
as the world that was saved, and a kernel on it carries on the run.
`load_model` is the one way a world is built from a definition: the shipped
models are model files too (semsim.models). Runtime history (the
transitional log, traces) is not part of a model file. A property's value
is saved as its label and loaded as its scale's own string for that label.
Each binding is made by `frames.bind`, with its checks. Files are saved as
version 4; older files (no version reads as 1) load through `upgrade`, the
one place that knows their forms, and a file without `scenarios` loads with
no scenario applied. Once every mechanism is built, the loader checks each
one's signals and fired members (semsim.mechanisms).
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from .engine import Signal, Trigger, register_trigger
from .entities import (
    PartSpec,
    Portion,
    SemObject,
    StateSpace,
    cardinality,
)
from .errors import ModelError, SchemaError, SemsimError
from .frames import (
    PathSegment,
    PathSpec,
    add_lexical_entry,
    bind,
    check_leg,
    define_frame,
    fluidic_motion,
    standard_frames,
)
from .mechanisms import EFFECTS, build_mechanism, check_links, compile_items
from .models.cardio import inhale_cycle
from .world import Vocabulary, World

FORMAT = "semsim-model"
VERSION = 4

#: Mechanism factories addressable from model files: name -> f(world, params).
#: Every other mechanism is saved as data (semsim.mechanisms).
BUILTIN_MECHANISMS = {"inhale_cycle": inhale_cycle, "fluidic_motion": fluidic_motion}


def _space_to_dict(space: StateSpace) -> dict:
    return {
        "variable": space.variable,
        "labels": list(space.labels),
        "scale_kind": space.scale_kind,
    }


def _space_from_dict(data: dict, loc: str) -> StateSpace:
    try:
        return StateSpace(data["variable"], tuple(data["labels"]), data.get("scale_kind", "nominal"))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad state space: {exc}", loc) from exc


def _binding_value_to_dict(value) -> dict:
    if isinstance(value, PathSpec):
        return {
            "type": "path",
            "segments": [
                {
                    "length": seg.length,
                    "width": seg.width,
                    "slope": list(seg.slope),
                    "label": seg.label,
                }
                for seg in value.segments
            ],
        }
    if isinstance(value, dict):
        return {"type": "config", "value": value}
    return {"type": "ref", "id": value}


def _binding_value_from_dict(data: dict, loc: str):
    kind = data.get("type")
    if kind == "path":
        segments = tuple(
            PathSegment(s["length"], s.get("width", 1), tuple(s["slope"]), s.get("label"))
            for s in data["segments"]
        )
        return PathSpec(segments)
    if kind == "config":
        return data["value"]
    if kind == "ref":
        return data["id"]
    raise SchemaError(f"unknown binding value type {kind!r}", loc)


def _binding_to_dict(frame: str, elements: dict) -> dict:
    return {"frame": frame, "elements": {k: _binding_value_to_dict(v) for k, v in elements.items()}}


def _frame_to_dict(frame) -> dict:
    return {"name": frame.name, "core": list(frame.core_elements),
            "non_core": list(frame.non_core_elements), "text": frame.definition_text}


def _mechanism_to_dict(mechanism) -> dict:
    if mechanism.spec is None:
        raise ModelError(f"mechanism {mechanism.name!r} has no saved form (registered without a spec)")
    return {"name": mechanism.name, **mechanism.spec}


def save_model(world: World) -> dict:
    """Serialize the world to a JSON-compatible dict."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": world.name,
        "vocabulary": {
            "literals": sorted(world.vocabulary.literals),
            "patterns": list(world.vocabulary.patterns),
        },
        "scales": [_space_to_dict(s) for s in world.scales.values()],
        "substances": [
            {
                "name": sub.name,
                "phases": list(sub.phase_space.labels),
                "phase": sub.phase,
                "default_properties": dict(sub.default_properties),
                "merge_policy": dict(sub.merge_policy),
            }
            for sub in world.substances.values()
        ],
        "kinds": [
            {
                "name": k.name,
                "parent": k.parent,
                "granularity": k.granularity,
                "substance": k.substance,
                "state_spaces": [_space_to_dict(s) for s in k.state_spaces],
                "part_schema": [
                    {
                        "role_name": p.role_name,
                        "part_kind": p.part_kind,
                        "part_role": p.part_role,
                        "cardinality": sorted(p.cardinality),
                    }
                    for p in k.part_schema
                ],
            }
            for k in world.kinds.values()
        ],
        "compartments": [
            {
                "id": c.id,
                "name": c.name,
                "medium": c.medium,
                "capacity": c.capacity,
                "structure": c.structure,
                "region": c.region,
                "contents": list(c.contents),
            }
            for c in world.compartments.values()
        ],
        "connections": [
            {"from": c.from_id, "to": c.to_id, "kind": c.conduit_kind}
            for c in world.connections.values()
        ],
        "circuits": [
            {
                "name": c.name,
                "order": list(c.order),
                "successors": {k: list(v) for k, v in c.successors.items()},
            }
            for c in world.circuits.values()
        ],
        "objects": [
            {
                "id": o.id,
                "kind": o.kind,
                "parts": [list(p) for p in o.parts],
                "states": dict(o.states),
                "properties": dict(o.properties),
                "alive": o.alive,
            }
            for o in world.objects.values()
        ],
        "portions": [
            {
                "id": p.id,
                "substance": p.substance,
                "kind": p.kind,
                "properties": dict(p.properties),
                "x": p.x,
                "y": p.y,
                "compartment": p.compartment,
                "location_state": p.location_state,
                "provenance": list(p.provenance),
                "alive": p.alive,
            }
            for p in world.portions.values()
        ],
        "frames": [_frame_to_dict(f) for f in world.frames.values()],
        "lexicon": [
            {"word": e.word, "frame": e.frame, "text": e.definition_text}
            for e in world.lexicon.values()
        ],
        "bindings": [_binding_to_dict(b.frame.name, b.element_map) for b in world.bindings],
        "mechanisms": [_mechanism_to_dict(m) for m in world.mechanisms.values()],
        "triggers": [
            {
                "name": t.name,
                "period": t.period,
                "target": t.target,
                "phase": t.phase,
                "enabled": t.enabled,
            }
            for t in world.triggers.values()
        ],
        "systems": [
            {"name": s.name, "members": list(s.members), "feedback": s.feedback}
            for s in world.systems.values()
        ],
        "scenarios": list(world.scenarios),
        "assertions": [
            {"subject": a.subject, "function": a.function_label, "context": a.context}
            for a in world.assertions
        ],
        "annotations": [
            {"kind": a.kind, "target": a.target, "note": a.note} for a in world.annotations
        ],
        "ambient": dict(world.microworld.ambient),
        "counters": dict(world._counters),
        "clock": world.clock,
        "signals": [[s.sender, s.receiver, s.payload] for s in world.signals],
    }


def _section(data: dict, key: str, kind: type = list):
    """A top-level section, or an empty one when absent."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise SchemaError(f"expected {'a list' if kind is list else 'an object'}", key)
    return value


def _entries(data: dict, key: str):
    """(location, entry) for each entry of a list section; entries are objects."""
    for i, entry in enumerate(_section(data, key)):
        loc = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("expected an object", loc)
        yield loc, entry


class _diagnosed:
    """Report whatever a malformed entry raises as a SchemaError naming it.
    A plain class: a shipped model enters one about a hundred times per
    load, and a generator-based context manager costs several times more."""

    __slots__ = ("loc",)

    def __init__(self, loc: str):
        self.loc = loc

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, _traceback):
        if kind is None or issubclass(kind, SchemaError):
            return
        if issubclass(kind, KeyError):
            raise SchemaError(f"missing field {exc}", self.loc) from exc
        if issubclass(kind, SemsimError):
            raise SchemaError(str(exc), self.loc) from exc
        if issubclass(kind, (TypeError, ValueError, AttributeError, re.error)):
            raise SchemaError(f"malformed entry: {exc}", self.loc) from exc


def _alive(entry: dict, loc: str) -> bool:
    alive = entry.get("alive", True)
    if type(alive) is not bool:
        raise SchemaError(f"alive must be true or false, not {alive!r}", loc)
    return alive


def _add_missing(data: dict, key: str, field: str, entry: dict):
    """Append entry to a section that has no entry with its field's value."""
    section = _section(data, key)
    if not any(isinstance(e, dict) and e.get(field) == entry[field] for e in section):
        data[key] = [*section, entry]


# ----------------------------------------------------------------------
# forms older than version 4, read only by upgrade


def _heartbeat_push_v1(data: dict, params: dict):
    """heartbeat_push's circulation: blood around its circuit from the
    circuit's first compartment, with the SA node's pulse."""
    circuit = params.get("circuit", "cardio")
    order = next((c.get("order") for _, c in _entries(data, "circuits") if c.get("name") == circuit), None)
    if not order:
        raise ModelError(f"no circuit {circuit!r} with compartments for the heartbeat")
    elements = {"Fluid": "blood", "Source": order[0], "Goal": order[0], "Path": circuit,
                "Configuration": {"pulse": "SANode pulse"}}
    return elements, {"name": params.get("name", "HeartbeatPush")}


def _waterfall_path_v1(upper_bed_length=1000, vertical_drop=100, upper_delta=(10, -1),
                       drop_delta=(1, -10), labels=("upper", "drop", "pool")):
    """The path and the goal water_flowing's config gave: a bed, then a drop,
    each delta a (dx, dy) per unit."""
    legs = ((upper_bed_length, upper_delta), (vertical_drop, drop_delta))
    for length, delta in legs:
        check_leg(length, delta, "bed length and drop must be positive ints",
                  "a per-unit delta must be a pair of ints")
    upper, drop, goal = labels
    segments = tuple(PathSegment(length, slope=(dy, dx), label=label)
                     for (length, (dx, dy)), label in zip(legs, (upper, drop)))
    return PathSpec(segments), goal


def _water_flowing_v1(data: dict, params: dict):
    """water_flowing's path flow, from the config in its params, and its places."""
    params = dict(params)
    name, n_portions = params.pop("name", "WaterFlowing"), params.pop("n_portions", None)
    path, goal = _waterfall_path_v1(**{k: tuple(v) if isinstance(v, list) else v
                                       for k, v in params.items()})
    elements = {"Fluid": "water", "Source": "bedInlet", "Goal": goal, "Path": path,
                "Configuration": {"volume": "high", "speed": "moderate"}}
    _add_missing(data, "kinds", "name", {"name": "Place"})
    for place in ("bedInlet", goal):
        _add_missing(data, "objects", "id", {"id": place, "kind": "Place"})
    return elements, {"name": name, "n_portions": n_portions, "portion_kind": "WaterPortion"}


# Each template maps the params of a builtin retired in version 3 to its data
# form (semsim.mechanisms).


def gas_exchange_alv(name="GasExchangeAlv", blood_at="AlvCap", air_at="AlvAir") -> dict:
    return {
        "name": name,
        "subsystem": "diffusion",
        "guard": [
            ["occupant", "blood", blood_at, "O2Level", "low"],
            ["occupant", "air", air_at, "O2Level", "high"],
        ],
        "effects": [
            ["set_occupant", "blood", blood_at, "O2Level", "high"],
            ["set_occupant", "blood", blood_at, "CO2Level", "low"],
            ["set_occupant", "air", air_at, "O2Level", "low"],
            ["set_occupant", "air", air_at, "CO2Level", "high"],
            ["emit", f"{blood_at}Blood O2 diffusion"],
        ],
    }


def cell_respiration(name="CellRespiration", blood_at="CellCap") -> dict:
    return {
        "name": name,
        "subsystem": "diffusion",
        "guard": [["occupant", "blood", blood_at, "O2Level", "high"]],
        "effects": [
            ["set_occupant", "blood", blood_at, "O2Level", "low"],
            ["set_occupant", "blood", blood_at, "CO2Level", "high"],
            ["emit", f"{blood_at}Blood O2 diffusion"],
        ],
        "side_effects": [["set_occupant", "blood", blood_at, "Warmth", "high"]],
    }


def diffusion_check(name="DiffusionCheck", members=("GasExchangeAlv", "CellRespiration")) -> dict:
    if isinstance(members, str):
        raise ModelError(f"members must be a list of mechanism names, not {members!r}")
    return {
        "name": name,
        "subsystem": "diffusion",
        "guard": [["always"]],
        "effects": [["emit", "diffusion check"]] + [["fire", member] for member in members],
    }


def medulla_sense(name="MedullaSense", blood_at="MedullaCap", nerve_from="Medulla",
                  nerve_to="Diaphragm") -> dict:
    return {
        "name": name,
        "subsystem": "respiration",
        "guard": [["occupant", "blood", blood_at, "CO2Level", "high"]],
        "effects": [
            ["emit", "past phrenicNerve trigger"],
            ["signal", nerve_from, nerve_to, "contract"],
        ],
    }


def mix_external_air(name="MixExternalAir", reservoir="ExternalAir") -> dict:
    return {
        "name": name,
        "subsystem": "respiration",
        "guard": [["holds", reservoir, "air"]],
        "effects": [
            ["merge", reservoir],
            ["set_occupant", "air", reservoir, "O2Level", "high"],
            ["set_occupant", "air", reservoir, "CO2Level", "low"],
            ["emit", "mixing external air"],
        ],
    }


def freeze_watch(name="FreezeWatch", substance="water") -> dict:
    """Water turns solid whenever the ambient temperature is below freezing."""
    return {
        "name": name,
        "subsystem": "ambient",
        "guard": [["ambient", "temperature", "below_freezing"], ["not_phase", substance, "solid"]],
        "effects": [["set", substance, "phase", "solid"]],
    }


def _path_flow_fluid(data: dict, spec: dict):
    """The fluid of a fluidic_motion entry whose binding's Path is a path, or None."""
    try:
        elements = data["bindings"][spec.get("params", {}).get("binding", 0)]["elements"]
        if spec["builtin"] == "fluidic_motion" and elements["Path"]["type"] == "path":
            return elements["Fluid"]["id"]
    except (LookupError, TypeError, AttributeError):
        return None


def upgrade(data: dict) -> dict:
    """The document as version 4, its argument unchanged. In version 1, each
    version-1 builtin's entry becomes a binding (and its frame, if missing) and
    a fluidic_motion entry; in versions 1 and 2, each entry of a builtin
    retired in version 3 becomes its template's data form; in versions 1 to 3,
    each path flow's cursor, the index of its next portion, becomes the
    world's id counter for its fluid."""
    version = data.get("version", 1)
    if type(version) is not int or not 1 <= version <= VERSION:  # bool and float are not versions
        raise SchemaError(f"unsupported version {version!r} (expected 1 to {VERSION})", "version")
    if version == VERSION:
        return data
    rewrites = {"heartbeat_push": _heartbeat_push_v1, "water_flowing": _water_flowing_v1}
    retired = {"gas_exchange_alv": gas_exchange_alv, "cell_respiration": cell_respiration,
               "diffusion_check": diffusion_check, "medulla_sense": medulla_sense,
               "mix_external_air": mix_external_air, "freeze_watch": freeze_watch}
    data = dict(data, version=VERSION, mechanisms=list(_section(data, "mechanisms")))
    for i, (loc, spec) in enumerate(_entries(data, "mechanisms")):
        with _diagnosed(loc):
            builtin = spec.get("builtin")
            if version == 1 and builtin in rewrites:
                elements, params = rewrites[builtin](data, spec.get("params", {}))
                _add_missing(data, "frames", "name", _frame_to_dict(standard_frames()["Fluidic_Motion"]))
                bindings = _section(data, "bindings")
                data["bindings"] = [*bindings, _binding_to_dict("Fluidic_Motion", elements)]
                params = {"binding": len(bindings), **params}
                data["mechanisms"][i] = dict(spec, builtin="fluidic_motion", params=params)
            elif version < 3 and builtin in retired:
                params = dict(spec.get("params", {}))
                if "name" in spec:
                    params["name"] = spec["name"]
                data["mechanisms"][i] = retired[builtin](**params)
    # A flow without a cursor counted the fluid's portions, as flows did then.
    counters = data["counters"] = dict(_section(data, "counters", dict))
    for i, (loc, spec) in enumerate(_entries(data, "mechanisms")):
        with _diagnosed(loc):
            fluid, cursor = _path_flow_fluid(data, spec), spec.get("cursor")
            if "cursor" in spec and spec.get("builtin") in (None, *BUILTIN_MECHANISMS):
                if fluid is None:
                    raise SchemaError(f"{spec.get('name')!r} is not a path flow; it has no cursor", loc)
                if type(cursor) is not int or cursor < 0:  # bool is not a cursor
                    raise SchemaError(f"cursor must be an int >= 0, not {cursor!r}", loc)
                data["mechanisms"][i] = {k: v for k, v in spec.items() if k != "cursor"}
            elif fluid is not None:
                cursor = sum(p.get("substance") == fluid for _, p in _entries(data, "portions"))
            if fluid is not None and cursor > counters.get(fluid, 0):
                counters[fluid] = cursor
    return data


def _interned(value):
    """value with every string in it interned. A built world shares one
    string object per name, its source's literal, and so does a loaded one:
    a step's lookups by name then match by identity, which made a loaded
    cardio's steps about 3% faster."""
    kind = type(value)
    if kind is str:
        return sys.intern(value)
    if kind is list:
        return [_interned(v) for v in value]
    if kind is dict:
        return {sys.intern(k) if type(k) is str else k: _interned(v) for k, v in value.items()}
    return value


def load_model(data: dict) -> World:
    """Rebuild a world from a dict produced by save_model (or written by hand)."""
    if not isinstance(data, dict) or not data:
        raise SchemaError("model file must be a non-empty JSON object")
    if data.get("format") != FORMAT:
        raise SchemaError(f"not a {FORMAT} document", "format")
    data = _interned(upgrade(data))
    if not isinstance(data.get("name"), str):
        raise SchemaError("missing model name (a string)", "name")
    world = World(data["name"])

    vocab = _section(data, "vocabulary", dict)
    with _diagnosed("vocabulary"):
        literals = vocab.get("literals", [])
        patterns = vocab.get("patterns", [])
        lists = isinstance(literals, list) and isinstance(patterns, list)
        if not lists or not all(isinstance(x, str) for x in literals + patterns):
            raise SchemaError("literals and patterns must be lists of strings", "vocabulary")
        world.vocabulary = Vocabulary(literals=frozenset(literals), patterns=tuple(patterns))

    for loc, s in _entries(data, "scales"):
        with _diagnosed(loc):
            world.define_scale(_space_from_dict(s, loc))

    for loc, s in _entries(data, "substances"):
        with _diagnosed(loc):
            world.define_substance(
                s["name"],
                phases=tuple(s.get("phases", ("solid", "liquid", "gas"))),
                phase=s["phase"],
                default_properties=dict(s.get("default_properties", {})),
                merge_policy=dict(s.get("merge_policy", {})),
            )

    for loc, k in _entries(data, "kinds"):
        with _diagnosed(loc):
            world.define_kind(
                k["name"],
                parent=k.get("parent"),
                state_spaces=tuple(
                    _space_from_dict(s, loc) for s in k.get("state_spaces", [])
                ),
                part_schema=tuple(
                    PartSpec(
                        p["role_name"],
                        p["part_kind"],
                        p.get("part_role", "functional"),
                        cardinality(p["cardinality"]),
                    )
                    for p in k.get("part_schema", [])
                ),
                granularity=k.get("granularity", "object"),
                substance=k.get("substance"),
            )

    for loc, c in _entries(data, "compartments"):
        with _diagnosed(loc):
            world.add_compartment(
                c["name"], c.get("medium", "other"), c.get("capacity", 1),
                c.get("structure"), c.get("region"),
            )
            if c.get("id", c["name"]) != c["name"]:
                raise SchemaError(f"id {c['id']!r} is not its name {c['name']!r}", loc)

    for loc, c in _entries(data, "connections"):
        with _diagnosed(loc):
            world.connect(c["from"], c["to"], c.get("kind", "fluid"))

    for loc, c in _entries(data, "circuits"):
        with _diagnosed(loc):
            world.define_circuit(c["name"], c["order"], c.get("successors", {}))

    wholes = []  # (location, object) of each object that lists parts
    for loc, o in _entries(data, "objects"):
        with _diagnosed(loc):
            parts = o.get("parts", [])
            pairs = isinstance(parts, list) and all(
                isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
                for p in parts
            )
            if not pairs:
                raise SchemaError(f"parts must be [role, id] pairs of strings, not {parts!r}", loc)
            obj = SemObject(
                o["id"],
                o["kind"],
                parts=[tuple(p) for p in parts],
                states=dict(o.get("states", {})),
                properties=dict(o.get("properties", {})),
                alive=_alive(o, loc),
            )
            world.add_object(obj)
            if obj.parts:
                wholes.append((loc, obj))

    for loc, p in _entries(data, "portions"):
        with _diagnosed(loc):
            world.add_portion(Portion(
                p["id"],
                p["substance"],
                kind=p.get("kind"),
                properties=dict(p.get("properties", {})),
                x=p.get("x"),
                y=p.get("y"),
                compartment=p.get("compartment"),
                location_state=p.get("location_state", "null"),
                provenance=tuple(p.get("provenance", [])),
                alive=_alive(p, loc),
            ))

    # A whole may list a part that comes after it in the file.
    for loc, obj in wholes:
        for _role, part in obj.parts:
            if part not in world.objects and part not in world.portions:
                raise SchemaError(f"part {part!r} is no object or portion", loc)

    # Contents restore reservoir draw order, so they are authoritative. Each
    # lists every live portion placed in its compartment once, and no other:
    # the portions add_portion placed there, in the file's order.
    for loc, c in _entries(data, "compartments"):
        comp = world.compartments[c["name"]]
        with _diagnosed(loc):
            listed = c.get("contents", [])
            for pid in listed:
                portion = world.portions.get(pid)
                if portion is None:
                    raise SchemaError(f"contents reference unknown portion {pid!r}", loc)
                if not portion.alive:
                    raise SchemaError(f"contents list dead portion {pid!r}", loc)
                if portion.compartment != comp.id:
                    raise SchemaError(f"portion {pid!r} does not agree it is in {comp.id!r}", loc)
            if len(set(listed)) != len(listed) or len(listed) != len(comp.contents):
                raise SchemaError(
                    f"contents must list each of the {len(comp.contents)} live portions "
                    f"in {comp.id!r} once", loc
                )
            comp.contents[:] = listed

    for loc, f in _entries(data, "frames"):
        with _diagnosed(loc):
            define_frame(world, f["name"], tuple(f["core"]), tuple(f.get("non_core", [])), f.get("text", ""))

    for loc, e in _entries(data, "lexicon"):
        with _diagnosed(loc):
            add_lexical_entry(world, e["word"], e["frame"], e.get("text", ""))

    for loc, b in _entries(data, "bindings"):
        with _diagnosed(loc):
            elements = {
                k: _binding_value_from_dict(v, loc) for k, v in b.get("elements", {}).items()
            }
            bind(world, b.get("frame"), elements)

    for loc, spec in _entries(data, "mechanisms"):
        with _diagnosed(loc):
            if "builtin" not in spec:
                build_mechanism(world, spec)
                continue
            builtin = spec["builtin"]
            if builtin not in BUILTIN_MECHANISMS:
                raise SchemaError(f"unknown builtin mechanism {builtin!r}", loc)
            params = dict(spec.get("params", {}))
            if "name" in spec:
                params["name"] = spec["name"]
            BUILTIN_MECHANISMS[builtin](world, params)

    # A mechanism may signal or fire one that comes after it in the file.
    for i, mechanism in enumerate(world.mechanisms.values()):
        with _diagnosed(f"mechanisms[{i}]"):
            check_links(world, mechanism.name, mechanism.spec)

    for loc, t in _entries(data, "triggers"):
        with _diagnosed(loc):
            register_trigger(
                world,
                Trigger(t["name"], t["period"], t["target"], t.get("phase", 0), t.get("enabled", True)),
            )

    for loc, s in _entries(data, "systems"):
        with _diagnosed(loc):
            world.define_system(s["name"], s.get("members", []), s.get("feedback", False))

    scenarios = _section(data, "scenarios")
    if not all(isinstance(name, str) for name in scenarios):
        raise SchemaError("scenario names must be strings", "scenarios")
    world.scenarios.extend(scenarios)

    for loc, a in _entries(data, "assertions"):
        with _diagnosed(loc):
            world.assert_function(a["subject"], a["function"], a["context"])

    # Scenario bookkeeping annotations from a saved world may target the
    # model root; other targets must resolve.
    for loc, a in _entries(data, "annotations"):
        with _diagnosed(loc):
            world.annotate(a["target"], a["kind"], a.get("note", ""))

    with _diagnosed("ambient"):
        for prop, level in _section(data, "ambient", dict).items():
            world.set_ambient(prop, level)

    for prefix, n in _section(data, "counters", dict).items():
        if type(n) is not int or n < 0:  # bool is not a count
            raise SchemaError(f"counter {prefix!r} must be a non-negative integer", "counters")
        world._counters[prefix] = n

    world.clock = data.get("clock", 0)
    if type(world.clock) is not int or world.clock < 0:  # bool is not a tick
        raise SchemaError(f"must be an int >= 0, not {world.clock!r}", "clock")
    for i, signal in enumerate(_section(data, "signals")):
        with _diagnosed(f"signals[{i}]"):  # checked as the effect that sent it
            sent = ["signal", *signal]
            compile_items(world, EFFECTS, [sent], "signal")
            check_links(world, None, {"effects": [sent]})
            world.signals.append(Signal(*signal))

    return world


def save_model_file(world: World, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(save_model(world), indent=2) + "\n", encoding="utf-8")
    return path


def load_model_file(path: str | Path) -> World:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise SchemaError(f"{path} is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: line {exc.lineno}, column {exc.colno}") from exc
    return load_model(data)
