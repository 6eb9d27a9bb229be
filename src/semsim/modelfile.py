"""Declarative model files: JSON documents that rebuild a world exactly.

A file holds the full initial model - scales, substances, kinds, topology,
portions, mechanisms (by builtin name plus parameters), triggers, frames,
bindings, annotations, and ambient state - so a reloaded world produces the
same triple snapshot as the programmatic build. Runtime history (the
transitional log, traces) is not part of a model file.
"""
from __future__ import annotations

import json
from pathlib import Path

from . import models
from .engine import Trigger, register_trigger
from .entities import (
    PartSpec,
    Portion,
    QualValue,
    SemObject,
    StateSpace,
    cardinality,
)
from .errors import SchemaError, SemsimError
from .frames import FrameBinding, PathSegment, PathSpec, define_frame, add_lexical_entry
from .frames import instantiate_fluidic_motion
from .world import Vocabulary, World

FORMAT = "semsim-model"
VERSION = 1


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
                "default_properties": {k: v.level for k, v in sub.default_properties.items()},
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
                "properties": {k: v.level for k, v in o.properties.items()},
                "alive": o.alive,
            }
            for o in world.objects.values()
        ],
        "portions": [
            {
                "id": p.id,
                "substance": p.substance,
                "kind": p.kind,
                "properties": {k: v.level for k, v in p.properties.items()},
                "x": p.x,
                "y": p.y,
                "compartment": p.compartment,
                "location_state": p.location_state,
                "provenance": list(p.provenance),
                "alive": p.alive,
            }
            for p in world.portions.values()
        ],
        "frames": [
            {
                "name": f.name,
                "core": list(f.core_elements),
                "non_core": list(f.non_core_elements),
                "text": f.definition_text,
            }
            for f in world.frames.values()
        ],
        "lexicon": [
            {"word": e.word, "frame": e.frame, "text": e.definition_text}
            for e in world.lexicon.values()
        ],
        "bindings": [
            {
                "frame": b.frame.name,
                "elements": {k: _binding_value_to_dict(v) for k, v in b.element_map.items()},
            }
            for b in world.bindings
        ],
        "mechanisms": [dict(spec) for spec in world.mechanism_specs],
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
        "assertions": [
            {"subject": a.subject, "function": a.function_label, "context": a.context}
            for a in world.assertions
        ],
        "annotations": [
            {"kind": a.kind, "target": a.target, "note": a.note} for a in world.annotations
        ],
        "ambient": {k: v.level for k, v in world.microworld.ambient.items()},
        "counters": dict(world._counters),
    }


def load_model(data: dict) -> World:
    """Rebuild a world from a dict produced by save_model (or written by hand)."""
    if not isinstance(data, dict) or not data:
        raise SchemaError("model file must be a non-empty JSON object")
    if data.get("format") != FORMAT:
        raise SchemaError(f"not a {FORMAT} document", "format")
    if "name" not in data:
        raise SchemaError("missing model name", "name")
    world = World(data["name"])

    vocab = data.get("vocabulary", {})
    world.vocabulary = Vocabulary(
        literals=frozenset(vocab.get("literals", [])),
        patterns=tuple(vocab.get("patterns", [])),
    )

    for i, s in enumerate(data.get("scales", [])):
        world.define_scale(_space_from_dict(s, f"scales[{i}]"))

    for i, s in enumerate(data.get("substances", [])):
        loc = f"substances[{i}]"
        try:
            sub = world.define_substance(
                s["name"],
                phases=tuple(s.get("phases", ("solid", "liquid", "gas"))),
                phase=s["phase"],
                merge_policy=dict(s.get("merge_policy", {})),
            )
            for prop, level in s.get("default_properties", {}).items():
                if prop not in world.scales:
                    raise SchemaError(f"property {prop!r} has no scale", loc)
                sub.default_properties[prop] = QualValue(world.scales[prop], level)
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc

    for i, k in enumerate(data.get("kinds", [])):
        loc = f"kinds[{i}]"
        try:
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
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc

    for i, c in enumerate(data.get("compartments", [])):
        loc = f"compartments[{i}]"
        try:
            world.add_compartment(
                c["name"], c.get("medium", "other"), c.get("capacity", 1),
                c.get("structure"), c.get("region"),
            )
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc

    for i, c in enumerate(data.get("connections", [])):
        loc = f"connections[{i}]"
        try:
            world.connect(c["from"], c["to"], c.get("kind", "fluid"))
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc
        except SemsimError as exc:
            raise SchemaError(str(exc), loc) from exc

    for i, c in enumerate(data.get("circuits", [])):
        loc = f"circuits[{i}]"
        try:
            world.define_circuit(c["name"], c["order"], c.get("successors", {}))
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc
        except SemsimError as exc:
            raise SchemaError(str(exc), loc) from exc

    for i, o in enumerate(data.get("objects", [])):
        loc = f"objects[{i}]"
        try:
            obj = SemObject(
                o["id"],
                o["kind"],
                parts=[tuple(p) for p in o.get("parts", [])],
                states=dict(o.get("states", {})),
                alive=o.get("alive", True),
            )
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc
        for prop, level in o.get("properties", {}).items():
            if prop not in world.scales:
                raise SchemaError(f"property {prop!r} has no scale", loc)
            obj.properties[prop] = QualValue(world.scales[prop], level)
        if obj.kind not in world.kinds:
            raise SchemaError(f"unknown kind {obj.kind!r}", loc)
        world.objects[obj.id] = obj

    for i, p in enumerate(data.get("portions", [])):
        loc = f"portions[{i}]"
        try:
            portion = Portion(
                p["id"],
                p["substance"],
                kind=p.get("kind"),
                x=p.get("x"),
                y=p.get("y"),
                compartment=p.get("compartment"),
                location_state=p.get("location_state", "null"),
                provenance=tuple(p.get("provenance", [])),
                alive=p.get("alive", True),
            )
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc
        if portion.substance not in world.substances:
            raise SchemaError(f"unknown substance {portion.substance!r}", loc)
        for prop, level in p.get("properties", {}).items():
            if prop not in world.scales:
                raise SchemaError(f"property {prop!r} has no scale", loc)
            portion.properties[prop] = QualValue(world.scales[prop], level)
        if portion.compartment is not None and portion.compartment not in world.compartments:
            raise SchemaError(f"unknown compartment {portion.compartment!r}", loc)
        if portion.id in world.portions:
            raise SchemaError(f"duplicate portion id {portion.id!r}", loc)
        world.add_portion(portion)

    # Contents restore reservoir draw order, so they are authoritative.
    for i, c in enumerate(data.get("compartments", [])):
        comp = world.compartments[c["name"]]
        for pid in c.get("contents", []):
            if pid not in world.portions:
                raise SchemaError(f"contents reference unknown portion {pid!r}", f"compartments[{i}]")
            if world.portions[pid].compartment != comp.id:
                raise SchemaError(
                    f"portion {pid!r} does not agree it is in {comp.id!r}", f"compartments[{i}]"
                )
            comp.contents.append(pid)

    for i, f in enumerate(data.get("frames", [])):
        loc = f"frames[{i}]"
        try:
            define_frame(world, f["name"], tuple(f["core"]), tuple(f.get("non_core", [])), f.get("text", ""))
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc

    for i, e in enumerate(data.get("lexicon", [])):
        add_lexical_entry(world, e["word"], e["frame"], e.get("text", ""))

    for i, b in enumerate(data.get("bindings", [])):
        loc = f"bindings[{i}]"
        frame = world.frames.get(b.get("frame"))
        if frame is None:
            raise SchemaError(f"unknown frame {b.get('frame')!r}", loc)
        elements = {
            k: _binding_value_from_dict(v, loc) for k, v in b.get("elements", {}).items()
        }
        world.bindings.append(FrameBinding(frame, elements))

    for i, spec in enumerate(data.get("mechanisms", [])):
        loc = f"mechanisms[{i}]"
        builtin = spec.get("builtin")
        params = dict(spec.get("params", {}))
        if builtin == "fluidic_motion":
            idx = params.get("binding", 0)
            if idx >= len(world.bindings):
                raise SchemaError(f"binding index {idx} out of range", loc)
            instantiate_fluidic_motion(
                world,
                world.bindings[idx],
                name=spec.get("name"),
                n_portions=params.get("n_portions"),
                portion_kind=params.get("portion_kind"),
            )
        elif builtin in models.BUILTIN_MECHANISMS:
            try:
                models.BUILTIN_MECHANISMS[builtin](world, params)
            except SemsimError as exc:
                raise SchemaError(str(exc), loc) from exc
        else:
            raise SchemaError(f"unknown builtin mechanism {builtin!r}", loc)

    for i, t in enumerate(data.get("triggers", [])):
        loc = f"triggers[{i}]"
        try:
            register_trigger(
                world,
                Trigger(t["name"], t["period"], t["target"], t.get("phase", 0), t.get("enabled", True)),
            )
        except KeyError as exc:
            raise SchemaError(f"missing field {exc}", loc) from exc
        except SemsimError as exc:
            raise SchemaError(str(exc), loc) from exc

    for i, s in enumerate(data.get("systems", [])):
        loc = f"systems[{i}]"
        try:
            world.define_system(s["name"], s.get("members", []), s.get("feedback", False))
        except SemsimError as exc:
            raise SchemaError(str(exc), loc) from exc

    for i, a in enumerate(data.get("assertions", [])):
        loc = f"assertions[{i}]"
        try:
            world.assert_function(a["subject"], a["function"], a["context"])
        except SemsimError as exc:
            raise SchemaError(str(exc), loc) from exc

    # Scenario bookkeeping annotations from a saved world may target the
    # model root; other targets must resolve.
    for i, a in enumerate(data.get("annotations", [])):
        loc = f"annotations[{i}]"
        try:
            world.annotate(a["target"], a["kind"], a.get("note", ""))
        except SemsimError as exc:
            raise SchemaError(str(exc), loc) from exc

    for prop, level in data.get("ambient", {}).items():
        world.set_ambient(prop, level)

    for prefix, n in data.get("counters", {}).items():
        world._counters[prefix] = n

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
