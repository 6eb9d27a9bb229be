"""Frame layer: structured definitions bound onto executable mechanism templates.

A frame names its core and non-core elements; a binding maps every core
element to a model entity (or a path description) and can then be turned
into a runnable mechanism. Three frames ship: a generic Motion parent,
Fluidic_Motion, and Natural_Features.

A Fluidic_Motion binding whose Path is a PathSpec compiles to `path_flow`,
the one path walk: the waterfall is such a binding. One whose Path is a
declared circuit compiles to the one circuit flow: cardio's heartbeat is
such a binding, its pulse line in the binding's Configuration. Each flow
narrates its own moves; topology moves portions and emits nothing. A flow
builds its lines when it is compiled: a path flow its legs, a circuit flow
each blood_path compartment's "pushed <X>Blood". A firing still emits each
line through Kernel.emit_trace.
"""
from __future__ import annotations

from . import topology
from .engine import Condition, Mechanism, register_mechanism
from .errors import (
    DuplicateNameError,
    MissingCoreElement,
    ModelError,
    StateError,
    UnknownEntityError,
    need,
)
from .records import FrozenRecord, Record, set_field
from .world import World


class Frame(FrozenRecord):
    _fields = ("name", "core_elements", "non_core_elements", "definition_text")

    def __init__(
        self,
        name: str,
        core_elements: tuple[str, ...],
        non_core_elements: tuple[str, ...] = (),
        definition_text: str = "",
    ):
        if not core_elements:
            raise ModelError(f"frame {name!r} needs at least one core element")
        overlap = set(core_elements) & set(non_core_elements)
        if overlap:
            raise ModelError(
                f"frame {name!r}: elements {sorted(overlap)} are both core and non-core"
            )
        set_field(self, "name", name)
        set_field(self, "core_elements", core_elements)
        set_field(self, "non_core_elements", non_core_elements)
        set_field(self, "definition_text", definition_text)


class LexicalEntry(FrozenRecord):
    _fields = ("word", "frame", "definition_text")

    def __init__(self, word: str, frame: str, definition_text: str = ""):
        set_field(self, "word", word)
        set_field(self, "frame", frame)
        set_field(self, "definition_text", definition_text)


def check_leg(length, pair, length_rule: str, pair_rule: str):
    """length units of a per-unit pair add up to length × pair exactly only in
    integers: refuse anything else with a ValueError naming the broken rule."""
    # type() rather than isinstance(): bool is an int subclass.
    if type(length) is not int or length <= 0:
        raise ValueError(f"{length_rule}, not {length!r}")
    if not (isinstance(pair, tuple) and len(pair) == 2 and all(type(v) is int for v in pair)):
        raise ValueError(f"{pair_rule}, not {pair!r}")


class PathSegment(FrozenRecord):
    """One leg of a path. slope is a (rise, run) pair in ordinal units, so a
    unit of traversal displaces the mover by (run, rise)."""

    _fields = ("length", "width", "slope", "label")

    def __init__(
        self,
        length: int,
        width: int = 1,
        slope: tuple[int, int] = (0, 1),
        label: str | None = None,  # location label while on this segment
    ):
        check_leg(length, slope,
                  "a segment length must be a positive int", "a slope must be a pair of ints")
        set_field(self, "length", length)
        set_field(self, "width", width)
        set_field(self, "slope", slope)
        set_field(self, "label", label)

    @property
    def unit_delta(self) -> tuple[int, int]:
        rise, run = self.slope
        return (run, rise)


class PathSpec(FrozenRecord):
    _fields = ("segments",)

    def __init__(self, segments: tuple[PathSegment, ...]):
        if not segments:
            raise ModelError("a path needs at least one segment")
        set_field(self, "segments", segments)


class FrameBinding(Record):
    _fields = ("frame", "element_map")

    def __init__(self, frame: Frame, element_map: dict[str, object] | None = None):
        self.frame = frame
        self.element_map = {} if element_map is None else element_map


def standard_frames() -> dict[str, Frame]:
    return {
        "Motion": Frame(
            "Motion",
            core_elements=("Theme", "Source", "Goal", "Path"),
            definition_text="Some entity starts out in one place and ends up in another.",
        ),
        "Fluidic_Motion": Frame(
            "Fluidic_Motion",
            core_elements=("Fluid", "Source", "Goal", "Path"),
            non_core_elements=("Configuration",),
            definition_text="A fluid moves from a source to a goal along a path or within an area.",
        ),
        "Natural_Features": Frame(
            "Natural_Features",
            core_elements=("Locale",),
            non_core_elements=("Constituent_parts", "Container_possessor"),
            definition_text="A geographical location defined by shape, including bodies of water.",
        ),
    }


def define_frame(
    world: World,
    name: str,
    core: tuple[str, ...],
    non_core: tuple[str, ...] = (),
    text: str = "",
) -> Frame:
    if name in world.frames:
        raise DuplicateNameError(f"frame {name!r} already defined")
    frame = Frame(name, tuple(core), tuple(non_core), text)
    world.frames[name] = frame
    return frame


def add_lexical_entry(world: World, word: str, frame: str, text: str = "") -> LexicalEntry:
    if frame not in world.frames:
        raise UnknownEntityError(f"no frame {frame!r} for lexical entry {word!r}")
    entry = LexicalEntry(word, frame, text)
    world.lexicon[word] = entry
    return entry


def _element_resolvable(world: World, value) -> bool:
    if isinstance(value, (PathSpec, dict)):
        return True
    if isinstance(value, str):
        return (
            world.has_entity(value)
            or value in world.compartments
            or value in world.circuits
        )
    return False


def bind(world: World, frame_name: str, element_map: dict[str, object]) -> FrameBinding:
    """Bind frame elements to model entities; every core element is required."""
    frame = need(world.frames, frame_name, "frame")
    for element in frame.core_elements:
        if element not in element_map:
            raise MissingCoreElement(element)
    known = set(frame.core_elements) | set(frame.non_core_elements)
    for element, value in element_map.items():
        if element not in known:
            raise ModelError(f"frame {frame_name!r} has no element {element!r}")
        if not _element_resolvable(world, value):
            raise UnknownEntityError(
                f"element {element!r} maps to unresolvable value {value!r}"
            )
    binding = FrameBinding(frame, dict(element_map))
    world.bindings.append(binding)
    return binding


def _fluid_guard(world_substance: str) -> Condition:
    return Condition(
        f"{world_substance} is fluid",
        lambda w, s=world_substance: w.substances[s].is_fluid,
    )


def fluidic_motion(world: World, params: dict) -> Mechanism:
    """Turn a Fluidic_Motion binding into a runnable mechanism: params name
    the binding by its index in world.bindings, as a model file saves it,
    and may give the mechanism's name, n_portions and portion_kind.

    Path bound to a PathSpec gives a path_flow: each firing releases the next
    portion and carries it down the whole path to the goal. Path bound to the
    name of a declared circuit gives a circuit flow: one simultaneous hop for
    every portion per firing. A circuit is bound by name, the form a model
    file saves.
    """
    index = params.get("binding", 0)
    if type(index) is not int or not 0 <= index < len(world.bindings):
        raise ModelError(f"binding index {index!r} out of range")
    binding = world.bindings[index]
    if binding.frame.name != "Fluidic_Motion":
        raise ModelError("only Fluidic_Motion bindings instantiate here")
    n_portions = params.get("n_portions")
    portion_kind = params.get("portion_kind")
    # type() rather than isinstance(): bool is an int subclass.
    if n_portions is not None and (type(n_portions) is not int or n_portions < 0):
        raise ValueError(f"n_portions must be an int >= 0, not {n_portions!r}")
    fluid = binding.element_map["Fluid"]
    if not isinstance(fluid, str) or fluid not in world.substances:
        raise ModelError(f"Fluid must name a substance, got {fluid!r}")
    path = binding.element_map.get("Path")
    mech_name = params.get("name") or f"Flow({fluid})"

    if isinstance(path, PathSpec):
        goal = binding.element_map.get("Goal")
        if not isinstance(goal, str):
            raise ModelError(f"a path flow's Goal must name a place, not {goal!r}")
        mech = path_flow(world, mech_name, fluid, path, goal, n_portions, portion_kind)
    elif isinstance(path, str) and path in world.circuits:
        circuit = world.circuits[path]
        config = binding.element_map.get("Configuration")
        pulse = config.get("pulse") if isinstance(config, dict) else None
        mech = _circuit_flow(world, mech_name, fluid, circuit, pulse)
    else:
        raise ModelError(
            "binding satisfies neither path mode: need a PathSpec or a declared circuit"
        )
    return register_mechanism(world, mech, {"builtin": "fluidic_motion", "params": {
        "binding": index,
        "n_portions": n_portions,
        "portion_kind": portion_kind,
    }})


def path_flow(
    world: World,
    mech_name: str,
    fluid: str,
    path: PathSpec,
    goal_label: str,
    n_portions: int | None = None,
    portion_kind: str | None = None,
) -> Mechanism:
    """A flow down a PathSpec. Each firing releases a portion of the fluid,
    "<fluid>-<i>" as world.next_id mints it, carries it down every leg in
    closed form (length × per-unit delta: nothing observes it mid-leg),
    setting each leg's label and then the goal's, and emits "<i> <goal_label>".
    The flow keeps no state of its own: the world's id counter for the fluid,
    which a model file saves, bounds the releases by n_portions. With a
    portion kind, every label is checked against its Location space here,
    so a firing writes each label with World.set_location, which checks
    nothing again; without one, a portion's Location takes any label.
    """
    if portion_kind is not None:
        if world.effective_substance(portion_kind) != fluid:
            raise ModelError(f"kind {portion_kind!r} is not a portion of {fluid!r}")
        location = world.effective_state_spaces(portion_kind).get("Location")
        if location is None:
            raise StateError(f"kind {portion_kind!r} has no 'Location' space")
        for seg in path.segments:
            if seg.label is not None:
                location.index(seg.label)  # raises for a label the portions cannot take
        location.index(goal_label)
    legs = tuple(
        (seg.label, seg.length * seg.unit_delta[0], seg.length * seg.unit_delta[1])
        for seg in path.segments
    )

    def remaining(w) -> bool:
        return n_portions is None or w._counters.get(fluid, 0) < n_portions

    def effect(kernel):
        w = kernel.world
        if portion_kind is not None:
            portion = w.instantiate(portion_kind)
        else:
            portion = w.create_portion(fluid)
            portion.x, portion.y = 0, 0
        set_location = w.set_location
        for label, dx, dy in legs:
            if label is not None:
                set_location(portion, label)
            portion.x += dx
            portion.y += dy
        set_location(portion, goal_label)
        kernel.emit_trace(f"{portion.id.rpartition('-')[2]} {goal_label}")

    return Mechanism(
        mech_name,
        guard=(_fluid_guard(fluid), Condition("portions remain", remaining)),
        effect=effect,
        subsystem="flow",
    )


def _circuit_flow(world, mech_name, fluid, circuit, pulse=None):
    """A flow around a circuit. Each firing emits the pulse line, when there
    is one, then moves every portion on the circuit one hop, all at once,
    and emits "pushed <X>Blood" for each portion that left a blood_path
    compartment X, in circuit order, then "trigger updates". Each blood_path
    compartment's line is built here, once: nothing renames a compartment
    or changes its medium."""
    if pulse is not None and not isinstance(pulse, str):
        raise ModelError(f"a circuit flow's pulse must be a trace line, not {pulse!r}")
    built = world.compartments
    narrated = tuple((cid, f"pushed {built[cid].name}Blood") for cid in circuit.order
                     if built[cid].medium == "blood_path")

    def occupied(w) -> bool:
        return any(w.occupant(cid) is not None for cid in circuit.order)

    def effect(kernel):
        if pulse is not None:
            kernel.emit_trace(pulse)
        # Each portion's line, read in circuit order before the push moves it.
        compartments = kernel.world.compartments
        lines = [line for cid, line in narrated for _ in compartments[cid].contents]
        topology.ring_push(kernel.world, circuit)
        for line in lines:
            kernel.emit_trace(line)
        kernel.emit_trace("trigger updates")

    return Mechanism(
        mech_name,
        guard=(_fluid_guard(fluid), Condition("circuit occupied", occupied)),
        effect=effect,
        subsystem="circulation",
    )
