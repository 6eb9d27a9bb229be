"""Mechanisms as data: one closed set of guard conditions and effects.

A data mechanism is a model-file entry: a name, a subsystem, a guard,
effects, side effects and the compartment it listens on. Each condition and
effect is a list of strings, its kind first (CONDITIONS, EFFECTS).
`build_mechanism` checks every argument by its type and compiles the lists
once, at registration, into the engine's Mechanism of Conditions and one
effect, so a step pays nothing to interpret them. Each effect and side
effect compiles to a callable on the Kernel; the side effects, effects no
guard reads, always run after the effects. `check_links` checks,
once all are registered, that each signal has a receiver and each fired
member exists, and that no mechanism fires itself, directly or through its
members: nested firing happens within one step, so a cycle never ends. A
missing fluid or nerve connection is left to the run, which reports it as a
violation: a scenario may cut one.
"""
from __future__ import annotations

from .engine import Condition, Mechanism, Signal, register_mechanism, send_signal
from .errors import ModelError, TraceVocabularyError, UnknownEntityError, need
from .world import AMBIENT_SCALES, World

FIELDS = ("name", "subsystem", "guard", "effects", "side_effects", "on_signal")


def _occupant_level(world, substance, compartment, prop, level):
    """P=L of the occupant of C, an S portion: P must be one of S's default
    properties, which every S portion carries, and L one of its labels."""
    need(world.compartments, compartment, "compartment")
    defaults = need(world.substances, substance, "substance").default_properties
    need(defaults, prop, f"{substance} property")
    world.scales[prop].index(level)


def _occupant(world, substance, compartment, prop, level):
    _occupant_level(world, substance, compartment, prop, level)

    def test(w) -> bool:
        portion = w.occupant(compartment)
        if portion is None or portion.substance != substance:
            return False
        return portion.properties[prop] == level

    return f"{substance} at {compartment} has {prop}={level}", test


def _holds(world, compartment, substance):
    need(world.compartments, compartment, "compartment")
    need(world.substances, substance, "substance")

    def test(w) -> bool:
        portion = w.occupant(compartment)
        return portion is not None and portion.substance == substance

    return f"{compartment} holds {substance}", test


def _alive(world, obj):
    need(world.objects, obj, "object")
    return f"{obj} alive", lambda w: w.objects[obj].alive


def _ambient(world, prop, level):
    need(AMBIENT_SCALES, prop, "ambient property").index(level)
    return f"ambient {prop} {level.replace('_', ' ')}", lambda w: w.ambient(prop) == level


def _not_phase(world, substance, phase):
    need(world.substances, substance, "substance").phase_space.index(phase)
    return f"{substance} not yet {phase}", lambda w: w.substances[substance].phase != phase


def _set_occupant(world, substance, compartment, prop, level):
    """Set P=L on the occupant of C, if there is one and it has P."""
    _occupant_level(world, substance, compartment, prop, level)

    def effect(kernel):
        w = kernel.world
        portion = w.occupant(compartment)
        if portion is not None and prop in portion.properties:
            w.set_state(portion.id, prop, level)

    return effect


def _set(world, entity, variable, label):
    """Set a state or a property on an object, or a substance's phase."""
    if entity in world.substances and variable == "phase":
        world.substances[entity].phase_space.index(label)
    else:
        obj = need(world.objects, entity, "object")
        spaces = world.effective_state_spaces(obj.kind)
        if variable not in spaces and variable in obj.properties:
            spaces = world.scales  # a property the object carries
        need(spaces, variable, f"{obj.kind} state").index(label)
    return lambda kernel: kernel.world.set_state(entity, variable, label)


def _emit(world, line):
    if not world.vocabulary.allows(line):
        raise TraceVocabularyError(
            f"line {line!r} is not in the declared vocabulary of {world.name!r}"
        )
    return lambda kernel: kernel.emit_trace(line)


def _signal(world, sender, receiver, payload):
    need(world.compartments, sender, "compartment")
    need(world.compartments, receiver, "compartment")
    return lambda kernel: send_signal(kernel, Signal(sender, receiver, payload))


def _merge(world, compartment):
    """Merge C's contents into one portion, when it holds more than one."""
    need(world.compartments, compartment, "compartment")

    def effect(kernel):
        w = kernel.world
        held = w.compartments[compartment].contents
        if len(held) > 1:
            w.merge_portions(held, compartment)

    return effect


def _fire(world, member):
    """Attempt member M: fire it if its guard holds, else record the failure."""
    return lambda kernel: kernel.attempt(kernel.world.mechanisms[member], "nested")


#: kind -> (number of arguments, compiler); a condition compiles to its
#: description and test, an effect to a callable on the Kernel.
CONDITIONS = {
    "occupant": (4, _occupant),
    "holds": (2, _holds),
    "alive": (1, _alive),
    "ambient": (2, _ambient),
    "not_phase": (2, _not_phase),
    "always": (0, lambda world: ("always", lambda w: True)),
}
EFFECTS = {
    "set_occupant": (4, _set_occupant),
    "set": (3, _set),
    "emit": (1, _emit),
    "signal": (3, _signal),
    "merge": (1, _merge),
    "fire": (1, _fire),
}


def compile_items(world: World, table: dict, items, field: str) -> list:
    """Each item of a guard or effect list, checked and compiled by its kind."""
    if not isinstance(items, list):
        raise ModelError(f"{field} must be a list, not {items!r}")
    compiled = []
    for item in items:
        if not (isinstance(item, list) and item and all(isinstance(a, str) for a in item)):
            raise ModelError(f"{field}: {item!r} is not a list of strings")
        arity, make = need(table, item[0], f"{field} kind")
        if len(item) != arity + 1:
            raise ModelError(f"{field}: {item[0]!r} takes {arity} arguments, not {len(item) - 1}")
        compiled.append(make(world, *item[1:]))
    return compiled


def build_mechanism(world: World, spec: dict) -> Mechanism:
    """Compile a data mechanism and register it with its spec, which a model file saves."""
    unknown = set(spec) - set(FIELDS)
    if unknown:
        raise ModelError(f"unknown fields {sorted(unknown)}, expected some of {FIELDS}")
    guard = compile_items(world, CONDITIONS, spec["guard"], "guard")
    actions = compile_items(world, EFFECTS, spec["effects"], "effects")
    actions += compile_items(world, EFFECTS, spec.get("side_effects", []), "side_effects")

    def effect(kernel):
        for action in actions:
            action(kernel)

    mechanism = Mechanism(
        spec["name"],
        guard=tuple(Condition(*c) for c in guard),
        effect=effect,
        subsystem=spec.get("subsystem", "core"),
        on_signal=spec.get("on_signal"),
    )
    return register_mechanism(world, mechanism, {k: v for k, v in spec.items() if k != "name"})


def _fired(spec: dict) -> list[str]:
    return [args[0] for kind, *args in spec.get("effects", []) + spec.get("side_effects", [])
            if kind == "fire"]


def check_links(world: World, name: str | None, spec: dict):
    """Mechanism name's spec (None: a signal in transit's) signals only to listeners,
    fires registered members only, and none of them fires it again."""
    listening = {m.on_signal for m in world.mechanisms.values()}
    for kind, *args in spec.get("effects", []) + spec.get("side_effects", []):
        if kind == "signal" and args[1] not in listening:
            raise UnknownEntityError(f"signal to {args[1]!r} has no receiving mechanism")
        if kind == "fire":
            need(world.mechanisms, args[0], "mechanism to fire")
    # An unregistered member is reported by its own mechanism's check.
    paths, seen = [((name,), spec)], set()
    while paths:
        path, fired_by = paths.pop()
        for member in _fired(fired_by):
            if member == name:
                raise ModelError(f"fire cycle {' -> '.join(path + (member,))}")
            registered = world.mechanisms.get(member)
            if member not in seen and registered is not None and registered.spec is not None:
                seen.add(member)
                paths.append((path + (member,), registered.spec))
