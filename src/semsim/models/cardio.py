"""Cardio's breath, the one builtin mechanism a model file names
("builtin": "inhale_cycle"): the diaphragm draws air ExternalAir -> NoseAir
-> AlvAir and back out."""
from __future__ import annotations

from .. import topology
from ..engine import Condition, Mechanism, register_mechanism
from ..errors import need
from ..mechanisms import CONDITIONS, EFFECTS, compile_items
from ..world import World

AIR_ORDER = ("ExternalAir", "NoseAir", "AlvAir")


def inhale_cycle(world: World, params: dict) -> Mechanism:
    """The breath, cardio's one builtin mechanism. Its moves are ordered and
    conditional, and its trace narrates them in another order than they
    happen: as data that would take conditional effects, more code than this
    closure. Its references are checked by the types a data mechanism's are."""
    external, nose, alv = params.get("air_path", AIR_ORDER)
    diaphragm = params.get("diaphragm", "diaphragm")
    for compartment in (external, nose, alv):
        need(world.compartments, compartment, "compartment")
    guard = compile_items(world, CONDITIONS, [["alive", diaphragm]], "guard")
    tension = [["set", diaphragm, "tension", label] for label in ("contracted", "relaxed")]
    contract, relax = compile_items(world, EFFECTS, tension, "effects")
    lines = (
        "inhale cycle",
        "into diaphragm contract",
        f"completed inhale {external} to Nose Air",
        "completed inhale Nose Air to Alv Air",
        "completed exhale Alv Air to Nose Air",
        f"completed exhale Nose Air to {external}",
    )
    compile_items(world, EFFECTS, [["emit", line] for line in lines], "effects")
    # The stale column shifts outward before fresh air is drawn in. Each move
    # names the line it completes, and the trace narrates them in line order.
    moves = (
        (nose, external, 5), (alv, nose, 4), (nose, external, 5), (external, nose, 2), (nose, alv, 3),
    )

    def effect(kernel):
        w = kernel.world
        kernel.emit_trace(lines[0])
        kernel.emit_trace(lines[1])
        contract(kernel)
        completed = set()
        for src, dst, line in moves:
            p = w.occupant(src)
            # Fresh air goes on into the alveoli only when they are empty.
            if p is not None and (dst != alv or w.occupant(alv) is None):
                topology.move(w, p.id, src, dst)
                completed.add(line)
        for line in sorted(completed):
            kernel.emit_trace(lines[line])
        relax(kernel)

    mech = Mechanism(
        params.get("name", "InhaleCycle"),
        guard=tuple(Condition(*c) for c in guard),
        effect=effect,
        subsystem="respiration",
        on_signal=params.get("on_signal", "Diaphragm"),
    )
    spec = {"builtin": "inhale_cycle", "params": {k: v for k, v in params.items() if k != "name"}}
    return register_mechanism(world, mech, spec)
