"""Independent references the tests compare the program against.

For triple validation it is the naive algorithm: derive every triple
straight from the world's registries (every portion ever made, filtered by
alive), sort the whole set by (subject, predicate, obj) and try every rule's
pattern on every triple. It shares no code with semsim.validation beyond the
Triple and Var types, so the snapshot and the rule evaluator there are
checked against it, not against themselves.

stage_split stages one branch-point move at a time, so that staging a
circuit portion by portion, with it and topology.stage_move, checks
topology.ring_push, which stages a whole circuit with its checks inline.
total_displacement is the closed form of a path: what a portion that runs
the whole path ends up displaced by.
"""
from semsim import Triple, Var
from semsim.errors import BatchStateError, DuplicateMover, PortionNotPresent, PushWithoutConnection
from semsim.topology import SplitPlan


def reference_match(pattern, triple):
    bindings = {}
    for term, value in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.obj, triple.obj),
    ):
        if isinstance(term, Var):
            if bindings.get(term.name, value) != value:
                return None
            bindings[term.name] = value
        elif term != value:
            return None
    return bindings


def reference_violations(world, triples, rules):
    """(rule name, bindings as a list of items) per violation, in report order."""
    ordered = sorted(triples, key=lambda t: (t.subject, t.predicate, t.obj))
    out = []
    for rule in rules.values():
        matches = [m for m in (reference_match(rule.pattern, t) for t in ordered) if m is not None]
        if rule.check is not None:
            matches = [m for m in matches if rule.check(m, world, triples)]
        if rule.expectation == "must_exist" and not matches:
            out.append((rule.name, []))
        elif rule.expectation == "must_not_exist":
            out.extend((rule.name, list(m.items())) for m in matches)
        elif rule.expectation == "count_in_set" and len(matches) not in rule.counts:
            out.append((rule.name, [("count", str(len(matches)))]))
    return out


def reference_triples(world):
    """The live world as triples, read from every registry in full."""
    triples = set()
    for obj in world.objects.values():
        if not obj.alive:
            continue
        for var, label in obj.states.items():
            triples.add(Triple(obj.id, f"hasState:{var}", label))
        for prop, value in obj.properties.items():
            triples.add(Triple(obj.id, f"hasState:{prop}", value.level))
        for role, child in obj.parts:
            triples.add(Triple(obj.id, f"hasPart:{role}", child))
    for portion in world.portions.values():
        if not portion.alive:
            continue
        triples.add(Triple(portion.id, "hasState:Location", portion.location_state))
        for prop, value in portion.properties.items():
            triples.add(Triple(portion.id, f"hasState:{prop}", value.level))
        if portion.compartment is not None:
            triples.add(Triple(portion.id, "locatedIn", portion.compartment))
    for sub in world.substances.values():
        triples.add(Triple(sub.name, "hasState:phase", sub.phase))
    for conn in world.connections.values():
        triples.add(Triple(conn.from_id, "connectedTo", conn.to_id))
    for record in world.last_commits:
        for _portion, src, dst in record.applied:
            triples.add(Triple(src, "pushedTo", dst))
    return frozenset(triples)


def as_items(violations):
    """Violation objects in reference_violations' form."""
    return [(v.rule, list(v.bindings.items())) for v in violations]


def stage_split(world, batch, portion, src, dsts):
    """Record a branch-point move: the portion splits at commit, one child per
    dst. Every dst's connection is checked before the portion."""
    if len(dsts) < 2:
        raise PushWithoutConnection("a split needs at least two destinations")
    for dst in dsts:
        if not world.is_connected(src, dst, "fluid"):
            raise PushWithoutConnection(f"no fluid connection {src!r} -> {dst!r}")
    if batch.status != "staging":
        raise BatchStateError("batch already committed")
    if portion in batch.movers:
        raise DuplicateMover(f"portion {portion!r} already staged in this batch")
    p = world.portions.get(portion)
    if p is None or p.compartment != src:
        raise PortionNotPresent(f"no live portion {portion!r} in {src!r}")
    batch.splits.append(SplitPlan(portion, src, tuple(dsts)))
    batch.movers.add(portion)
    return batch


def total_displacement(path):
    """(dx, dy) over the whole path: each segment's length times its slope's
    (run, rise)."""
    dx = sum(seg.length * seg.slope[1] for seg in path.segments)
    dy = sum(seg.length * seg.slope[0] for seg in path.segments)
    return (dx, dy)
