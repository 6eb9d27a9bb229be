"""Independent references the tests compare the program against.

For triple validation it is the naive algorithm: derive every triple
straight from the world's registries (every portion ever made, filtered by
alive), sort the whole set by (subject, predicate, obj) and try every rule's
pattern on every triple. It shares no code with semsim.validation beyond the
Triple and Var types, so the snapshot and the rule evaluator there are
checked against it, not against themselves.

For portion movement it is stage-then-commit: stage_move and stage_split
record one portion's move in a MoveBatch, checking it against the world,
and commit_batch applies a whole batch as one simultaneous update.
staged_ring_push stages a circuit portion by portion and staged_move stages
one portion, so they check topology.ring_push and topology.move, which check
each mover in the pass that collects it and apply through topology.commit.
The oracle builds its own CommitRecord and shares no movement code with
semsim.topology. staged_circuit_flow adds the circuit flow's narration, taken
from the committed batch, so it checks the lines frames' circuit flow emits. total_displacement is the closed form of a path: what a portion that runs
the whole path ends up displaced by.

For merged properties it is merged_properties: each property's label
picked by a plain reading of the substance's merge policy, ranks looked
up label by label, so it checks World.merge_portions and a commit's merge.
commit_batch plans each merge's properties with it before the first change
and gives the merged portion those, not the program's.

For trigger dispatch it is the per-tick scan: due reads a trigger's enabled,
phase and period at one tick, so it checks the kernel's calendar of due ticks.
concurrent_order is concurrent mode's group order written from the draw's
description in semsim.engine's docstring, so it checks the kernel's
_shuffle_subsystems.
"""
from semsim import Triple, Var
from semsim.errors import (
    CapacityExceeded,
    DuplicateMover,
    PortionNotPresent,
    PushWithoutConnection,
    StateError,
)
from semsim.records import FrozenRecord, Record, set_field
from semsim.topology import CommitRecord


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


def reference_triples(world, commits=None):
    """The live world as triples, read from every registry in full, with a
    pushedTo triple for each move of these commit records: by default the
    ones in the world's change list, as a fresh build reads them."""
    triples = set()
    for obj in world.objects.values():
        if not obj.alive:
            continue
        for var, label in obj.states.items():
            triples.add(Triple(obj.id, f"hasState:{var}", label))
        for prop, label in obj.properties.items():
            triples.add(Triple(obj.id, f"hasState:{prop}", label))
        for role, child in obj.parts:
            triples.add(Triple(obj.id, f"hasPart:{role}", child))
    for portion in world.portions.values():
        if not portion.alive:
            continue
        triples.add(Triple(portion.id, "hasState:Location", portion.location_state))
        for prop, label in portion.properties.items():
            triples.add(Triple(portion.id, f"hasState:{prop}", label))
        if portion.compartment is not None:
            triples.add(Triple(portion.id, "locatedIn", portion.compartment))
    for sub in world.substances.values():
        triples.add(Triple(sub.name, "hasState:phase", sub.phase))
    for conn in world.connections.values():
        triples.add(Triple(conn.from_id, "connectedTo", conn.to_id))
    if commits is None:
        commits = [r for r in world.changes if isinstance(r, CommitRecord)]
    for record in commits:
        for _portion, src, dst in record.applied:
            triples.add(Triple(src, "pushedTo", dst))
    return frozenset(triples)


def as_items(violations):
    """Violation objects in reference_violations' form."""
    return [(v.rule, list(v.bindings.items())) for v in violations]


class Move(FrozenRecord):
    _fields = __slots__ = ("portion", "src", "dst")

    def __init__(self, portion, src, dst):
        set_field(self, "portion", portion)
        set_field(self, "src", src)
        set_field(self, "dst", dst)


class SplitPlan(FrozenRecord):
    """A branch-point intent: split the portion at commit, one child per dst."""

    _fields = __slots__ = ("portion", "src", "dsts")

    def __init__(self, portion, src, dsts):
        set_field(self, "portion", portion)
        set_field(self, "src", src)
        set_field(self, "dsts", dsts)


class MoveBatch(Record):
    """Staged moves. It compares by identity: two batches with the same moves
    are still two batches."""

    _fields = ("moves", "splits", "movers")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, moves=None, splits=None, movers=None):
        self.moves = [] if moves is None else moves
        self.splits = [] if splits is None else splits
        self.movers = set() if movers is None else movers  # every staged portion


def stage_move(world, batch, portion, src, dst):
    """Record one move. The world is left untouched."""
    if portion in batch.movers:
        raise DuplicateMover(f"portion {portion!r} already staged in this batch")
    p = world.portions.get(portion)
    if p is None or p.compartment != src:
        raise PortionNotPresent(f"no live portion {portion!r} in {src!r}")
    if not world.is_connected(src, dst, "fluid"):
        raise PushWithoutConnection(f"no fluid connection {src!r} -> {dst!r}")
    batch.moves.append(Move(portion, src, dst))
    batch.movers.add(portion)
    return batch


def stage_split(world, batch, portion, src, dsts):
    """Record a branch-point move: the portion splits at commit, one child per
    dst. Every dst's connection is checked before the portion."""
    if len(dsts) < 2:
        raise PushWithoutConnection("a split needs at least two destinations")
    for dst in dsts:
        if not world.is_connected(src, dst, "fluid"):
            raise PushWithoutConnection(f"no fluid connection {src!r} -> {dst!r}")
    if portion in batch.movers:
        raise DuplicateMover(f"portion {portion!r} already staged in this batch")
    p = world.portions.get(portion)
    if p is None or p.compartment != src:
        raise PortionNotPresent(f"no live portion {portion!r} in {src!r}")
    batch.splits.append(SplitPlan(portion, src, tuple(dsts)))
    batch.movers.add(portion)
    return batch


def merged_properties(world, parents):
    """The properties a merge of these parents takes, in the order the
    parents first carry them. Under a "min" or "max" rule a property takes
    the lowest or highest ranked label among the parents that carry it, the
    earliest of those on a tie, and a scale neither ordinal nor binary raises
    StateError; under any other rule, the first carrier's label."""
    policy = world.substances[parents[0].substance].merge_policy
    keys = []
    for parent in parents:
        keys += [key for key in parent.properties if key not in keys]
    merged = {}
    for key in keys:
        labels = [parent.properties[key] for parent in parents if key in parent.properties]
        rule = policy.get(key)
        if rule in ("min", "max"):
            scale = world.scales[key]
            if scale.scale_kind not in ("ordinal", "binary"):
                raise StateError(
                    f"scale {scale.variable!r} is {scale.scale_kind}; ordinal comparison undefined"
                )
            ranked = [scale.labels.index(label) for label in labels]
            best = min(ranked) if rule == "min" else max(ranked)
            merged[key] = labels[ranked.index(best)]
        else:
            merged[key] = labels[0]
    return merged


def commit_batch(world, batch):
    """Apply every staged move as one simultaneous update.

    Each destination gets its arrivals in staging order, moves before
    splits. A blood compartment overfilled by one substance merges its
    stayers and arrivals, with merged_properties planned before the first
    change (a split parent's properties are its children's); any other
    overfill raises CapacityExceeded, and properties that cannot be merged
    raise StateError, before the first change.
    """
    portions, compartments = world.portions, world.compartments
    arrivals = {}
    for move in batch.moves:
        arrivals.setdefault(move.dst, []).append(move.portion)
    for plan in batch.splits:
        for dst in plan.dsts:
            arrivals.setdefault(dst, []).append(plan.portion)

    merging = {}
    for dst, arriving in arrivals.items():
        comp = compartments[dst]
        if comp.capacity is None:
            continue
        stayers = [pid for pid in comp.contents if pid not in batch.movers]
        occupancy = len(stayers) + len(arriving)
        if occupancy <= comp.capacity:
            continue
        if comp.medium != "blood_path":
            raise CapacityExceeded(
                f"{occupancy} portions for {dst!r} (capacity {comp.capacity}, "
                f"merging disallowed for {comp.medium})"
            )
        substances = {portions[pid].substance for pid in stayers + arriving}
        if len(substances) > 1:
            raise CapacityExceeded(
                f"{occupancy} portions for {dst!r} (capacity {comp.capacity}, "
                f"cannot merge substances {sorted(substances)})"
            )
        parents = [portions[pid] for pid in stayers + arriving]
        merging[dst] = (stayers, merged_properties(world, parents))

    applied = [(m.portion, m.src, m.dst) for m in batch.moves]
    record = CommitRecord(applied)
    for plan in batch.splits:
        children = world.split_portion(plan.portion, len(plan.dsts))
        for child, dst in zip(children, plan.dsts):
            landing = arrivals[dst]
            landing[landing.index(plan.portion)] = child.id
            applied.append((child.id, plan.src, dst))
    for dst, arrived in arrivals.items():
        if dst in merging:
            stayers, properties = merging[dst]
            world.merge_portions(stayers + arrived, dst).properties = properties
        else:
            for pid in arrived:
                world._place(pid, dst)  # the record names it, as commit's does

    world.changes.append(record)
    return record


def staged_ring_push(world, circuit):
    """One hop around the circuit: stage each portion in circuit order, each
    compartment's portions in its contents order, then commit the batch."""
    return commit_batch(world, staged_circuit(world, circuit))


def staged_circuit(world, circuit):
    """The batch of one hop around the circuit, staged and not committed."""
    batch = MoveBatch()
    for cid in circuit.order:
        succ = circuit.successors.get(cid, ())
        if not succ:
            raise PushWithoutConnection(f"circuit {circuit.name!r} dead-ends at {cid!r}")
        for pid in world.compartments[cid].contents:
            if len(succ) == 1:
                stage_move(world, batch, pid, cid, succ[0])
            else:
                stage_split(world, batch, pid, cid, succ)
    return batch


def staged_circuit_flow(world, circuit):
    """A circuit flow's push and narration: the commit record and the lines,
    "pushed <X>Blood" for each staged portion's blood_path source X, sources
    sorted into circuit order, then "trigger updates"."""
    batch = staged_circuit(world, circuit)
    vacated = [m.src for m in batch.moves] + [plan.src for plan in batch.splits]
    vacated.sort(key=circuit.order.index)
    lines = [f"pushed {world.compartments[cid].name}Blood" for cid in vacated
             if world.compartments[cid].medium == "blood_path"]
    return commit_batch(world, batch), lines + ["trigger updates"]


def staged_move(world, portion, src, dst):
    """One portion's move, staged and committed."""
    return commit_batch(world, stage_move(world, MoveBatch(), portion, src, dst))


def total_displacement(path):
    """(dx, dy) over the whole path: each segment's length times its slope's
    (run, rise)."""
    dx = sum(seg.length * seg.slope[1] for seg in path.segments)
    dy = sum(seg.length * seg.slope[0] for seg in path.segments)
    return (dx, dy)


def due(trigger, tick):
    """Whether trigger fires at tick: enabled, and tick on its period from its phase."""
    return trigger.enabled and tick >= trigger.phase and (tick - trigger.phase) % trigger.period == 0


def splitmix64(z):
    """splitmix64's output for a generator whose state is z before its step."""
    z = (z + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def concurrent_order(seed, tick, groups):
    """groups, a list of a tick's subsystem groups in schedule order, in the
    order concurrent mode runs them at tick: the draw
    splitmix64(splitmix64(seed) ^ tick) read as a Lehmer code,
    each digit picking among the groups left. One group draws nothing."""
    if len(groups) < 2:
        return list(groups)
    code = splitmix64(splitmix64(seed) ^ tick)
    left = list(groups)
    order = []
    while left:
        code, i = divmod(code, len(left))
        order.append(left.pop(i))
    return order
