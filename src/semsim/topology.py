"""Compartment graph and stage-then-commit portion movement.

Moves are recorded against the pre-move world and applied all at once, so a
batch behaves as a single simultaneous update: a portion can arrive in a
compartment that is vacated by the same batch. Staging never touches
compartment contents.
"""
from __future__ import annotations

from .errors import (
    BatchStateError,
    CapacityExceeded,
    DuplicateMover,
    PortionNotPresent,
    PushWithoutConnection,
)
from .records import FrozenRecord, Record, set_field, slot_setters

MEDIA = ("blood_path", "air_path", "other")
CONDUIT_KINDS = ("fluid", "nerve")


class Compartment(Record):
    """A node that holds portions; capacity is enforced after every commit."""

    _fields = ("id", "name", "medium", "capacity", "structure", "region", "contents")

    def __init__(
        self,
        id: str,
        name: str,
        medium: str = "other",
        capacity: int | None = 1,  # None means unbounded (reservoir)
        structure: str | None = None,
        region: str | None = None,
        contents: list[str] | None = None,
    ):
        self.id = id
        self.name = name
        self.medium = medium
        self.capacity = capacity
        self.structure = structure
        self.region = region
        self.contents = [] if contents is None else contents


class Connection(FrozenRecord):
    _fields = ("from_id", "to_id", "conduit_kind")

    def __init__(self, from_id: str, to_id: str, conduit_kind: str = "fluid"):
        set_field(self, "from_id", from_id)
        set_field(self, "to_id", to_id)
        set_field(self, "conduit_kind", conduit_kind)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.from_id, self.to_id, self.conduit_kind)


class _Positions(dict):
    """Compartment id -> index in a circuit's order. An id off the circuit
    reads as the order's length, so it sorts after every id on it."""

    __slots__ = ()

    def __missing__(self, cid: str) -> int:
        return len(self)


class Circuit(FrozenRecord):
    """A declared ordered ring over compartments, with branch/merge points.

    Its position map (compartment id -> index in order) is derived once
    here, so it takes no part in repr, ==, hash, copy or pickle.
    """

    _fields = ("name", "order", "successors")

    def __init__(
        self,
        name: str,
        order: tuple[str, ...],
        successors: dict[str, tuple[str, ...]] | None = None,
    ):
        set_field(self, "name", name)
        set_field(self, "order", order)
        set_field(self, "successors", {} if successors is None else successors)
        set_field(self, "_position", _Positions({cid: i for i, cid in enumerate(order)}))

    def __hash__(self) -> int:
        # successors is a dict, so it takes no part in the hash; == compares it.
        return hash((self.name, self.order))


class Move(FrozenRecord):
    _fields = __slots__ = ("portion", "src", "dst")

    def __init__(self, portion: str, src: str, dst: str):
        _set_move_portion(self, portion)
        _set_move_src(self, src)
        _set_move_dst(self, dst)


_set_move_portion, _set_move_src, _set_move_dst = slot_setters(Move)


class SplitPlan(FrozenRecord):
    """A branch-point intent: split the portion at commit, one child per dst."""

    _fields = __slots__ = ("portion", "src", "dsts")

    def __init__(self, portion: str, src: str, dsts: tuple[str, ...]):
        _set_split_portion(self, portion)
        _set_split_src(self, src)
        _set_split_dsts(self, dsts)


_set_split_portion, _set_split_src, _set_split_dsts = slot_setters(SplitPlan)


class MoveBatch(Record):
    """One firing's staged moves. It compares by identity: two batches with the
    same moves are still two batches."""

    _fields = ("moves", "splits", "status", "movers")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        moves: list[Move] | None = None,
        splits: list[SplitPlan] | None = None,
        status: str = "staging",
        movers: set[str] | None = None,  # every staged portion
    ):
        self.moves = [] if moves is None else moves
        self.splits = [] if splits is None else splits
        self.status = status
        self.movers = set() if movers is None else movers


class CommitRecord(Record):
    """What one commit did, kept for validation rules and tests."""

    _fields = __slots__ = ("step", "applied", "vacated", "merges", "split_parents", "trace_lines")

    def __init__(
        self,
        step: int,
        applied: list[tuple[str, str, str]],  # (portion, src, dst) incl. split children
        vacated: list[str],
        merges: list[str],  # merged result portion ids
        split_parents: list[str],
        trace_lines: list[str],
    ):
        self.step = step
        self.applied = applied
        self.vacated = vacated
        self.merges = merges
        self.split_parents = split_parents
        self.trace_lines = trace_lines


def stage_move(world, batch: MoveBatch, portion: str, src: str, dst: str) -> MoveBatch:
    """Record one move. The world is left untouched."""
    if batch.status != "staging":
        raise BatchStateError("batch already committed")
    if portion in batch.movers:
        raise DuplicateMover(f"portion {portion!r} already staged in this batch")
    # Only a live portion is placed, so the placement check covers liveness.
    p = world.portions.get(portion)
    if p is None or p.compartment != src:
        raise PortionNotPresent(f"no live portion {portion!r} in {src!r}")
    if not world.is_connected(src, dst, "fluid"):
        raise PushWithoutConnection(f"no fluid connection {src!r} -> {dst!r}")
    batch.moves.append(Move(portion, src, dst))
    batch.movers.add(portion)
    return batch


def commit(world, batch: MoveBatch, circuit: Circuit | None = None) -> CommitRecord:
    """Apply every staged move as one simultaneous update.

    Portions overfilling a compartment merge when the medium is blood_path
    and all of them are one substance; any other overfill raises
    CapacityExceeded. Every mover, split parent, merge and overfill is
    checked against the pre-commit world before the first change, so a
    commit that raises leaves the world untouched. Returns the record of
    what happened; trace lines ("pushed <X>Blood" per vacated blood
    compartment, then "trigger updates") are on the record for the caller
    to emit, so silent commits stay possible.
    """
    if batch.status != "staging":
        raise BatchStateError("batch already committed")

    # One pass checks each mover against the pre-commit world and notes where
    # it lands, what was applied and what it vacates; the world is untouched
    # until every check has passed. Until it splits, a split parent stands in
    # for each child it sends to a dst.
    portions, compartments = world.portions, world.compartments
    leaving = batch.movers
    arrivals: dict[str, list[str]] = {}
    applied: list[tuple[str, str, str]] = []
    vacated: list[str] = []
    for move in batch.moves:
        pid, src, dst = move.portion, move.src, move.dst
        p = portions.get(pid)
        if p is None or p.compartment != src:
            raise PortionNotPresent(f"portion {pid!r} left {src!r}")
        landing = arrivals.get(dst)
        if landing is None:
            arrivals[dst] = [pid]
        else:
            landing.append(pid)
        applied.append((pid, src, dst))
        vacated.append(src)
    for plan in batch.splits:
        pid, src = plan.portion, plan.src
        p = portions.get(pid)
        if p is None or p.compartment != src:
            raise PortionNotPresent(f"portion {pid!r} left {src!r}")
        for dst in plan.dsts:
            arrivals.setdefault(dst, []).append(pid)
        vacated.append(src)

    # Find every overfill. A blood compartment overfilled by one substance
    # merges its portions; any other overfill fails here, unchanged.
    merging: dict[str, list[str]] = {}  # dst -> stayers to merge with its arrivals
    for dst, arriving in arrivals.items():
        comp = compartments[dst]
        if comp.capacity is None:
            continue
        # A plain loop: it runs for every destination of every commit, and a
        # comprehension costs a function call each time.
        stayers = []
        for pid in comp.contents:
            if pid not in leaving:
                stayers.append(pid)
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
        merging[dst] = stayers

    record = CommitRecord(world.clock, applied, vacated, [], [], [])
    for plan in batch.splits:
        children = world.split_portion(plan.portion, len(plan.dsts))
        record.split_parents.append(plan.portion)
        for child, dst in zip(children, plan.dsts):
            landing = arrivals[dst]
            landing[landing.index(plan.portion)] = child.id
            applied.append((child.id, plan.src, dst))

    # Arrivals leave their sources as they are placed or merged.
    for dst, arrived in arrivals.items():
        if dst in merging:
            record.merges.append(world.merge_portions(merging[dst] + arrived, dst).id)
        else:
            for pid in arrived:
                world.place_portion(pid, dst)

    # Vacated compartments report in circuit order when one is given (the
    # sort is stable, and a batch that ring_push staged is nearly in order).
    if circuit is not None:
        vacated.sort(key=circuit._position.__getitem__)

    lines = record.trace_lines
    for cid in vacated:
        comp = compartments[cid]
        if comp.medium == "blood_path":
            lines.append(f"pushed {comp.name}Blood")
    lines.append("trigger updates")

    batch.status = "committed"
    world.last_commits.append(record)
    return record


def ring_push(world, circuit: Circuit) -> MoveBatch:
    """Stage one move per occupied compartment toward its successor(s).

    Each portion is staged with stage_move's checks in their order, made
    inline (a split checks every successor's connection first), as the
    oracle in tests/reference.py stages it portion by portion: the batch is
    new, so it is staging, and a compartment's connections are looked up
    once for all the portions it holds.
    """
    batch = MoveBatch()
    moves, splits, movers = batch.moves, batch.splits, batch.movers
    portions, compartments, connections = world.portions, world.compartments, world.connections
    successors = circuit.successors
    for cid in circuit.order:
        succ = successors.get(cid, ())
        if not succ:
            raise PushWithoutConnection(f"circuit {circuit.name!r} dead-ends at {cid!r}")
        contents = compartments[cid].contents
        if not contents:
            continue
        if len(succ) == 1:
            dst = succ[0]
            wired = (cid, dst, "fluid") in connections
        else:
            dsts = tuple(succ)
            for dst in dsts:  # checked before the portion
                if (cid, dst, "fluid") not in connections:
                    raise PushWithoutConnection(f"no fluid connection {cid!r} -> {dst!r}")
        for pid in contents:
            if pid in movers:
                raise DuplicateMover(f"portion {pid!r} already staged in this batch")
            p = portions.get(pid)
            if p is None or p.compartment != cid:
                raise PortionNotPresent(f"no live portion {pid!r} in {cid!r}")
            if len(succ) == 1:
                if not wired:
                    raise PushWithoutConnection(f"no fluid connection {cid!r} -> {dst!r}")
                moves.append(Move(pid, cid, dst))
            else:
                splits.append(SplitPlan(pid, cid, dsts))
            movers.add(pid)
    return batch
