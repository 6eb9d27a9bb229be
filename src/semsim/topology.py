"""Compartment graph and one-pass portion movement.

A commit moves portions as one simultaneous update: every mover is checked
against the pre-commit world before anything changes, and then all of them
move at once, so a portion can arrive in a compartment that the same commit
vacates. ring_push (one hop around a circuit) and move (one portion) check
each mover in the pass that collects it and hand commit plain tuples;
commit checks capacity and plans each merge, its properties included, then
applies. A commit that raises leaves the world unchanged. The checks are
made once: commit splits and merges through World._split and World._merge,
the cores of split_portion and merge_portions, which trust them. Movement
emits no trace: a mechanism that moves portions narrates its own moves
(frames' circuit flow, cardio's breath).
"""
from __future__ import annotations

from .errors import CapacityExceeded, DuplicateMover, PortionNotPresent, PushWithoutConnection
from .records import FrozenRecord, Record, set_field

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


class Circuit(FrozenRecord):
    """A declared ordered ring over compartments, with branch/merge points."""

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

    def __hash__(self) -> int:
        # successors is a dict, so it takes no part in the hash; == compares it.
        return hash((self.name, self.order))


class CommitRecord(Record):
    """A commit's entry in the world's change list: the moves it applied. Its
    splits and merges are the Transitionals just before it in the list."""

    _fields = __slots__ = ("applied",)

    def __init__(self, applied: list[tuple[str, str, str]]):
        self.applied = applied  # (portion, src, dst), split children included


def commit(
    world,
    moves: list[tuple[str, str, str]],
    splits: list[tuple[str, str, tuple[str, ...]]],
    movers: set[str],
) -> CommitRecord:
    """Apply checked moves and splits as one simultaneous update.

    moves holds (portion, src, dst) and splits (portion, src, dsts), one
    child per dst and two or more dsts; the caller has checked each portion
    live in its src and connected to each dst. movers is every portion in
    either. moves becomes the record's applied list, split children
    appended.

    Portions overfilling a compartment merge when the medium is blood_path
    and all of them are one substance; any other overfill raises
    CapacityExceeded, and a merge whose properties cannot be ranked raises
    StateError. Every overfill and every merge's properties are checked
    before the first change, so a commit that raises leaves the world
    unchanged. The splits and merges then go to the world's cores, which
    trust these checks. Returns the record of the moves applied, which is
    also appended to world.changes.
    """
    # Where each mover lands: every move's destination first, then each
    # split's. Until it splits, a split parent stands in for each child.
    portions, compartments = world.portions, world.compartments
    arrivals: dict[str, list[str]] = {}
    for pid, _src, dst in moves:
        landing = arrivals.get(dst)
        if landing is None:
            arrivals[dst] = [pid]
        else:
            landing.append(pid)
    for pid, _src, dsts in splits:
        for dst in dsts:
            arrivals.setdefault(dst, []).append(pid)

    # Find every overfill. A blood compartment overfilled by one substance
    # merges its portions, with the properties planned here (a split
    # parent's are its children's); any other overfill fails here, unchanged.
    merging: dict[str, tuple[list[str], dict[str, str]]] = {}  # dst -> (stayers, properties)
    for dst, arriving in arrivals.items():
        comp = compartments[dst]
        if comp.capacity is None:
            continue
        # A plain loop: it runs for every destination of every commit, and a
        # comprehension costs a function call each time.
        stayers = []
        for pid in comp.contents:
            if pid not in movers:
                stayers.append(pid)
        occupancy = len(stayers) + len(arriving)
        if occupancy <= comp.capacity:
            continue
        if comp.medium != "blood_path":
            raise CapacityExceeded(
                f"{occupancy} portions for {dst!r} (capacity {comp.capacity}, "
                f"merging disallowed for {comp.medium})"
            )
        parents = [portions[pid] for pid in stayers + arriving]
        substances = {p.substance for p in parents}
        if len(substances) > 1:
            raise CapacityExceeded(
                f"{occupancy} portions for {dst!r} (capacity {comp.capacity}, "
                f"cannot merge substances {sorted(substances)})"
            )
        merging[dst] = (stayers, world._merged_properties(parents))

    for pid, src, dsts in splits:
        children = world._split(portions[pid], len(dsts))
        for child, dst in zip(children, dsts):
            landing = arrivals[dst]
            landing[landing.index(pid)] = child.id
            moves.append((child.id, src, dst))

    # Arrivals leave their sources as they are placed (the record names
    # them) or merged.
    for dst, arrived in arrivals.items():
        plan = merging.get(dst)
        if plan is None:
            for pid in arrived:
                world._place(pid, dst)
        else:
            stayers, properties = plan
            world._merge([portions[pid] for pid in stayers + arrived], properties, dst)

    record = CommitRecord(moves)
    world.changes.append(record)
    return record


def move(world, portion: str, src: str, dst: str) -> CommitRecord:
    """Move one portion from src to dst as one commit."""
    # Only a live portion is placed, so the placement check covers liveness.
    p = world.portions.get(portion)
    if p is None or p.compartment != src:
        raise PortionNotPresent(f"no live portion {portion!r} in {src!r}")
    if not world.is_connected(src, dst, "fluid"):
        raise PushWithoutConnection(f"no fluid connection {src!r} -> {dst!r}")
    return commit(world, [(portion, src, dst)], [], {portion})


def ring_push(world, circuit: Circuit) -> CommitRecord:
    """Move every portion on the circuit one hop, as one commit.

    Each occupied compartment sends its portions to its successor, or
    splits each among its successors. The checks run in circuit order as
    each portion is collected: a compartment must have a successor, a split
    checks every successor's connection before its portions, and each
    portion must be live in the compartment that lists it and not already
    collected (a compartment the order repeats). The first that fails
    raises with the world unchanged.
    """
    moves: list[tuple[str, str, str]] = []
    splits: list[tuple[str, str, tuple[str, ...]]] = []
    movers: set[str] = set()
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
                moves.append((pid, cid, dst))
            else:
                splits.append((pid, cid, dsts))
            movers.add(pid)
    return commit(world, moves, splits, movers)
