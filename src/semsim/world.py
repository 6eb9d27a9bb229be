"""The model container: every registry plus the entity-level operations.

All mutation during a run happens inside kernel steps; the world itself is a
plain in-memory structure with no locking of its own.

The world owns where portions are: a compartment's `contents` are exactly
the live portions whose `compartment` is that compartment, in placement
order. A dead portion is in no compartment: placing one is refused, and so
is registering one that names a compartment; registering a live one places
it. Placing takes a portion out of its old compartment, retiring one takes
it out of its compartment, and the model-file loader rejects contents that
break the rule. Other modules read contents as they are and never write
`contents`, `compartment` or `alive`.

Every operation that changes what the world looks like as triples appends
one record to `changes`, in order: the Transitional it logs, a commit's
CommitRecord, or else the entity's id or the Connection added or removed.
A snapshot refresh folds and empties it (see validation.Snapshot). Code
that writes entity fields directly, as the model-file loader does while it
builds a world, is safe only before a snapshot's first (full) build.
Each mechanism in `mechanisms` carries its own saved form, its spec.

A qualitative value is its label. A property's label is on the world's
scale of that name, `scales[name]`, and an ambient property's on
`AMBIENT_SCALES[name]`; every write checks it there (define_substance,
create_portion, add_portion, add_object, set_state, set_ambient,
Microworld), as an object state's label is checked on its kind's space.
set_location and set_property skip the checks for a caller that made them
once, when it was built.

split_portion and merge_portions check their inputs, then call their
cores, _split and _merge, which a commit calls directly on the portions
it holds: it has checked each mover live, its movers are distinct and it
has checked each merge's substances. A merge's properties are planned by
_merged_properties before any change, so a commit plans every merge of
its batch first and a merge that cannot rank a property changes nothing.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from .entities import (
    SUPPORTED_SCALE_KINDS,
    FunctionAssertion,
    KindDef,
    PartSpec,
    Portion,
    SemObject,
    StateSpace,
    Substance,
    Transitional,
)
from .errors import (
    CyclicInheritanceError,
    DeadSubjectError,
    DuplicateNameError,
    MissingContextError,
    ModelError,
    StateError,
    TransitionalError,
    UnknownEntityError,
    need,
)
from .records import FrozenRecord, Record, set_field
from .topology import CONDUIT_KINDS, MEDIA, Circuit, Compartment, Connection

AMBIENT_PROPERTIES = ("temperature", "pressure", "humidity", "gravity")

AMBIENT_SCALES = {
    "temperature": StateSpace(
        "temperature", ("below_freezing", "cold", "standard", "warm", "hot"), "ordinal"
    ),
    "pressure": StateSpace("pressure", ("low", "standard", "high"), "ordinal"),
    "humidity": StateSpace("humidity", ("dry", "standard", "humid"), "ordinal"),
    "gravity": StateSpace("gravity", ("none", "low", "standard", "high"), "ordinal"),
}


def stp_ambient() -> dict[str, str]:
    """Standard temperature and pressure: every ambient property at 'standard'."""
    return dict.fromkeys(AMBIENT_PROPERTIES, "standard")


class Microworld(Record):
    """Ambient properties of the idealized world frame, each a label on its
    AMBIENT_SCALES scale; defaults at STP."""

    _fields = ("ambient",)

    def __init__(self, ambient: dict[str, str] | None = None):
        if ambient is None:
            ambient = stp_ambient()
        missing = [k for k in AMBIENT_PROPERTIES if k not in ambient]
        if missing:
            raise ModelError(f"microworld missing ambient properties {missing}")
        for prop, label in ambient.items():
            need(AMBIENT_SCALES, prop, "ambient property").index(label)
        self.ambient = ambient


ANNOTATION_KINDS = (
    "simplification",
    "idealization",
    "continuous_approximation",
    "cross_granular",
    "stochastic_approximation",
    "typical_example",
    "user_comment",
)


class Annotation(FrozenRecord):
    """How the model knowingly departs from reality, pinned to an element."""

    _fields = ("kind", "target", "note")

    def __init__(self, kind: str, target: str, note: str):
        if kind not in ANNOTATION_KINDS:
            raise ModelError(f"unknown annotation kind {kind!r}")
        set_field(self, "kind", kind)
        set_field(self, "target", target)
        set_field(self, "note", note)


class System(FrozenRecord):
    """A complex object made of interacting mechanisms."""

    _fields = ("name", "members", "feedback")

    def __init__(self, name: str, members: tuple[str, ...], feedback: bool = False):
        set_field(self, "name", name)
        set_field(self, "members", members)
        set_field(self, "feedback", feedback)


class Vocabulary(FrozenRecord):
    """The closed set of trace lines a model may emit.

    Frozen, so the literal table and the compiled patterns built at
    construction always match `literals` and `patterns`; a model changes its
    vocabulary by replacing it.
    """

    _fields = ("literals", "patterns")

    def __init__(self, literals: frozenset[str] = frozenset(), patterns: tuple[str, ...] = ()):
        literals = frozenset(literals)
        set_field(self, "literals", literals)
        set_field(self, "patterns", patterns)
        # Derived, so they take no part in repr, ==, hash, copy or pickle. A
        # malformed pattern raises re.error here, not at its first use.
        set_field(self, "_literal_table", {line: line for line in literals})
        set_field(self, "_compiled", tuple(re.compile(pat) for pat in patterns))

    def canonical(self, line: str) -> str | None:
        """The vocabulary's own string for a declared literal, the line itself
        when a pattern matches it, None when the line is not allowed.

        A long trace then holds one string object per literal, however many
        times it was emitted.
        """
        literal = self._literal_table.get(line)
        if literal is not None:
            return literal
        for pattern in self._compiled:
            if pattern.fullmatch(line):
                return line
        return None

    def allows(self, line: str) -> bool:
        return self.canonical(line) is not None


class World:
    """Registries for one model plus the operations that mutate them."""

    def __init__(self, name: str):
        # CPython 3.11 keeps up to 29 instance attributes inline, where every
        # read of one is fastest; a 30th slowed cardio_off_long by about 2%.
        # Add an attribute only in place of another.
        self.name = name
        self.kinds: dict[str, KindDef] = {}
        self.substances: dict[str, Substance] = {}
        self.scales: dict[str, StateSpace] = {}
        self.objects: dict[str, SemObject] = {}
        self.portions: dict[str, Portion] = {}  # every portion ever made
        self.live_registry: dict[str, Portion] = {}  # the live ones, in birth order
        self.compartments: dict[str, Compartment] = {}
        self.connections: dict[tuple[str, str, str], Connection] = {}
        self.circuits: dict[str, Circuit] = {}
        self.mechanisms: dict = {}  # name -> Mechanism (engine module)
        self.triggers: dict = {}  # name -> Trigger
        self.systems: dict[str, System] = {}
        self.scenarios: list[str] = []  # the applied scenarios' names, in order
        self.frames: dict = {}
        self.lexicon: dict = {}
        self.bindings: list = []
        self.microworld = Microworld()
        self.annotations: list[Annotation] = []
        self.assertions: list[FunctionAssertion] = []
        self.transitional_log: list[Transitional] = []
        self.vocabulary = Vocabulary()
        self.clock = 0  # the tick the next kernel step runs
        self.signals: list = []  # Signals in transit (engine module), delivered next step
        self._counters: dict[str, int] = {}
        self.changes: list = []  # this step's write records; see the module docstring

    # ------------------------------------------------------------------
    # identifiers

    def next_id(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        candidate = f"{prefix}-{n}"
        objects, portions, substances = self.objects, self.portions, self.substances
        # has_entity, inline: explicit ids may have claimed slots.
        while candidate in objects or candidate in portions or candidate in substances:
            n += 1
            candidate = f"{prefix}-{n}"
        self._counters[prefix] = n + 1
        return candidate

    def entity(self, entity_id: str):
        """Resolve an id to an object, portion, or substance."""
        for registry in (self.objects, self.portions, self.substances):
            if entity_id in registry:
                return registry[entity_id]
        raise UnknownEntityError(f"no entity {entity_id!r}")

    def has_entity(self, entity_id: str) -> bool:
        return (
            entity_id in self.objects
            or entity_id in self.portions
            or entity_id in self.substances
        )

    # ------------------------------------------------------------------
    # scales and substances

    def define_scale(self, space: StateSpace) -> StateSpace:
        if space.scale_kind not in SUPPORTED_SCALE_KINDS:
            raise ModelError(
                f"scale kind {space.scale_kind!r} is declared but not supported; "
                f"use one of {SUPPORTED_SCALE_KINDS}"
            )
        if space.variable in self.scales:
            raise DuplicateNameError(f"scale {space.variable!r} already defined")
        self.scales[space.variable] = space
        return space

    def define_substance(
        self,
        name: str,
        phases: tuple[str, ...] = ("solid", "liquid", "gas"),
        phase: str = "liquid",
        default_properties: dict[str, str] | None = None,
        merge_policy: dict[str, str] | None = None,
    ) -> Substance:
        if name in self.substances:
            raise DuplicateNameError(f"substance {name!r} already defined")
        for key, label in (default_properties or {}).items():
            self._property_scale(key).index(label)
        space = StateSpace("phase", tuple(phases), "nominal")
        sub = Substance(name, space, phase, default_properties or {}, merge_policy or {})
        self.substances[name] = sub
        self.changes.append(name)
        return sub

    # ------------------------------------------------------------------
    # kinds

    def define_kind(
        self,
        name: str,
        parent: str | None = None,
        state_spaces: tuple[StateSpace, ...] = (),
        part_schema: tuple[PartSpec, ...] = (),
        granularity: str = "object",
        substance: str | None = None,
    ) -> KindDef:
        if name in self.kinds:
            raise DuplicateNameError(f"kind {name!r} already defined")
        if parent is not None:
            if parent == name:
                raise CyclicInheritanceError(f"kind {name!r} cannot be its own parent")
            if parent not in self.kinds:
                raise UnknownEntityError(f"parent kind {parent!r} not defined")
        for space in state_spaces:
            if space.scale_kind not in SUPPORTED_SCALE_KINDS:
                raise ModelError(
                    f"kind {name!r} uses unsupported scale kind {space.scale_kind!r}"
                )
        for spec in part_schema:
            if spec.part_kind not in self.kinds and spec.part_kind != name:
                raise UnknownEntityError(
                    f"part kind {spec.part_kind!r} of role {spec.role_name!r} not defined"
                )
        if substance is not None and substance not in self.substances:
            raise UnknownEntityError(f"substance {substance!r} not defined")
        kind = KindDef(name, parent, tuple(state_spaces), tuple(part_schema), granularity, substance)
        self.kinds[name] = kind
        # A kind is fixed once defined, and its parent was defined before it,
        # so every chain of parents ends: inheritance cannot cycle.
        if parent is None:
            spaces, parts, inherited_substance = {}, {}, None
        else:
            base = self.kinds[parent]
            spaces, parts = base._effective_spaces, base._effective_parts
            inherited_substance = base._effective_substance
        kind._effective_spaces = {**spaces, **{s.variable: s for s in kind.state_spaces}}
        kind._effective_parts = {**parts, **{p.role_name: p for p in kind.part_schema}}
        kind._effective_substance = substance if substance is not None else inherited_substance
        return kind

    def effective_state_spaces(self, kind_name: str) -> Mapping[str, StateSpace]:
        """The kind's state spaces by variable, a child's over its ancestors':
        a read-only view of what define_kind derived once."""
        return MappingProxyType(need(self.kinds, kind_name, "kind")._effective_spaces)

    def effective_part_schema(self, kind_name: str) -> Mapping[str, PartSpec]:
        """The kind's part specs by role name, a child's over its ancestors':
        a read-only view of what define_kind derived once."""
        return MappingProxyType(need(self.kinds, kind_name, "kind")._effective_parts)

    def effective_substance(self, kind_name: str) -> str | None:
        """The substance of the nearest kind in the ancestry that names one,
        as define_kind derived it once."""
        return need(self.kinds, kind_name, "kind")._effective_substance

    # ------------------------------------------------------------------
    # instantiation

    def instantiate(self, kind_name: str, entity_id: str | None = None, _stack=()):
        """Create an instance: states at their first labels, parts at minimum counts.

        Kinds tied to a substance instantiate as Portions at (0, 0) with the
        first location label; everything else becomes a SemObject.
        """
        kind = need(self.kinds, kind_name, "kind")
        substance = kind._effective_substance
        if substance is not None:
            return self._instantiate_portion(kind, substance, entity_id)

        if kind_name in _stack:
            raise ModelError(
                f"part schema recursion: {kind_name!r} contains itself with minimum > 0"
            )
        obj_id = self._new_id(entity_id, kind_name)
        states = {var: space.first for var, space in kind._effective_spaces.items()}
        obj = SemObject(obj_id, kind_name, [], states, {})
        self.objects[obj_id] = obj
        for role, spec in self.effective_part_schema(kind_name).items():
            for _ in range(spec.minimum):
                child = self.instantiate(spec.part_kind, _stack=_stack + (kind_name,))
                obj.parts.append((role, child.id))
        self._log(Transitional("birth", (obj_id,), (kind_name,), self.clock))
        return obj

    def _new_id(self, entity_id: str | None, prefix: str) -> str:
        """entity_id when it is free, or a fresh id minted under prefix when
        it is not given; a minted id is free by construction."""
        if not entity_id:
            return self.next_id(prefix)
        if self.has_entity(entity_id):
            raise DuplicateNameError(f"entity id {entity_id!r} already in use")
        return entity_id

    def _instantiate_portion(self, kind: KindDef, substance_name, entity_id):
        sub = self.substances[substance_name]
        pid = self._new_id(entity_id, substance_name)
        location = kind._effective_spaces.get("Location")
        portion = Portion(
            pid,
            substance_name,
            kind=kind.name,
            properties=dict(sub.default_properties),
            x=0,
            y=0,
            location_state="null" if location is None else location.first,
        )
        # add_portion, for a portion known to be live, new and unplaced; the
        # birth record names it, as a split's or a merge's names its results.
        self.portions[pid] = self.live_registry[pid] = portion
        self._log(Transitional("birth", (pid,), (kind.name,), self.clock))
        return portion

    def create_portion(
        self,
        substance_name: str,
        entity_id: str | None = None,
        compartment: str | None = None,
        properties: dict[str, str] | None = None,
    ) -> Portion:
        """Create a portion directly (no kind), optionally placed in a compartment."""
        sub = need(self.substances, substance_name, "substance")
        properties = properties or {}
        for key, label in properties.items():
            self._property_scale(key).index(label)
        if compartment is not None:
            need(self.compartments, compartment, "compartment")
        pid = self._new_id(entity_id, substance_name)
        portion = Portion(pid, substance_name, properties={**sub.default_properties, **properties})
        # add_portion and place_portion, for a portion known to be live and
        # new; the birth record names it.
        self.portions[pid] = self.live_registry[pid] = portion
        if compartment is not None:
            self._place(pid, compartment)
        self._log(Transitional("birth", (pid,), (substance_name,), self.clock))
        return portion

    def add_portion(self, portion: Portion) -> Portion:
        """Register a built portion; the live registry holds it while it lives,
        and the compartment it names, if any, lists it last in its contents.

        Refused before anything changes: an id any registry uses, an unknown
        substance, a property label off its world scale, a live portion
        without one of its substance's default properties (mechanisms read
        them), and a dead portion that names a compartment (a dead portion is
        in no compartment).
        """
        if self.has_entity(portion.id):
            raise DuplicateNameError(f"duplicate portion id {portion.id!r}")
        defaults = need(self.substances, portion.substance, "substance").default_properties
        properties = portion.properties
        for key, label in properties.items():
            self._property_scale(key).index(label)
        missing = [key for key in defaults if key not in properties]
        if portion.alive and missing:
            raise ModelError(f"portion {portion.id!r} lacks its substance's properties {missing}")
        where = portion.compartment
        if where is not None:
            if not portion.alive:
                raise DeadSubjectError(f"dead portion {portion.id!r} cannot be placed in {where!r}")
            contents = need(self.compartments, where, "compartment").contents
        self.portions[portion.id] = portion
        if portion.alive:
            self.live_registry[portion.id] = portion
            if where is not None:
                contents.append(portion.id)
            self.changes.append(portion.id)
        return portion

    def add_object(self, obj: SemObject) -> SemObject:
        """Register a built object.

        Refused before anything changes: an id any registry uses, an unknown
        kind, a state its kind does not declare or whose label is off the
        kind's space, a state its kind declares that it lacks (rules and
        guards read them), and a property label off its world scale.
        """
        if self.has_entity(obj.id):
            raise DuplicateNameError(f"duplicate object id {obj.id!r}")
        kind = self.kinds.get(obj.kind)
        if kind is None:
            raise UnknownEntityError(f"unknown kind {obj.kind!r}")
        spaces = kind._effective_spaces
        for variable, label in obj.states.items():
            space = spaces.get(variable)
            if space is None:
                raise StateError(f"variable {variable!r} not declared for kind {obj.kind!r}")
            space.index(label)
        missing = [variable for variable in spaces if variable not in obj.states]
        if missing:
            raise StateError(f"object {obj.id!r} lacks its kind's states {missing}")
        for key, label in obj.properties.items():
            self._property_scale(key).index(label)
        self.objects[obj.id] = obj
        self.changes.append(obj.id)
        return obj

    def _retire_portion(self, portion: Portion):
        portion.alive = False
        del self.live_registry[portion.id]
        if portion.compartment is not None:
            self.compartments[portion.compartment].contents.remove(portion.id)
            portion.compartment = None

    def _log(self, t: Transitional) -> Transitional:
        """Record a transitional in the run's log and in this step's changes."""
        self.transitional_log.append(t)
        self.changes.append(t)
        return t

    def _property_scale(self, prop: str) -> StateSpace:
        if prop not in self.scales:
            raise StateError(f"property {prop!r} has no scale")
        return self.scales[prop]

    # ------------------------------------------------------------------
    # state changes

    def set_state(self, entity_id: str, variable: str, label: str) -> Transitional:
        """Move one state variable, or a property of a portion or an object,
        to a new label, recording the transitional."""
        ent, slots = self.check_state(entity_id, variable, label)
        if slots is not None:
            slots[variable] = label
        elif isinstance(ent, Substance):
            ent.phase = label
        else:
            ent.location_state = label
        return self._state_changed(entity_id, variable, label)

    def check_state(self, entity_id: str, variable: str, label: str):
        """(entity, slots): what set_state(entity_id, variable, label) writes,
        the entity and the dict that takes the label (None for a substance's
        phase or a portion's Location), after every check set_state makes.
        Writes nothing."""
        # self.entity(entity_id), one lookup per registry.
        ent = self.objects.get(entity_id)
        if ent is None:
            ent = self.portions.get(entity_id)
            if ent is None:
                ent = self.substances.get(entity_id)
                if ent is None:
                    raise UnknownEntityError(f"no entity {entity_id!r}")
        if isinstance(ent, Substance):
            if variable not in ("phase", "Phase"):
                raise StateError(f"substances only have a phase, not {variable!r}")
            ent.phase_space.index(label)
            return ent, None
        if isinstance(ent, Portion):
            if not ent.alive:
                raise DeadSubjectError(f"portion {entity_id!r} is dead")
            properties = ent.properties
            if variable == "Location":
                if ent.kind is not None:
                    spaces = need(self.kinds, ent.kind, "kind")._effective_spaces
                    location = spaces.get("Location")
                    if location is not None:
                        location.index(label)
                return ent, None
            if variable in properties:
                self.scales[variable].index(label)
                return ent, properties
            raise StateError(
                f"portion {ent.id!r} has no property or location variable {variable!r}"
            )
        if not ent.alive:
            raise DeadSubjectError(f"object {entity_id!r} is dead")
        space = need(self.kinds, ent.kind, "kind")._effective_spaces.get(variable)
        if space is not None:
            space.index(label)
            return ent, ent.states
        if variable in ent.properties:
            self.scales[variable].index(label)
            return ent, ent.properties
        raise StateError(f"variable {variable!r} not declared for kind {ent.kind!r}")

    def set_location(self, portion: Portion, label: str) -> Transitional:
        """set_state(portion.id, "Location", label) for a caller that holds
        the portion, knows it is live and has checked the label against its
        kind's Location space, as a path flow does when it is built."""
        portion.location_state = label
        return self._state_changed(portion.id, "Location", label)

    def set_property(self, portion: Portion, prop: str, label: str) -> Transitional:
        """set_state(portion.id, prop, label) for a caller that holds the
        portion, knows it is live and carries prop, which is not "Location",
        and has checked the label on scales[prop], as a set_occupant effect
        does when it is compiled."""
        portion.properties[prop] = label
        return self._state_changed(portion.id, prop, label)

    def _state_changed(self, entity_id: str, variable: str, label: str) -> Transitional:
        """Record one state change: the record tail of every state write."""
        t = Transitional("state_change", (entity_id,), ((variable, label),), self.clock)
        self.transitional_log.append(t)  # _log, inline: the commonest write
        self.changes.append(t)
        return t

    # ------------------------------------------------------------------
    # transitionals

    def kill(self, entity_id: str) -> Transitional:
        """Log the death of an object or a portion; a substance is not a subject that dies."""
        ent = self.entity(entity_id)
        if isinstance(ent, Substance):
            raise TransitionalError(
                f"cannot kill substance {entity_id!r}: only objects and portions die"
            )
        if not ent.alive:
            raise DeadSubjectError(f"subject {entity_id!r} is already dead")
        if isinstance(ent, Portion):
            self._retire_portion(ent)
        else:
            ent.alive = False
        return self._log(Transitional("death", (entity_id,), (), self.clock))

    def split_portion(self, portion_id: str, n_children: int) -> list[Portion]:
        """Retire the portion; children copy its properties, provenance links back."""
        if n_children < 2:
            raise TransitionalError("split needs at least two results")
        parent = need(self.portions, portion_id, "portion")
        if not parent.alive:
            raise DeadSubjectError(f"portion {portion_id!r} is dead")
        return self._split(parent, n_children)

    def _split(self, parent: Portion, n_children: int) -> list[Portion]:
        """split_portion for a caller that holds the parent, knows it is live
        and asks for two or more children, as a commit does."""
        substance, where = parent.substance, parent.compartment
        contents = None if where is None else self.compartments[where].contents
        portions, live = self.portions, self.live_registry
        children, child_ids = [], []
        for _ in range(n_children):
            cid = self.next_id(substance)
            child = Portion(
                cid, substance, parent.kind, dict(parent.properties), parent.x, parent.y,
                where, parent.location_state, (parent.id,),
            )
            # add_portion, for a portion known to be live and new
            portions[cid] = live[cid] = child
            if contents is not None:
                contents.append(cid)
            children.append(child)
            child_ids.append(cid)
        self._retire_portion(parent)
        self._log(Transitional("split", (parent.id,), tuple(child_ids), self.clock))
        return children

    def merge_portions(self, portion_ids, destination: str | None = None) -> Portion:
        """Retire the inputs and create one result, whose properties are
        _merged_properties(parents)."""
        ids = tuple(portion_ids)
        if len(ids) < 2:
            raise TransitionalError("merge needs at least two subjects")
        if len(set(ids)) != len(ids):
            repeated = sorted({pid for pid in ids if ids.count(pid) > 1})
            raise TransitionalError(f"merge lists {repeated} more than once")
        portions = self.portions
        parents = []
        for pid in ids:
            p = need(portions, pid, "portion")
            if not p.alive:
                raise DeadSubjectError(f"portion {pid!r} is dead")
            parents.append(p)
        substance = parents[0].substance
        for p in parents:
            if p.substance != substance:
                raise TransitionalError("cannot merge portions of different substances")
        return self._merge(parents, self._merged_properties(parents), destination)

    def _merged_properties(self, parents) -> dict[str, str]:
        """The properties a merge of these parents (one substance) takes.

        Each property follows the substance's merge policy, in the order
        the parents first carry them, over the parents that carry it:
        min/max by rank on its scale, a tie keeping the earlier parent's
        label, or the first carrier's label for "first" or any other rule.
        Raises StateError for min/max on an unordered scale. Writes nothing.
        """
        policy = self.substances[parents[0].substance].merge_policy
        merged: dict[str, str] = {}
        for p in parents:
            for key, label in p.properties.items():
                if key in merged:
                    continue
                rule = policy.get(key)
                if rule == "min" or rule == "max":
                    # One pass over the parents; p is the first carrier.
                    scale = self.scales[key]
                    if not scale.ordered:
                        raise StateError(
                            f"scale {scale.variable!r} is {scale.scale_kind}; "
                            "ordinal comparison undefined"
                        )
                    ranks, highest = scale._ranks, rule == "max"
                    best = ranks[label]
                    for q in parents:
                        other = q.properties.get(key)
                        if other is not None:
                            rank = ranks[other]
                            if rank > best if highest else rank < best:
                                label, best = other, rank
                merged[key] = label
        return merged

    def _merge(self, parents: list[Portion], properties: dict[str, str],
               destination: str | None) -> Portion:
        """merge_portions for a caller that holds two or more distinct live
        parents of one substance and their _merged_properties, as a commit
        does: retire them and create the result."""
        first = parents[0]
        substance = first.substance
        ids = tuple([p.id for p in parents])
        rid = self.next_id(substance)
        result = Portion(
            rid, substance, first.kind, properties, first.x, first.y,
            None, first.location_state, ids,
        )
        # add_portion, for a portion known to be live and new
        self.portions[rid] = self.live_registry[rid] = result
        for p in parents:
            self._retire_portion(p)
        if destination is not None:
            self._place(rid, destination)
        self._log(Transitional("merge", ids, (rid,), self.clock))
        return result

    # ------------------------------------------------------------------
    # parts and cardinality

    def add_part(self, parent_id: str, role: str, child_id: str):
        obj = self.objects[parent_id]
        self.entity(child_id)
        obj.parts.append((role, child_id))
        self.changes.append(parent_id)

    def remove_part(self, parent_id: str, role: str, child_id: str):
        self.objects[parent_id].parts.remove((role, child_id))
        self.changes.append(parent_id)

    def check_cardinality(self, object_id: str) -> list[tuple[str, int, frozenset[int]]]:
        """Report (role, actual count, allowed set) for every violated role."""
        obj = need(self.objects, object_id, "object")
        violations = []
        for role, spec in self.effective_part_schema(obj.kind).items():
            count = len(obj.parts_in_role(role))
            if count not in spec.cardinality:
                violations.append((role, count, spec.cardinality))
        return violations

    # ------------------------------------------------------------------
    # functions in context

    def assert_function(self, subject: str, label: str, context: str | None) -> FunctionAssertion:
        if not self.has_entity(subject) and subject not in self.compartments:
            raise UnknownEntityError(f"no subject {subject!r}")
        valid_context = context is not None and (
            context in self.mechanisms
            or context in self.systems
            or context in self.scenarios
        )
        if not valid_context:
            raise MissingContextError(
                f"function {label!r} needs a mechanism, system, or scenario context; "
                f"got {context!r}"
            )
        fa = FunctionAssertion(subject, label, context)
        self.assertions.append(fa)
        return fa

    # ------------------------------------------------------------------
    # topology registry

    def add_compartment(
        self,
        name: str,
        medium: str = "other",
        capacity: int | None = 1,
        structure: str | None = None,
        region: str | None = None,
    ) -> Compartment:
        if name in self.compartments:
            raise DuplicateNameError(f"compartment {name!r} already defined")
        if medium not in MEDIA:
            raise ModelError(f"medium must be one of {MEDIA}")
        # type() rather than isinstance(): bool is an int subclass.
        if capacity is not None and (type(capacity) is not int or capacity < 1):
            raise ModelError(f"capacity must be an int >= 1, or None for unbounded, not {capacity!r}")
        comp = Compartment(name, name, medium, capacity, structure, region)
        self.compartments[name] = comp
        return comp

    def connect(self, from_id: str, to_id: str, conduit_kind: str = "fluid") -> Connection:
        for cid in (from_id, to_id):
            need(self.compartments, cid, "compartment")
        if conduit_kind not in CONDUIT_KINDS:
            raise ModelError(f"conduit kind must be one of {CONDUIT_KINDS}")
        conn = Connection(from_id, to_id, conduit_kind)
        if conn.key in self.connections:
            raise DuplicateNameError(f"connection {conn.key} already exists")
        self.connections[conn.key] = conn
        self.changes.append(conn)
        return conn

    def is_connected(self, from_id: str, to_id: str, conduit_kind: str = "fluid") -> bool:
        return (from_id, to_id, conduit_kind) in self.connections

    def remove_connection(self, from_id: str, to_id: str, conduit_kind: str = "fluid"):
        key = (from_id, to_id, conduit_kind)
        need(self.connections, key, "connection")
        self.changes.append(self.connections.pop(key))

    def define_circuit(self, name: str, order, successors) -> Circuit:
        if name in self.circuits:
            raise DuplicateNameError(f"circuit {name!r} already defined")
        circuit = Circuit(name, tuple(order), {k: tuple(v) for k, v in successors.items()})
        for cid in circuit.order:
            need(self.compartments, cid, "compartment")
        if len(set(circuit.order)) != len(circuit.order):
            repeated = sorted({cid for cid in circuit.order if circuit.order.count(cid) > 1})
            raise ModelError(f"circuit {name!r} lists {repeated} more than once")
        for src, dsts in circuit.successors.items():
            for dst in dsts:
                if not self.is_connected(src, dst, "fluid"):
                    raise ModelError(
                        f"circuit {name!r} references missing connection {src!r} -> {dst!r}"
                    )
        self.circuits[name] = circuit
        return circuit

    def place_portion(self, portion_id: str, compartment_id: str):
        """Put a live portion in a compartment, taking it out of its old one."""
        self._place(portion_id, compartment_id)
        self.changes.append(portion_id)

    def _place(self, portion_id: str, compartment_id: str):
        """place_portion for a caller whose merge or commit record names the portion."""
        portion = self.portions[portion_id]
        comp = self.compartments[compartment_id]
        if not portion.alive:
            raise DeadSubjectError(f"portion {portion_id!r} is dead")
        if portion.compartment is not None:
            self.compartments[portion.compartment].contents.remove(portion_id)
        comp.contents.append(portion_id)
        portion.compartment = compartment_id
        portion.location_state = comp.name

    def occupant(self, compartment_id: str) -> Portion | None:
        """The first portion placed in a compartment, or None."""
        contents = self.compartments[compartment_id].contents
        return self.portions[contents[0]] if contents else None

    def live_portions(self, substance: str | None = None) -> list[Portion]:
        return [
            p
            for p in self.live_registry.values()
            if substance is None or p.substance == substance
        ]

    # ------------------------------------------------------------------
    # microworld, annotations, systems

    def set_ambient(self, prop: str, label: str) -> Microworld:
        need(AMBIENT_SCALES, prop, "ambient property").index(label)
        self.microworld.ambient[prop] = label
        return self.microworld

    def ambient(self, prop: str) -> str:
        if prop not in AMBIENT_PROPERTIES:
            raise ModelError(f"unknown ambient property {prop!r}")
        return self.microworld.ambient[prop]

    def _element_exists(self, target: str) -> bool:
        return (
            self.has_entity(target)
            or target in self.compartments
            or target in self.kinds
            or target in self.mechanisms
            or target in self.systems
            or target in self.circuits
            or target == self.name
        )

    def annotate(self, target: str, kind: str, note: str) -> Annotation:
        if not self._element_exists(target):
            raise UnknownEntityError(f"annotation target {target!r} does not exist")
        ann = Annotation(kind, target, note)
        self.annotations.append(ann)
        return ann

    def list_annotations(self, target: str | None = None, kind: str | None = None):
        return [
            a
            for a in self.annotations
            if (target is None or a.target == target) and (kind is None or a.kind == kind)
        ]

    def define_system(self, name: str, members, feedback: bool = False) -> System:
        if name in self.systems:
            raise DuplicateNameError(f"system {name!r} already defined")
        for m in members:
            if m not in self.mechanisms:
                raise UnknownEntityError(f"system member {m!r} is not a mechanism")
        system = System(name, tuple(members), feedback)
        self.systems[name] = system
        return system
