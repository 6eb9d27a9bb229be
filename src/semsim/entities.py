"""Entity vocabulary: kinds, objects, substances, portions, and transitionals.

Everything here is qualitative: a value is a label on a nominal, binary, or
ordinal scale, never a number with units. The label is the value: an
object's states hold labels of its kind's spaces, a substance's phase a
label of its phase space, and the properties of objects, substances and
portions labels of the world's scale of the same name (World.scales), which
the world checks each one against when it is written. Portions are the one
exception in spirit; they may carry model-local (x, y) coordinates so path
models can move them in discrete units.
"""
from __future__ import annotations

from .errors import StateError, TransitionalError
from .records import FrozenRecord, Record, set_field

SCALE_KINDS = ("nominal", "binary", "ordinal", "interval", "ratio")
#: Scale kinds models may actually use; interval/ratio are declared in the
#: enum but rejected when a model registers a scale.
SUPPORTED_SCALE_KINDS = ("nominal", "binary", "ordinal")

PART_ROLES = ("functional", "structural")

TRANSITIONAL_KINDS = ("state_change", "birth", "death", "split", "merge")


class StateSpace(FrozenRecord):
    """A named qualitative variable and its ordered set of labels.

    Its label -> rank table is derived here, so it takes no part in repr,
    ==, hash, copy or pickle.
    """

    _fields = ("variable", "labels", "scale_kind")

    def __init__(self, variable: str, labels: tuple[str, ...], scale_kind: str = "nominal"):
        if len(set(labels)) != len(labels):
            raise StateError(f"state space {variable!r} has repeated labels")
        if scale_kind not in SCALE_KINDS:
            raise StateError(f"unknown scale kind {scale_kind!r}")
        if scale_kind == "binary" and len(labels) != 2:
            raise StateError(
                f"binary space {variable!r} must have exactly two labels"
            )
        set_field(self, "variable", variable)
        set_field(self, "labels", labels)
        set_field(self, "scale_kind", scale_kind)
        set_field(self, "_ranks", {label: i for i, label in enumerate(labels)})

    @property
    def first(self) -> str:
        return self.labels[0]

    def index(self, label: str) -> int:
        try:
            return self._ranks[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise StateError(
                f"label {label!r} is outside the {self.variable!r} space {list(self.labels)}"
            ) from None

    @property
    def ordered(self) -> bool:
        return self.scale_kind in ("binary", "ordinal")


class PartSpec(FrozenRecord):
    """One role in a kind's part schema; cardinality is a finite allowed set."""

    _fields = ("role_name", "part_kind", "part_role", "cardinality")

    def __init__(
        self,
        role_name: str,
        part_kind: str,
        part_role: str = "functional",
        cardinality: frozenset[int] = frozenset({1}),
    ):
        if part_role not in PART_ROLES:
            raise StateError(f"part role must be one of {PART_ROLES}")
        if not cardinality:
            raise StateError(f"role {role_name!r} has an empty cardinality set")
        if any(n < 0 for n in cardinality):
            raise StateError(f"role {role_name!r} allows a negative count")
        set_field(self, "role_name", role_name)
        set_field(self, "part_kind", part_kind)
        set_field(self, "part_role", part_role)
        set_field(self, "cardinality", cardinality)

    @property
    def minimum(self) -> int:
        return min(self.cardinality)


def cardinality(allowed) -> frozenset[int]:
    """Normalize an exact count or an iterable of counts to a frozen set."""
    if isinstance(allowed, int):
        return frozenset({allowed})
    return frozenset(allowed)


class KindDef(Record):
    """A named entity type; children overlay the parent's spaces and schema.

    World.define_kind derives, once, `_effective_spaces` and `_effective_parts`,
    its state spaces and part specs over its ancestors', and
    `_effective_substance`, the substance of the nearest kind in its ancestry
    that names one; they are not fields, so they take no part in repr or ==.
    """

    _fields = ("name", "parent", "state_spaces", "part_schema", "granularity", "substance")

    def __init__(
        self,
        name: str,
        parent: str | None = None,
        state_spaces: tuple[StateSpace, ...] = (),
        part_schema: tuple[PartSpec, ...] = (),
        granularity: str = "object",
        # When set, instances of this kind are Portions of the named substance.
        substance: str | None = None,
    ):
        self.name = name
        self.parent = parent
        self.state_spaces = state_spaces
        self.part_schema = part_schema
        self.granularity = granularity
        self.substance = substance


class SemObject(Record):
    _fields = ("id", "kind", "parts", "states", "properties", "alive")

    def __init__(
        self,
        id: str,
        kind: str,
        parts: list[tuple[str, str]] | None = None,  # (role, child id)
        states: dict[str, str] | None = None,
        properties: dict[str, str] | None = None,
        alive: bool = True,
    ):
        self.id = id
        self.kind = kind
        self.parts = [] if parts is None else parts
        self.states = {} if states is None else states
        self.properties = {} if properties is None else properties
        self.alive = alive

    def parts_in_role(self, role: str) -> list[str]:
        return [child for r, child in self.parts if r == role]


class Substance(Record):
    """Matter described by kind and phase rather than identity."""

    _fields = ("name", "phase_space", "phase", "default_properties", "merge_policy")

    def __init__(
        self,
        name: str,
        phase_space: StateSpace,
        phase: str,
        default_properties: dict[str, str] | None = None,
        # How portion properties combine on merge: property -> min | max | first.
        merge_policy: dict[str, str] | None = None,
    ):
        self.name = name
        self.phase_space = phase_space
        self.phase = phase
        self.default_properties = {} if default_properties is None else default_properties
        self.merge_policy = {} if merge_policy is None else merge_policy
        phase_space.index(phase)

    @property
    def is_fluid(self) -> bool:
        return self.phase in ("liquid", "gas")


class Portion(Record):
    """An object-ified piece of a substance with stable identity across moves."""

    _fields = __slots__ = (
        "id", "substance", "kind", "properties", "x", "y",
        "compartment", "location_state", "provenance", "alive",
    )

    def __init__(
        self,
        id: str,
        substance: str,
        kind: str | None = None,
        properties: dict[str, str] | None = None,
        x: int | None = None,
        y: int | None = None,
        compartment: str | None = None,
        location_state: str = "null",
        provenance: tuple[str, ...] = (),
        alive: bool = True,
    ):
        self.id = id
        self.substance = substance
        self.kind = kind
        self.properties = {} if properties is None else properties
        self.x = x
        self.y = y
        self.compartment = compartment
        self.location_state = location_state
        self.provenance = provenance
        self.alive = alive


class Transitional(Record):
    """Any entity transformation: state change, birth, death, split, or merge."""

    _fields = __slots__ = ("kind", "subjects", "results", "step")

    def __init__(self, kind: str, subjects: tuple[str, ...], results: tuple = (), step: int = 0):
        # state_change, the commonest kind, needs no check past its name.
        if kind == "state_change":
            pass
        elif kind not in TRANSITIONAL_KINDS:
            raise TransitionalError(f"unknown transitional kind {kind!r}")
        elif kind == "split":
            if len(subjects) != 1:
                raise TransitionalError("split takes exactly one subject")
            if len(results) < 2:
                raise TransitionalError("split needs at least two results")
        elif kind == "merge":
            if len(subjects) < 2:
                raise TransitionalError("merge needs at least two subjects")
            if len(results) != 1:
                raise TransitionalError("merge produces exactly one result")
        self.kind = kind
        self.subjects = subjects
        self.results = results
        self.step = step


class FunctionAssertion(FrozenRecord):
    """A function claim, valid only relative to a mechanism/system/scenario."""

    _fields = ("subject", "function_label", "context")

    def __init__(self, subject: str, function_label: str, context: str):
        set_field(self, "subject", subject)
        set_field(self, "function_label", function_label)
        set_field(self, "context", context)
