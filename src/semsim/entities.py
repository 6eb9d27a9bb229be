"""Entity vocabulary: kinds, objects, substances, portions, and transitionals.

Everything here is qualitative: values are labels on nominal, binary, or
ordinal scales, never numbers with units. Portions are the one exception in
spirit; they may carry model-local (x, y) coordinates so path models can move
them in discrete units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StateError, TransitionalError

SCALE_KINDS = ("nominal", "binary", "ordinal", "interval", "ratio")
#: Scale kinds models may actually use; interval/ratio are declared in the
#: enum but rejected when a model registers a scale.
SUPPORTED_SCALE_KINDS = ("nominal", "binary", "ordinal")

PART_ROLES = ("functional", "structural")

TRANSITIONAL_KINDS = ("state_change", "birth", "death", "split", "merge")


@dataclass(frozen=True)
class StateSpace:
    """A named qualitative variable and its ordered set of labels."""

    variable: str
    labels: tuple[str, ...]
    scale_kind: str = "nominal"

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise StateError(f"state space {self.variable!r} has repeated labels")
        if self.scale_kind not in SCALE_KINDS:
            raise StateError(f"unknown scale kind {self.scale_kind!r}")
        if self.scale_kind == "binary" and len(self.labels) != 2:
            raise StateError(
                f"binary space {self.variable!r} must have exactly two labels"
            )

    @property
    def first(self) -> str:
        return self.labels[0]

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise StateError(
                f"label {label!r} is outside the {self.variable!r} space "
                f"{list(self.labels)}"
            )
        return self.labels.index(label)

    @property
    def ordered(self) -> bool:
        return self.scale_kind in ("binary", "ordinal")


@dataclass(frozen=True)
class QualValue:
    """A level on one scale. Comparisons are defined only within the scale."""

    scale: StateSpace
    level: str

    def __post_init__(self):
        self.scale.index(self.level)

    def rank(self) -> int:
        if not self.scale.ordered:
            raise StateError(
                f"scale {self.scale.variable!r} is {self.scale.scale_kind}; "
                "ordinal comparison undefined"
            )
        return self.scale.index(self.level)

    def same_scale(self, other: "QualValue") -> bool:
        return self.scale.variable == other.scale.variable


@dataclass(frozen=True)
class PartSpec:
    """One role in a kind's part schema; cardinality is a finite allowed set."""

    role_name: str
    part_kind: str
    part_role: str = "functional"
    cardinality: frozenset[int] = frozenset({1})

    def __post_init__(self):
        if self.part_role not in PART_ROLES:
            raise StateError(f"part role must be one of {PART_ROLES}")
        if not self.cardinality:
            raise StateError(f"role {self.role_name!r} has an empty cardinality set")
        if any(n < 0 for n in self.cardinality):
            raise StateError(f"role {self.role_name!r} allows a negative count")

    @property
    def minimum(self) -> int:
        return min(self.cardinality)


def cardinality(allowed) -> frozenset[int]:
    """Normalize an exact count or an iterable of counts to a frozen set."""
    if isinstance(allowed, int):
        return frozenset({allowed})
    return frozenset(allowed)


@dataclass
class KindDef:
    """A named entity type; children overlay the parent's spaces and schema."""

    name: str
    parent: str | None = None
    state_spaces: tuple[StateSpace, ...] = ()
    part_schema: tuple[PartSpec, ...] = ()
    granularity: str = "object"
    # When set, instances of this kind are Portions of the named substance.
    substance: str | None = None


@dataclass
class SemObject:
    id: str
    kind: str
    parts: list[tuple[str, str]] = field(default_factory=list)  # (role, child id)
    states: dict[str, str] = field(default_factory=dict)
    properties: dict[str, QualValue] = field(default_factory=dict)
    alive: bool = True

    def parts_in_role(self, role: str) -> list[str]:
        return [child for r, child in self.parts if r == role]


@dataclass
class Substance:
    """Matter described by kind and phase rather than identity."""

    name: str
    phase_space: StateSpace
    phase: str
    default_properties: dict[str, QualValue] = field(default_factory=dict)
    # How portion properties combine on merge: property -> min | max | first.
    merge_policy: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.phase_space.index(self.phase)

    @property
    def is_fluid(self) -> bool:
        return self.phase in ("liquid", "gas")


@dataclass(slots=True)
class Portion:
    """An object-ified piece of a substance with stable identity across moves."""

    id: str
    substance: str
    kind: str | None = None
    properties: dict[str, QualValue] = field(default_factory=dict)
    x: int | None = None
    y: int | None = None
    compartment: str | None = None
    location_state: str = "null"
    provenance: tuple[str, ...] = ()
    alive: bool = True


@dataclass(slots=True)
class Transitional:
    """Any entity transformation: state change, birth, death, split, or merge."""

    kind: str
    subjects: tuple[str, ...]
    results: tuple = ()
    step: int = 0

    def __post_init__(self):
        if self.kind not in TRANSITIONAL_KINDS:
            raise TransitionalError(f"unknown transitional kind {self.kind!r}")
        if self.kind == "split":
            if len(self.subjects) != 1:
                raise TransitionalError("split takes exactly one subject")
            if len(self.results) < 2:
                raise TransitionalError("split needs at least two results")
        if self.kind == "merge":
            if len(self.subjects) < 2:
                raise TransitionalError("merge needs at least two subjects")
            if len(self.results) != 1:
                raise TransitionalError("merge produces exactly one result")


@dataclass(frozen=True)
class FunctionAssertion:
    """A function claim, valid only relative to a mechanism/system/scenario."""

    subject: str
    function_label: str
    context: str
