"""Post-step validation: snapshot the world as triples, then check every rule.

The kernel calls validate after each step, so any assertion violated by that
step's transitionals shows up in that step's report. Violations are data, not
exceptions; the kernel decides whether to halt or warn.

The snapshot holds live state only: derive_triples reads the world's live
portion registry, so its size tracks what is alive now, not how many
portions the run has ever made. validate derives it once per step and groups
it by predicate, after the permutation indexes of Hexastore (Weiss, Karras
and Bernstein, VLDB 2008). A rule whose pattern names its predicate tries
only the triples with that predicate; a rule with a variable predicate tries
them all. Only the matches are sorted, by the (subject, predicate, obj) of
the matched triple, so a rule's violations come out in the same order
whatever the set's iteration order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import DuplicateNameError, ModelError

POLICIES = ("halt", "warn", "off")
EXPECTATIONS = ("must_exist", "must_not_exist", "count_in_set")


class Triple(NamedTuple):
    subject: str
    predicate: str
    obj: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TriplePattern:
    subject: str | Var
    predicate: str | Var
    obj: str | Var
    # (slot, term) and (slot, variable name) pairs, slots indexing a Triple.
    _ground: tuple[tuple[int, str], ...] = field(init=False, repr=False, compare=False)
    _vars: tuple[tuple[int, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = (self.subject, self.predicate, self.obj)
        ground = tuple((i, t) for i, t in enumerate(terms) if not isinstance(t, Var))
        variables = tuple((i, t.name) for i, t in enumerate(terms) if isinstance(t, Var))
        object.__setattr__(self, "_ground", ground)
        object.__setattr__(self, "_vars", variables)

    def ground_terms(self) -> int:
        return len(self._ground)

    def match(self, triple: Triple) -> dict[str, str] | None:
        for slot, term in self._ground:
            if triple[slot] != term:
                return None
        bindings: dict[str, str] = {}
        for slot, name in self._vars:
            value = triple[slot]
            if bindings.setdefault(name, value) != value:
                return None
        return bindings


@dataclass
class AssertionRule:
    """A triple-pattern expectation over the snapshot.

    An optional check(bindings, world, triples) -> bool refines which matches
    count toward the expectation, which lets a rule state constraints a bare
    pattern cannot (capacity arithmetic, cross-triple lookups). A
    must_not_exist rule with a check therefore reads: no match satisfying the
    check may exist.
    """

    name: str
    pattern: TriplePattern
    expectation: str = "must_exist"
    scope: str | None = None
    counts: frozenset[int] | None = None
    check: Callable[[dict[str, str], object, frozenset], bool] | None = None

    def __post_init__(self):
        if self.expectation not in EXPECTATIONS:
            raise ModelError(f"expectation must be one of {EXPECTATIONS}")
        if self.pattern.ground_terms() == 0:
            raise ModelError(f"rule {self.name!r} has a fully-variable pattern")
        if self.expectation == "count_in_set" and self.counts is None:
            raise ModelError(f"rule {self.name!r} needs a counts set")


@dataclass
class Violation:
    rule: str
    bindings: dict[str, str] = field(default_factory=dict)


@dataclass
class ValidationReport:
    step_index: int
    violations: list[Violation] = field(default_factory=list)
    policy_applied: str = "halt"

    @property
    def passed(self) -> bool:
        return not self.violations


def derive_triples(world) -> frozenset[Triple]:
    """Pure snapshot of the live world in triple form.

    Vocabulary: hasState:<var>, locatedIn, connectedTo, hasPart:<role>, and
    pushedTo for moves committed during the current step.
    """
    triples: list[Triple] = []
    add = triples.append
    for obj in world.objects.values():
        if not obj.alive:
            continue
        for var, label in obj.states.items():
            add(Triple(obj.id, f"hasState:{var}", label))
        for prop, value in obj.properties.items():
            add(Triple(obj.id, f"hasState:{prop}", value.level))
        for role, child in obj.parts:
            add(Triple(obj.id, f"hasPart:{role}", child))
    for portion in world.live_registry.values():
        add(Triple(portion.id, "hasState:Location", portion.location_state))
        for prop, value in portion.properties.items():
            add(Triple(portion.id, f"hasState:{prop}", value.level))
        if portion.compartment is not None:
            add(Triple(portion.id, "locatedIn", portion.compartment))
    for sub in world.substances.values():
        add(Triple(sub.name, "hasState:phase", sub.phase))
    for conn in world.connections.values():
        add(Triple(conn.from_id, "connectedTo", conn.to_id))
    for record in world.last_commits:
        for portion, src, dst in record.applied:
            add(Triple(src, "pushedTo", dst))
    return frozenset(triples)


def register_rule(rules: dict[str, AssertionRule], rule: AssertionRule) -> AssertionRule:
    if rule.name in rules:
        raise DuplicateNameError(f"rule {rule.name!r} already registered")
    rules[rule.name] = rule
    return rule


_by_triple = itemgetter(0)


def _matches(pattern: TriplePattern, triples, by_predicate) -> list[dict[str, str]]:
    """Bindings of every triple the pattern matches, in triple order."""
    if isinstance(pattern.predicate, Var):
        candidates = triples
    else:
        candidates = by_predicate.get(pattern.predicate, ())
    found = []
    for triple in candidates:
        bindings = pattern.match(triple)
        if bindings is not None:
            found.append((triple, bindings))
    found.sort(key=_by_triple)  # triples in a snapshot are unique
    return [bindings for _, bindings in found]


def validate(world, step_index: int, rules, policy: str = "halt") -> ValidationReport:
    """Evaluate every rule against the current triple snapshot."""
    if policy not in POLICIES:
        raise ModelError(f"policy must be one of {POLICIES}")
    report = ValidationReport(step_index, [], policy)
    if policy == "off":
        return report
    triples = derive_triples(world)
    by_predicate: dict[str, list[Triple]] = {}
    for triple in triples:
        by_predicate.setdefault(triple.predicate, []).append(triple)
    for rule in rules.values():
        matches = _matches(rule.pattern, triples, by_predicate)
        if rule.check is not None:
            matches = [m for m in matches if rule.check(m, world, triples)]
        if rule.expectation == "must_exist" and not matches:
            report.violations.append(Violation(rule.name, {}))
        elif rule.expectation == "must_not_exist":
            for m in matches:
                report.violations.append(Violation(rule.name, m))
        elif rule.expectation == "count_in_set" and len(matches) not in rule.counts:
            report.violations.append(Violation(rule.name, {"count": str(len(matches))}))
    return report


# ----------------------------------------------------------------------
# rule factories shared by the reference models


def capacity_rule() -> AssertionRule:
    """No compartment may hold more live portions than its capacity."""

    def over_capacity(bindings, world, triples):
        comp = world.compartments.get(bindings["c"])
        if comp is None or comp.capacity is None:
            return False  # the dangling-location rule owns missing targets
        live = [p for p in comp.contents if world.portions[p].alive]
        return len(live) > comp.capacity

    return AssertionRule(
        "compartment-capacity",
        TriplePattern(Var("p"), "locatedIn", Var("c")),
        expectation="must_not_exist",
        check=over_capacity,
    )


def dangling_location_rule() -> AssertionRule:
    """No portion may sit in a compartment that no longer exists."""

    def dangling(bindings, world, triples):
        return bindings["c"] not in world.compartments

    return AssertionRule(
        "location-resolves",
        TriplePattern(Var("p"), "locatedIn", Var("c")),
        expectation="must_not_exist",
        check=dangling,
    )


def connection_present_rule() -> AssertionRule:
    """Every move committed this step happened over a declared connection.

    Redundant with the staging-time check while the network never changes,
    which is exactly what makes it a useful cross-check.
    """

    def unwired(bindings, world, triples):
        return Triple(bindings["a"], "connectedTo", bindings["b"]) not in triples

    return AssertionRule(
        "connection-present",
        TriplePattern(Var("a"), "pushedTo", Var("b")),
        expectation="must_not_exist",
        check=unwired,
    )


def fluidity_rule(substance: str, resting_labels=("null", "pool")) -> AssertionRule:
    """Portions of the substance may only sit mid-path while it is fluid."""

    def moving_while_solid(bindings, world, triples):
        portion = world.portions.get(bindings["p"])
        if portion is None or portion.substance != substance or not portion.alive:
            return False
        if bindings["loc"] in resting_labels:
            return False
        return not world.substances[substance].is_fluid

    return AssertionRule(
        f"{substance}-fluid-while-moving",
        TriplePattern(Var("p"), "hasState:Location", Var("loc")),
        expectation="must_not_exist",
        check=moving_while_solid,
    )
