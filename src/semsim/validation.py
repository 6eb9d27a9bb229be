"""Post-step validation: snapshot the world as triples, then check every rule.

The kernel calls validate after each step, so any assertion violated by that
step's transitionals shows up in that step's report. Violations are data, not
exceptions; the kernel decides whether to halt or warn. A validation without
a violation returns the one shared empty report, NO_VIOLATIONS, which the
kernel also gives a step it did not validate; nothing adds to it, and a step
with a violation gets a report of its own.

There is one evaluator, Snapshot. It holds live state only: a build reads
the world's live portion registry, so its size tracks what is alive now, not
how many portions the run has ever made. Its triples are grouped by
predicate, after the permutation indexes of Hexastore (Weiss, Karras and
Bernstein, VLDB 2008): a rule whose pattern names its predicate tries only
the triples with that predicate; a rule with a variable predicate tries them
all. A pattern whose only ground term is its predicate binds subject and
object after that one comparison. That index keeps each triple once;
Snapshot.triples is a read-only set view over it (TripleView), which looks a
triple up in its predicate's bucket. Only passing matches are sorted, by the
(subject, predicate, obj) of the matched triple, so violations come out in
the same order whatever the set's iteration order. A full recompute is a
fresh Snapshot's violations, Snapshot(world).violations(rules), and
derive_triples reads a fresh Snapshot's triples; the independent reference
both are checked against, a naive sort-everything evaluator, is in the tests.

A Kernel keeps one Snapshot from step to step, so validation works in
proportion to what a step changed, not to how much is alive. The world keeps
the step's write records in one list, World.changes. A refresh folds it into
the ids to re-derive, whether the wiring changed and the step's pushedTo
triples, and empties it, a fold over a stream of changes as in DBSP (Budiu
et al., VLDB 2023); a build leaves it alone. Each write appends one record: a
born portion is named by its birth Transitional only, and a checked write
(World.set_location, which skips the checks its caller has made) records the
same state_change as set_state, so the fold cannot tell the two apart. A
refresh re-derives those ids with the build's per-entity helpers, diffs each
against its cached triples and updates the predicate index, as Rete does
(Forgy 1982). An entity whose
one triple in scope was swapped for another (a moved portion's locatedIn) is
diffed without building sets. Each rule keeps its passing matches: the
matched triples whose bindings pass its check. A rule is re-evaluated in
full when it is new or replaced (so every rule after a build), when its
predicate is a variable, when its check's reads are unknown (reads=None), or
when a predicate it reads changed. Otherwise only the added and removed
triples of its predicate are matched and checked, as in differential
dataflow (McSherry et al., CIDR 2013), and a rule with no passing match has
no removed triple to forget; after a refresh that added and removed
nothing, no rule with known reads does any work. The report equals a fresh
build's, violation order and bindings included.

A pushedTo triple stands for a move a commit of the step made: it is the
step's delta, as in DBSP, not standing state. validate adds the step's
pushedTo triples with the refresh, checks the rules, and then drops them
in one pass: the pushedTo bucket is emptied, a rule whose pattern's
predicate is pushedTo forgets its passing matches (all of them the step's)
and a rule that reads pushedTo is re-checked at the next validation. So
between steps a kernel's snapshot holds what a fresh build holds, one
limited to its scope, and a refresh never has a last step's triples to
take out: with no change it returns at once.

The reads contract. A rule's check may read its bindings; the triples of
the predicates its rule lists in `reads`, from `triples` or from the world
state they describe (a compartment's contents are its locatedIn
triples); and structure fixed after the build: the compartment registry and
capacities, and a portion's substance. A check that reads anything else
(say, len(triples)) leaves `reads` at None and is re-evaluated every step.
A rule without a check reads nothing. The `triples` a check receives is
read-only and valid only during the call.

The contract also decides what the kernel's snapshot holds. rule_scope gives
the predicates a rule set matches or reads, and the kernel builds its
Snapshot with that scope, so it derives, indexes and diffs no triple that
no rule looks at (the demand-driven evaluation of magic sets: Bancilhon,
Maier, Sagiv and Ullman, PODS 1986). A variable predicate, or a check with
reads=None, widens the scope to every predicate. A rule that is new or
replaced and needs a predicate outside the scope rebuilds the snapshot
from live state with the wider scope before it is evaluated. The rebuild
leaves the triples already in scope as they were, so the other rules'
passing matches stay valid. A scope with no hasState: or hasPart:
predicate holds no object's or substance's triple, so a refresh then
derives only live portions' locatedIn, or no entity triple at all when
locatedIn is out of scope too. A Snapshot built without a scope, as a
full recompute and derive_triples build it, holds every predicate.
"""
from __future__ import annotations

from collections.abc import Set
from operator import itemgetter
from typing import Callable, NamedTuple

from .entities import Transitional
from .errors import DuplicateNameError, ModelError
from .records import FrozenRecord, Record, set_field
from .topology import CommitRecord

POLICIES = ("halt", "warn", "off")
EXPECTATIONS = ("must_exist", "must_not_exist", "count_in_set")


class Triple(NamedTuple):
    # A plain record: the snapshot helpers below build it with tuple.__new__,
    # so a check added to its constructor would not run there.
    subject: str
    predicate: str
    obj: str


class Var(FrozenRecord):
    _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class TriplePattern(FrozenRecord):
    _fields = ("subject", "predicate", "obj")

    def __init__(self, subject: str | Var, predicate: str | Var, obj: str | Var):
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "obj", obj)
        # (slot, term) and (slot, variable name) pairs, slots indexing a Triple;
        # derived, so they take no part in repr, == or hash.
        terms = (subject, predicate, obj)
        ground = tuple((i, t) for i, t in enumerate(terms) if not isinstance(t, Var))
        variables = tuple((i, t.name) for i, t in enumerate(terms) if isinstance(t, Var))
        set_field(self, "_ground", ground)
        set_field(self, "_vars", variables)
        # With every variable named once, a match binds without comparing.
        set_field(self, "_distinct", len({name for _, name in variables}) == len(variables))
        # (subject name, object name) when the predicate is the only ground
        # term and the two variables differ, the shape of every shipped rule.
        so = None
        if len(ground) == 1 and ground[0][0] == 1 and self._distinct:
            so = (subject.name, obj.name)
        set_field(self, "_so", so)

    def ground_terms(self) -> int:
        return len(self._ground)

    def match(self, triple: Triple) -> dict[str, str] | None:
        so = self._so
        if so is not None:
            if triple[1] != self.predicate:
                return None
            return {so[0]: triple[0], so[1]: triple[2]}
        for slot, term in self._ground:
            if triple[slot] != term:
                return None
        bindings: dict[str, str] = {}
        if self._distinct:
            for slot, name in self._vars:
                bindings[name] = triple[slot]
            return bindings
        for slot, name in self._vars:
            value = triple[slot]
            if bindings.setdefault(name, value) != value:
                return None
        return bindings


class AssertionRule(Record):
    """A triple-pattern expectation over the snapshot.

    An optional check(bindings, world, triples) -> bool refines which matches
    count toward the expectation, which lets a rule state constraints a bare
    pattern cannot (capacity arithmetic, cross-triple lookups). A
    must_not_exist rule with a check therefore reads: no match satisfying the
    check may exist.
    """

    _fields = ("name", "pattern", "expectation", "counts", "check", "reads")

    def __init__(
        self,
        name: str,
        pattern: TriplePattern,
        expectation: str = "must_exist",
        counts: frozenset[int] | None = None,
        check: Callable[[dict[str, str], object, frozenset], bool] | None = None,
        reads: frozenset[str] | None = None,
    ):
        if expectation not in EXPECTATIONS:
            raise ModelError(f"expectation must be one of {EXPECTATIONS}")
        if pattern.ground_terms() == 0:
            raise ModelError(f"rule {name!r} has a fully-variable pattern")
        if expectation == "count_in_set" and counts is None:
            raise ModelError(f"rule {name!r} needs a counts set")
        self.name = name
        self.pattern = pattern
        self.expectation = expectation
        self.counts = counts
        self.check = check
        self.reads = None if reads is None else frozenset(reads)


class Violation(Record):
    _fields = __slots__ = ("rule", "bindings")

    def __init__(self, rule: str, bindings: dict[str, str] | None = None):
        self.rule = rule
        self.bindings = {} if bindings is None else bindings


class ValidationReport(Record):
    _fields = __slots__ = ("violations",)

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations


#: The one report shared by every step that reports no violation, whatever
#: the validation policy, so a clean run keeps no report per step. Nothing
#: adds to it: a step with a violation gets a report of its own.
NO_VIOLATIONS = ValidationReport()


# The per-entity helpers build each triple as _new(Triple, (s, p, o)): the
# same Triple, without the Python-level __new__ of a NamedTuple, which
# doubles the cost of the commonest allocation in a refresh.
_new = tuple.__new__


class _Predicates(dict):
    """prefix + name, built once per name: one string object per predicate,
    whose hash is computed once however often its triples are re-derived."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, name: str) -> str:
        self[name] = predicate = self.prefix + name
        return predicate


_HAS_STATE = _Predicates("hasState:")
_HAS_PART = _Predicates("hasPart:")


class _Every:
    """The scope of a full snapshot: every predicate is in it."""

    __slots__ = ()

    def __contains__(self, predicate) -> bool:
        return True


_EVERY = _Every()


# Each helper builds only the triples whose predicate is in `scope` (a set of
# predicates, or _EVERY), so a scoped snapshot derives nothing it would drop.


def _object_triples(obj, scope) -> list[Triple]:
    out = []
    if not obj.alive:
        return out
    oid = obj.id
    for var, label in obj.states.items():
        predicate = _HAS_STATE[var]
        if predicate in scope:
            out.append(_new(Triple, (oid, predicate, label)))
    for name, label in obj.properties.items():
        predicate = _HAS_STATE[name]
        if predicate in scope:
            out.append(_new(Triple, (oid, predicate, label)))
    for role, child in obj.parts:
        predicate = _HAS_PART[role]
        if predicate in scope:
            out.append(_new(Triple, (oid, predicate, child)))
    return out


def _portion_triples(portion, scope) -> list[Triple]:
    """Triples of a live portion."""
    out = []
    pid = portion.id
    if "hasState:Location" in scope:
        out.append(_new(Triple, (pid, "hasState:Location", portion.location_state)))
    for name, label in portion.properties.items():
        predicate = _HAS_STATE[name]
        if predicate in scope:
            out.append(_new(Triple, (pid, predicate, label)))
    if portion.compartment is not None and "locatedIn" in scope:
        out.append(_new(Triple, (pid, "locatedIn", portion.compartment)))
    return out


def _substance_triples(sub, scope) -> list[Triple]:
    if "hasState:phase" not in scope:
        return []
    return [_new(Triple, (sub.name, "hasState:phase", sub.phase))]


def _wiring_triples(world, scope) -> list[Triple]:
    if "connectedTo" not in scope:
        return []
    return [
        _new(Triple, (c.from_id, "connectedTo", c.to_id)) for c in world.connections.values()
    ]


def _fold(changes) -> tuple[set[str], bool, list[Triple]]:
    """The ids a change list may have changed, whether it changed a
    connection, and a pushedTo triple per move its commits applied."""
    ids: set[str] = set()
    wiring = False
    pushed: list[Triple] = []
    for record in changes:
        cls = record.__class__
        if cls is Transitional:
            kind = record.kind
            if kind == "state_change":  # the commonest record, with one subject
                ids.add(record.subjects[0])
            else:
                ids.update(record.subjects)
                if kind == "split" or kind == "merge":  # results are portions
                    ids.update(record.results)
        elif cls is str:
            ids.add(record)
        elif cls is CommitRecord:
            for pid, src, dst in record.applied:
                ids.add(pid)
                pushed.append(_new(Triple, (src, "pushedTo", dst)))
        else:  # a Connection added or removed
            wiring = True
    return ids, wiring, pushed


def _entity_triples(world, entity_id: str, scope) -> list[Triple]:
    """Every triple in scope whose subject is this object, live portion or substance."""
    out = []
    obj = world.objects.get(entity_id)
    if obj is not None:
        out += _object_triples(obj, scope)
    portion = world.live_registry.get(entity_id)
    if portion is not None:
        out += _portion_triples(portion, scope)
    sub = world.substances.get(entity_id)
    if sub is not None:
        out += _substance_triples(sub, scope)
    return out


def _location_triples(world, entity_id: str, scope) -> list[Triple]:
    """_entity_triples for a scope whose only entity predicate is locatedIn:
    an object or a substance has no triple in it, a live portion one."""
    portion = world.live_registry.get(entity_id)
    if portion is None or portion.compartment is None:
        return []
    return [_new(Triple, (entity_id, "locatedIn", portion.compartment))]


def _entity_deriver(scope):
    """The helper that derives an entity's triples in scope, or None when no
    entity can have one (the scope holds only connectedTo and pushedTo)."""
    if scope is None or any(p.startswith(("hasState:", "hasPart:")) for p in scope):
        return _entity_triples
    return _location_triples if "locatedIn" in scope else None


def derive_triples(world) -> frozenset[Triple]:
    """Pure snapshot of the live world in triple form: a fresh Snapshot's.

    Vocabulary: hasState:<var>, locatedIn, connectedTo, hasPart:<role>, and
    pushedTo for the moves of the commits in the world's change list.
    """
    return frozenset(Snapshot(world).triples)


def rule_scope(rules) -> frozenset[str] | None:
    """The predicates these rules match or read, or None for every predicate.

    A rule needs its pattern's predicate and, if it has a check, the
    predicates its check reads. A variable predicate, or a check whose reads
    are unknown, needs them all.
    """
    scope: set[str] = set()
    for rule in rules.values():
        predicate = rule.pattern.predicate
        if isinstance(predicate, Var):
            return None
        scope.add(predicate)
        if rule.check is not None:
            if rule.reads is None:
                return None
            scope |= rule.reads
    return frozenset(scope)


def register_rule(rules: dict[str, AssertionRule], rule: AssertionRule) -> AssertionRule:
    if rule.name in rules:
        raise DuplicateNameError(f"rule {rule.name!r} already registered")
    rules[rule.name] = rule
    return rule


_by_triple = itemgetter(0)


def validate(snapshot: Snapshot, rules) -> ValidationReport:
    """Refresh the snapshot from its world's change list, re-check the
    rules those changes can affect, then drop the step's pushedTo triples;
    the report's violations equal a full recompute's before the refresh
    emptied the list, Snapshot(world).violations(rules). Without a violation
    the report is the shared NO_VIOLATIONS."""
    snapshot.refresh()
    violations = snapshot.violations(rules)
    if snapshot._pushed:  # each pushedTo triple the snapshot holds is in _pushed
        snapshot.drop_pushed()
    return ValidationReport(violations) if violations else NO_VIOLATIONS


class TripleView(Set):
    """A snapshot's triples as a read-only set: a view over its predicate index.

    A triple is looked up in its predicate's bucket, so the snapshot keeps
    each triple once. It iterates, has a len and compares with sets (==, <=
    and the rest come from collections.abc.Set); it has no add or discard.
    """

    __slots__ = ("_by_predicate",)

    def __init__(self, by_predicate: dict[str, set[Triple]]):
        self._by_predicate = by_predicate

    def __contains__(self, triple) -> bool:
        try:
            bucket = self._by_predicate.get(triple[1])
        except (TypeError, IndexError, KeyError):
            return False
        return bucket is not None and triple in bucket

    def __iter__(self):
        for bucket in self._by_predicate.values():
            yield from bucket

    def __len__(self) -> int:
        return sum(map(len, self._by_predicate.values()))

    @classmethod
    def _from_iterable(cls, triples) -> set[Triple]:
        # What the set operators (&, |, -, ^) return: a plain set.
        return set(triples)


class _RuleState:
    """A rule's passing matches (matched triple -> bindings that pass its
    check), with what decides when it is re-checked, derived from the rule."""

    __slots__ = ("rule", "passing", "predicate", "reads", "always")

    def __init__(self, rule: AssertionRule, passing: dict[Triple, dict[str, str]]):
        self.rule = rule
        self.passing = passing
        self.predicate = rule.pattern.predicate
        self.reads = frozenset() if rule.check is None else rule.reads
        # A variable predicate, or reads unknown: re-checked in full every time.
        self.always = isinstance(self.predicate, Var) or self.reads is None


class Snapshot:
    """The live triple set of one world, kept up to date from step to step.

    A scope (a set of predicates, see rule_scope) limits it to the triples
    with those predicates; None, the default, keeps every triple. Building
    one derives every triple in scope and leaves the world's change list
    alone. Each refresh applies and empties the list; violations re-checks
    against what the last refresh changed, and after a build evaluates
    every rule in full; drop_pushed then takes out the step's pushedTo
    triples, as validate does after every check.
    """

    def __init__(self, world, scope: frozenset[str] | None = None):
        self.world = world
        self._rules: dict[str, _RuleState] = {}
        self._build(scope, _fold(world.changes)[2])
        # The last refresh's (added, removed) triples by predicate.
        self._added: dict[str, list[Triple]] = {}
        self._removed: dict[str, list[Triple]] = {}
        # Whether drop_pushed took pushedTo triples out since the last check.
        self._dropped = False

    def _build(self, scope: frozenset[str] | None, pushed: list[Triple]):
        """Derive every triple in scope from live state, with these pushedTo."""
        world = self.world
        self.scope = scope
        self._keep = _EVERY if scope is None else scope
        self._derive = _entity_deriver(scope)
        self.by_predicate: dict[str, set[Triple]] = {}
        self.triples = TripleView(self.by_predicate)
        self._entities: dict[str, list[Triple]] = {}  # subject id -> its triples
        self._wiring: list[Triple] = []
        # The step's pushedTo triples, indexed only when in scope, until
        # drop_pushed takes them out.
        self._pushed: list[Triple] = []
        self._apply([*world.objects, *world.live_registry, *world.substances], True, pushed)

    def _widen(self, rule: AssertionRule):
        """Rebuild with a scope wide enough for this rule, if it is not yet.

        The rebuild reads live state and the step's pushedTo triples, so
        the triples already in scope come out the same and the other
        rules' passing matches stay valid.
        """
        if self.scope is None:
            return
        needs = rule_scope({rule.name: rule})
        if needs is None:
            self._build(None, self._pushed)
        elif not needs <= self.scope:
            self._build(self.scope | needs, self._pushed)

    def refresh(self):
        """Apply the world's change list, then empty it. With no change,
        nothing can change: only the last refresh's additions and removals
        are forgotten."""
        changes = self.world.changes
        if not changes:
            if self._added or self._removed:
                self._added, self._removed = {}, {}
            return
        self._added, self._removed = self._apply(*_fold(changes))
        changes.clear()

    def _apply(self, ids, wiring: bool, pushed: list[Triple]):
        """Re-derive these entities and the wiring if it changed, and add
        this step's pushedTo triples; return (added, removed) by predicate."""
        world, scope, derive = self.world, self._keep, self._derive
        added: dict[str, list[Triple]] = {}
        removed: dict[str, list[Triple]] = {}
        entities = self._entities
        for entity_id in ids if derive is not None else ():
            new = derive(world, entity_id, scope)
            old = entities.get(entity_id)
            if new:
                entities[entity_id] = new
            elif old is None:
                continue
            else:
                del entities[entity_id]
            self._replace(old, new, added, removed)
        if wiring:
            new = _wiring_triples(world, scope)
            self._replace(self._wiring, new, added, removed)
            self._wiring = new
        if pushed:
            if "pushedTo" in scope:
                self._add(pushed, added)
            self._pushed.extend(pushed)
        return added, removed

    def drop_pushed(self):
        """Take out the step's pushedTo triples once its rules are checked:
        empty the pushedTo bucket, forget the passing matches of each rule
        whose pattern's predicate is pushedTo (all of them the step's), and
        have the next violations re-check each rule that reads pushedTo."""
        self._pushed = []
        bucket = self.by_predicate.get("pushedTo")
        if not bucket:
            return
        bucket.clear()
        for state in self._rules.values():
            if state.predicate == "pushedTo":
                state.passing.clear()
        self._dropped = True

    def _replace(self, old, new, added, removed):
        """Swap one source's triples; a birth, a retirement or a swap of one
        triple for one builds no sets."""
        if not old:
            self._add(new, added)
        elif not new:
            self._remove(old, removed)
        elif len(old) == 1 and len(new) == 1:
            if old[0] != new[0]:
                self._remove(old, removed)
                self._add(new, added)
        elif old != new:
            old_set, new_set = set(old), set(new)
            self._add(new_set - old_set, added)
            self._remove(old_set - new_set, removed)

    def _add(self, triples, added):
        by_predicate = self.by_predicate
        for triple in triples:
            predicate = triple[1]
            bucket = by_predicate.get(predicate)
            if bucket is None:
                by_predicate[predicate] = {triple}
            else:
                bucket.add(triple)
            batch = added.get(predicate)
            if batch is None:
                added[predicate] = [triple]
            else:
                batch.append(triple)

    def _remove(self, triples, removed):
        by_predicate = self.by_predicate
        for triple in triples:
            predicate = triple[1]
            by_predicate[predicate].discard(triple)
            batch = removed.get(predicate)
            if batch is None:
                removed[predicate] = [triple]
            else:
                batch.append(triple)

    def _check_into(self, passing: dict, rule: AssertionRule, candidates) -> dict:
        """Add each candidate the rule's pattern matches and its check passes."""
        pattern, check, world, triples = rule.pattern, rule.check, self.world, self.triples
        for triple in candidates:
            bindings = pattern.match(triple)
            if bindings is not None and (check is None or check(bindings, world, triples)):
                passing[triple] = bindings
        return passing

    def _matches(self, rule: AssertionRule) -> dict:
        """Every passing match of the rule, from a full scan of its candidates."""
        predicate = rule.pattern.predicate
        if isinstance(predicate, Var):
            return self._check_into({}, rule, self.triples)
        return self._check_into({}, rule, self.by_predicate.get(predicate, ()))

    def violations(self, rules) -> list[Violation]:
        """Re-check the rules the last refresh's changes can affect, and report."""
        added, removed = self._added, self._removed
        # Nothing added or removed: no rule with known reads is re-checked.
        changed = added.keys() | removed.keys() if added or removed else None
        if self._dropped:  # the pushedTo triples drop_pushed took out
            changed = {"pushedTo"} if changed is None else changed | {"pushedTo"}
            self._dropped = False
        states = self._rules
        out: list[Violation] = []
        for key, rule in rules.items():
            state = states.get(key)
            if state is None or state.rule is not rule:
                self._widen(rule)
                state = states[key] = _RuleState(rule, self._matches(rule))
            elif state.always or changed and not state.reads.isdisjoint(changed):
                state.passing = self._matches(rule)
            elif changed and state.predicate in changed:
                predicate, passing = state.predicate, state.passing
                if passing:  # a removed triple can only leave a passing match
                    for triple in removed.get(predicate, ()):
                        passing.pop(triple, None)
                self._check_into(passing, rule, added.get(predicate, ()))
            passing = state.passing
            if rule.expectation == "must_exist":
                if not passing:
                    out.append(Violation(rule.name, {}))
            elif rule.expectation == "must_not_exist" and passing:
                ordered = sorted(passing.items(), key=_by_triple)
                out.extend(Violation(rule.name, dict(b)) for _, b in ordered)
            elif rule.expectation == "count_in_set" and len(passing) not in rule.counts:
                out.append(Violation(rule.name, {"count": str(len(passing))}))
        # Every rule now has a state, so a state more than the rules means
        # one was removed: forget it.
        if len(states) > len(rules):
            for key in [k for k in states if k not in rules]:
                del states[key]
        return out


# ----------------------------------------------------------------------
# rule factories shared by the reference models


def capacity_rule() -> AssertionRule:
    """No compartment may hold more live portions than its capacity."""

    def over_capacity(bindings, world, triples):
        comp = world.compartments.get(bindings["c"])
        if comp is None or comp.capacity is None:
            return False  # the dangling-location rule owns missing targets
        return len(comp.contents) > comp.capacity

    return AssertionRule(
        "compartment-capacity",
        TriplePattern(Var("p"), "locatedIn", Var("c")),
        expectation="must_not_exist",
        check=over_capacity,
        reads=frozenset({"locatedIn"}),
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
        reads=frozenset(),
    )


def connection_present_rule() -> AssertionRule:
    """Every move committed this step happened over a declared connection.

    Redundant with the check each move makes while the network never changes,
    which is exactly what makes it a useful cross-check.
    """

    def unwired(bindings, world, triples):
        # A plain tuple hashes and compares as the Triple it stands for.
        return (bindings["a"], "connectedTo", bindings["b"]) not in triples

    return AssertionRule(
        "connection-present",
        TriplePattern(Var("a"), "pushedTo", Var("b")),
        expectation="must_not_exist",
        check=unwired,
        reads=frozenset({"connectedTo"}),
    )


def fluidity_rule(substance: str, resting_labels=("null", "pool")) -> AssertionRule:
    """Portions of the substance may only sit mid-path while it is fluid."""

    def moving_while_solid(bindings, world, triples):
        portion = world.portions.get(bindings["p"])
        if portion is None or portion.substance != substance:
            return False
        if bindings["loc"] in resting_labels:
            return False
        return not world.substances[substance].is_fluid

    return AssertionRule(
        f"{substance}-fluid-while-moving",
        TriplePattern(Var("p"), "hasState:Location", Var("loc")),
        expectation="must_not_exist",
        check=moving_while_solid,
        reads=frozenset({"hasState:phase"}),
    )
