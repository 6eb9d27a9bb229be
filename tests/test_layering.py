"""Only world.py writes where portions are, and records what changed.

`World` keeps the placement rule (a compartment's contents are exactly the
live portions placed there, in placement order) and records every change
that triples can see in its change list, `changes`. A module that assigned
`.compartment`, `.alive` or `.contents`, edited a contents list, or added
to `changes` itself could break the rule or hide a change from the
incremental validation snapshot. The model-file loader is the one other
module that fills a contents list, while it builds a world, and it checks
what it fills; topology.commit is the one other module that adds to
`changes`, the CommitRecord of the moves it applied.

Only a snapshot's refresh and the kernel's step empty the change list, and
only World.__init__ starts it. A full build (a fresh Snapshot, as a full
recompute and derive_triples make) must leave it for the kernel's snapshot.

Five more facts have one writer each. A mechanism's spec, its saved form, is
set by register_mechanism, so a model file names the mechanism a factory built.
A step's trace events are kept on its StepReport, appended by
Kernel.emit_trace, so the trace lists exactly the finished steps' events.
The fault that ends stepping is kept by Kernel.step, which stores whatever
escaped a step, so no driver keeps a stop rule of its own. The world's
clock is advanced by Kernel.step, and the signals in transit are put there
by send_signal and taken by Kernel.step; the model-file loader restores
both. No kernel or driver keeps a second copy, so a saved world carries on
its run exactly.

A record's constructor sets its own fields: that declares them and moves
nothing, so the constructors of the records that hold these fields are the
one other place they are assigned.

`semsim run` imports no dataclasses (and so no inspect): the record classes
are plain classes, and starting a run does not pay for the decorator.

Only the upgrader knows an old form. The builtins `heartbeat_push` and
`water_flowing` exist only in version-1 model files, and the six builtins
retired in version 3 (`gas_exchange_alv`, `cell_respiration`,
`diffusion_check`, `medulla_sense`, `mix_external_air`, `freeze_watch`) only
in version-1 and version-2 files; `modelfile.upgrade` rewrites them all into
version 3 before anything else reads the file. A module that named one of
them again would bring back a second saved form of a model.

Every function, method and class in the package is reached by the program
itself: its name is used in src/, scripts/ or perfbench/ outside its own
body, or it is on an explicit list with the reason it stays. Code that only
the tests call is a second copy of a behaviour or a behaviour no model has;
an oracle the tests compare against lives in tests/reference.py.
"""
import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "semsim"
OWNED_FIELDS = {"compartment", "alive", "contents"}
LIST_EDITS = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
LIST_ADDS = {"append", "extend", "insert"}
LOADER_WRITES = {"edits .contents"}
COMMIT_WRITES = {"calls .changes.append"}
DECLARING_CONSTRUCTORS = {
    ("entities.py", "SemObject.__init__"): {"assigns .alive"},
    ("entities.py", "Portion.__init__"): {"assigns .compartment", "assigns .alive"},
    ("topology.py", "Compartment.__init__"): {"assigns .contents"},
}
VERSION_1_BUILTINS = {"heartbeat_push", "water_flowing"}
RETIRED_BUILTINS = VERSION_1_BUILTINS | {
    "gas_exchange_alv", "cell_respiration", "diffusion_check", "medulla_sense",
    "mix_external_air", "freeze_watch",
}
PROGRAM_DIRS = ("src", "scripts", "perfbench")
UNREACHED_BY_DESIGN = {
    ("modelfile.py", "save_model_file"):
        "library API: writes the file that load_model_file reads",
    ("validation.py", "_from_iterable"):
        "collections.abc.Set calls it to build the result of a set operator",
    # The name also matches perfbench/run.py's proc.kill, so the scan finds it
    # reached; the entry records why it would stay if it were not.
    ("world.py", "kill"):
        "the world's death operation; the snapshot property tests change the world with it",
    ("world.py", "add_part"):
        "a part-whole operation; the snapshot property tests change the world with it",
    ("world.py", "remove_part"):
        "a part-whole operation; the snapshot property tests change the world with it",
    ("world.py", "place_portion"):
        "library API: moves a portion; the snapshot property tests change the world with it",
    ("world.py", "check_cardinality"):
        "the check a planned cardinality validation rule runs over an object's parts",
}
CHANGE_CONSUMERS = {
    ("world.py", "World.__init__"), ("validation.py", "Snapshot.refresh"), ("engine.py", "Kernel.step"),
}
RECORD_WRITERS = {
    "spec": {("engine.py", "Mechanism.__init__"), ("engine.py", "register_mechanism")},
    "lines": {("engine.py", "StepReport.__init__"), ("engine.py", "Kernel.emit_trace")},
    "fault": {("engine.py", "Kernel.__init__"), ("engine.py", "Kernel.step")},
    "clock": {("world.py", "World.__init__"), ("engine.py", "Kernel.step"),
              ("modelfile.py", "load_model")},
    "signals": {("world.py", "World.__init__"), ("engine.py", "send_signal"),
                ("engine.py", "Kernel.step"), ("modelfile.py", "load_model")},
}


def _assigned(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned(target.value)
    else:
        yield target


def _owner_name(node):
    """The attribute or variable name a method is called on, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def writes(source: str):
    """(line, what) for every write of placement or change records in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for t in _assigned(target):
                if isinstance(t, ast.Attribute) and t.attr in OWNED_FIELDS:
                    found.append((t.lineno, f"assigns .{t.attr}"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in OWNED_FIELDS
        ):
            found.append((node.lineno, f"assigns .{node.args[1].value}"))
        elif isinstance(func, ast.Attribute):
            owner = _owner_name(func.value)
            if owner == "changes" and func.attr in LIST_ADDS:
                found.append((node.lineno, f"calls .changes.{func.attr}"))
            elif owner == "contents" and func.attr in LIST_EDITS:
                found.append((node.lineno, "edits .contents"))
    return sorted(found)


def test_only_world_writes_placement_and_change_records():
    leaks, declared = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module == "world.py":
            continue
        source = path.read_text(encoding="utf-8")
        scopes = {node.lineno: scope for node, scope in _scoped(source) if hasattr(node, "lineno")}
        allowed = {"modelfile.py": LOADER_WRITES, "topology.py": COMMIT_WRITES}.get(module, set())
        for line, what in writes(source):
            constructor = (module, scopes[line])
            if what in DECLARING_CONSTRUCTORS.get(constructor, ()):
                declared.add((constructor, what))
            elif what not in allowed:
                leaks.append(f"{module}:{line}: {what}")
    assert leaks == []
    assert declared == {(c, what) for c, whats in DECLARING_CONSTRUCTORS.items() for what in whats}


def test_the_guard_sees_each_kind_of_write():
    source = """
world.portions[pid].compartment = None
first, portion.alive = 1, False
comp.contents += [pid]
setattr(portion, "compartment", "Dst")
world.changes.append(pid)
changes.extend(ids)
world.compartments[src].contents.remove(pid)
n = len(comp.contents)
portion.location_state = comp.name
world.changes.clear()
ids = [r for r in world.changes]
"""
    assert writes(source) == [
        (2, "assigns .compartment"),
        (3, "assigns .alive"),
        (4, "assigns .contents"),
        (5, "assigns .compartment"),
        (6, "calls .changes.append"),
        (7, "calls .changes.extend"),
        (8, "edits .contents"),
    ]


def _scoped(source: str):
    """(node, enclosing class and function names) for every node in source."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            yield child, ".".join(scope)
            yield from visit(child, scope)

    return visit(ast.parse(source), ())


def change_list_resets(source: str):
    """(line, enclosing class and function) for every assignment to `.changes`
    and every use of a change list's clear."""
    found = []
    for node, scope in _scoped(source):
        if isinstance(node, ast.Attribute) and node.attr == "clear":
            if _owner_name(node.value) == "changes":
                found.append((node.lineno, scope))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "changes"
                   for target in targets for t in _assigned(target)):
                found.append((node.lineno, scope))
    return found


def record_writes(source: str):
    """(line, field, enclosing class and function) for every assignment to, or
    list edit of, a field in RECORD_WRITERS."""
    found = []
    for node, scope in _scoped(source):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LIST_EDITS
        ):
            targets = [node.func.value]
        else:
            targets = []
        for target in targets:
            for t in _assigned(target):
                if isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr in RECORD_WRITERS:
                    found.append((node.lineno, t.attr, scope))
    return found


def test_only_refresh_and_the_kernel_step_consume_change_records():
    uses = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for line, scope in change_list_resets(path.read_text(encoding="utf-8")):
            uses.append((module, scope))
            assert (module, scope) in CHANGE_CONSUMERS, f"{module}:{line}: {scope}"
    assert set(uses) == CHANGE_CONSUMERS


def test_the_guard_sees_each_reset_of_the_change_list():
    source = """
class Snapshot:
    def __init__(self, world):
        world.changes.clear()

def build(world):
    forget = world.changes.clear
    forget()
    world.changes, n = [], 0
    changes = world.changes
    changes.clear()
    n = len(world.changes) + len(changes)
    world.changes.append(n)
"""
    assert change_list_resets(source) == [
        (4, "Snapshot.__init__"), (7, "build"), (9, "build"), (11, "build"),
    ]


def test_each_record_has_one_writer():
    writers = {field: set() for field in RECORD_WRITERS}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for line, field, scope in record_writes(path.read_text(encoding="utf-8")):
            assert (module, scope) in RECORD_WRITERS[field], f"{module}:{line}: {scope} writes .{field}"
            writers[field].add((module, scope))
    assert writers == RECORD_WRITERS


def test_the_guard_sees_each_kind_of_record_write():
    source = """
class Kernel:
    def emit_trace(self, line):
        self.current_report.lines.append(line)

class Console:
    def _step(self):
        self.kernel.fault = None

def build(world, spec, report):
    world.mechanisms["M"].spec = spec
    mechanism.spec["effects"] += [spec]
    mechanism.spec["guard"] = []
    report.lines, n = [], 0
    report.lines.clear()
    n = len(report.lines) + len(mechanism.spec)
    spec = dict(mechanism.spec)
    world.clock += 1
    signals, world.signals = world.signals, []
    world.signals.append(signal)
    tick, pending = world.clock, list(world.signals)
"""
    assert record_writes(source) == [
        (4, "lines", "Kernel.emit_trace"),
        (8, "fault", "Console._step"),
        (11, "spec", "build"),
        (12, "spec", "build"),
        (13, "spec", "build"),
        (14, "lines", "build"),
        (15, "lines", "build"),
        (18, "clock", "build"),
        (19, "signals", "build"),
        (20, "signals", "build"),
    ]


def dataclass_imports(source: str):
    """Line numbers of every import of dataclasses in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(node.lineno)
    return found


def test_no_module_imports_dataclasses():
    found = [
        f"{path.relative_to(PACKAGE).as_posix()}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in dataclass_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_guard_sees_each_kind_of_dataclass_import():
    source = """
import dataclasses
from dataclasses import dataclass, field
import json, dataclasses as dc
def build():
    from dataclasses import replace
"""
    assert dataclass_imports(source) == [2, 3, 4, 6]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -I -S: no user site, no site-packages, no PYTHONPATH; only the checkout's src/.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import semsim.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def version_1_names(source: str):
    """(line, name, enclosing class and function) for every string constant
    in source that is the name of a retired builtin."""
    return [
        (node.lineno, node.value, scope)
        for node, scope in _scoped(source)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in RETIRED_BUILTINS
    ]


def test_only_the_upgrader_names_a_version_1_builtin():
    uses = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for line, name, scope in version_1_names(path.read_text(encoding="utf-8")):
            assert (module, scope) == ("modelfile.py", "upgrade"), f"{module}:{line}: {name!r}"
            uses.add(name)
    assert uses == RETIRED_BUILTINS


def test_the_guard_sees_each_version_1_builtin_name():
    source = """
BUILTINS = {"heartbeat_push": make}
def load(spec):
    \"\"\"Loads water_flowing files.\"\"\"
    return spec["builtin"] in ("water_flowing", "heartbeat_push_v2", f"{spec}")
def gas_exchange_alv(name="freeze_watch"):
    return {"effects": [["fire", "cell_respiration"]], "medulla_sense": 1}
"""
    assert version_1_names(source) == [
        (2, "heartbeat_push", ""), (5, "water_flowing", "load"),
        (6, "freeze_watch", "gas_exchange_alv"), (7, "medulla_sense", "gas_exchange_alv"),
        (7, "cell_respiration", "gas_exchange_alv"),
    ]


def definitions(source: str):
    """(first line, last line, name) of every function, method and class
    in source, dunder methods aside: Python itself calls those."""
    return [
        (node.lineno, node.end_lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(source: str):
    """(line, name) for every name, attribute, imported name and string
    constant in source. A string counts, so a name looked up by getattr or
    wrapped by the benchmark's tracer is reached."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            found.append((node.lineno, node.name.split(".")[-1]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.lineno, node.value))
    return found


def unreached(sources: dict[str, str], package: str):
    """(path, line, name) of every definition in the files under package
    whose name no file in sources uses outside the definition's own lines."""
    used: dict[str, set[tuple[str, int]]] = {}
    for path, source in sources.items():
        for line, name in references(source):
            used.setdefault(name, set()).add((path, line))
    found = []
    for path, source in sources.items():
        if not path.startswith(package):
            continue
        for first, last, name in definitions(source):
            if all(p == path and first <= line <= last for p, line in used.get(name, ())):
                found.append((path, first, name))
    return sorted(found)


def test_every_definition_in_the_package_is_reached_by_the_program():
    sources = {
        path.relative_to(REPO).as_posix(): path.read_text(encoding="utf-8")
        for top in PROGRAM_DIRS
        for path in sorted((REPO / top).rglob("*.py"))
        if not path.name.startswith("test_")
    }
    package = PACKAGE.relative_to(REPO).as_posix() + "/"
    found = [(path[len(package):], name) for path, _line, name in unreached(sources, package)]
    assert [entry for entry in found if entry not in UNREACHED_BY_DESIGN] == []
    defined = {
        (path[len(package):], name)
        for path, source in sources.items() if path.startswith(package)
        for _first, _last, name in definitions(source)
    }
    assert set(UNREACHED_BY_DESIGN) <= defined


def test_the_guard_sees_each_kind_of_reference():
    sources = {
        "pkg/a.py": """
class Used:
    def method(self):
        return self.method()  # its own body does not count
    def hook(self):
        pass
def helper():
    return helper
def spare():
    pass
def by_name():
    pass
""",
        "pkg/b.py": """
from pkg.a import Used
def run(obj):
    obj.hook()
    return getattr(obj, "by_name")
""",
        "bench/c.py": "from pkg.a import helper as h\n",
    }
    assert unreached(sources, "pkg/") == [
        ("pkg/a.py", 3, "method"), ("pkg/a.py", 9, "spare"), ("pkg/b.py", 3, "run"),
    ]
