#!/usr/bin/env python3
"""Line coverage of a package under its tests, with the standard library only.

    python3 scripts/coverage.py [--source DIR] [-- PYTEST_ARGS]

Runs pytest in this process (default arguments: `tests -q`) with a
sys.settrace hook that records each line run in a file under --source
(default: src/semsim). A file's executable lines are the line starts of
every code object compiled from it (dis.findlinestarts), as the standard
`trace` module counts them. For each file it prints how many of those lines
no test ran, and which, as ranges; then the totals.

The hook is off while a test function named in COLLECTOR_TESTS runs: the
two tests in tests/test_cli.py that assert a run leaves nothing for the
cyclic collector, which the hook's frames would make fail. Those tests still
run and count toward the exit status, but the lines only they reach count
as unexecuted.

The exit status is pytest's. Import nothing under --source before the hook
is set, or its module-level lines read as unexecuted: this script imports
none of it.
"""
import argparse
import dis
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
COLLECTOR_TESTS = (
    "test_a_run_makes_no_cyclic_garbage",
    "test_a_finished_runs_history_is_freed_by_reference_counting",
)


def executable_lines(path: Path) -> set[int]:
    """The line starts of every code object compiled from path."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _offset, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


class LineRecorder:
    """A sys.settrace hook that records the lines run in files under root."""

    def __init__(self, root: Path):
        self.root = str(root.resolve())
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}  # filename -> its line tracer, or None

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local[filename]
        except KeyError:
            pass
        local = None
        if str(Path(filename).resolve()).startswith(self.root):
            lines = self.hits.setdefault(str(Path(filename).resolve()), set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

        self._local[filename] = local
        return local

    def start(self):
        threading.settrace(self)
        sys.settrace(self)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


class SkipUntraced:
    """A pytest plugin that turns the hook off around each collector test."""

    def __init__(self, recorder: LineRecorder):
        self.recorder = recorder

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        untraced = getattr(item, "originalname", item.name) in COLLECTOR_TESTS
        if untraced:
            self.recorder.stop()
        yield
        if untraced:
            self.recorder.start()


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9, 12."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(root: Path, hits: dict[str, set[int]], out=sys.stdout) -> int:
    """Print each file's unexecuted lines and the totals; return the total unexecuted."""
    total = missed = 0
    for path in sorted(root.resolve().rglob("*.py")):
        lines = executable_lines(path)
        unrun = lines - hits.get(str(path), set())
        total += len(lines)
        missed += len(unrun)
        name = path.relative_to(root.resolve()).as_posix()
        detail = f": {ranges(unrun)}" if unrun else ""
        print(f"{name}: {len(unrun)} of {len(lines)} unexecuted{detail}", file=out)
    print(f"total: {missed} of {total} executable lines unexecuted "
          f"({total - missed} run)", file=out)
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", type=Path, default=REPO / "src" / "semsim",
                        help="the directory whose lines are recorded")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest (after --)")
    args = parser.parse_args(argv)
    if not args.source.is_dir():
        parser.error(f"--source {str(args.source)!r} is not a directory")
    recorder = LineRecorder(args.source)
    recorder.start()
    try:
        status = pytest.main(args.pytest_args or ["tests", "-q"],
                             plugins=[SkipUntraced(recorder)])
    finally:
        recorder.stop()
    report(args.source, recorder.hits)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
