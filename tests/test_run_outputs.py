"""The files a run writes and the history it keeps to write them.

The report sidecar is one JSON document with one step entry per line; it must
parse to exactly the document the indented writer built before it, and the
trace must keep its bytes. Writing must not build the whole document, and the
per-step history must hold no per-record attribute dicts or per-line strings.
"""
import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from semsim import Kernel, Portion, StepReport, TraceEvent, Transitional, ValidationReport
from semsim import cli
from semsim.cli import RunConfig, make_kernel, resolve_model, write_outputs
from semsim.engine import FiringRecord, GuardFailure
from semsim.models import build_cardio
from semsim.topology import CommitRecord
from semsim.validation import NO_VIOLATIONS, Violation
from semsim.world import Vocabulary

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cardio_seed0_50ticks.txt"
CUT_PHRENIC = str(SCENARIOS / "cut_phrenic.json")


def legacy_sidecar(kernel: Kernel, exit_code: int) -> dict:
    """The report document as the writer built it in memory before streaming."""
    return {
        "model": kernel.world.name,
        "seed": kernel.seed,
        "mode": kernel.mode,
        "policy": kernel.validate_policy,
        "steps_executed": len(kernel.reports),
        "halted_at_step": kernel.halted_at,
        "exit_code": exit_code,
        "reports": [
            {
                "step": r.step,
                "fired": [f.mechanism for f in r.fired],
                "guard_failures": [
                    {"mechanism": g.mechanism, "failed": g.failed} for g in r.guard_failures
                ],
                "violations": [
                    {"rule": v.rule, "bindings": v.bindings} for v in r.validation.violations
                ],
            }
            for r in kernel.reports
        ],
    }


def run_capturing_kernel(monkeypatch, args):
    """Run `semsim run` in-process; return its exit code, kernel and config."""
    seen = []
    real = cli.write_outputs

    def spy(kernel, config, exit_code):
        seen.append((kernel, config))
        return real(kernel, config, exit_code)

    monkeypatch.setattr(cli, "write_outputs", spy)
    exit_code = cli.main(["run", *args])
    (kernel, config), = seen
    return exit_code, kernel, config


@pytest.mark.parametrize(
    "args,expected_exit",
    [
        (["--model", "cardio", "--steps", "40", "--scenario", CUT_PHRENIC], 2),
        (["--model", "cardio", "--steps", "120", "--validate", "warn",
          "--scenario", CUT_PHRENIC], 0),
        (["--model", "waterfall", "--portions", "30"], 0),
        (["--model", "waterfall", "--steps", "0"], 0),
    ],
    ids=["halted", "warn-guard-failures", "waterfall", "no-steps"],
)
def test_sidecar_parses_to_the_legacy_document(monkeypatch, tmp_path, args, expected_exit):
    exit_code, kernel, config = run_capturing_kernel(
        monkeypatch, [*args, "--trace", str(tmp_path / "run.trace")]
    )
    assert exit_code == expected_exit
    text = Path(config.report_path).read_text(encoding="utf-8")
    expected = legacy_sidecar(kernel, exit_code)
    assert json.loads(text) == expected

    # The header line, one line per step entry, then the closing line.
    lines = text.splitlines()
    assert len(lines) == len(kernel.reports) + 2
    assert lines[0].endswith('"reports": [') and lines[-1] == "]}"
    for line, entry in zip(lines[1:-1], expected["reports"]):
        assert json.loads(line.removesuffix(",")) == entry

    trace = "".join(line + "\n" for line in kernel.trace_lines())
    assert Path(config.trace_path).read_bytes() == trace.encode("utf-8")


def per_entry_sidecar(kernel: Kernel, exit_code: int) -> str:
    """The sidecar text with every step entry encoded by its own json.dumps."""
    document = legacy_sidecar(kernel, exit_code)
    entries = document.pop("reports")
    header = json.dumps(document)[:-1] + ', "reports": ['
    return header + "".join(
        ("\n" if i == 0 else ",\n") + json.dumps(entry) for i, entry in enumerate(entries)
    ) + "\n]}\n"


@pytest.mark.parametrize(
    "args,expected_exit",
    [
        (["--model", "cardio", "--steps", "40", "--scenario", CUT_PHRENIC], 2),
        (["--model", "cardio", "--steps", "300", "--validate", "warn",
          "--scenario", CUT_PHRENIC], 0),
        (["--model", "cardio", "--steps", "1000", "--validate", "off"], 0),
    ],
    ids=["halted", "warn-guard-failures", "off"],
)
def test_sidecar_bytes_match_encoding_each_entry_alone(
    monkeypatch, tmp_path, args, expected_exit
):
    exit_code, kernel, config = run_capturing_kernel(
        monkeypatch, [*args, "--trace", str(tmp_path / "run.trace")]
    )
    assert exit_code == expected_exit
    written = Path(config.report_path).read_text(encoding="utf-8")
    assert written == per_entry_sidecar(kernel, exit_code)


def test_steps_of_one_shape_keep_their_own_violations(tmp_path):
    config = RunConfig(model="cardio", steps=40, validate_policy="off",
                       trace_path=str(tmp_path / "t"))
    kernel = make_kernel(resolve_model(config), config)
    kernel.run(config.steps)
    def fired(r):
        return [f.mechanism for f in r.fired]

    quiet = [r for r in kernel.reports if not r.guard_failures]
    alike = [r for r in quiet if fired(r) == fired(quiet[0])]
    assert len(alike) >= 3
    alike[0].validation = ValidationReport([Violation("A", {"x": "1"})])
    alike[1].validation = ValidationReport([Violation("B")])
    write_outputs(kernel, config, 0)
    assert Path(config.report_path).read_text(encoding="utf-8") == per_entry_sidecar(kernel, 0)


def test_warn_run_sidecar_carries_guard_failures_and_violations(monkeypatch, tmp_path):
    args = ["--model", "cardio", "--steps", "120", "--validate", "warn",
            "--scenario", CUT_PHRENIC, "--trace", str(tmp_path / "t")]
    _, _, config = run_capturing_kernel(monkeypatch, args)
    reports = json.loads(Path(config.report_path).read_text(encoding="utf-8"))["reports"]
    assert any(r["guard_failures"] for r in reports)
    assert any(v["rule"] == "NoNervePath" for r in reports for v in r["violations"])


def test_writing_outputs_does_not_build_the_whole_document(tmp_path):
    config = RunConfig(
        model="cardio", steps=3000, validate_policy="off", trace_path=str(tmp_path / "t")
    )
    kernel = make_kernel(resolve_model(config), config)
    kernel.run(config.steps)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_outputs(kernel, config, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 1_000_000


@pytest.mark.parametrize(
    "record",
    [
        TraceEvent(0, "SANode pulse"),
        StepReport(0),
        FiringRecord("m", "trigger:t"),
        GuardFailure("m", "trigger:t", ["ok"]),
        Violation("rule"),
        ValidationReport(),
        Transitional("birth", ("p",), ("blood",)),
        Portion("p", "blood"),
        CommitRecord([]),
    ],
    ids=lambda record: type(record).__name__,
)
def test_history_records_have_no_attribute_dict(record):
    assert not hasattr(record, "__dict__")


def test_trace_keeps_the_vocabulary_string_for_each_literal():
    world = build_cardio()
    kernel = Kernel(world, validate_policy="off")
    kernel.run(100)
    first = {line: line for line in world.vocabulary.literals}
    # Equal strings, other objects: the replacement's own must be stored.
    world.vocabulary = Vocabulary(literals=frozenset(line[:1] + line[1:] for line in first))
    second = {line: line for line in world.vocabulary.literals}
    kernel.run(100)

    pushes = [line for r in kernel.reports for line in r.lines if line.startswith("pushed ")]
    assert len(pushes) > len(set(pushes))  # lines repeat
    for report in kernel.reports:
        own = first if report.step < 100 else second
        for line in report.lines:
            assert line is own[line]


def test_a_run_keeps_its_trace_as_strings_and_builds_no_event():
    # The events that exist already stay alive here, so no event the run
    # built can take one of their ids.
    before = [o for o in gc.get_objects() if type(o) is TraceEvent]
    known = {id(o) for o in before}
    kernel = make_kernel(build_cardio(), RunConfig(model="cardio"))
    kernel.run(1000)
    assert len(kernel.reports) == 1000
    assert all(type(line) is str for r in kernel.reports for line in r.lines)
    assert [o for o in gc.get_objects() if type(o) is TraceEvent and id(o) not in known] == []
    assert list(kernel.trace) == [
        TraceEvent(r.step, line) for r in kernel.reports for line in r.lines
    ] != []


@pytest.fixture
def no_trace_events(monkeypatch):
    def refuse(self, step, line):
        raise AssertionError("a TraceEvent was built")

    monkeypatch.setattr(TraceEvent, "__init__", refuse)


def test_writing_the_golden_run_builds_no_trace_event(tmp_path, no_trace_events):
    trace = tmp_path / "cardio.trace"
    args = ["run", "--model", "cardio", "--steps", "50", "--seed", "0", "--trace", str(trace)]
    assert cli.main(args) == 0
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert trace.read_text(encoding="utf-8") == "".join(f"{row[6:]}\n" for row in golden)


def test_pattern_lines_are_stored_as_emitted():
    vocabulary = Vocabulary(literals=frozenset({"pause"}), patterns=(r"\d+ pool",))
    line = "".join(["1", "2 pool"])
    assert vocabulary.canonical(line) is line
    assert vocabulary.canonical("pause") == "pause"
    assert vocabulary.canonical("12 puddle") is None
    assert not vocabulary.allows("12 puddle")


# `semsim run --model cardio --steps 200` trace and sidecar digests, as the
# program wrote them before cardio's heartbeat was built from its binding.
PINNED_RUNS = {
    "concurrent-seed-11": (
        ["--mode", "concurrent", "--seed", "11"],
        "c23b957a6e2fa147fe7d64df7d6d1c59b433ee521794b83879146cfbec979976",
        "183cd995478b5ce0390bd3fb213fd9a69e2d03ca803987fed8e2c30b13b5400c",
    ),
    "concurrent-seed-12": (
        ["--mode", "concurrent", "--seed", "12"],
        "6f87b647ec91e0fad5006fe346696d3b2009e5f37f0b720c578ce9b3cde731f4",
        "be3be60ddf881371e15ca125d0415a7e7b71de54ad06746b0f2ca22edd64a3d3",
    ),
    "deterministic-seed-0": (
        ["--seed", "0"],
        "cded0b1e1cb55a80478313dcdaad685cbb315eabb836bcb9cac3858948e48552",
        "cbc2ad8c08e3bb90e281d4e2eaa35931dfb44d224c0612d4d54bb3581552b8d2",
    ),
    "validate-off-seed-0": (
        ["--seed", "0", "--validate", "off"],
        "cded0b1e1cb55a80478313dcdaad685cbb315eabb836bcb9cac3858948e48552",
        "6067577fa038a3d532d5cd89d2ad120b3d455fca20edafbd5e6cfff29f34242d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_a_cardio_run_writes_its_pinned_trace_and_sidecar(tmp_path, no_trace_events, name):
    flags, trace_sha256, sidecar_sha256 = PINNED_RUNS[name]
    trace = tmp_path / "cardio.trace"
    args = ["run", "--model", "cardio", "--steps", "200", *flags, "--trace", str(trace)]
    assert cli.main(args) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha256
    sidecar = Path(str(trace) + ".report.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == sidecar_sha256


def test_an_unvalidated_step_keeps_no_report_of_its_own():
    kernel = Kernel(build_cardio(), validate_policy="off")
    kernel.run(50)
    assert all(r.validation is NO_VIOLATIONS for r in kernel.reports)
    assert NO_VIOLATIONS.violations == []
    assert kernel.reports[3].describe() == "step 3: fired=- violations=0"

    # A wiring error is still reported, on the step's own report.
    kernel.world.remove_connection("LeftAtrium", "LeftVentricle")
    reports = kernel.run(4)  # ticks 50 to 53: the SA node beats at 52
    beat = reports[2]
    assert beat.step == 52
    assert [v.rule for v in beat.validation.violations] == ["PushWithoutConnection"]
    assert all(r.validation is NO_VIOLATIONS for r in reports if r is not beat)
    assert NO_VIOLATIONS.violations == []


@pytest.mark.parametrize("policy", ["halt", "warn"])
def test_a_clean_validated_step_shares_the_empty_report(policy):
    kernel = make_kernel(build_cardio(), RunConfig("cardio", validate_policy=policy))
    kernel.run(50)
    assert all(r.validation is NO_VIOLATIONS for r in kernel.reports)

    # A wiring error is reported on the step's own report; the shared one
    # stays empty.
    kernel.world.remove_connection("LeftAtrium", "LeftVentricle")
    reports = kernel.run(4)  # ticks 50 to 53: the SA node beats at 52
    beat = reports[2]
    assert beat.step == 52 and beat.validation is not NO_VIOLATIONS
    assert [v.rule for v in beat.validation.violations] == ["PushWithoutConnection"]
    assert all(r.validation is NO_VIOLATIONS for r in reports if r is not beat)
    assert NO_VIOLATIONS.violations == []
    assert kernel.halted_at == (52 if policy == "halt" else None)


def test_a_step_with_a_rule_violation_gets_a_report_of_its_own():
    kernel = make_kernel(build_cardio(), RunConfig("cardio", validate_policy="warn"))
    kernel.world.place_portion("air-nose", "RightAtrium")  # two portions in one chamber
    _beat, first, second = kernel.run(3)  # the beat at tick 0 also reports a wiring error
    assert first.validation is not second.validation
    for report in (first, second):
        assert report.validation is not NO_VIOLATIONS
        assert [v.rule for v in report.validation.violations] == ["compartment-capacity"] * 2
    assert NO_VIOLATIONS.violations == []


# `semsim run --model waterfall` trace and sidecar digests, as the program
# wrote them while the waterfall was built by hand, not from its binding.
POOL_500_TRACE = "487779bcb3834b7641c33f2a5e31c9929a7aa4fbfaee898d4c2558684a4a8a26"
EMPTY_TRACE = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED_WATERFALL_RUNS = {
    "portions-500-halt": (
        ["--portions", "500"],
        POOL_500_TRACE,
        "1008a4dc628f7ee8465b8724a56014c779aa74981b50ae4177106fabebd19e8e",
    ),
    "portions-500-off": (
        ["--portions", "500", "--validate", "off"],
        POOL_500_TRACE,
        "cf06eccd78468f91a92da50ce4ada2617218d7530f761d102e450a01d601a92c",
    ),
    "portions-500-freeze-warn": (
        ["--portions", "500", "--scenario", str(SCENARIOS / "freeze.json"), "--validate", "warn"],
        EMPTY_TRACE,
        "a014b660230f5a431758d801afcf10b10d8487a9eb8bd6cfa55e977758a814f7",
    ),
    "steps-40-portions-30": (
        ["--steps", "40", "--portions", "30"],
        "42e955a3275deeae0fd88c6fbb32efbeaf3e340962c617ff9122c8170f876a15",
        "14f10222d4da79ce7960f331ebeb11b45d5743981a95ee3814c395434e2e26ec",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_WATERFALL_RUNS))
def test_a_waterfall_run_writes_its_pinned_trace_and_sidecar(tmp_path, name):
    flags, trace_sha256, sidecar_sha256 = PINNED_WATERFALL_RUNS[name]
    trace = tmp_path / "waterfall.trace"
    assert cli.main(["run", "--model", "waterfall", *flags, "--trace", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha256
    sidecar = Path(str(trace) + ".report.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == sidecar_sha256


# sha256 of repr([(kind, subjects, results, step), ...]) over a run's whole
# transitional_log: what each write recorded, in order, with its tick.
PINNED_TRANSITIONAL_LOGS = {
    "cardio-1000": (
        RunConfig("cardio", steps=1000),
        "f15c8eb86e805f11dbdb9f646e588ded0a4c74ad825bceda2fc3cdcbefb76654",
    ),
    "waterfall-500": (
        RunConfig("waterfall", portions=500),
        "2d0f72b0993928e92ac2d177d075d69b5d068911d6f1d20a4b79e02feee0638c",
    ),
    "waterfall-500-freeze": (
        RunConfig("waterfall", portions=500, validate_policy="warn",
                  scenario_path=str(SCENARIOS / "freeze.json")),
        "eb3cc9f0fd7a239ed3ce1b50a5932f8c19fea273b5c0e8e09336007e17564940",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRANSITIONAL_LOGS))
def test_a_run_logs_its_pinned_transitionals(name):
    config, digest = PINNED_TRANSITIONAL_LOGS[name]
    kernel = cli.prepare(config)
    kernel.run(cli.planned_steps(config))
    assert len(kernel.reports) == cli.planned_steps(config) and not kernel.halted
    log = [(t.kind, t.subjects, t.results, t.step) for t in kernel.world.transitional_log]
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
