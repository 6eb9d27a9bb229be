#!/usr/bin/env python3
"""The semsim benchmark: time `semsim run` on fixed workloads, check every output.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each measured run is a fresh child process (child.py) doing what
`semsim run` does, so its wall time, set-up time and peak RSS are what a
modeller sees. Runs repeat, one at a time, until `--seconds` have passed;
every metric is the median over the runs whose output passed its check,
with the quartiles printed alongside, except the step percentiles, which are
taken over the steps of all those runs together. Every time is scaled to a
reference host speed by the calibrations the child makes (HostSpeed). With
`--trace 1` every untraced run is paired with a traced one (tracer.py) and
the per-layer numbers are medians over the traced runs. The last line of
output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

Workload sizes are fixed here; the seed goes to `semsim run --seed`. Why each
workload exists is in README.md and BENCHMARK.json; the expected trace
digests and the seed commit's numbers are in baseline.json.
"""
from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"
GOLDEN = ROOT / "tests" / "golden" / "cardio_seed0_50ticks.txt"
# Traces, sidecars and step timings go here while a run is checked, then go.
SCRATCH = ROOT / ".perfbench_tmp"

MIN_RUNS = 3
WARMUP_TICKS = 20  # one short run first fills the bytecode cache
CHILD_TIMEOUT_S = 150.0
TIME_CAP_S = 150.0  # start no run that would end the command after this
BLOOD_PORTIONS = 7
# The calibration unit's time at the reference speed: about its median on
# the 2-vCPU host the benchmark was written on, so scaled times read close
# to that host's typical times.
REF_CAL_S = 0.0005


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    size_flag: str  # "--steps" or "--portions"; either sets the tick count
    ticks: int
    check: str  # "cardio", "pool" or "causal"; see check_outputs
    trace_sha256: str | None = None  # None where thread scheduling orders the trace

    def semsim_args(self, seed: int, trace_path: Path, ticks: int | None = None) -> list[str]:
        return [
            "run", *self.flags, self.size_flag, str(ticks or self.ticks),
            "--seed", str(seed), "--trace", str(trace_path),
        ]


def load_workloads() -> dict[str, Workload]:
    digests = {
        name: entry.get("trace_sha256")
        for name, entry in json.loads(BASELINE.read_text())["workloads"].items()
    }
    workloads = [
        Workload("cardio_halt", ("--model", "cardio", "--validate", "halt"),
                 "--steps", 1000, "cardio"),
        Workload("cardio_off_long", ("--model", "cardio", "--validate", "off"),
                 "--steps", 10000, "cardio"),
        Workload("waterfall_pool", ("--model", "waterfall", "--validate", "halt"),
                 "--portions", 500, "pool"),
        # Run by name only; BENCHMARK.json leaves it out because its timings
        # swing 2x with host load (waking a worker thread on the idle vCPU
        # costs far more while other tenants use the host). Its output
        # checks and per-layer counts hold.
        Workload("cardio_concurrent",
                 ("--model", "cardio", "--mode", "concurrent", "--validate", "off"),
                 "--steps", 3000, "causal"),
    ]
    return {w.name: dataclasses.replace(w, trace_sha256=digests.get(w.name)) for w in workloads}


# (name, unit) of every metric, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ticks_per_s", "ticks/s"),
    ("tail_ticks_per_s", "ticks/s"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("validation.match_s", "s"),
    ("validation.match_calls", "count"),
    ("validation.matches", "count"),
    ("validation.match_yield", "ratio"),
    ("validation.derive_s", "s"),
    ("validation.triples", "count"),
    ("validation.violations", "count"),
    ("engine.self_s", "s"),
    ("engine.threads_started", "count"),
    ("engine.fire_s", "s"),
    ("engine.guard_s", "s"),
    ("engine.dispatches", "count"),
    ("engine.fired", "count"),
    ("engine.guard_failures", "count"),
    ("engine.guard_passes_per_dispatch", "ratio"),
    ("engine.emit_trace_s", "s"),
    ("engine.trace_lines", "count"),
    ("topology.commit_s", "s"),
    ("topology.ring_push_s", "s"),
    ("topology.commits", "count"),
    ("topology.moves", "count"),
    ("world.split_s", "s"),
    ("world.merge_s", "s"),
    ("world.set_state_s", "s"),
    ("world.occupant_s", "s"),
    ("world.portions_total", "count"),
    ("world.portions_live", "count"),
    ("world.live_ratio", "ratio"),
    ("world.transitionals", "count"),
    ("cli.write_outputs_s", "s"),
    ("cli.trace_bytes", "bytes"),
    ("cli.report_bytes", "bytes"),
    ("models.build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = dict(END_TO_END + PER_LAYER)
# Per-layer counts that are a pure function of the workload: every traced run
# of a deterministic workload must give the same values.
DETERMINISTIC_COUNTS = tuple(
    name for name, unit in PER_LAYER
    if unit in ("count", "bytes") or name == "engine.guard_passes_per_dispatch"
)


@dataclass
class Run:
    traced: bool
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    spans: dict = field(default_factory=dict)  # tracer tables, traced runs only
    steps_ms: list[float] = field(default_factory=list)  # scaled, ascending
    trace_sha256: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def percentile(ordered, share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def read_pairs(path: Path) -> tuple[array, array]:
    """The (start times, durations) a child wrote as native doubles."""
    values = array("d")
    values.frombytes(path.read_bytes())
    n = len(values) // 2
    return values[:n], values[n:]


class HostSpeed:
    """Scales host time to the reference speed, from the child's calibrations.

    The calibration unit (child.py) is fixed work that takes `REF_CAL_S` at
    the reference speed. A stretch of time between two calibrations is
    multiplied by `REF_CAL_S` over the mean of those two calibration times;
    the calibrations' own time is left out. On the 2-vCPU host the benchmark
    was written on, the host's speed drifts by up to 2x over seconds, and this
    scaling cut the spread of 10-second medians of step time from about 36%
    to about 2% of the median.
    """

    def __init__(self, starts: array, durations: array):
        if not durations:
            raise ValueError("no calibration times")
        self.starts = starts
        self.durations = durations
        self.ends = [s + d for s, d in zip(starts, durations)]

    def factor(self, i: int) -> float:
        """Scale for the time between calibration i-1 and calibration i."""
        around = self.durations[max(0, i - 1):i + 1]
        return REF_CAL_S * len(around) / sum(around)

    def scaled(self, a: float, b: float) -> float:
        """Reference-speed duration of [a, b], calibration time excluded."""
        i = bisect.bisect_right(self.starts, a)
        cursor = max(a, self.ends[i - 1]) if i else a
        total = 0.0
        while True:
            following = self.starts[i] if i < len(self.starts) else math.inf
            stop = min(b, following)
            if stop > cursor:
                total += (stop - cursor) * self.factor(i)
            if following >= b:
                return total
            cursor = self.ends[i]
            i += 1


def step_metrics(rundir: Path, spawned: float, exited: float) -> tuple[dict[str, float], list]:
    """The run's scaled times, and its scaled step times in ms, ascending."""
    starts, durations = read_pairs(rundir / "steps.bin")
    cal_starts, cal_durations = read_pairs(rundir / "cal.bin")
    speed = HostSpeed(cal_starts, cal_durations)
    n = len(starts)
    end = starts[-1] + durations[-1]
    tail = n - (3 * n) // 4
    ordered = sorted(speed.scaled(s, s + d) * 1e3 for s, d in zip(starts, durations))
    return {
        "wall_s": speed.scaled(spawned, exited),
        "setup_s": speed.scaled(spawned, starts[0]),
        "ticks_per_s": n / speed.scaled(starts[0], end),
        "tail_ticks_per_s": tail / speed.scaled(starts[n - tail], end),
        "step_p50_ms": percentile(ordered, 0.50),
        "step_p99_ms": percentile(ordered, 0.99),
        "steps_timed": n,
        "host.wall_s": exited - spawned,
        "host.cal_unit_ms": statistics.median(cal_durations) * 1e3,
    }, ordered


def causal_problems(lines: list[str]) -> list[str]:
    """Acceptance criterion 4: causal order survives concurrent mode."""
    nerve = contract = 0
    for line in lines:
        if line == "past phrenicNerve trigger":
            nerve += 1
        elif line == "into diaphragm contract":
            contract += 1
            if contract > nerve:
                return ["diaphragm contracted before its phrenic nerve trigger"]
    state = "idle"
    for line in lines:
        if line == "inhale cycle":
            state = "cycle"
        elif line == "completed inhale ExternalAir to Nose Air":
            if state != "cycle":
                return ["nose inhale out of order"]
            state = "nose"
        elif line == "completed inhale Nose Air to Alv Air":
            if state != "nose":
                return ["alveolar inhale out of order"]
            state = "idle"
    return []


def check_outputs(workload: Workload, ticks: int, run: Run, result: dict,
                  trace: bytes, steps_executed: int, violations: int) -> list[str]:
    problems = []
    if steps_executed != ticks or run.metrics["steps_timed"] != ticks:
        problems.append(f"{steps_executed} steps executed, expected {ticks}")
    if violations:
        problems.append(f"{violations} validation violations")
    if workload.trace_sha256 is not None and run.trace_sha256 != workload.trace_sha256:
        problems.append(f"trace sha256 {run.trace_sha256} != expected {workload.trace_sha256}")
    lines = trace.decode("utf-8").splitlines()
    if workload.check == "cardio":
        if result.get("golden") != GOLDEN.read_text(encoding="utf-8"):
            problems.append(f"first 50 ticks differ from {GOLDEN.relative_to(ROOT)}")
    elif workload.check == "pool":
        if lines != [f"{i} pool" for i in range(ticks)]:
            problems.append("trace is not one '<i> pool' line per portion, in order")
    elif workload.check == "causal":
        problems += causal_problems(lines)
        live = result.get("live", {}).get("blood")
        if live != BLOOD_PORTIONS:
            problems.append(f"{live} live blood portions at the end, expected {BLOOD_PORTIONS}")
    return problems


def layer_metrics(tables: dict, world: dict, trace_bytes: int,
                  report_bytes: int, violations: int) -> dict[str, float]:
    self_s, calls, counts = tables["self_s"], tables["calls"], tables["counts"]

    def span(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    match_calls = calls.get("validation.match", 0)
    fired = calls.get("engine.fire", 0)
    dispatches = fired + world["guard_failures"]
    guard_passes = calls.get("engine.enabled", 0) + calls.get("engine.guard_report", 0)
    return {
        "validation.match_s": span("validation.validate"),
        "validation.match_calls": match_calls,
        "validation.matches": counts.get("validation.matches", 0),
        "validation.match_yield": counts.get("validation.matches", 0) / match_calls
        if match_calls else 0.0,
        "validation.derive_s": span("validation.derive_triples"),
        "validation.triples": counts.get("validation.triples", 0),
        "validation.violations": violations,
        "engine.self_s": span("engine.step"),
        "engine.threads_started": calls.get("threading.start", 0),
        "engine.fire_s": span("engine.fire"),
        "engine.guard_s": span("engine.enabled", "engine.guard_report"),
        "engine.dispatches": dispatches,
        "engine.fired": fired,
        "engine.guard_failures": world["guard_failures"],
        "engine.guard_passes_per_dispatch": guard_passes / dispatches if dispatches else 0.0,
        "engine.emit_trace_s": span("engine.emit_trace"),
        "engine.trace_lines": calls.get("engine.emit_trace", 0),
        "topology.commit_s": span("topology.commit"),
        "topology.ring_push_s": span("topology.ring_push"),
        "topology.commits": calls.get("topology.commit", 0),
        "topology.moves": counts.get("topology.moves", 0),
        "world.split_s": span("world.split_portion"),
        "world.merge_s": span("world.merge_portions"),
        "world.set_state_s": span("world.set_state"),
        "world.occupant_s": span("world.occupant"),
        "world.portions_total": world["portions_total"],
        "world.portions_live": world["portions_live"],
        "world.live_ratio": world["portions_live"] / world["portions_total"]
        if world["portions_total"] else 0.0,
        "world.transitionals": world["transitionals"],
        "cli.write_outputs_s": span("cli.write_outputs"),
        "cli.trace_bytes": trace_bytes,
        "cli.report_bytes": report_bytes,
        "models.build_s": span("models.build"),
    }


def run_child(workload: Workload, seed: int, scratch: Path, traced: bool,
              ticks: int | None = None) -> Run:
    """Run one child process to completion, then check and measure its outputs."""
    ticks = ticks or workload.ticks
    rundir = Path(tempfile.mkdtemp(dir=scratch))
    trace_path = rundir / "run.trace"
    cmd = [sys.executable, "-I", str(CHILD), "--out", str(rundir)]
    if traced:
        cmd.append("--traced")
    cmd += ["--", *workload.semsim_args(seed, trace_path, ticks)]
    run = Run(traced)
    try:
        with open(rundir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=rundir, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (rundir / "stderr.txt").read_text(errors="replace").strip()[-500:]
            run.problems.append(f"exit code {proc.returncode}: {tail}")
            return run
        result = json.loads((rundir / "result.json").read_text())
        trace = trace_path.read_bytes()
        report_path = Path(str(trace_path) + ".report.json")
        sidecar = json.loads(report_path.read_text())
        violations = sum(len(r["violations"]) for r in sidecar["reports"])
        run.trace_sha256 = hashlib.sha256(trace).hexdigest()
        run.metrics, run.steps_ms = step_metrics(rundir, spawned, exited)
        run.metrics["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
        run.problems += check_outputs(workload, ticks, run, result, trace,
                                      sidecar["steps_executed"], violations)
        if traced:
            run.metrics.update(layer_metrics(
                result["tracer"], result["world"], len(trace),
                report_path.stat().st_size, violations))
            run.spans = result["tracer"]
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        run.problems.append(f"unreadable output: {exc!r}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return run


@dataclass
class Measurement:
    workload: Workload
    runs: list[Run]
    traced: bool

    @property
    def failed(self) -> list[Run]:
        return [r for r in self.runs if not r.ok]

    def values(self, name: str, traced: bool) -> list[float]:
        return [r.metrics[name] for r in self.runs if r.ok and r.traced == traced]

    def metrics(self) -> dict[str, float]:
        """Median of each reported metric over the runs that passed; the step
        percentiles are taken over the steps of all those runs together."""
        if not self.traced:
            out = {n: median_or_zero(self.values(n, False)) for n, _ in END_TO_END}
            steps = sorted(itertools.chain.from_iterable(
                r.steps_ms for r in self.runs if r.ok and not r.traced))
            if steps:
                out["step_p50_ms"] = percentile(steps, 0.50)
                out["step_p99_ms"] = percentile(steps, 0.99)
            return out
        out = {n: median_or_zero(self.values(n, True))
               for n, _ in PER_LAYER if n != "trace.overhead_ratio"}
        untraced = median_or_zero(self.values("wall_s", False))
        traced = median_or_zero(self.values("wall_s", True))
        out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
        return out


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def check_counts_repeat(runs: list[Run]):
    """Mark a traced run failed when a deterministic count differs from the first's."""
    reference = None
    for run in runs:
        if not (run.ok and run.traced):
            continue
        if reference is None:
            reference = run
            continue
        for name in DETERMINISTIC_COUNTS:
            if run.metrics[name] != reference.metrics[name]:
                run.problems.append(
                    f"{name} = {run.metrics[name]}, first traced run had "
                    f"{reference.metrics[name]}")


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            scratch: Path) -> Measurement:
    started = time.monotonic()
    run_child(workload, seed, scratch, traced=False, ticks=WARMUP_TICKS)
    deadline = started + seconds
    runs: list[Run] = []
    while True:
        before = time.monotonic()
        runs.append(run_child(workload, seed, scratch, traced=False))
        if traced:
            runs.append(run_child(workload, seed, scratch, traced=True))
        now = time.monotonic()
        enough = sum(not r.traced for r in runs) >= MIN_RUNS and now >= deadline
        if enough or now + (now - before) - started > TIME_CAP_S:
            break
    if traced and workload.trace_sha256 is not None:
        check_counts_repeat(runs)
    return Measurement(workload, runs, traced)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(m: Measurement) -> dict:
    """Print the human-readable block and return the result object."""
    w = m.workload
    print(f"== {w.name}: semsim run {' '.join(w.flags)} {w.size_flag} {w.ticks}, "
          f"{len(m.runs)} runs, "
          f"{'traced + untraced' if m.traced else 'untraced'}")
    metrics = m.metrics()
    for name, value in metrics.items():
        samples = m.values(name, m.traced) if name != "trace.overhead_ratio" else []
        spread = ""
        if len(samples) >= 2:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = f"  [q1 {fmt(q1)}, q3 {fmt(q3)}; n={len(samples)}]"
        print(f"  {name:34s} {fmt(value):>12s} {UNITS[name]}{spread}")
    for name, unit in (("host.wall_s", "s, unscaled"), ("host.cal_unit_ms", "ms")):
        samples = m.values(name, m.traced)
        print(f"  {name:34s} {fmt(median_or_zero(samples)):>12s} {unit}"
              f"  [range {fmt(min(samples, default=0))} to {fmt(max(samples, default=0))}]")
    print(f"  {'runs_failed':34s} {len(m.failed):>12d} runs (of {len(m.runs)} attempted)")
    for run in m.failed:
        print(f"  FAILED {'traced ' if run.traced else ''}run: {'; '.join(run.problems)}")
    if m.traced:
        print_spans(m)
    return {
        "correct": not m.failed and any(r.ok for r in m.runs),
        "attempted": len(m.runs),
        "failed": len(m.failed),
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }


def print_spans(m: Measurement):
    """Span table of the last passing traced run, largest self time first."""
    ok = [r for r in m.runs if r.ok and r.traced]
    if not ok:
        return
    spans = ok[-1].spans
    step = spans["total_s"].get("engine.step", 0.0) or 1.0
    print(f"  spans of one traced run (self time as a share of Kernel.step time"
          f" {fmt(step)} s):")
    for name, self_s in sorted(spans["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {name:28s} calls {spans['calls'][name]:>9d}  self {fmt(self_s):>10s} s"
              f"  {100 * self_s / step:5.1f}%")
    counters = {k: v for k, v in spans["calls"].items() if k not in spans["self_s"]}
    if counters or spans["missing"]:
        print(f"    counted calls {counters}; not found in semsim: {spans['missing']}")


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semsim" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: no semsim sources under {ROOT}", file=sys.stderr)
        return 2

    chosen = list(workloads.values()) if args.workload == "all" else [workloads[args.workload]]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    correct = True
    try:
        for workload in chosen:
            result = report(measure(workload, args.seed, args.seconds, bool(args.trace), scratch))
            correct = correct and result["correct"]
            sys.stdout.flush()
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
