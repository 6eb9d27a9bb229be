#!/usr/bin/env python3
"""Split a step's cost into its layers, in-process, for cardio and waterfall.

Each model runs three ways: with validation off (the engine, topology and
world); with validation on and a snapshot built beforehand for the standard
rules that checks none of them (plus snapshot maintenance: the triples those
rules match or read, kept up to date each step); and with the standard
rules (plus rule re-checks). Each row is the best of --repeats runs of
Kernel.run(--ticks), the model build excluded, with the cyclic garbage
collector off, as `semsim run` steps; the last column is the step cost that
row adds to the row above it. A fourth row per model runs with validation
off and the collector on, as a library caller's Kernel.run does; its last
column is what the collector adds to the validation-off row, per step. A
fifth row is the fixed cost of a step: the standard rules under halt with
every trigger disabled before the run, so each step dispatches nothing and
validates an unchanged world; its last column counts from zero, like the
first row's. Every row of both models takes turns, one run of each per
round, so a change in the host's speed reaches every row of both models
alike instead of reading as one layer's or one model's cost.

The last row is the fixed cost of starting a run: `import semsim.cli` in a
fresh `python3 -I` interpreter, best of --repeats, next to the step costs
it is paid once beside.

A second table splits a cardio run by kind of tick: the beat ticks (the
steps in which HeartbeatPush fired), the tick after each beat, and the
rest. Each step of a cardio run with the standard rules is timed on its
own, with validation off and under halt, and each kind's median is taken
over the steps of that kind in all --repeats runs. These runs take their
turns in the same rounds as the rows above.
"""
import argparse
import gc
import statistics
import subprocess
import sys
import time
from pathlib import Path

import semsim
from semsim import validation
from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.models import build_cardio, build_waterfall

# (label, validation policy, what the kernel validates with)
CONFIGURATIONS = (
    ("--validate off", "off", None),
    ("halt, scope only", "halt", "scope"),
    ("halt, standard rules", "halt", "rules"),
)
COLLECTOR_ON = "--validate off, gc on"
NOTHING_DUE = "halt, nothing due"
# (label, validation policy) of the cardio runs timed step by step
PER_TICK = (("--validate off", "off"), ("halt, standard rules", "halt"))
BEAT = "HeartbeatPush"
TICK_KINDS = ("beat", "after a beat", "other")


def make_kernel(build, policy, rules):
    """A kernel on a fresh model: with rules "rules" it carries the standard
    rules; with "idle" it also has every trigger disabled; with "scope" it
    carries them too, and its snapshot, built beforehand for them, keeps
    their scope up to date and checks no rule."""
    kernel = Kernel(build(), validate_policy=policy)
    if rules is not None:
        standard_rules(kernel)
    if rules == "idle":
        for trigger in kernel.world.triggers.values():
            trigger.enabled = False
    if rules == "scope":
        kernel.snapshot = validation.Snapshot(kernel.world, kernel.rules)
        kernel.snapshot.violations = list  # checks no rule
    return kernel


def run_seconds(ticks, build, policy, rules, collect):
    kernel = make_kernel(build, policy, rules)
    gc.collect()
    if not collect:
        gc.disable()
    try:
        start = time.perf_counter()
        kernel.run(ticks)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if kernel.halted or len(kernel.reports) != ticks:
        raise SystemExit(f"{policy} run stopped after {len(kernel.reports)} of {ticks} ticks")
    return elapsed


def tick_seconds(ticks, policy):
    """(kind, seconds) of each step of a cardio run with the standard rules,
    the collector off: a step is a beat when HeartbeatPush fired in it."""
    kernel = make_kernel(build_cardio, policy, "rules")
    step, clock = kernel.step, time.perf_counter
    seconds = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(ticks):
            start = clock()
            step()
            seconds.append(clock() - start)
    finally:
        gc.enable()
    if kernel.halted:
        raise SystemExit(f"{policy} cardio run halted at tick {kernel.halted_at}")
    kinds, previous = [], None
    for report in kernel.reports:
        beat = any(firing.mechanism == BEAT for firing in report.fired)
        kinds.append("beat" if beat else "after a beat" if previous == "beat" else "other")
        previous = kinds[-1]
    return zip(kinds, seconds)


def time_rounds(runs, ticks, repeats):
    """The best time of each (build, policy, rules, collect) run, and the
    step times of each PER_TICK policy by kind of tick, over `repeats`
    rounds, each round timing every run once."""
    best = [float("inf")] * len(runs)
    per_tick = {policy: {kind: [] for kind in TICK_KINDS} for _label, policy in PER_TICK}
    for _ in range(repeats):
        for i, run in enumerate(runs):
            best[i] = min(best[i], run_seconds(ticks, *run))
        for _label, policy in PER_TICK:
            for kind, seconds in tick_seconds(ticks, policy):
                per_tick[policy][kind].append(seconds)
    return best, per_tick


def print_row(model, label, per_step, previous_micros):
    """Print one row; return its microseconds per step."""
    micros = per_step * 1e6
    print(f"{model:<10} {label:<22} {1 / per_step:>9.0f} {micros:>8.1f} "
          f"{micros - previous_micros:>+8.1f}")
    return micros


# Run in a fresh interpreter; prints the seconds `import semsim.cli` took.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import semsim.cli; print(time.perf_counter() - start)"
)


def best_import_seconds(repeats):
    """Best of `repeats` fresh `python3 -I` imports of semsim.cli from this
    package's source tree (-I: no PYTHONPATH, user site or working directory)."""
    src = str(Path(semsim.__file__).resolve().parent.parent)
    best = float("inf")
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, src],
            capture_output=True, text=True, check=True,
        ).stdout
        best = min(best, float(out))
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=5000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    models = (
        ("cardio", build_cardio),
        ("waterfall", lambda: build_waterfall(n_portions=args.ticks)),
    )
    print(f"{args.ticks} ticks, best of {args.repeats}")
    print(f"{'model':<10} {'configuration':<22} {'steps/s':>9} {'us/step':>8} {'added':>8}")
    runs = []
    for _model, build in models:
        runs += [(build, policy, rules, False) for _label, policy, rules in CONFIGURATIONS]
        runs += [(build, "off", None, True), (build, "halt", "idle", False)]
    best, per_tick = time_rounds(runs, args.ticks, args.repeats)
    per_model = len(runs) // len(models)
    for i, (model, _build) in enumerate(models):
        *rows, collected, idle = best[i * per_model:(i + 1) * per_model]
        micros = []
        for (label, _policy, _rules), seconds in zip(CONFIGURATIONS, rows):
            micros.append(print_row(model, label, seconds / args.ticks,
                                    micros[-1] if micros else 0.0))
        print_row(model, COLLECTOR_ON, collected / args.ticks, micros[0])
        print_row(model, NOTHING_DUE, idle / args.ticks, 0.0)
    millis = best_import_seconds(args.repeats) * 1e3
    print(f"{'startup':<10} {'import semsim.cli':<22} {millis:>9.1f} ms, best of "
          f"{args.repeats} fresh python3 -I")
    print()
    counts = per_tick[PER_TICK[0][1]]
    print(f"cardio, median us per tick by kind, over {args.repeats} runs of {args.ticks} ticks ("
          + ", ".join(f"{kind} {len(counts[kind]) // args.repeats}" for kind in TICK_KINDS)
          + " per run)")
    print(f"{'configuration':<22} " + " ".join(f"{kind:>12}" for kind in TICK_KINDS))
    for label, policy in PER_TICK:
        medians = (statistics.median(per_tick[policy][kind]) * 1e6 for kind in TICK_KINDS)
        print(f"{label:<22} " + " ".join(f"{micros:>12.1f}" for micros in medians))


if __name__ == "__main__":
    main()
