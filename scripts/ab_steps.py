#!/usr/bin/env python3
"""Time a kernel step of this checkout against another checkout's, in one process.

    python3 scripts/ab_steps.py OTHER_CHECKOUT [--ticks N] [--rounds R]

Both checkouts' `src/semsim` are loaded into this interpreter under separate
package names (the package imports itself only relatively, so each copy sees
its own modules). Each shipped model runs in three configurations: cardio
with `--validate off`, cardio with `--validate halt` and the waterfall (one
portion per tick) with `--validate halt`. Each round builds a fresh kernel
on each side as `semsim run` does (the standard rules, seed 0) and times
Kernel.run(--ticks) with the cyclic garbage collector off, as `semsim run`
steps; the model build is left out. Within a round the two sides take
turns, and the side that goes first alternates between rounds, so a change
in the host's speed reaches both sides alike.

Before timing anything, it runs each configuration once on each side and
checks that both give the same trace lines and the same number of
transitionals, and then that both save the same model after the run
(`json.dumps(save_model(world))`): a faster step that changes what a run
does or leaves is no gain. If they differ, it names the configuration and
exits with status 1.

Per configuration it prints the median microseconds per tick on each side,
each beside that side's first and third quartiles, the median of the
per-round ratios (this / other: below 1 means this checkout is faster) and
the number of rounds this checkout was faster. A gain is clear of the noise
when the medians differ by more than the other side's q3 - q1.
Timings taken in separate invocations are not comparable on a shared host,
whose speed can move by more than the difference being measured.
"""
import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

THIS_CHECKOUT = Path(__file__).resolve().parent.parent

# (model, label, validation policy)
CONFIGURATIONS = (
    ("cardio", "--validate off", "off"),
    ("cardio", "--validate halt", "halt"),
    ("waterfall", "--validate halt", "halt"),
)


def load_package(checkout: Path, name: str):
    """Import checkout's src/semsim as the package `name`; return its cli,
    models and modelfile modules."""
    init = checkout / "src" / "semsim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{checkout} has no src/semsim/__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("cli", "models", "modelfile"))


def fresh_kernel(side, model, policy, ticks):
    """A kernel on a freshly built model, as `semsim run` makes it."""
    cli, models, _modelfile = side
    world = models.build_builtin(model, portions=ticks if model == "waterfall" else None)
    return cli.make_kernel(world, cli.RunConfig(model, steps=ticks, validate_policy=policy))


def outcome(side, model, policy, ticks):
    """The trace lines and the transitional count of one run of `ticks` steps,
    and the model saved after it, as JSON."""
    _cli, _models, modelfile = side
    kernel = fresh_kernel(side, model, policy, ticks)
    kernel.run(ticks)
    saved = json.dumps(modelfile.save_model(kernel.world))
    return (kernel.trace_lines(), len(kernel.world.transitional_log)), saved


def run_seconds(side, model, policy, ticks):
    """Seconds one fresh kernel takes for `ticks` steps."""
    kernel = fresh_kernel(side, model, policy, ticks)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel.run(ticks)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if kernel.halted or len(kernel.reports) != ticks:
        raise SystemExit(
            f"{model} {policy} run stopped after {len(kernel.reports)} of {ticks} ticks"
        )
    return elapsed


def quartiles(values):
    """(q1, median, q3) of values, each within their range."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(this, other, model, policy, ticks, rounds):
    """Per-round (this seconds, other seconds), the sides taking turns."""
    pairs = []
    for i in range(rounds):
        if i % 2 == 0:
            mine = run_seconds(this, model, policy, ticks)
            theirs = run_seconds(other, model, policy, ticks)
        else:
            theirs = run_seconds(other, model, policy, ticks)
            mine = run_seconds(this, model, policy, ticks)
        pairs.append((mine, theirs))
    return pairs


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("other", type=Path, help="the checkout to compare against")
    parser.add_argument("--ticks", type=int, default=1000)
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args()
    if args.ticks < 1 or args.rounds < 1:
        parser.error("--ticks and --rounds must be at least 1")

    this = load_package(THIS_CHECKOUT, "semsim_this")
    other = load_package(args.other.resolve(), "semsim_other")
    for model, label, policy in CONFIGURATIONS:
        (mine, my_save), (theirs, their_save) = (
            outcome(side, model, policy, args.ticks) for side in (this, other)
        )
        if mine != theirs:
            raise SystemExit(
                f"{model} {label}: the checkouts differ in trace lines or transitional count"
            )
        if my_save != their_save:
            raise SystemExit(f"{model} {label}: the checkouts save different models after the run")
    print(f"{args.ticks} ticks, {args.rounds} rounds; this = {THIS_CHECKOUT}, "
          f"other = {args.other.resolve()}")
    print(f"{'model':<10} {'configuration':<16} {'this us':>8} {'q1':>6} {'q3':>6} "
          f"{'other us':>9} {'q1':>6} {'q3':>6} {'ratio':>6} {'wins':>7}")
    for model, label, policy in CONFIGURATIONS:
        pairs = compare(this, other, model, policy, args.ticks, args.rounds)
        per_tick = 1e6 / args.ticks
        m1, mine, m3 = (q * per_tick for q in quartiles([m for m, _ in pairs]))
        t1, theirs, t3 = (q * per_tick for q in quartiles([t for _, t in pairs]))
        ratio = statistics.median(m / t for m, t in pairs)
        wins = sum(m < t for m, t in pairs)
        print(f"{model:<10} {label:<16} {mine:>8.1f} {m1:>6.1f} {m3:>6.1f} "
              f"{theirs:>9.1f} {t1:>6.1f} {t3:>6.1f} {ratio:>6.3f} "
              f"{f'{wins}/{args.rounds}':>7}")


if __name__ == "__main__":
    main()
