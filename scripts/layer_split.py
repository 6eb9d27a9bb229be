#!/usr/bin/env python3
"""Split a step's cost into its layers, in-process, for cardio and waterfall.

Each model runs three ways: with validation off (the engine, topology and
world), with validation on and no rules (plus snapshot maintenance), and
with the standard rules (plus rule re-checks). Each row is the best of
--repeats runs of Kernel.run(--ticks), the model build excluded; the last
column is the step cost that row adds to the row above it.
"""
import argparse
import time

from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.models import build_cardio, build_waterfall

CONFIGURATIONS = (
    ("--validate off", "off", False),
    ("halt, no rules", "halt", False),
    ("halt, standard rules", "halt", True),
)


def best_seconds(build, policy, rules, ticks, repeats):
    best = float("inf")
    for _ in range(repeats):
        kernel = Kernel(build(), validate_policy=policy)
        if rules:
            standard_rules(kernel)
        start = time.perf_counter()
        kernel.run(ticks)
        elapsed = time.perf_counter() - start
        if kernel.halted or len(kernel.reports) != ticks:
            raise SystemExit(f"{policy} run stopped after {len(kernel.reports)} of {ticks} ticks")
        best = min(best, elapsed)
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
    for model, build in models:
        previous = 0.0
        for label, policy, rules in CONFIGURATIONS:
            per_step = best_seconds(build, policy, rules, args.ticks, args.repeats) / args.ticks
            micros = per_step * 1e6
            print(f"{model:<10} {label:<22} {1 / per_step:>9.0f} {micros:>8.1f} "
                  f"{micros - previous:>+8.1f}")
            previous = micros


if __name__ == "__main__":
    main()
