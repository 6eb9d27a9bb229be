#!/usr/bin/env python3
"""Run the cardiopulmonary model and print its trace with step indices.

Shows the interleaving of the independently triggered subsystems: heartbeats
pushing blood around the ring, diffusion checks, and breaths whenever the
medulla senses CO2-rich blood.
"""
import argparse

from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.models import build_cardio


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", default="deterministic",
                        choices=("deterministic", "concurrent"))
    args = parser.parse_args()

    world = build_cardio()
    kernel = Kernel(world, seed=args.seed, mode=args.mode)
    standard_rules(kernel)
    kernel.run(args.ticks)

    breaths = pulses = 0
    for report in kernel.reports:
        for line in report.lines:
            print(f"{report.step:4d}  {line}")
            breaths += line == "inhale cycle"
            pulses += line == "SANode pulse"

    print()
    violations = sum(len(r.validation.violations) for r in kernel.reports)
    print(f"{args.ticks} ticks: {pulses} heartbeats, {breaths} breaths, "
          f"{len(world.live_portions('blood'))} live blood portions, "
          f"{violations} violations")


if __name__ == "__main__":
    main()
