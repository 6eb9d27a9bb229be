#!/usr/bin/env python3
"""What happens when the heart stops: disable the pacemaker trigger and watch
breathing continue on the medulla's own clock while circulation is silent."""
import argparse

from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.models import build_cardio
from semsim.scenarios import apply_scenario, heart_stop


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=100)
    args = parser.parse_args()

    world = build_cardio()
    apply_scenario(world, heart_stop())
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(args.ticks)

    pushes = sum(1 for l in kernel.trace_lines() if l.startswith("pushed"))
    breaths = sum(1 for l in kernel.trace_lines() if l == "inhale cycle")
    print(f"after {args.ticks} ticks with the pacemaker disabled:")
    print(f"  blood pushes : {pushes}")
    print(f"  breaths      : {breaths}")
    medulla_blood = world.occupant("MedullaCap")
    print(f"  medulla blood: CO2Level={medulla_blood.properties['CO2Level']}"
          f" (stale blood keeps the breathing reflex firing)")


if __name__ == "__main__":
    main()
