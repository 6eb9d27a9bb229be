#!/usr/bin/env python3
"""Pool a few portions through the waterfall three ways: hand-built, frozen
mid-run, and rebuilt from a Fluidic_Motion frame binding."""
from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.models import (
    WaterfallConfig,
    build_waterfall,
    build_waterfall_from_frames,
)
from semsim.scenarios import apply_scenario, waterfall_freeze


def main():
    config = WaterfallConfig()
    n = 3

    world = build_waterfall(config, n_portions=n)
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(n)
    p = world.portions["water-0"]
    print(f"hand-built:   {kernel.trace_lines()}  final=({p.x}, {p.y})")

    frozen = build_waterfall(config, n_portions=n)
    apply_scenario(frozen, waterfall_freeze())
    k2 = Kernel(frozen)
    standard_rules(k2)
    k2.run(n)
    failed = k2.reports[0].guard_failures[0].failed
    print(f"frozen:       trace={k2.trace_lines()}  guard failed on {failed}")

    framed, binding = build_waterfall_from_frames(config, n_portions=n)
    k3 = Kernel(framed)
    standard_rules(k3)
    k3.run(n)
    q = framed.portions["water-0"]
    print(f"frame-built:  {k3.trace_lines()}  final=({q.x}, {q.y})  "
          f"mechanism={binding.produced_mechanism}")


if __name__ == "__main__":
    main()
