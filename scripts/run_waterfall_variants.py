#!/usr/bin/env python3
"""Pool a few portions through the waterfall three ways: built from its
Fluidic_Motion binding, frozen mid-run, and loaded from a version-1 model file
saved while the waterfall was built by hand (tests/golden/waterfall_water_flowing.json),
which is upgraded at load."""
from pathlib import Path

from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.modelfile import load_model_file
from semsim.models import WaterfallConfig, build_waterfall
from semsim.scenarios import apply_scenario, waterfall_freeze

SAVED_BY_HAND = (
    Path(__file__).resolve().parent.parent / "tests" / "golden" / "waterfall_water_flowing.json"
)


def main():
    config = WaterfallConfig()
    n = 3

    world = build_waterfall(config, n_portions=n)
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(n)
    p = world.portions["water-0"]
    # The flow is the mechanism whose saved spec names binding 0.
    flow = next(m.name for m in world.mechanisms.values()
                if m.spec.get("params", {}).get("binding") == 0)
    print(f"frame-built:  {kernel.trace_lines()}  final=({p.x}, {p.y})  mechanism={flow}")

    frozen = build_waterfall(config, n_portions=n)
    apply_scenario(frozen, waterfall_freeze())
    k2 = Kernel(frozen)
    standard_rules(k2)
    k2.run(n)
    failed = k2.reports[0].guard_failures[0].failed
    print(f"frozen:       trace={k2.trace_lines()}  guard failed on {failed}")

    saved = load_model_file(SAVED_BY_HAND)  # a 2-portion version-1 file
    k3 = Kernel(saved)
    standard_rules(k3)
    k3.run(n)
    q = saved.portions["water-0"]
    print(f"saved file:   {k3.trace_lines()}  final=({q.x}, {q.y})  "
          f"version-1 file, upgraded at load")


if __name__ == "__main__":
    main()
