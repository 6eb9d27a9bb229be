"""One benchmark run: `semsim run <args>` in a fresh process, timed per step.

    python3 -I perfbench/child.py --out DIR [--traced] -- run --model cardio ...

run.py starts this once per measured run. It imports semsim from the absolute
`src/` path of the checkout it lives in, so it needs neither an installed
package nor PYTHONPATH, and works from any working directory (`-I` keeps the
parent's environment out). It calls `semsim.cli.main` exactly as the `semsim`
command does, with one wrapper around `Kernel.step` that records when each
step started and how long it took. With `--traced` it also installs the
layer wrappers of tracer.py.

The host's speed drifts (other tenants share its cores), so the child also
times a fixed pure-Python calibration unit, which imports nothing from
semsim: twice when it starts, before a step whenever `CAL_EVERY_S` has
passed since the last one, and twice after `semsim run` returns. run.py
scales every time by the calibration times around it and leaves the
calibration time itself out. When the run ends the child writes to DIR:

* `result.json`: the golden-format rendering of the first 50 ticks, live
  portions per substance and, when traced, the span tables and end-of-run
  world sizes;
* `steps.bin`: the step start times, then the step durations, as native
  doubles (`array("d")`), in seconds on the monotonic clock;
* `cal.bin`: the calibration start times, then their durations, in the same
  format.

It exits with the exit code of `semsim run`.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

GOLDEN_TICKS = 50
CAL_EVERY_S = 0.002
CAL_ITEMS = 400


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibration_unit() -> int:
    """Fixed work of the kinds a step does: small objects, tuple keys, dict
    lookups, a keyed sort. About 0.3 to 0.7 ms on a 2-vCPU Xeon VM."""
    table = {}
    for i in range(CAL_ITEMS):
        item = _Item(("portion", i % 13), i)
        table[item.key, i] = item
    total = 0
    for key in sorted(table, key=lambda k: (k[0][1], -k[1])):
        total += table[key].value
    return total


class Calibration:
    def __init__(self):
        self.starts, self.durations = array("d"), array("d")
        self.last_end = 0.0

    def measure(self, times: int = 1):
        # With the collector off, the unit frees all it allocated before the
        # collector sees it, so it does not move the run's own collections.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = time.monotonic()
                calibration_unit()
                self.last_end = time.monotonic()
                self.starts.append(start)
                self.durations.append(self.last_end - start)
        finally:
            if collecting:
                gc.enable()

    def due(self):
        if time.monotonic() - self.last_end >= CAL_EVERY_S:
            self.measure()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("semsim_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    semsim_args = opts.semsim_args[1:] if opts.semsim_args[:1] == ["--"] else opts.semsim_args
    calibration = Calibration()
    calibration.measure(2)

    from semsim import cli, engine

    import tracer as tracer_module

    tracer = tracer_module.Tracer() if opts.traced else None
    if tracer is not None:
        tracer.install()
    starts, durations, kernels = array("d"), array("d"), []
    untimed_step = engine.Kernel.step

    def timed_step(kernel):
        if not kernels:
            kernels.append(kernel)
        calibration.due()
        start = time.monotonic()
        report = untimed_step(kernel)
        durations.append(time.monotonic() - start)
        starts.append(start)
        return report

    engine.Kernel.step = timed_step
    try:
        rc = cli.main(semsim_args)
    finally:
        engine.Kernel.step = untimed_step
        if tracer is not None:
            tracer.uninstall()
    calibration.measure(2)

    result: dict = {}
    if kernels:
        kernel = kernels[0]
        world = kernel.world
        early = itertools.takewhile(lambda e: e.step < GOLDEN_TICKS, kernel.trace)
        result["golden"] = "".join(f"{e.step:4d}  {e.line}\n" for e in early)
        result["live"] = {name: len(world.live_portions(name)) for name in world.substances}
        if tracer is not None:
            result["tracer"] = tracer.tables()
            result["world"] = {
                "portions_total": len(world.portions),
                "portions_live": sum(result["live"].values()),
                "transitionals": len(world.transitional_log),
                "guard_failures": sum(len(r.guard_failures) for r in kernel.reports),
            }
    (opts.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    with open(opts.out / "steps.bin", "wb") as fh:
        starts.tofile(fh)
        durations.tofile(fh)
    with open(opts.out / "cal.bin", "wb") as fh:
        calibration.starts.tofile(fh)
        calibration.durations.tofile(fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
