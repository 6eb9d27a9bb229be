"""Command-line runner: `semsim run|console|validate-file`.

Exit codes: 0 on clean completion or Ctrl-C, 1 on configuration errors
(unknown model, malformed files, a model fault raised inside a step), 2 when
the validation policy halted the run.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import models, validation
from .console import Console
from .engine import MODES, Kernel
from .errors import SemsimError, describe
from .modelfile import load_model_file
from .records import Record
from .scenarios import apply_scenario, load_scenario
from .world import World

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HALTED = 2


class RunConfig(Record):
    _fields = (
        "model", "steps", "portions", "seed", "mode", "validate_policy",
        "trace_path", "scenario_path",
    )

    def __init__(
        self,
        model: str,
        steps: int | None = None,
        portions: int | None = None,
        seed: int = 0,
        mode: str = "deterministic",
        validate_policy: str = "halt",
        trace_path: str | None = None,
        scenario_path: str | None = None,
    ):
        self.model = model
        self.steps = steps
        self.portions = portions
        self.seed = seed
        self.mode = mode
        self.validate_policy = validate_policy
        self.trace_path = trace_path
        self.scenario_path = scenario_path

    @property
    def report_path(self) -> str:
        return str(self.trace_path) + ".report.json"


def default_seed() -> int:
    raw = os.environ.get("SEMSIM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SemsimError(f"SEMSIM_SEED must be an integer, not {raw!r}") from None


def resolve_model(config: RunConfig) -> World:
    if config.model in models.BUILTIN_MODEL_NAMES:
        return models.build_builtin(config.model, portions=config.portions)
    path = Path(config.model)
    if not path.exists():
        raise SemsimError(f"unknown model {config.model!r} (not a builtin, not a file)")
    return load_model_file(path)


def standard_rules(kernel: Kernel):
    """The default rule set every run carries."""
    kernel.add_rule(validation.capacity_rule())
    kernel.add_rule(validation.dangling_location_rule())
    kernel.add_rule(validation.connection_present_rule())
    if "water" in kernel.world.substances:
        kernel.add_rule(validation.fluidity_rule("water"))


def make_kernel(world: World, config: RunConfig) -> Kernel:
    kernel = Kernel(
        world,
        seed=config.seed,
        mode=config.mode,
        validate_policy=config.validate_policy,
    )
    standard_rules(kernel)
    return kernel


def planned_steps(config: RunConfig) -> int | None:
    if config.steps is not None:
        return config.steps
    # The builtin waterfall pools one portion per step, so --portions is its
    # step budget; prepare refuses it for any other model.
    return config.portions


def step_entry(r) -> str:
    """One step's sidecar entry, compact JSON on one line."""
    return json.dumps({
        "step": r.step,
        "fired": [f.mechanism for f in r.fired],
        "guard_failures": [
            {"mechanism": g.mechanism, "failed": g.failed} for g in r.guard_failures
        ],
        "violations": [
            {"rule": v.rule, "bindings": v.bindings} for v in r.validation.violations
        ],
    })


def write_outputs(kernel: Kernel, config: RunConfig, exit_code: int):
    """Write the trace, each step's lines in order, and the report sidecar.

    The sidecar is one JSON document: the run's header keys, then "reports"
    with one compact step entry per line. Each entry is encoded on its own,
    so writing costs memory for one step, not for the whole document. Steps
    without violations repeat a few shapes (what fired, which guards failed),
    so each shape's text after the step number is encoded once.
    """
    if config.trace_path is None:
        return
    with open(config.trace_path, "w", encoding="utf-8", newline="\n") as out:
        for r in kernel.reports:
            for line in r.lines:
                out.write(line + "\n")
    header = json.dumps({
        "model": kernel.world.name,
        "seed": kernel.seed,
        "mode": kernel.mode,
        "policy": kernel.validate_policy,
        "steps_executed": len(kernel.reports),
        "halted_at_step": kernel.halted_at,
        "exit_code": exit_code,
    })
    tails = {}  # shape -> the entry's text after '{"step": N, '
    with open(config.report_path, "w", encoding="utf-8") as out:
        out.write(header[:-1] + ', "reports": [')
        separator = "\n"
        for r in kernel.reports:
            out.write(separator)
            separator = ",\n"
            if r.validation.violations:
                out.write(step_entry(r))
                continue
            # Tuples from lists, not generators: a tuple built from a generator
            # starts larger and is shrunk, so the short tuples it frees pile up
            # on the interpreter's free lists instead of being reused (about
            # 300 kB over 10k cardio steps).
            shape = (
                tuple([f.mechanism for f in r.fired]),
                tuple([(g.mechanism, tuple(g.failed)) for g in r.guard_failures]),
            )
            tail = tails.get(shape)
            if tail is None:
                entry = step_entry(r)
                tail = tails[shape] = entry[entry.index(", ") + 2:]
            out.write(f'{{"step": {r.step}, {tail}')
        out.write("\n]}\n")


def prepare(config: RunConfig) -> Kernel:
    """Check the flags and build the world and its kernel, all before the first step."""
    for flag, value in (("--steps", config.steps), ("--portions", config.portions)):
        if value is not None and value < 0:
            raise SemsimError(f"{flag} must be >= 0")
    trace = config.trace_path
    if trace is not None and (Path(trace).is_dir() or not Path(trace).parent.is_dir()):
        raise SemsimError(f"--trace {trace!r} is not a file in an existing directory")
    world = resolve_model(config)
    # A model file fixes its own portion count and cardio has no pool, so
    # there --portions would be ignored and the run would never end.
    if config.portions is not None and config.model != "waterfall":
        raise SemsimError("--portions applies to the builtin waterfall only")
    if config.scenario_path:
        apply_scenario(world, load_scenario(config.scenario_path))
    return make_kernel(world, config)


def finish(kernel: Kernel, config: RunConfig) -> int:
    """Write the outputs; the exit code is read from the kernel's state."""
    exit_code = EXIT_HALTED if kernel.halted else EXIT_OK
    if kernel.fault is not None and not isinstance(kernel.fault, KeyboardInterrupt):
        exit_code = EXIT_CONFIG  # a model fault inside a step
    write_outputs(kernel, config, exit_code)
    return exit_code


def run_command(config: RunConfig) -> int:
    try:
        kernel = prepare(config)
    except SemsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # A run's history (reports, trace lines, transitionals, retired
    # portions) stays reachable until exit, so the cyclic collector would
    # only rescan it, at a cost that grows with the run. The steps make no
    # cyclic garbage (tests/test_cli.py::test_a_run_makes_no_cyclic_garbage
    # guards that premise), so they run with the collector off. After them,
    # a freeze/unfreeze pair moves all the run built into the oldest
    # generation, so re-enabling does not start a young collection over the
    # whole history. A caller's disabled collector, or its freeze, is kept.
    collecting = gc.isenabled()
    gc.disable()
    try:
        kernel.run(planned_steps(config))  # None: until halted or Ctrl-C
    except KeyboardInterrupt:
        pass
    except Exception as exc:  # a fault inside a step, kept by the kernel
        print(f"error: {describe(exc)}", file=sys.stderr)
    finally:
        if collecting:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    return finish(kernel, config)


def console_command(config: RunConfig, inp=None, out=None) -> int:
    try:
        kernel = prepare(config)
    except SemsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    Console(kernel.world, kernel, planned_steps(config), out=out, inp=inp).run()
    return finish(kernel, config)


def validate_file_command(path: str) -> int:
    try:
        world = load_model_file(path)
    except SemsimError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: model {world.name!r} ({len(world.compartments)} compartments, "
          f"{len(world.mechanisms)} mechanisms)")
    return EXIT_OK


def _add_run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--model", required=True, help="builtin name or model file path")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--portions", type=int, default=None,
                        help="builtin waterfall only: portions to pool, one per step")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=MODES, default="deterministic")
    parser.add_argument("--validate", choices=validation.POLICIES, default=None)
    parser.add_argument("--trace", default=None, help="trace file path")
    parser.add_argument("--scenario", default=None, help="scenario file to apply")


def _config_from_args(args) -> RunConfig:
    if args.validate is not None:
        policy = args.validate
    else:
        # Batch runs stop on violations; interactive sessions keep going.
        policy = "warn" if args.command == "console" else "halt"
    return RunConfig(
        model=args.model,
        steps=args.steps,
        portions=args.portions,
        seed=args.seed if args.seed is not None else default_seed(),
        mode=args.mode,
        validate_policy=policy,
        trace_path=args.trace if args.trace is not None else f"{Path(args.model).name}.trace",
        scenario_path=args.scenario,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="semsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a model, writing trace and report files")
    _add_run_flags(run_p)
    con_p = sub.add_parser("console", help="interactive step/inspect session")
    _add_run_flags(con_p)
    val_p = sub.add_parser("validate-file", help="check a model file against the schema")
    val_p.add_argument("path")

    args = parser.parse_args(argv)
    if args.command == "validate-file":
        return validate_file_command(args.path)
    try:
        config = _config_from_args(args)
    except SemsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_command(config) if args.command == "run" else console_command(config)


if __name__ == "__main__":
    sys.exit(main())
