"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Expected waterfall values come from a literal unit-loop oracle computed here,
not from the implementation under test.
"""
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semsim import Kernel
from semsim.cli import RunConfig, console_command, standard_rules
from semsim.errors import MissingCoreElement
from semsim.frames import bind, standard_frames
from semsim.modelfile import load_model, save_model
from semsim.models import build_cardio, build_waterfall
from semsim.scenarios import apply_scenario, load_scenario
from semsim.validation import derive_triples
from semsim.world import World

from saved_forms import saved_water_flowing, waterfall_on_path

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"

FIG3_LINE_TYPES = [
    "pushed LeftAtriumBlood",
    "pushed LeftVentricleBlood",
    "pushed MedullaCapBlood",
    "pushed CellCapBlood",
    "pushed RightAtriumBlood",
    "pushed RightVentricleBlood",
    "pushed AlvCapBlood",
    "trigger updates",
    "SANode pulse",
    "inhale cycle",
    "past phrenicNerve trigger",
    "into diaphragm contract",
    "completed inhale ExternalAir to Nose Air",
    "completed inhale Nose Air to Alv Air",
    "mixing external air",
    "diffusion check",
    "AlvCapBlood O2 diffusion",
    "CellCapBlood O2 diffusion",
]


def unit_loop_oracle(length, drop):
    """Traverse the two legs one unit at a time; returns final (x, y)."""
    x = y = 0
    for _ in range(length):
        x, y = x + 10, y - 1
    for _ in range(drop):
        x, y = x + 1, y - 10
    return x, y


def cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "semsim", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def run_cardio(ticks, seed=0, mode="deterministic", scenario=None):
    world = build_cardio()
    if scenario is not None:
        apply_scenario(world, scenario)
    kernel = Kernel(world, seed=seed, mode=mode)
    standard_rules(kernel)
    kernel.run(ticks)
    return world, kernel


def test_criterion_1_waterfall_reproduction(tmp_path):
    started = time.monotonic()
    result = cli(
        ["run", "--model", "waterfall", "--portions", "10", "--trace", "wf.trace"],
        cwd=tmp_path,
    )
    elapsed = time.monotonic() - started
    assert result.returncode == 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    lines = (tmp_path / "wf.trace").read_text().splitlines()
    assert lines == [f"{i} pool" for i in range(10)]

    # Coordinates and the location sequence, checked through the API against
    # the unit-loop oracle.
    expected = unit_loop_oracle(1000, 100)
    assert expected == (10100, -2000)
    world = build_waterfall(n_portions=10)
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(10)
    for i in range(10):
        portion = world.portions[f"water-{i}"]
        assert (portion.x, portion.y) == expected
        location_path = [
            t.results[0][1]
            for t in world.transitional_log
            if t.kind == "state_change" and t.subjects == (f"water-{i}",)
        ]
        assert ["null"] + location_path == ["null", "upper", "drop", "pool"]


def test_criterion_2_waterfall_generalization():
    rng = random.Random(0)
    for _ in range(50):
        length = rng.randint(1, 2000)
        drop = rng.randint(1, 500)
        world = load_model(waterfall_on_path(bed=length, drop=drop, n_portions=1))
        Kernel(world).run(1)
        portion = world.portions["water-0"]
        assert (portion.x, portion.y) == unit_loop_oracle(length, drop)
        assert portion.x == 10 * length + drop
        assert portion.y == -(length + 10 * drop)


def test_criterion_3_cardio_vocabulary():
    world, kernel = run_cardio(200)
    lines = kernel.trace_lines()
    for line in lines:
        assert world.vocabulary.allows(line), f"undeclared line {line!r}"
    for required in FIG3_LINE_TYPES:
        assert required in lines, f"missing line type {required!r}"


def test_criterion_4_causal_ordering_20_seeds_concurrent():
    for seed in range(20):
        world, kernel = run_cardio(100, seed=seed, mode="concurrent")
        lines = kernel.trace_lines()

        nerve = contract = 0
        for line in lines:
            if line == "past phrenicNerve trigger":
                nerve += 1
            elif line == "into diaphragm contract":
                contract += 1
                assert contract <= nerve, f"seed {seed}: contract without nerve trigger"

        # within each cycle the nose inhale precedes the alveolar inhale
        state = "idle"
        for line in lines:
            if line == "inhale cycle":
                state = "cycle"
            elif line == "completed inhale ExternalAir to Nose Air":
                assert state == "cycle", f"seed {seed}: nose inhale out of order"
                state = "nose"
            elif line == "completed inhale Nose Air to Alv Air":
                assert state == "nose", f"seed {seed}: alveolar inhale out of order"
                state = "idle"

        # every alveolar diffusion happened with blood O2 low and air O2 high:
        # it is a firing of GasExchangeAlv, which fires only when its guard,
        # these two conditions among it, holds.
        guard = [c.description for c in kernel.world.mechanisms["GasExchangeAlv"].guard]
        assert "blood at AlvCap has O2Level=low" in guard
        assert "air at AlvAir has O2Level=high" in guard
        for report in kernel.reports:
            diffusions = [
                line for line in report.lines if line == "AlvCapBlood O2 diffusion"
            ]
            firings = [f for f in report.fired if f.mechanism == "GasExchangeAlv"]
            assert len(diffusions) == len(firings)


def test_criterion_5_conservation_1000_ticks():
    world = build_cardio()
    kernel = Kernel(world)
    standard_rules(kernel)
    for _ in range(1000):
        kernel.step()
        assert len(world.live_portions("blood")) == 7
    assert len(kernel.reports) == 1000


def test_criterion_6_determinism_and_replay(tmp_path):
    for name in ("a", "b"):
        result = cli(
            ["run", "--model", "cardio", "--steps", "120", "--seed", "0",
             "--trace", f"{name}.trace"],
            cwd=tmp_path,
        )
        assert result.returncode == 0
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()

    # a look-only console session leaves the trace untouched
    inp = io.StringIO(
        "pause\ninspect cardio.MedullaCapBlood.CO2Level\n"
        "inspect cardio.AlvAirAir.O2Level\nresume\nquit\n"
    )
    config = RunConfig(
        model="cardio", steps=120, seed=0, trace_path=str(tmp_path / "c.trace")
    )
    assert console_command(config, inp=inp, out=io.StringIO()) == 0
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "c.trace").read_bytes()


def test_criterion_7_two_phase_validation(tmp_path):
    # one report per executed step
    _, kernel = run_cardio(137)
    assert len(kernel.reports) == 137
    assert [r.step for r in kernel.reports if r.validation is not None] == list(range(137))

    # a push staged over a removed connection halts with exit code 2 and the
    # offending step lands in the sidecar
    scenario = tmp_path / "cut.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "cut",
                "overrides": [
                    {"op": "remove_connection", "from": "LeftVentricle", "to": "CellCap"}
                ],
            }
        ),
        encoding="utf-8",
    )
    result = cli(
        ["run", "--model", "cardio", "--steps", "50", "--trace", "cut.trace",
         "--scenario", str(scenario)],
        cwd=tmp_path,
    )
    assert result.returncode == 2
    sidecar = json.loads((tmp_path / "cut.trace.report.json").read_text())
    assert sidecar["halted_at_step"] == 0
    offending = sidecar["reports"][0]["violations"]
    assert any(v["rule"] == "PushWithoutConnection" for v in offending)

    # the connection check stays redundant on the unmodified model
    world = build_cardio()
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(1000)
    connection_violations = [
        v
        for r in kernel.reports
        for v in r.validation.violations
        if v.rule == "connection-present"
    ]
    assert connection_violations == []
    assert not kernel.halted


def test_criterion_8_scenarios():
    # heart stop: no pushes, breathing persists
    _, kernel = run_cardio(100, scenario=load_scenario(SCENARIOS / "heart_stop.json"))
    lines = kernel.trace_lines()
    assert sum(1 for l in lines if l.startswith("pushed")) == 0
    assert lines.count("inhale cycle") >= 3

    # freeze: flow guard fails on fluidity; nothing advances
    world = build_waterfall(n_portions=5)
    apply_scenario(world, load_scenario(SCENARIOS / "freeze.json"))
    kernel = Kernel(world)
    standard_rules(kernel)
    kernel.run(10)
    assert kernel.trace_lines() == []
    assert world.live_portions("water") == []
    failures = [g for r in kernel.reports for g in r.guard_failures]
    assert failures
    for failure in failures:
        assert failure.mechanism == "WaterFlowing"
        assert any("fluid" in reason for reason in failure.failed)


def test_criterion_9_frames_equivalence():
    # The hand-built waterfall, as a file saved before it had a binding.
    hand = load_model(saved_water_flowing())
    k_hand = Kernel(hand)
    standard_rules(k_hand)
    k_hand.run(2)

    framed = build_waterfall(n_portions=2)  # full-size bed and drop
    k_framed = Kernel(framed)
    standard_rules(k_framed)
    k_framed.run(2)

    assert k_hand.trace_lines() == k_framed.trace_lines() == ["0 pool", "1 pool"]
    for i in range(2):
        ph, pf = hand.portions[f"water-{i}"], framed.portions[f"water-{i}"]
        assert (ph.x, ph.y) == (pf.x, pf.y) == (10100, -2000)

    # an unbound core element fails loudly, naming itself
    w = World("probe")
    w.frames.update(standard_frames())
    w.define_substance("water", phase="liquid")
    with pytest.raises(MissingCoreElement) as exc:
        bind(w, "Fluidic_Motion", {"Fluid": "water", "Source": "water", "Path": "water"})
    assert exc.value.element == "Goal"


def test_criterion_10_roundtrip_triples_set_equal():
    original = build_cardio()
    reloaded = load_model(save_model(original))
    assert derive_triples(original) == derive_triples(reloaded)
