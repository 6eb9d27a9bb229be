"""The shipped models, each its model file: cardio.json and waterfall.json.

A shipped model is built the way any model file is: `modelfile.load_model`
reads it, with every check a hand-written file gets. The files were written
by `save_model` and are edited as model files; the reasons behind some of
their choices are kept here.

The waterfall. Water flows from the bed inlet to the pool along a two-leg
path, a shallow bed (10 across and 1 down per unit, for 1000 units) and then
a drop (1 across and 10 down, for 100 units). The path is the Path of its
Fluidic_Motion binding, bindings[0], and the flow, WaterFlowing, is that
binding compiled to `frames.path_flow`. Each firing carries one portion
through its whole journey in closed form, so a run of n ticks pools exactly
n portions and prints "<i> pool" for each. In integer coordinates that
equals the unit-by-unit walk exactly; the unit-loop oracle that checks it
lives in the tests. `build_builtin("waterfall", n)` bounds the flow to n
portions by the flow entry's n_portions.

Cardio. Circulation and respiration are coupled subsystems over a validated
compartment graph. Blood portions advance one hop per heartbeat around the
"cardio" circuit, splitting at the left ventricle (medulla branch and body
branch) and merging back at the right atrium. The circulation is a
Fluidic_Motion binding too: blood around the circuit, the SA node's pulse
line in its Configuration, and each heartbeat is one firing of that circuit
flow. Air portions cycle ExternalAir -> NoseAir -> AlvAir and back out with
each diaphragm contraction (`cardio.inhale_cycle`, the one builtin
mechanism). Gas exchange happens where a blood compartment faces an air
compartment (alveoli) or the body (cells), and the medulla senses blood CO2
to trigger breathing over the phrenic nerve: a feedback loop in which stale
alveolar air stops oxygenation, CO2-rich blood reaches the medulla, and a
breath refreshes the alveoli.

- The SA node (period 4) and medulla (period 6) periods interleave both
  subsystems within 25 ticks. The diffusion sweep shares the heartbeat's
  period and sorts before it by name, and the external-air mix (period 5)
  lands between breaths.
- Blood and air merge conservatively: a confluence is oxygenated only as
  well as its poorest input (O2Level min) and carries as much waste and heat
  as its worst (CO2Level and Warmth max).
- Cell respiration's metabolic heat is a side effect: no guard reads
  Warmth, so the exchange completes without it.
- The heart's chambers support the push without changing state
  themselves; the pacemaker is the functional part.
"""
from __future__ import annotations

import json
from pathlib import Path

from .. import modelfile

BUILTIN_MODEL_NAMES = ("cardio", "waterfall")


def build_builtin(name: str, portions: int | None = None):
    """Load a shipped model by name; portions bounds the waterfall's flow."""
    if name not in BUILTIN_MODEL_NAMES:
        raise KeyError(name)
    data = json.loads((Path(__file__).parent / f"{name}.json").read_text(encoding="utf-8"))
    if name == "waterfall":
        data["mechanisms"][0]["params"]["n_portions"] = portions
    return modelfile.load_model(data)


def build_cardio():
    return build_builtin("cardio")


def build_waterfall(n_portions: int | None = None):
    return build_builtin("waterfall", n_portions)
