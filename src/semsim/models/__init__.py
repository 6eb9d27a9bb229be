"""Reference models and the registry of model/mechanism builders by name."""
from __future__ import annotations

from ..frames import fluidic_motion
from .cardio import (
    BLOOD_ORDER,
    build_cardio,
    circulation_elements,
    cell_respiration,
    diffusion_check,
    gas_exchange_alv,
    inhale_cycle,
    medulla_sense,
    mix_external_air,
)
from .waterfall import (
    WaterfallConfig,
    build_waterfall,
    freeze_watch,
    waterfall_elements,
    waterfall_path,
)

#: Mechanism factories addressable from model files: name -> f(world, params).
#: Every other mechanism is saved as data (semsim.mechanisms).
BUILTIN_MECHANISMS = {"inhale_cycle": inhale_cycle, "fluidic_motion": fluidic_motion}


def build_builtin(name: str, portions: int | None = None):
    """Construct a bundled model by name."""
    if name == "cardio":
        return build_cardio()
    if name == "waterfall":
        return build_waterfall(n_portions=portions)
    raise KeyError(name)


BUILTIN_MODEL_NAMES = ("cardio", "waterfall")
