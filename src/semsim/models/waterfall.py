"""Waterfall reference model: water portions traverse a shallow bed, then a drop.

The model is its structured definition: a Fluidic_Motion binding of water
from the bed inlet to the pool, compiled to `frames.path_flow` over the
two-leg path the config implies. Each firing carries one portion through its
whole journey in closed form, so a run of n ticks pools exactly n portions
and prints "<i> pool" for each. In integer coordinates that equals the
unit-by-unit walk exactly; the unit-loop oracle that checks it lives in the
tests.
"""
from __future__ import annotations

from ..engine import Trigger, register_trigger
from ..entities import StateSpace
from ..frames import (
    PathSegment,
    PathSpec,
    add_lexical_entry,
    bind,
    check_leg,
    fluidic_motion,
    standard_frames,
)
from ..records import FrozenRecord, set_field
from ..world import Vocabulary, World

class WaterfallConfig(FrozenRecord):
    _fields = ("upper_bed_length", "vertical_drop", "upper_delta", "drop_delta", "labels")

    def __init__(
        self,
        upper_bed_length: int = 1000,
        vertical_drop: int = 100,
        upper_delta: tuple[int, int] = (10, -1),  # (dx, dy) per unit on the bed
        drop_delta: tuple[int, int] = (1, -10),  # (dx, dy) per unit on the drop
        labels: tuple[str, str, str] = ("upper", "drop", "pool"),
    ):
        for length, delta in ((upper_bed_length, upper_delta), (vertical_drop, drop_delta)):
            check_leg(length, delta, "bed length and drop must be positive ints",
                      "a per-unit delta must be a pair of ints")
        set_field(self, "upper_bed_length", upper_bed_length)
        set_field(self, "vertical_drop", vertical_drop)
        set_field(self, "upper_delta", upper_delta)
        set_field(self, "drop_delta", drop_delta)
        set_field(self, "labels", labels)


def freeze_watch(name="FreezeWatch", substance="water") -> dict:
    """Water turns solid whenever the ambient temperature is below freezing."""
    return {
        "name": name,
        "subsystem": "ambient",
        "guard": [["ambient", "temperature", "below_freezing"], ["not_phase", substance, "solid"]],
        "effects": [["set", substance, "phase", "solid"]],
    }


def build_waterfall(
    config: WaterfallConfig = WaterfallConfig(), n_portions: int | None = None
) -> World:
    """The waterfall from its structured definition: water flows from the bed
    inlet to the pool along the path the config implies.

    The flow is compiled from the Fluidic_Motion binding, world.bindings[0],
    so one firing takes one portion from birth to the pool, and n ticks pool
    n portions.
    """
    world = World("waterfall")
    world.vocabulary = Vocabulary(patterns=(r"\d+ pool",))
    world.define_substance("water", phase="liquid")
    world.define_kind(
        "WaterPortion",
        state_spaces=(StateSpace("Location", ("null",) + config.labels),),
        granularity="portion",
        substance="water",
    )
    world.frames.update(standard_frames())
    add_lexical_entry(world, "flowing", "Fluidic_Motion",
                      "to move with a continual change of place among the constituent particles")
    add_lexical_entry(world, "waterfall", "Natural_Features")
    world.annotate(
        "WaterPortion",
        "idealization",
        "portions stay unified while they move; real fluid would not retain continuity",
    )
    elements = waterfall_elements(config)
    world.define_kind("Place")
    for place in (elements["Source"], elements["Goal"]):
        world.instantiate("Place", entity_id=place)
    bind(world, "Fluidic_Motion", elements)
    fluidic_motion(world, {"binding": 0, "name": "WaterFlowing", "n_portions": n_portions,
                           "portion_kind": "WaterPortion"})
    register_trigger(world, Trigger("Flow", period=1, target="WaterFlowing"))
    world.define_system("waterfall-flow", ["WaterFlowing"])
    return world


def waterfall_elements(config: WaterfallConfig) -> dict[str, object]:
    """Water from the bed inlet to the pool, along the path the config implies."""
    return {"Fluid": "water", "Source": "bedInlet", "Goal": config.labels[2],
            "Path": waterfall_path(config), "Configuration": {"volume": "high", "speed": "moderate"}}


def waterfall_path(config: WaterfallConfig = WaterfallConfig()) -> PathSpec:
    """The two-segment path implied by the per-unit deltas."""
    upper_label, drop_label, _ = config.labels
    return PathSpec(
        (
            PathSegment(
                config.upper_bed_length,
                slope=(config.upper_delta[1], config.upper_delta[0]),
                label=upper_label,
            ),
            PathSegment(
                config.vertical_drop,
                slope=(config.drop_delta[1], config.drop_delta[0]),
                label=drop_label,
            ),
        )
    )
