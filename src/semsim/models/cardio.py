"""Cardiopulmonary reference model: circulation and respiration as coupled
subsystems over a validated compartment graph.

Blood portions advance one hop per heartbeat around a fixed ring, splitting
at the left ventricle (medulla branch vs. body branch) and merging back at
the right atrium. Air portions cycle ExternalAir -> NoseAir -> AlvAir and
back out with each diaphragm contraction. Gas exchange happens where a blood
compartment faces an air compartment (alveoli) or the body (cells), and the
medulla senses blood CO2 to trigger breathing over the phrenic nerve - a
feedback loop: stale alveolar air stops oxygenation, CO2-rich blood reaches
the medulla, a breath refreshes the alveoli.

The circulation compiles from a Fluidic_Motion binding: blood around the
"cardio" circuit, the SA node's pulse line in its Configuration. Each
heartbeat is one firing of that circuit flow.
"""
from __future__ import annotations

from ..engine import Condition, Mechanism, Trigger, register_mechanism, register_trigger
from ..entities import PartSpec, QualValue, StateSpace, cardinality
from ..frames import bind, instantiate_fluidic_motion, standard_frames
from ..records import Record
from ..world import Vocabulary, World

BLOOD_ORDER = (
    "LeftAtrium",
    "LeftVentricle",
    "MedullaCap",
    "CellCap",
    "RightAtrium",
    "RightVentricle",
    "AlvCap",
)

CIRCUIT = {
    "LeftAtrium": ("LeftVentricle",),
    "LeftVentricle": ("MedullaCap", "CellCap"),
    "MedullaCap": ("RightAtrium",),
    "CellCap": ("RightAtrium",),
    "RightAtrium": ("RightVentricle",),
    "RightVentricle": ("AlvCap",),
    "AlvCap": ("LeftAtrium",),
}

AIR_ORDER = ("ExternalAir", "NoseAir", "AlvAir")


def _default_periods() -> dict[str, int]:
    # SA node and medulla defaults interleave both subsystems within 25 ticks;
    # the diffusion sweep shares the heartbeat period (and sorts before it by
    # name), and the external-air mix lands between breaths.
    return {"SANode": 4, "DiffusionTimer": 4, "ExternalMix": 5, "Medulla": 6}


class CardioConfig(Record):
    _fields = (
        "blood_compartments", "air_compartments", "circuit", "periods",
        "initial_blood", "initial_air",
    )

    def __init__(
        self,
        blood_compartments: tuple[str, ...] = BLOOD_ORDER,
        air_compartments: tuple[str, ...] = AIR_ORDER,
        circuit: dict[str, tuple[str, ...]] | None = None,
        periods: dict[str, int] | None = None,
        initial_blood: dict[str, str] | None = None,
        initial_air: dict[str, str] | None = None,
    ):
        self.blood_compartments = blood_compartments
        self.air_compartments = air_compartments
        self.circuit = dict(CIRCUIT) if circuit is None else circuit
        self.periods = _default_periods() if periods is None else periods
        self.initial_blood = (
            {"O2Level": "low", "CO2Level": "high"} if initial_blood is None else initial_blood
        )
        self.initial_air = (
            {"O2Level": "high", "CO2Level": "low"} if initial_air is None else initial_air
        )


def cardio_vocabulary(blood_compartments=BLOOD_ORDER) -> Vocabulary:
    lines = {f"pushed {name}Blood" for name in blood_compartments}
    lines |= {
        "trigger updates",
        "SANode pulse",
        "inhale cycle",
        "past phrenicNerve trigger",
        "into diaphragm contract",
        "completed inhale ExternalAir to Nose Air",
        "completed inhale Nose Air to Alv Air",
        "completed exhale Alv Air to Nose Air",
        "completed exhale Nose Air to ExternalAir",
        "mixing external air",
        "diffusion check",
        "AlvCapBlood O2 diffusion",
        "CellCapBlood O2 diffusion",
    }
    return Vocabulary(literals=frozenset(lines))


def circulation_elements(circuit: str, order) -> dict[str, object]:
    """Blood around the circuit from its first compartment, with the SA node's pulse."""
    return {"Fluid": "blood", "Source": order[0], "Goal": order[0], "Path": circuit,
            "Configuration": {"pulse": "SANode pulse"}}


# ----------------------------------------------------------------------
# mechanism factories (also used by the model-file loader)


def _occupant_level(world, compartment: str, prop: str, label: str) -> bool:
    portion = world.occupant(compartment)
    return portion is not None and portion.properties[prop].level == label


def gas_exchange_alv(world: World, params: dict) -> Mechanism:
    blood_at = params.get("blood_at", "AlvCap")
    air_at = params.get("air_at", "AlvAir")

    def blood_needs_o2(w) -> bool:
        return _occupant_level(w, blood_at, "O2Level", "low")

    def air_has_o2(w) -> bool:
        return _occupant_level(w, air_at, "O2Level", "high")

    def effect(ctx):
        blood = ctx.world.occupant(blood_at)
        air = ctx.world.occupant(air_at)
        ctx.set_state(blood.id, "O2Level", "high")
        ctx.set_state(blood.id, "CO2Level", "low")
        ctx.set_state(air.id, "O2Level", "low")
        ctx.set_state(air.id, "CO2Level", "high")
        ctx.emit(f"{blood_at}Blood O2 diffusion")

    mech = Mechanism(
        params.get("name", "GasExchangeAlv"),
        guard=(
            Condition(f"blood at {blood_at} has O2Level=low", blood_needs_o2),
            Condition(f"air at {air_at} has O2Level=high", air_has_o2),
        ),
        effect=effect,
        subsystem="diffusion",
        requires=(blood_at, air_at),
    )
    return register_mechanism(world, mech, "gas_exchange_alv", params)


def cell_respiration(world: World, params: dict) -> Mechanism:
    blood_at = params.get("blood_at", "CellCap")

    def blood_has_o2(w) -> bool:
        return _occupant_level(w, blood_at, "O2Level", "high")

    def effect(ctx):
        blood = ctx.world.occupant(blood_at)
        ctx.set_state(blood.id, "O2Level", "low")
        ctx.set_state(blood.id, "CO2Level", "high")
        ctx.emit(f"{blood_at}Blood O2 diffusion")

    def metabolic_heat(ctx):
        # Warmth is read by no guard; it is observable but not needed for
        # the exchange to complete.
        blood = ctx.world.occupant(blood_at)
        if blood is not None and "Warmth" in blood.properties:
            ctx.set_state(blood.id, "Warmth", "high")

    mech = Mechanism(
        params.get("name", "CellRespiration"),
        guard=(Condition(f"blood at {blood_at} has O2Level=high", blood_has_o2),),
        effect=effect,
        side_effects=(metabolic_heat,),
        subsystem="diffusion",
        requires=(blood_at,),
    )
    return register_mechanism(world, mech, "cell_respiration", params)


def diffusion_check(world: World, params: dict) -> Mechanism:
    members = tuple(params.get("members", ("GasExchangeAlv", "CellRespiration")))

    def effect(ctx):
        ctx.emit("diffusion check")
        for name in members:
            ctx.fire_if_enabled(name)

    mech = Mechanism(
        params.get("name", "DiffusionCheck"),
        guard=(Condition("always", lambda w: True),),
        effect=effect,
        subsystem="diffusion",
    )
    return register_mechanism(world, mech, "diffusion_check", params)


def medulla_sense(world: World, params: dict) -> Mechanism:
    blood_at = params.get("blood_at", "MedullaCap")
    nerve_from = params.get("nerve_from", "Medulla")
    nerve_to = params.get("nerve_to", "Diaphragm")

    def too_much_co2(w) -> bool:
        return _occupant_level(w, blood_at, "CO2Level", "high")

    def effect(ctx):
        ctx.emit("past phrenicNerve trigger")
        ctx.emit_signal(nerve_from, nerve_to, "contract")

    mech = Mechanism(
        params.get("name", "MedullaSense"),
        guard=(Condition(f"blood at {blood_at} has CO2Level=high", too_much_co2),),
        effect=effect,
        subsystem="respiration",
        requires=(blood_at, nerve_from, nerve_to),
    )
    return register_mechanism(world, mech, "medulla_sense", params)


def inhale_cycle(world: World, params: dict) -> Mechanism:
    external, nose, alv = params.get("air_path", AIR_ORDER)
    diaphragm = params.get("diaphragm", "diaphragm")

    def diaphragm_alive(w) -> bool:
        return w.objects[diaphragm].alive

    def effect(ctx):
        w = ctx.world
        ctx.emit("inhale cycle")
        ctx.emit("into diaphragm contract")
        ctx.set_state(diaphragm, "tension", "contracted")
        # The stale column shifts outward before fresh air is drawn in; the
        # trace below narrates the cycle in inhale-then-exhale order.
        exhaled_nose = False
        exhaled_alv = False
        inhaled_nose = False
        inhaled_alv = False
        p = w.occupant(nose)
        if p is not None:
            ctx.move(p.id, nose, external)
            exhaled_nose = True
        p = w.occupant(alv)
        if p is not None:
            ctx.move(p.id, alv, nose)
            exhaled_alv = True
        p = w.occupant(nose)
        if p is not None:
            ctx.move(p.id, nose, external)
            exhaled_nose = True
        p = w.occupant(external)
        if p is not None:
            ctx.move(p.id, external, nose)
            inhaled_nose = True
        p = w.occupant(nose)
        if p is not None and w.occupant(alv) is None:
            ctx.move(p.id, nose, alv)
            inhaled_alv = True
        if inhaled_nose:
            ctx.emit(f"completed inhale {external} to Nose Air")
        if inhaled_alv:
            ctx.emit("completed inhale Nose Air to Alv Air")
        if exhaled_alv:
            ctx.emit("completed exhale Alv Air to Nose Air")
        if exhaled_nose:
            ctx.emit(f"completed exhale Nose Air to {external}")
        ctx.set_state(diaphragm, "tension", "relaxed")

    mech = Mechanism(
        params.get("name", "InhaleCycle"),
        guard=(Condition("diaphragm alive", diaphragm_alive),),
        effect=effect,
        subsystem="respiration",
        on_signal=params.get("on_signal", "Diaphragm"),
        requires=(external, nose, alv, diaphragm),
    )
    return register_mechanism(world, mech, "inhale_cycle", params)


def mix_external_air(world: World, params: dict) -> Mechanism:
    external = params.get("reservoir", "ExternalAir")

    def has_air(w) -> bool:
        return w.occupant(external) is not None

    def effect(ctx):
        w = ctx.world
        held = w.compartments[external].contents
        target = w.merge_portions(held, external).id if len(held) > 1 else held[0]
        ctx.set_state(target, "O2Level", "high")
        ctx.set_state(target, "CO2Level", "low")
        ctx.emit("mixing external air")

    mech = Mechanism(
        params.get("name", "MixExternalAir"),
        guard=(Condition(f"{external} holds air", has_air),),
        effect=effect,
        subsystem="respiration",
        requires=(external,),
    )
    return register_mechanism(world, mech, "mix_external_air", params)


# ----------------------------------------------------------------------


def build_cardio(config: CardioConfig | None = None) -> World:
    config = config or CardioConfig()
    world = World("cardio")
    world.vocabulary = cardio_vocabulary(config.blood_compartments)
    world.frames.update(standard_frames())

    for space in (
        StateSpace("O2Level", ("low", "high"), "binary"),
        StateSpace("CO2Level", ("low", "high"), "binary"),
        StateSpace("Warmth", ("low", "high"), "binary"),
    ):
        world.define_scale(space)
    gas = world.scales

    world.define_substance(
        "blood",
        phase="liquid",
        default_properties={
            "O2Level": QualValue(gas["O2Level"], config.initial_blood["O2Level"]),
            "CO2Level": QualValue(gas["CO2Level"], config.initial_blood["CO2Level"]),
            "Warmth": QualValue(gas["Warmth"], "low"),
        },
        # Conservative confluence: oxygenation only as good as the poorest
        # input, waste as bad as the worst.
        merge_policy={"O2Level": "min", "CO2Level": "max", "Warmth": "max"},
    )
    world.define_substance(
        "air",
        phase="gas",
        default_properties={
            "O2Level": QualValue(gas["O2Level"], config.initial_air["O2Level"]),
            "CO2Level": QualValue(gas["CO2Level"], config.initial_air["CO2Level"]),
        },
        merge_policy={"O2Level": "min", "CO2Level": "max"},
    )

    # Organs. The heart's chambers support the push without changing state
    # themselves; the pacemaker is the functional part.
    world.define_kind("HeartChamber")
    world.define_kind("PacemakerNode")
    world.define_kind(
        "Heart",
        part_schema=(
            PartSpec("chambers", "HeartChamber", "structural", cardinality(4)),
            PartSpec("pacemaker", "PacemakerNode", "functional", cardinality(1)),
        ),
        granularity="organ",
    )
    world.define_kind("Lungs", granularity="organ")
    world.define_kind(
        "MedullaOrgan",
        state_spaces=(StateSpace("co2_alert", ("quiet", "signaling"), "binary"),),
        granularity="organ",
    )
    world.define_kind(
        "DiaphragmOrgan",
        state_spaces=(StateSpace("tension", ("relaxed", "contracted"), "binary"),),
        granularity="organ",
    )
    world.instantiate("Heart", entity_id="heart")
    world.instantiate("Lungs", entity_id="lungs")
    world.instantiate("MedullaOrgan", entity_id="medulla")
    world.instantiate("DiaphragmOrgan", entity_id="diaphragm")

    for name in config.blood_compartments:
        world.add_compartment(name, "blood_path", capacity=1, region=name)
    world.add_compartment("ExternalAir", "air_path", capacity=None, region="outside")
    world.add_compartment("NoseAir", "air_path", capacity=1, structure="lungs")
    world.add_compartment("AlvAir", "air_path", capacity=1, structure="lungs")
    world.add_compartment("Medulla", "other", capacity=1, structure="medulla")
    world.add_compartment("Diaphragm", "other", capacity=1, structure="diaphragm")

    for src, dsts in config.circuit.items():
        for dst in dsts:
            world.connect(src, dst, "fluid")
    world.connect("ExternalAir", "NoseAir", "fluid")
    world.connect("NoseAir", "AlvAir", "fluid")
    world.connect("AlvAir", "NoseAir", "fluid")
    world.connect("NoseAir", "ExternalAir", "fluid")
    world.connect("Medulla", "Diaphragm", "nerve")

    world.define_circuit("cardio", config.blood_compartments, config.circuit)

    for i, name in enumerate(config.blood_compartments):
        world.create_portion("blood", entity_id=f"blood-{i}", compartment=name)
    world.create_portion("air", entity_id="air-external", compartment="ExternalAir")
    world.create_portion("air", entity_id="air-nose", compartment="NoseAir")
    world.create_portion("air", entity_id="air-alv", compartment="AlvAir")

    circulation = bind(world, "Fluidic_Motion", circulation_elements("cardio", config.blood_compartments))
    instantiate_fluidic_motion(world, circulation, name="HeartbeatPush")
    gas_exchange_alv(world, {"blood_at": "AlvCap", "air_at": "AlvAir"})
    cell_respiration(world, {"blood_at": "CellCap"})
    diffusion_check(world, {"members": ["GasExchangeAlv", "CellRespiration"]})
    medulla_sense(world, {"blood_at": "MedullaCap", "nerve_from": "Medulla", "nerve_to": "Diaphragm"})
    inhale_cycle(world, {"air_path": list(AIR_ORDER), "diaphragm": "diaphragm", "on_signal": "Diaphragm"})
    mix_external_air(world, {"reservoir": "ExternalAir"})

    periods = config.periods
    register_trigger(world, Trigger("SANode", periods["SANode"], "HeartbeatPush"))
    register_trigger(world, Trigger("DiffusionTimer", periods["DiffusionTimer"], "DiffusionCheck"))
    register_trigger(world, Trigger("ExternalMix", periods["ExternalMix"], "MixExternalAir"))
    register_trigger(world, Trigger("Medulla", periods["Medulla"], "MedullaSense"))

    world.define_system("circulation", ["HeartbeatPush"])
    world.define_system(
        "respiration",
        ["MedullaSense", "InhaleCycle", "MixExternalAir", "DiffusionCheck",
         "GasExchangeAlv", "CellRespiration"],
        feedback=True,
    )

    pacemaker = world.objects["heart"].parts_in_role("pacemaker")[0]
    world.assert_function(pacemaker, "paces the heartbeat", "circulation")
    world.assert_function("diaphragm", "drives inhalation", "respiration")
    world.assert_function("medulla", "senses blood CO2", "respiration")

    world.annotate(
        "ExternalAir",
        "idealization",
        "unbounded reservoir of fresh air; the atmosphere never depletes",
    )
    world.annotate("blood", "idealization", "portions pass through the system intact")
    world.annotate(
        "GasExchangeAlv",
        "continuous_approximation",
        "diffusion modeled as a discrete flip of qualitative gas levels",
    )
    world.annotate("CellCap", "typical_example", "one capillary stands in for every body cell")
    return world
