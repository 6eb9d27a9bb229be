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

from .. import topology
from ..engine import Condition, Mechanism, Trigger, register_mechanism, register_trigger
from ..entities import PartSpec, StateSpace, cardinality
from ..errors import ModelError, need
from ..frames import bind, fluidic_motion, standard_frames
from ..mechanisms import CONDITIONS, EFFECTS, build_mechanism, compile_items
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

# SA node and medulla periods interleave both subsystems within 25 ticks; the
# diffusion sweep shares the heartbeat period (and sorts before it by name),
# and the external-air mix lands between breaths.
PERIODS = {"SANode": 4, "DiffusionTimer": 4, "ExternalMix": 5, "Medulla": 6}


def cardio_vocabulary() -> Vocabulary:
    lines = {f"pushed {name}Blood" for name in BLOOD_ORDER}
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
# mechanism templates: each maps its retired builtin's params to the data form
# (semsim.mechanisms), for the builder and for modelfile.upgrade


def gas_exchange_alv(name="GasExchangeAlv", blood_at="AlvCap", air_at="AlvAir") -> dict:
    return {
        "name": name,
        "subsystem": "diffusion",
        "guard": [
            ["occupant", "blood", blood_at, "O2Level", "low"],
            ["occupant", "air", air_at, "O2Level", "high"],
        ],
        "effects": [
            ["set_occupant", "blood", blood_at, "O2Level", "high"],
            ["set_occupant", "blood", blood_at, "CO2Level", "low"],
            ["set_occupant", "air", air_at, "O2Level", "low"],
            ["set_occupant", "air", air_at, "CO2Level", "high"],
            ["emit", f"{blood_at}Blood O2 diffusion"],
        ],
    }


def cell_respiration(name="CellRespiration", blood_at="CellCap") -> dict:
    # Metabolic heat is a side effect: no guard reads Warmth, so the exchange
    # completes without it.
    return {
        "name": name,
        "subsystem": "diffusion",
        "guard": [["occupant", "blood", blood_at, "O2Level", "high"]],
        "effects": [
            ["set_occupant", "blood", blood_at, "O2Level", "low"],
            ["set_occupant", "blood", blood_at, "CO2Level", "high"],
            ["emit", f"{blood_at}Blood O2 diffusion"],
        ],
        "side_effects": [["set_occupant", "blood", blood_at, "Warmth", "high"]],
    }


def diffusion_check(name="DiffusionCheck", members=("GasExchangeAlv", "CellRespiration")) -> dict:
    if isinstance(members, str):
        raise ModelError(f"members must be a list of mechanism names, not {members!r}")
    return {
        "name": name,
        "subsystem": "diffusion",
        "guard": [["always"]],
        "effects": [["emit", "diffusion check"]] + [["fire", member] for member in members],
    }


def medulla_sense(name="MedullaSense", blood_at="MedullaCap", nerve_from="Medulla",
                  nerve_to="Diaphragm") -> dict:
    return {
        "name": name,
        "subsystem": "respiration",
        "guard": [["occupant", "blood", blood_at, "CO2Level", "high"]],
        "effects": [
            ["emit", "past phrenicNerve trigger"],
            ["signal", nerve_from, nerve_to, "contract"],
        ],
    }


def mix_external_air(name="MixExternalAir", reservoir="ExternalAir") -> dict:
    return {
        "name": name,
        "subsystem": "respiration",
        "guard": [["holds", reservoir, "air"]],
        "effects": [
            ["merge", reservoir],
            ["set_occupant", "air", reservoir, "O2Level", "high"],
            ["set_occupant", "air", reservoir, "CO2Level", "low"],
            ["emit", "mixing external air"],
        ],
    }


def inhale_cycle(world: World, params: dict) -> Mechanism:
    """The breath, cardio's one builtin mechanism. Its moves are ordered and
    conditional, and its trace narrates them in another order than they
    happen: as data that would take conditional effects, more code than this
    closure. Its references are checked by the types a data mechanism's are."""
    external, nose, alv = params.get("air_path", AIR_ORDER)
    diaphragm = params.get("diaphragm", "diaphragm")
    for compartment in (external, nose, alv):
        need(world.compartments, compartment, "compartment")
    guard = compile_items(world, CONDITIONS, [["alive", diaphragm]], "guard")
    tension = [["set", diaphragm, "tension", label] for label in ("contracted", "relaxed")]
    contract, relax = compile_items(world, EFFECTS, tension, "effects")
    lines = (
        "inhale cycle",
        "into diaphragm contract",
        f"completed inhale {external} to Nose Air",
        "completed inhale Nose Air to Alv Air",
        "completed exhale Alv Air to Nose Air",
        f"completed exhale Nose Air to {external}",
    )
    compile_items(world, EFFECTS, [["emit", line] for line in lines], "effects")
    # The stale column shifts outward before fresh air is drawn in. Each move
    # names the line it completes, and the trace narrates them in line order.
    moves = (
        (nose, external, 5), (alv, nose, 4), (nose, external, 5), (external, nose, 2), (nose, alv, 3),
    )

    def effect(kernel):
        w = kernel.world
        kernel.emit_trace(lines[0])
        kernel.emit_trace(lines[1])
        contract(kernel)
        completed = set()
        for src, dst, line in moves:
            p = w.occupant(src)
            # Fresh air goes on into the alveoli only when they are empty.
            if p is not None and (dst != alv or w.occupant(alv) is None):
                topology.move(w, p.id, src, dst)
                completed.add(line)
        for line in sorted(completed):
            kernel.emit_trace(lines[line])
        relax(kernel)

    mech = Mechanism(
        params.get("name", "InhaleCycle"),
        guard=tuple(Condition(*c) for c in guard),
        effect=effect,
        subsystem="respiration",
        on_signal=params.get("on_signal", "Diaphragm"),
    )
    spec = {"builtin": "inhale_cycle", "params": {k: v for k, v in params.items() if k != "name"}}
    return register_mechanism(world, mech, spec)


# ----------------------------------------------------------------------


def build_cardio() -> World:
    world = World("cardio")
    world.vocabulary = cardio_vocabulary()
    world.frames.update(standard_frames())

    for space in (
        StateSpace("O2Level", ("low", "high"), "binary"),
        StateSpace("CO2Level", ("low", "high"), "binary"),
        StateSpace("Warmth", ("low", "high"), "binary"),
    ):
        world.define_scale(space)

    world.define_substance(
        "blood",
        phase="liquid",
        default_properties={
            "O2Level": "low",
            "CO2Level": "high",
            "Warmth": "low",
        },
        # Conservative confluence: oxygenation only as good as the poorest
        # input, waste as bad as the worst.
        merge_policy={"O2Level": "min", "CO2Level": "max", "Warmth": "max"},
    )
    world.define_substance(
        "air",
        phase="gas",
        default_properties={
            "O2Level": "high",
            "CO2Level": "low",
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

    for name in BLOOD_ORDER:
        world.add_compartment(name, "blood_path", capacity=1, region=name)
    world.add_compartment("ExternalAir", "air_path", capacity=None, region="outside")
    world.add_compartment("NoseAir", "air_path", capacity=1, structure="lungs")
    world.add_compartment("AlvAir", "air_path", capacity=1, structure="lungs")
    world.add_compartment("Medulla", "other", capacity=1, structure="medulla")
    world.add_compartment("Diaphragm", "other", capacity=1, structure="diaphragm")

    for src, dsts in CIRCUIT.items():
        for dst in dsts:
            world.connect(src, dst, "fluid")
    world.connect("ExternalAir", "NoseAir", "fluid")
    world.connect("NoseAir", "AlvAir", "fluid")
    world.connect("AlvAir", "NoseAir", "fluid")
    world.connect("NoseAir", "ExternalAir", "fluid")
    world.connect("Medulla", "Diaphragm", "nerve")

    world.define_circuit("cardio", BLOOD_ORDER, CIRCUIT)

    for i, name in enumerate(BLOOD_ORDER):
        world.create_portion("blood", entity_id=f"blood-{i}", compartment=name)
    world.create_portion("air", entity_id="air-external", compartment="ExternalAir")
    world.create_portion("air", entity_id="air-nose", compartment="NoseAir")
    world.create_portion("air", entity_id="air-alv", compartment="AlvAir")

    bind(world, "Fluidic_Motion", circulation_elements("cardio", BLOOD_ORDER))
    fluidic_motion(world, {"binding": 0, "name": "HeartbeatPush"})
    for template in (gas_exchange_alv, cell_respiration, diffusion_check, medulla_sense):
        build_mechanism(world, template())
    inhale_cycle(world, {"air_path": list(AIR_ORDER), "diaphragm": "diaphragm", "on_signal": "Diaphragm"})
    build_mechanism(world, mix_external_air())

    register_trigger(world, Trigger("SANode", PERIODS["SANode"], "HeartbeatPush"))
    register_trigger(world, Trigger("DiffusionTimer", PERIODS["DiffusionTimer"], "DiffusionCheck"))
    register_trigger(world, Trigger("ExternalMix", PERIODS["ExternalMix"], "MixExternalAir"))
    register_trigger(world, Trigger("Medulla", PERIODS["Medulla"], "MedullaSense"))

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
