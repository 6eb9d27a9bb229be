"""semsim: executable semantic models over qualitative state.

Typed entities with parts and states, a validated compartment graph with
simultaneous portion movement, guarded Petri-net-style mechanisms on a
deterministic kernel, post-step triple validation, and frame bindings that
compile to mechanisms. Two reference models ship: a waterfall and a
cardiopulmonary system.
"""
from .engine import Condition, Kernel, Mechanism, Signal, StepReport, TraceEvent, Trigger
from .entities import (
    FunctionAssertion,
    KindDef,
    PartSpec,
    Portion,
    SemObject,
    StateSpace,
    Substance,
    Transitional,
    cardinality,
)
from .errors import SemsimError
from .frames import Frame, FrameBinding, PathSegment, PathSpec
from .topology import Circuit, Compartment, Connection
from .validation import AssertionRule, Triple, TriplePattern, ValidationReport, Var
from .world import Annotation, Microworld, System, Vocabulary, World

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "AssertionRule",
    "Circuit",
    "Compartment",
    "Condition",
    "Connection",
    "Frame",
    "FrameBinding",
    "FunctionAssertion",
    "Kernel",
    "KindDef",
    "Mechanism",
    "Microworld",
    "PartSpec",
    "PathSegment",
    "PathSpec",
    "Portion",
    "SemObject",
    "SemsimError",
    "Signal",
    "StateSpace",
    "StepReport",
    "Substance",
    "System",
    "TraceEvent",
    "Transitional",
    "Trigger",
    "Triple",
    "TriplePattern",
    "ValidationReport",
    "Var",
    "Vocabulary",
    "World",
    "cardinality",
]
