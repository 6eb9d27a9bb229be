"""The layer boundaries a traced benchmark run wraps keep their meaning.

perfbench/tracer.py wraps `engine.fire`, `engine.guard_report` and
`validation.validate` by name and reports their calls as firings, guard
evaluations and validation passes. That holds only while the kernel reaches
each through its module, once per firing, once per attempt (nested ones
included) and once per step.
"""
from collections import Counter

from semsim import engine, validation
from semsim.cli import standard_rules
from semsim.engine import Kernel
from semsim.models import build_cardio


def test_fire_guard_report_and_validate_are_called_once_per_firing_attempt_and_step(
    monkeypatch,
):
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(engine, "fire")
    counted(engine, "guard_report")
    counted(validation, "validate")
    kernel = Kernel(build_cardio(), validate_policy="halt")
    standard_rules(kernel)
    kernel.run(200)
    assert len(kernel.reports) == 200 and not kernel.halted

    fired = [f for r in kernel.reports for f in r.fired]
    failures = [g for r in kernel.reports for g in r.guard_failures]
    assert any(f.via == "nested" for f in fired)  # members fired by a fire effect
    assert any(g.via == "nested" for g in failures)
    assert calls == {
        "fire": len(fired),
        "guard_report": len(fired) + len(failures),
        "validate": 200,
    }
