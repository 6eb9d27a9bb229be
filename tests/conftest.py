import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _child_pythonpath():
    # Subprocess tests run `python -m semsim` from tmp_path, where a relative
    # PYTHONPATH such as `src` resolves to nothing; put the absolute source
    # directory first so child processes import this checkout.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {outcome}")


@pytest.fixture
def cardio_world():
    from semsim.models import build_cardio

    return build_cardio()


@pytest.fixture
def cardio_kernel(cardio_world):
    from semsim.cli import standard_rules
    from semsim.engine import Kernel

    kernel = Kernel(cardio_world)
    standard_rules(kernel)
    return kernel
