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


def _list_one_of_two_twice(data):
    # blood-0 moves from LeftAtrium into LeftVentricle, which then lists
    # blood-1 twice: the count is right, the portions are not.
    data["portions"][0]["compartment"] = "LeftVentricle"
    data["compartments"][0]["contents"] = []
    data["compartments"][1]["contents"] = ["blood-1", "blood-1"]


# Ways a model file's compartments[1] (LeftVentricle, holding blood-1) can
# break the rule that contents list exactly the live portions placed there,
# with the loader's diagnosis of each. A dead portion that still names a
# compartment is refused where the portion is read, before any contents.
PLACEMENT_BREACHES = {
    "dead-portion-listed": (
        lambda data: data["portions"][1].update(alive=False, compartment=None),
        "compartments[1]: contents list dead portion 'blood-1'",
    ),
    "dead-portion-placed": (
        lambda data: data["portions"][1].update(alive=False),
        "portions[1]: dead portion 'blood-1' cannot be placed in 'LeftVentricle'",
    ),
    "live-portion-unlisted": (
        lambda data: data["compartments"][1].update(contents=[]),
        "compartments[1]: contents must list each of the 1 live portions in 'LeftVentricle' once",
    ),
    "portion-listed-twice": (
        _list_one_of_two_twice,
        "compartments[1]: contents must list each of the 2 live portions in 'LeftVentricle' once",
    ),
}


@pytest.fixture(params=sorted(PLACEMENT_BREACHES))
def placement_breach(request):
    """A saved cardio model whose compartments[1] breaks the placement rule,
    and the SchemaError message loading it gives."""
    from semsim.modelfile import save_model
    from semsim.models import build_cardio

    data = save_model(build_cardio())
    assert data["compartments"][1]["contents"] == ["blood-1"] == [data["portions"][1]["id"]]
    breach, message = PLACEMENT_BREACHES[request.param]
    breach(data)
    return data, message


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
