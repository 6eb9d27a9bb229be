"""Model files in the forms semsim saved before version 4: version 1, before
the circulation and the waterfall were bindings, version 2, before
mechanisms were data, and version 3, while each path flow kept its own
cursor and no file carried the clock or the signals in transit. The loader
reads them through `modelfile.upgrade`; these files pin those forms."""
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
WATER_FLOWING_FILE = GOLDEN / "waterfall_water_flowing.json"
HEARTBEAT_PUSH_FILE = GOLDEN / "cardio_heartbeat_push.json"
CARDIO_VERSION_2_FILE = GOLDEN / "cardio_version_2.json"
WATERFALL_VERSION_3_FILE = GOLDEN / "waterfall_version_3.json"


def saved_water_flowing(**params) -> dict:
    """save_model(build_waterfall(n_portions=2)) as written while the waterfall
    was built by hand: mechanisms[0] names the water_flowing builtin, and the
    file binds no frame and has no Place objects. params override the flow's
    own (the config fields and n_portions)."""
    data = json.loads(WATER_FLOWING_FILE.read_text(encoding="utf-8"))
    data["mechanisms"][0]["params"].update(params)
    return data


def saved_heartbeat_push(**params) -> dict:
    """save_model(build_cardio()) as written while the heartbeat had a builtin
    of its own: mechanisms[0] names heartbeat_push, and cardio bound no frame.
    params override the builtin's own (the circuit)."""
    data = json.loads(HEARTBEAT_PUSH_FILE.read_text(encoding="utf-8"))
    data["mechanisms"][0]["params"].update(params)
    return data


def saved_cardio_version_2(name: str | None = None, **params) -> dict:
    """save_model(build_cardio()) as written in version 2, while every
    mechanism but the circulation named a builtin. params override those of
    the mechanism called name."""
    data = json.loads(CARDIO_VERSION_2_FILE.read_text(encoding="utf-8"))
    for spec in data["mechanisms"]:
        if spec["name"] == name:
            spec["params"].update(params)
    return data


def saved_waterfall_version_3() -> dict:
    """A 3-portion waterfall on a 3-unit bed and a 2-unit drop, with a water
    portion "puddle" made by hand, saved in version 3 after one tick: the
    flow's entry has "cursor": 1, the index of its next portion."""
    return json.loads(WATERFALL_VERSION_3_FILE.read_text(encoding="utf-8"))
