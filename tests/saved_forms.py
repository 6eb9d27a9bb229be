"""Model files in the forms semsim saved before version 3: version 1, before
the circulation and the waterfall were bindings, and version 2, before
mechanisms were data. The loader reads them through `modelfile.upgrade`;
these files pin those forms."""
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
WATER_FLOWING_FILE = GOLDEN / "waterfall_water_flowing.json"
HEARTBEAT_PUSH_FILE = GOLDEN / "cardio_heartbeat_push.json"
CARDIO_VERSION_2_FILE = GOLDEN / "cardio_version_2.json"


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
