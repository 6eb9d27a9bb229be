"""Model files in a form an earlier semsim saved, which the loader still reads."""
import json
from pathlib import Path

WATER_FLOWING_FILE = Path(__file__).resolve().parent / "golden" / "waterfall_water_flowing.json"


def saved_water_flowing(**params) -> dict:
    """save_model(build_waterfall(n_portions=2)) as written while the waterfall
    was built by hand: mechanisms[0] names the water_flowing builtin, and the
    file binds no frame and has no Place objects. params override the flow's
    own (the config fields and n_portions)."""
    data = json.loads(WATER_FLOWING_FILE.read_text(encoding="utf-8"))
    data["mechanisms"][0]["params"].update(params)
    return data
