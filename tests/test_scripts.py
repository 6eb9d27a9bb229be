"""Each example script under scripts/ runs to completion."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("run_*.py"))


def test_the_example_scripts_are_found():
    assert [s.name for s in SCRIPTS] == [
        "run_cardio_demo.py", "run_heart_stop.py", "run_waterfall_variants.py",
    ]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_runs_without_a_traceback(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout


def test_layer_split_prints_a_row_per_model_and_configuration(tmp_path):
    script = SCRIPTS[0].parent / "layer_split.py"
    result = subprocess.run(
        [sys.executable, str(script), "--ticks", "20", "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    table, _per_tick = result.stdout.split("\n\n")
    *rows, startup = table.splitlines()[2:]
    assert startup.startswith("startup    import semsim.cli")
    assert float(startup[33:].split()[0]) > 0
    labels = ("--validate off", "halt, scope only", "halt, standard rules",
              "--validate off, gc on", "halt, nothing due")
    assert [(row[:10].strip(), row[11:33].strip()) for row in rows] == [
        (model, label) for model in ("cardio", "waterfall") for label in labels
    ]
    for row in rows:
        steps_per_s, micros, added = (float(field) for field in row[33:].split())
        assert steps_per_s > 0 and micros > 0
        if row[11:33].strip() in ("--validate off", "halt, nothing due"):
            assert added == micros  # counted from zero


def test_layer_split_prints_cardio_medians_by_kind_of_tick(tmp_path):
    script = SCRIPTS[0].parent / "layer_split.py"
    result = subprocess.run(
        [sys.executable, str(script), "--ticks", "20", "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    _table, per_tick = result.stdout.split("\n\n")
    title, header, *rows = per_tick.splitlines()
    # Cardio beats every 4 ticks: 0, 4, ..., 16.
    assert title == ("cardio, median us per tick by kind, over 1 runs of 20 ticks "
                     "(beat 5, after a beat 5, other 10 per run)")
    assert header.split()[1:] == ["beat", "after", "a", "beat", "other"]
    assert [row[:22].strip() for row in rows] == ["--validate off", "halt, standard rules"]
    for row in rows:
        beat, after, other = (float(field) for field in row[22:].split())
        assert beat > 0 and after > 0 and other > 0
        assert beat > other  # a beat moves every portion on the circuit


def test_ab_steps_compares_a_checkout_with_itself(tmp_path):
    script = SCRIPTS[0].parent / "ab_steps.py"
    checkout = script.parent.parent
    result = subprocess.run(
        [sys.executable, str(script), str(checkout), "--ticks", "8", "--rounds", "2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, columns, *rows = result.stdout.splitlines()
    assert header.startswith("8 ticks, 2 rounds;")
    assert columns.split() == (
        "model configuration this us q1 q3 other us q1 q3 ratio wins".split()
    )
    assert [(row[:10].strip(), row[11:27].strip()) for row in rows] == [
        ("cardio", "--validate off"), ("cardio", "--validate halt"),
        ("waterfall", "--validate halt"),
    ]
    for row in rows:
        *sides, ratio, wins = row[27:].split()
        mine, m1, m3, theirs, t1, t3 = (float(field) for field in sides)
        assert 0 < m1 <= mine <= m3 and 0 < t1 <= theirs <= t3 and float(ratio) > 0
        assert wins in ("0/2", "1/2", "2/2")

    # Against a copy whose waterfall flows every other tick (half the trace
    # lines and transitionals, the cardio runs unchanged), or one that saves
    # a model differently (the runs unchanged), it times nothing.
    refusals = [
        ("models/waterfall.json", '"period": 1,', '"period": 2,',
         "waterfall --validate halt: the checkouts differ in trace lines or transitional count"),
        ("modelfile.py", '"clock": world.clock,', '"clock": world.clock + 1,',
         "cardio --validate off: the checkouts save different models after the run"),
    ]
    for i, (module, old, new, refusal) in enumerate(refusals):
        other = tmp_path / f"other-{i}"
        shutil.copytree(checkout / "src" / "semsim", other / "src" / "semsim",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = other / "src" / "semsim" / module
        source = path.read_text()
        assert source.count(old) == 1
        path.write_text(source.replace(old, new))
        result = subprocess.run(
            [sys.executable, str(script), str(other), "--ticks", "8", "--rounds", "2"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert result.stdout == ""  # refused before any timing
        assert result.stderr == refusal + "\n"


def test_ab_steps_times_a_checkout_whose_built_worlds_log_construction_births(tmp_path):
    # A checkout that built its models with Python calls logged a birth for
    # every portion it made; its runs append what this checkout's do.
    script = SCRIPTS[0].parent / "ab_steps.py"
    other = tmp_path / "other"
    shutil.copytree(script.parent.parent / "src" / "semsim", other / "src" / "semsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "src" / "semsim" / "models" / "__init__.py"
    source = path.read_text()
    old = "    return modelfile.load_model(data)\n"
    assert source.count(old) == 1
    path.write_text(source.replace(old, (
        "    world = modelfile.load_model(data)\n"
        "    from ..entities import Transitional\n"
        "    world.transitional_log.extend(\n"
        "        Transitional('birth', (pid,), (p.substance,), 0) for pid, p in world.portions.items()\n"
        "    )\n"
        "    return world\n"
    )))
    result = subprocess.run(
        [sys.executable, str(script), str(other), "--ticks", "8", "--rounds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 5  # the header, the columns and three rows


def test_coverage_reports_the_lines_no_test_ran(tmp_path):
    script = SCRIPTS[0].parent / "coverage.py"
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "sign.py").write_text(
        "def sign(n):\n"          # 1
        "    if n < 0:\n"         # 2
        "        return -1\n"     # 3
        "    return 1\n"          # 4
        "\n"
        "\n"
        "def zero():\n"           # 7
        "    return 0\n"          # 8
    )
    (tmp_path / "test_tiny.py").write_text(
        "from tiny.sign import sign, zero\n\n\n"
        "def test_positive():\n    assert sign(3) == 1\n\n\n"
        "def test_a_run_makes_no_cyclic_garbage():\n    assert zero() == 0\n"
    )
    result = subprocess.run(
        [sys.executable, str(script), "--source", str(package),
         "--", "test_tiny.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert "2 passed" in lines[-4]
    # Line 8 ran only under a test named as a collector test, which runs
    # with the hook off, so it counts as unexecuted.
    assert lines[-3:] == [
        "__init__.py: 0 of 0 unexecuted",
        "sign.py: 2 of 6 unexecuted: 3, 8",
        "total: 2 of 6 executable lines unexecuted (4 run)",
    ]
