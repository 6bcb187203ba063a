"""tools/calibrate.py's copy, environment and timing, with no mubsic run."""

import importlib.util
import json
import pathlib
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "calibrate.py"
spec = importlib.util.spec_from_file_location("calibrate", TOOL)
calibrate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calibrate)


def test_copy_holds_the_sources_and_no_bytecode(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    copy = calibrate.copy_package(tmp_path)
    sources = sorted(p.name for p in calibrate.PACKAGE.glob("*.py"))
    assert sorted(p.name for p in copy.iterdir()) == sources
    env = calibrate.child_env(tmp_path)
    assert env["PYTHONPATH"] == str(tmp_path) and env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "OPENBLAS_NUM_THREADS" not in env


def test_median_wall_times_each_run_and_refuses_a_failed_one(tmp_path):
    env = calibrate.child_env(tmp_path)
    assert 0 < calibrate.median_wall([sys.executable, "-c", "pass"], env, tmp_path, 3) < 10
    with pytest.raises(RuntimeError, match="exited 3"):
        calibrate.median_wall([sys.executable, "-c", "raise SystemExit(3)"], env, tmp_path, 1)


def test_main_prints_one_json_line_of_medians(monkeypatch, capsys):
    seen = []

    def fake(argv, env, cwd, runs):
        seen.append((argv, env["PYTHONPATH"], cwd, runs))
        return 0.123456

    monkeypatch.setattr(calibrate, "median_wall", fake)
    assert calibrate.main() == 0
    line, = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert record["runs"] == 7
    assert record["median_s"] == dict.fromkeys(calibrate.CALLS, 0.1235)
    for argv, path, cwd, runs in seen:
        # Each call runs the copy, from the copy's directory, never the checkout.
        assert argv[0] == sys.executable and pathlib.Path(path) == cwd and runs == 7
        assert not cwd.exists()
    assert seen[2][0][-1] == str(seen[2][2] / "family.json")
