"""Every output of the golden runs equals the one recorded in golden.json.

On the environment that wrote the file, every written file, stdout and
stderr must hash the same; elsewhere the exit codes and file names must be
equal and the report numbers close (see golden.py).  A deliberate change of
an output regenerates the file with `PYTHONPATH=src python tests/golden.py`.
"""

import json
import math

import golden


def numbers_differ(expected, actual, where=""):
    """Paths at which two parsed JSON values differ beyond the stated tolerance."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for key in expected
                for d in numbers_differ(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(expected)} items != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in numbers_differ(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        close = math.isclose(expected, actual, rel_tol=golden.NUMBERS_RTOL,
                             abs_tol=golden.NUMBERS_ATOL)
        return [] if close else [f"{where}: {expected!r} != {actual!r}"]
    return [] if expected == actual else [f"{where}: {expected!r} != {actual!r}"]


def test_outputs_match_golden():
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    same_environment = recorded["environment"] == golden.environment_stamp()
    mode = "hashes" if same_environment else "numbers"
    print(f"golden outputs compared by {mode}")
    runs = golden.run_all()
    assert sorted(runs) == sorted(recorded["runs"])
    for name, want in recorded["runs"].items():
        got = runs[name]
        assert got["exit_code"] == want["exit_code"], name
        assert sorted(got["files"]) == sorted(want["files"]), name
        if same_environment:
            for key in ("stdout", "stderr", "files"):
                assert got[key] == want[key], f"{name}: {key} ({mode})"
        else:
            diffs = numbers_differ(want["reports"], got["reports"], name)
            assert not diffs, f"{mode}: " + "; ".join(diffs[:5])


def test_number_comparison_tells_drift_from_rounding():
    report = {"runs": [{"cost": 0.125, "converged": True, "iterations": 6}]}
    rounded = {"runs": [{"cost": 0.125 * (1 + 1e-12), "converged": True,
                         "iterations": 6}]}
    assert numbers_differ(report, rounded) == []
    for changed in ({"cost": 0.126, "converged": True, "iterations": 6},
                    {"cost": 0.125, "converged": False, "iterations": 6},
                    {"cost": 0.125, "converged": True, "iterations": 7},
                    {"cost": 0.125, "converged": True}):
        assert numbers_differ(report, {"runs": [changed]}), changed


RUN = {"exit_code": 0, "stdout": "a", "stderr": "b",
       "files": {"checks.json": "1", "sweep.csv": "2"}, "reports": {}}


def test_drift_names_each_changed_output():
    assert golden.drift({"r": RUN}, {"r": RUN}) == []
    changed = {**RUN, "exit_code": 2, "stderr": "c",
               "files": {"checks.json": "1", "sweep.csv": "3", "new.csv": "4"}}
    assert golden.drift({"r": RUN, "gone": RUN}, {"r": changed, "new": RUN}) == [
        "gone: removed", "new: added", "r: exit_code, stderr, new.csv, sweep.csv"]


def test_regeneration_prints_the_drift_before_writing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"environment": golden.environment_stamp(),
                                "runs": {"r": RUN}}))
    monkeypatch.setattr(golden, "GOLDEN", path)
    monkeypatch.setattr(golden, "run_all", lambda: {"r": {**RUN, "stdout": "z"}})
    golden.main_script()
    assert capsys.readouterr().out == f"r: stdout\nwrote {path}: 1 runs\n"
    assert json.loads(path.read_text())["runs"]["r"]["stdout"] == "z"
    golden.main_script()
    assert capsys.readouterr().out == f"no run changed\nwrote {path}: 1 runs\n"
