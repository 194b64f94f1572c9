"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

They run heatctrl on small instances of the workloads and pin no count of the
program: counts may change with the program, they must only repeat.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tracing
from run import CLI, Bench, run_traced, run_untraced
from verify import verify
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent


def small(name):
    """A quick instance of a workload, under its own name (no reference values)."""
    return dataclasses.replace(WORKLOADS[name], name=f"{name}-small", n=8, n_steps=8)


@pytest.fixture
def scratch():
    base = ROOT / ".perfbench" / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_generator_is_deterministic():
    assert DEFAULT_SEED != HELD_OUT_SEED
    for w in WORKLOADS.values():
        text = config_text(w, DEFAULT_SEED, "out")
        assert text == config_text(w, DEFAULT_SEED, "out")
        assert text != config_text(w, HELD_OUT_SEED, "out")
        # the seed only moves the target bump
        differs = [a for a, b in zip(text.splitlines(),
                                     config_text(w, HELD_OUT_SEED, "out").splitlines())
                   if a != b]
        assert len(differs) == 1 and differs[0].startswith("z_d = bump:")


def test_verifier_rejects_nan_json(scratch):
    w = small("solve-lowreg-128")
    run = {"converged": True, "iterations": 3, "cost": 0.5,
           "grad_norm": 1e-12, "grad_norm0": 0.1}
    report = scratch / "solve_report.json"
    report.write_text(json.dumps({"runs": {"cg": run}}))
    assert verify(w, scratch) == []
    report.write_text(json.dumps({"runs": {"cg": {**run, "cost": float("nan")}}}))
    assert any("non-finite" in p for p in verify(w, scratch))


def test_verifier_rejects_perturbed_control_csv(scratch):
    w = small("solve-csv-64")
    config = scratch / "run.cfg"
    config.write_text(config_text(w, DEFAULT_SEED, scratch / "out"))
    env = Bench(ROOT, w, DEFAULT_SEED).env
    subprocess.run([sys.executable, "-c", CLI, "solve", "--config", str(config), "--quiet"],
                   cwd=ROOT, env=env, check=True, timeout=120)
    out = scratch / "out"
    assert verify(w, out) == []

    path = out / "control_g_cg.csv"
    lines = path.read_text().splitlines()
    mid = len(lines) // 2
    step, node, value = lines[mid].split(",")
    lines[mid] = f"{step},{node},{float(value) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")
    assert any("M1 g + p" in p for p in verify(w, out))


@pytest.mark.parametrize("name", ["solve-csv-64", "sweep-64"])
def test_deterministic_counts_repeat(name):
    bench = Bench(ROOT, small(name), DEFAULT_SEED)
    first, second = (bench.command(traced=True)["layers"] for _ in range(2))
    assert bench.failed == 0
    exact = [k for k in first if k.endswith("_count")] + [
        "control.cg_iterations", "cli.write_rows", "cli.write_bytes"]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["control.cg_iterations"] > 0 and first["cli.write_bytes"] > 0


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bench = Bench(ROOT, small("sweep-64"), DEFAULT_SEED)
    for mode, run in (("end_to_end", run_untraced), ("per_layer", run_traced)):
        got = {name: m["unit"] for name, m in run(bench, 0).items()}
        assert got == {m["name"]: m["unit"] for m in spec[mode]}
    assert bench.failed == 0


def test_layer_times_and_self_times():
    # root A [0, 10] -> B [1, 4] -> A again [2, 3]; A and B in different layers
    spans = [["cli.write_csv", 0.0, 10.0, -1],
             ["linalg.SpdFactor.solve", 1.0, 4.0, 0],
             ["cli.write_json", 2.0, 3.0, 1]]
    m = tracing.layer_metrics({"spans": spans, "factors": [], "cg_iterations": []}, 12.0)
    assert m["cli.write_count"] == 1 and m["cli.write_s"] == 10.0
    assert m["cli.write_self_s"] == 8.0
    assert m["linalg.solve_s"] == 3.0 and m["linalg.solve_self_s"] == 2.0
    assert m["trace.uncovered_s"] == 2.0
