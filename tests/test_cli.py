import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import heatctrl
from heatctrl import (ProblemData, Stepper, TimeGrid, assemble, build_rect_mesh,
                      solve_adjoint, solve_cg, solve_distributed_only,
                      solve_fixed_point, solve_state)
from heatctrl import cli
from heatctrl.cli import (ConfigError, load_config, main, parse_config_text,
                          summarize_solve, summarize_sweep, write_csv,
                          write_csv_series, write_json)
from heatctrl.linalg import SolverError, SpdFactor

BASE_CONFIG = """
[mesh]
nx = 2
ny = 2
gamma1 = left

[time]
T = 1.0
n_steps = 2

[problem]
M1 = 1.0
M2 = 1.0
alpha = 10.0
alphas = [10.0, 100.0, 1000.0]
b = zero
v_b = zero
z_d = {z_d}

[solver]
tol = 1e-10
max_iter = 500
optimizer = {optimizer}
variant = P

[output]
directory = {out}
formats = csv,json
"""


def write_config(tmp_path, z_d="zero", optimizer="cg", out=None, extra=None):
    out = out or (tmp_path / "out")
    text = BASE_CONFIG.format(z_d=z_d, optimizer=optimizer, out=out)
    if extra:
        text += extra
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_sections_and_values():
    cfg = parse_config_text("""
[mesh]
nx = 4          # trailing comment
name = "unit"
quoted = ' spaced '
flag = true
vals = [1, 2.5, x]
""")
    # every value stays text: load_config types each key
    assert cfg == {"mesh": {"nx": "4", "name": "unit", "quoted": " spaced ",
                            "flag": "true", "vals": "[1, 2.5, x]"}}


def test_parse_errors_carry_location():
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text("[s]\nnot a pair\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("a = 1\n")


def test_missing_file_is_config_error(tmp_path):
    code = main(["solve", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1


def test_missing_key_reported(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[mesh]\nnx = 2\n")
    with pytest.raises(ConfigError, match="ny"):
        load_config(path)


@pytest.mark.parametrize("command", ["solve", "sweep", "check", "constants"])
@pytest.mark.parametrize("section, key, value", [
    ("solver", "varient", "Palpha"),
    ("solver", "optimiser", "both"),
    ("solver", "tolerance", "1e-12"),
    ("notes", "author", "someone"),
])
def test_unknown_key_is_refused(tmp_path, capsys, command, section, key, value):
    # appended after [output]: [solver] is reopened, [notes] is new
    path = write_config(tmp_path, extra=f"[{section}]\n{key} = {value}\n")
    assert main([command, "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {path}: unknown key {key!r} in [{section}]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, repeated", [
    ("ny = 2\n", "ny = 2\nnx = 3\n", "nx = 3"),  # in one section
    ("[output]\n", "[mesh]\nny = 5\n[output]\n", "ny = 5"),  # in a reopened one
])
def test_repeated_key_is_refused(tmp_path, capsys, old, new, repeated):
    path = write_config(tmp_path)
    text = path.read_text().replace(old, new)
    path.write_text(text)
    line = text.splitlines().index(repeated) + 1
    key = repeated.split()[0]
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {path}:{line}: duplicate key {key!r} in [mesh]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["1e3", "true", "007", "1_000"])
def test_output_directory_is_taken_as_written(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, out=name)
    assert load_config(path).out_dir == Path(name)
    assert main(["constants", "--config", str(path), "--quiet"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "run.cfg"])
    assert (tmp_path / name / "constants.json").exists()


def test_missing_csv_field_names_path(tmp_path):
    missing = tmp_path / "no_such_field.csv"
    path = write_config(tmp_path, z_d=f"csv:{missing}")
    code = main(["solve", "--config", str(path), "--quiet"])
    assert code == 1


@pytest.mark.parametrize("command", ["solve", "sweep", "check", "constants"])
def test_csv_field_naming_a_directory_is_a_config_error(tmp_path, capsys, command):
    folder = tmp_path / "fields"
    folder.mkdir()
    path = write_config(tmp_path, z_d=f"csv:{folder}")
    assert main([command, "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == (f"configuration error: [problem] z_d: cannot read field file "
                   f"{folder}: Is a directory\n")
    assert not (tmp_path / "out").exists()


def test_csv_field_round_trip(tmp_path):
    values = np.linspace(0.0, 1.0, 9)
    field_file = tmp_path / "field.csv"
    field_file.write_text("value\n" + "\n".join(str(v) for v in values) + "\n")
    path = write_config(tmp_path, z_d=f"csv:{field_file}")
    assert main(["solve", "--config", str(path), "--quiet"]) == 0


def test_solve_zero_instance_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, z_d="zero")
    code = main(["solve", "--config", str(path)])
    assert code == 0
    out_dir = tmp_path / "out"
    report = json.loads((out_dir / "solve_report.json").read_text())
    run = report["runs"]["cg"]
    assert run["converged"] is True
    assert run["cost"] == 0.0
    assert run["iterations"] == 0
    printed = capsys.readouterr().out.strip()
    assert summarize_solve(report) == printed


def test_solve_both_optimizers_agree(tmp_path):
    # large penalties make the fixed-point map contract
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    text = path.read_text().replace("M1 = 1.0", "M1 = 60.0").replace("M2 = 1.0", "M2 = 60.0")
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["runs"]["cg"]["converged"]
    assert report["runs"]["fixed_point"]["converged"]
    assert report["runs"]["cg"]["cost"] == pytest.approx(
        report["runs"]["fixed_point"]["cost"], abs=1e-9)


def test_solve_robin_variant(tmp_path):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    text = path.read_text().replace("variant = P", "variant = Palpha")
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["variant"] == "Palpha"
    assert report["runs"]["cg"]["converged"]


def test_robin_variant_requires_alpha(tmp_path):
    path = write_config(tmp_path)
    text = path.read_text().replace("variant = P", "variant = Palpha") \
                           .replace("alpha = 10.0", "")
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--quiet"]) == 1


def test_solve_emits_all_csv_files(tmp_path):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    assert main(["solve", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    for name in ("history_cg", "state_cg", "adjoint_cg", "control_g_cg",
                 "control_q_cg"):
        assert (out / f"{name}.csv").exists(), name
    first = (out / "state_cg.csv").read_text().splitlines()
    assert first[0] == "step,node,value"


def test_sweep_compatible_instance_all_gaps_zero(tmp_path):
    path = write_config(tmp_path, z_d="constant:1.0")
    text = path.read_text().replace("b = zero", "b = constant:1.0") \
                           .replace("v_b = zero", "v_b = constant:1.0")
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    for rec in report["report"]["records"]:
        assert abs(rec["state_gap"]) <= 1e-12
        assert abs(rec["control_gap"]) <= 1e-12
    for rec in report["fixed_control_report"]["records"]:
        assert abs(rec["state_gap"]) <= 1e-12


def test_sweep_demo_instance_decays(tmp_path, capsys):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    code = main(["sweep", "--config", str(path)])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
    gaps = [r["control_gap"] for r in payload["report"]["records"]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert summarize_sweep(payload) == capsys.readouterr().out.strip()


def test_solve_exits_two_when_not_converged(tmp_path):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    text = path.read_text().replace("max_iter = 500", "max_iter = 1") \
                           .replace("tol = 1e-10", "tol = 1e-14")
    path.write_text(text)
    code = main(["solve", "--config", str(path), "--quiet"])
    assert code == 2
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["runs"]["cg"]["converged"] is False


def test_check_trivial_target_reports_zero_distance(tmp_path):
    # zero data makes the zero-control trajectory the target, so both sides
    # of the distributed-distance estimate vanish
    path = write_config(tmp_path, z_d="zero")
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    est = next(c for c in checks if c["name"] == "distributed_distance_estimate")
    assert est["measured"] <= 1e-11 and est["bound"] <= 1e-11 and est["passed"]


def test_sweep_rejects_alpha_at_most_one(tmp_path, capsys):
    path = write_config(tmp_path)
    base = path.read_text()
    for alphas, message in (("[0.5, 10.0]", "must all exceed 1"),
                            ("[100.0, 10.0]", "must be strictly increasing")):
        path.write_text(base.replace("alphas = [10.0, 100.0, 1000.0]",
                                     f"alphas = {alphas}"))
        assert main(["sweep", "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "[problem] alphas" in err and message in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alphas", ["alphas = []", ""])
def test_sweep_rejects_an_empty_ladder(tmp_path, capsys, alphas):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("alphas = [10.0, 100.0, 1000.0]", alphas))
    assert main(["sweep", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [problem] alphas:")
    assert "at least one coefficient" in err
    assert not (tmp_path / "out").exists()


def test_quiet_failed_sweep_reports_on_stderr(tmp_path, capsys):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    text = path.read_text().replace("nx = 2", "nx = 3").replace("ny = 2", "ny = 3") \
                           .replace("tol = 1e-10", "tol = 1e-300")
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: ")


@pytest.mark.parametrize("command", ["solve", "sweep", "check", "constants"])
def test_mesh_without_free_node_is_a_config_error(tmp_path, capsys, command):
    # on one cell, three gamma1 sides hold every node
    path = write_config(tmp_path)
    text = path.read_text().replace("nx = 2", "nx = 1").replace("ny = 2", "ny = 1") \
                           .replace("gamma1 = left", "gamma1 = left,right,bottom")
    path.write_text(text)
    assert main([command, "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [mesh] gamma1")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, count", [("check", 5), ("solve", 4),
                                            ("constants", 3), ("sweep", 4)])
def test_each_operator_is_factorized_once(tmp_path, monkeypatch, fork_log, command,
                                          count):
    # a file, not a list: the sweep's forked workers factorize too
    log = fork_log("digests")
    init = SpdFactor.__init__

    def recording(self, A):
        B = sp.csr_matrix(A).sorted_indices()
        digest = hashlib.sha1(repr(B.shape).encode())
        for part in (B.indptr, B.indices, B.data):
            digest.update(part.tobytes())
        log.append(digest.hexdigest())
        init(self, A)

    monkeypatch.setattr(SpdFactor, "__init__", recording)
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    text = path.read_text().replace("M1 = 1.0", "M1 = 60.0").replace("M2 = 1.0", "M2 = 60.0")
    path.write_text(text)
    assert main([command, "--config", str(path), "--quiet"]) == 0
    digests = log.lines()
    assert len(digests) == count
    assert len(set(digests)) == count


def test_sweep_costs_two_sweeps_per_cg_iteration_plus_four(tmp_path, monkeypatch,
                                                           fork_log):
    # files, not counters: the sweep's forked workers solve too
    sweeps, solves = fork_log("sweeps"), fork_log("solves")

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            sweeps.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def recorded(fn):
        def wrapper(*args, **kwargs):
            rep = fn(*args, **kwargs)
            solves.append(rep.iterations)
            return rep
        return wrapper

    monkeypatch.setattr(heatctrl.state, "_forward",
                        counted("forward", heatctrl.state._forward))
    monkeypatch.setattr(heatctrl.adjoint, "_backward",
                        counted("backward", heatctrl.adjoint._backward))
    monkeypatch.setattr(heatctrl.analysis, "solve_cg",
                        recorded(heatctrl.analysis.solve_cg))
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    assert main(["sweep", "--config", str(path), "--quiet"]) == 0
    counts = {name: sweeps.lines().count(name) for name in ("forward", "backward")}
    iterations = [int(k) for k in solves.lines()]
    # one CG solve per operator: the pinned one and three Robin coefficients
    assert len(iterations) == 4 and all(k > 0 for k in iterations)
    # per solve: the zero-control pass, which also gives the fixed-control
    # record, one state/adjoint pair per iteration and the final report
    total = sum(k + 2 for k in iterations)
    assert counts == {"forward": total, "backward": total}


SWEEP_SCRIPT = """
import sys
import heatctrl.analysis
from heatctrl.cli import main
heatctrl.analysis._usable_cpus = lambda: int(sys.argv[1])
print("before the sweep")
sys.exit(main(sys.argv[2:]))
"""


def test_sweep_prints_the_same_bytes_on_any_cpu_count(tmp_path):
    # stdout is a pipe, so the first line is still buffered when the
    # workers fork; it must be written once, by this process
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs = {}
    for cpus in (1, 3):
        out = tmp_path / f"out{cpus}"
        proc = subprocess.run(
            [sys.executable, "-c", SWEEP_SCRIPT, str(cpus), "sweep",
             "--config", str(path), "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        runs[cpus] = proc
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == b"before the sweep"
        assert len(lines) == len(set(lines)) > 3
    assert runs[3].stdout == runs[1].stdout
    assert runs[3].stderr == runs[1].stderr == b""
    for name in ("sweep_report.json", "sweep.csv", "sweep_fixed.csv"):
        assert (tmp_path / "out3" / name).read_bytes() == \
            (tmp_path / "out1" / name).read_bytes(), name


CRITERION_9_CONFIG = """
[mesh]
nx = 4
ny = 4
gamma1 = left
[time]
T = 1.0
n_steps = 8
[problem]
M1 = 1.0
M2 = 1.0
alpha = 10.0
alphas = [10.0, 100.0, 1000.0]
b = zero
v_b = zero
z_d = bump:0.6,0.5,0.2,1.0
[solver]
tol = 1e-10
max_iter = 1
optimizer = cg
variant = P
[output]
directory = {out}
formats = csv,json
"""


def test_sweep_obeys_the_iteration_cap(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CRITERION_9_CONFIG.format(out=tmp_path / "out"))
    assert main(["solve", "--config", str(path), "--quiet"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: inner solve for P stopped")
    assert "after 1 iterations" in captured.err


def test_failing_alpha_in_a_worker_fails_the_sweep_as_in_process(tmp_path, capsys,
                                                                 monkeypatch):
    solve = heatctrl.analysis.solve_cg

    def capped(data, stepper, tol, **kwargs):
        if stepper.alpha == 100.0:  # the second alpha: a worker's, given 2 CPUs
            kwargs["max_iter"] = 1
        return solve(data, stepper, tol, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, "solve_cg", capped)
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    errs = []
    for cpus in (1, 2):
        monkeypatch.setattr(heatctrl.analysis, "_usable_cpus", lambda n=cpus: n)
        assert main(["sweep", "--config", str(path), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0].startswith("solver failure: inner solve for Palpha at alpha=100.0 ")
    assert errs[1] == errs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_check_small_instance_passes(tmp_path, capsys):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    code = main(["check", "--config", str(path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("adjoint_identity_P" in ln for ln in lines)
    assert all(": pass" in ln for ln in lines if ln.startswith("check "))
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    assert all(c["passed"] for c in checks)


def test_check_reports_fixed_point_agreement_when_contractive(tmp_path, capsys):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    text = path.read_text().replace("M1 = 1.0", "M1 = 60.0") \
                           .replace("M2 = 1.0", "M2 = 60.0")
    path.write_text(text)
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    names = [c["name"] for c in checks]
    assert "fixed_point_vs_cg" in names


def test_check_reports_divergence_as_informative(tmp_path):
    # tiny penalties make the fixed-point map expand; that is not a failure
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0",
                        optimizer="fixed_point")
    text = path.read_text().replace("M1 = 1.0", "M1 = 0.001") \
                           .replace("M2 = 1.0", "M2 = 0.001") \
                           .replace("max_iter = 500", "max_iter = 25")
    path.write_text(text)
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    entry = next(c for c in checks
                 if c["name"] == "fixed_point_divergence_consistent")
    assert entry["passed"] and entry["measured"] >= 1.0


def test_constants_command(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["constants", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    consts = payload["constants"]
    assert 0 < consts["lambda0"] <= 1.0
    assert consts["trace_norm"] > 0


def test_out_flag_overrides_directory(tmp_path):
    path = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["solve", "--config", str(path), "--out", str(other),
                 "--quiet"]) == 0
    assert (other / "solve_report.json").exists()


def test_solve_and_sweep_outputs_are_bit_identical(tmp_path):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="cg")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["solve", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
    for name in ("solve_report.json", "history_cg.csv", "state_cg.csv",
                 "control_g_cg.csv", "control_q_cg.csv", "sweep.csv",
                 "sweep_fixed.csv", "sweep_report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_json_reports_reparse_exactly(tmp_path):
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    assert main(["solve", "--config", str(path), "--quiet"]) == 0
    raw = (tmp_path / "out" / "solve_report.json").read_text()
    payload = json.loads(raw)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == raw


def _reference_series_csv(path, values, step0=0, node_ids=None):
    """The writer write_csv_series replaced: one tuple per cell through csv.writer."""
    rows = []
    for step in range(values.shape[0]):
        for j in range(values.shape[1]):
            node = j if node_ids is None else int(node_ids[j])
            rows.append((step + step0, node, values[step, j]))
    write_csv(path, ("step", "node", "value"), rows)


AWKWARD = np.array([
    [-0.0, 5e-324, 1e308, 0.1],
    [1.0, -2.0, 3e15, 1.0 / 3.0],
    [-1e-300, 2.0**53 + 2.0, 123456789.0, -0.30000000000000004],
])


@pytest.mark.parametrize("values, step0, node_ids", [
    (AWKWARD, 0, None),
    (AWKWARD, 1, None),
    (AWKWARD, 1, np.array([3, 7, 40, 41])),
    (np.random.default_rng(3).standard_normal((5, 17)) * 1e-3, 0, None),
    (np.zeros((2, 0)), 1, np.array([], dtype=int)),
])
def test_write_csv_series_matches_row_writer(tmp_path, values, step0, node_ids):
    _reference_series_csv(tmp_path / "ref.csv", values, step0, node_ids)
    write_csv_series(tmp_path / "new.csv", values, step0, node_ids)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("variant", ["P", "Palpha"])
@pytest.mark.parametrize("optimizer", ["cg", "fixed_point", "distributed_only"])
def test_report_trajectories_equal_a_fresh_solve(variant, optimizer):
    ops = assemble(build_rect_mesh(4, 4, "left"))
    grid = TimeGrid(1.0, 4)
    x, y = ops.mesh.nodes[:, 0], ops.mesh.nodes[:, 1]
    target = np.exp(-((x - 0.6) ** 2 + (y - 0.5) ** 2) / 0.08)
    data = ProblemData(ops=ops, b=np.zeros(len(ops.dirichlet_nodes)),
                       v_b=np.zeros(ops.n_nodes),
                       z_d=np.tile(target, (grid.n_steps, 1)),
                       M1=60.0, M2=60.0, grid=grid)
    stepper = Stepper(ops, grid, variant, 10.0)
    if optimizer == "cg":
        rep = solve_cg(data, stepper, 1e-10)
    elif optimizer == "fixed_point":
        rep = solve_fixed_point(data, stepper, 1e-10)
    else:
        q = np.full((grid.n_steps, len(ops.gamma2_nodes)), 0.25)
        rep = solve_distributed_only(data, q, stepper, 1e-10)
    u = solve_state(data, rep.control, stepper)
    p = solve_adjoint(data, u, stepper)
    assert np.array_equal(rep.state, u)
    assert np.array_equal(rep.adjoint, p)


def test_solve_writes_reports_without_resolving(tmp_path):
    # the command layer has no solver of its own to re-solve with: the
    # reports come from the optimizer's trajectories
    assert not hasattr(cli, "solve_state") and not hasattr(cli, "solve_adjoint")
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    text = path.read_text().replace("M1 = 1.0", "M1 = 60.0").replace("M2 = 1.0", "M2 = 60.0")
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--quiet"]) == 0
    out = tmp_path / "out"
    for name in ("cg", "fixed_point"):
        for kind in ("state", "adjoint", "control_g", "control_q"):
            assert (out / f"{kind}_{name}.csv").exists()


@pytest.mark.parametrize("old, new, key", [
    ("M1 = 1.0", "M1 = nan", "[problem] M1"),
    ("M2 = 1.0", "M2 = inf", "[problem] M2"),
    ("T = 1.0", "T = inf", "[time] T"),
    ("T = 1.0", "T = 0", "final time"),
    ("T = 1.0", "T = 1e-310", "T / n_steps = 1e-310 / 2"),
    ("T = 1.0", "T = 5e-324", "T / n_steps = 5e-324 / 2"),
    ("tol = 1e-10", "tol = nan", "[solver] tol"),
    ("alpha = 10.0", "alpha = -inf", "[problem] alpha"),
    ("alphas = [10.0, 100.0, 1000.0]", "alphas = [10.0, nan]", "[problem] alphas"),
    ("alphas = [10.0, 100.0, 1000.0]", "alphas = [10.0, , 1000.0]",
     "[problem] alphas"),
    ("gamma1 = left", "gamma1 = left,", "[mesh] gamma1"),
    ("M1 = 1.0", "M1 = heavy", "[problem] M1"),
    ("z_d = zero", "z_d = constant:inf", "[problem] z_d"),
    ("b = zero", "b = linear:0,nan,0", "[problem] b"),
    ("v_b = zero", "v_b = bump:0.5,0.5,0.1,inf", "[problem] v_b"),
    ("z_d = zero", "z_d = linear:1e308,1e308,0", "[problem] z_d"),
    ("nx = 4", "nx = nan", "[mesh] nx"),
    ("nx = 4", "nx = 2.5", "[mesh] nx"),
    ("ny = 4", "ny = 0", "[mesh] ny"),
    ("n_steps = 2", "n_steps = four", "[time] n_steps"),
    ("max_iter = 500", "max_iter = -3", "[solver] max_iter"),
    ("max_iter = 500", "max_iter = inf", "[solver] max_iter"),
    ("nx = 4", "nx = true", "[mesh] nx"),
    ("T = 1.0", "T = true", "[time] T"),
    ("M1 = 1.0", "M1 = true", "[problem] M1"),
    ("b = zero\nv_b", "b = constant:1\nv_b", "Dirichlet nodes must equal b"),
])
def test_non_finite_input_fails_fast(tmp_path, capsys, old, new, key):
    path = write_config(tmp_path)
    text = path.read_text().replace("nx = 2", "nx = 4").replace("ny = 2", "ny = 4")
    if key == "[time] T":
        text = text.replace("z_d = zero", "z_d = constant:inf")
    assert old in text
    path.write_text(text.replace(old, new))
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overflowing_field_prints_only_the_config_error(tmp_path):
    # a fresh interpreter with the default warning filters, so a numpy
    # overflow or empty-file warning would reach stderr as it does on the
    # command line
    empty = tmp_path / "empty.csv"
    empty.write_text("value\n")
    src = str(Path(heatctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONWARNINGS", None)
    for z_d, message in (
            ("linear:1e308,1e308,0",
             "field 'linear:1e308,1e308,0' has non-finite values"),
            (f"csv:{empty}", f"{empty} must hold 9 values, got shape (0,)")):
        path = write_config(tmp_path, z_d=z_d)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from heatctrl.cli import main; "
             "sys.exit(main())", "solve", "--config", str(path), "--quiet"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == f"configuration error: [problem] z_d: {message}\n"
        assert not (tmp_path / "out").exists()


def test_non_finite_csv_field_rejected(tmp_path, capsys):
    field_file = tmp_path / "field.csv"
    field_file.write_text("value\n" + "\n".join(["0.5"] * 8 + ["nan"]) + "\n")
    path = write_config(tmp_path, z_d=f"csv:{field_file}")
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert "[problem] z_d" in capsys.readouterr().err


def test_json_report_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(SolverError, match="non-finite"):
        write_json(tmp_path / "report.json", {"cost": float("nan")})
    assert not (tmp_path / "report.json").exists()


def test_check_reuses_constants_and_simultaneous_solves(tmp_path, monkeypatch):
    from heatctrl import analysis

    calls = {"solve_cg": 0, "compute_constants": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, analysis):
        counted(module, "solve_cg")
        counted(module, "compute_constants")
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    assert "fixed_point_vs_cg" in [c["name"] for c in checks]
    assert calls == {"solve_cg": 2, "compute_constants": 1}


FUZZ_BASE = {
    "mesh": {"nx": "4", "ny": "4", "gamma1": "left"},
    "time": {"T": "1.0", "n_steps": "2"},
    "problem": {"M1": "1.0", "M2": "1.0", "alpha": "10.0",
                "alphas": "[10.0, 100.0]", "b": "zero", "v_b": "zero",
                "z_d": "zero"},
    "solver": {"tol": "1e-10", "max_iter": "500", "optimizer": "cg",
               "variant": "P"},
    "output": {"directory": "out", "formats": "csv,json"},
}
FUZZ_KEYS = [key for entries in FUZZ_BASE.values() for key in entries]
FUZZ_VALUES = st.one_of(
    st.sampled_from(["4", "2.5", "0", "-3", "nan", "inf", "1e400", "9" * 400,
                     "true", "left", "left,bottom", "P", "Palpha", "both",
                     "json", "zero", "[]", "[10.0, 100.0]", "[1]", "[1, left]",
                     "[", "]", "'quoted'", '"', ""]),
    st.text(max_size=12),
)


def fuzz_config(overrides=(), dropped=(), noise=()):
    """The base config text with values replaced and keys or sections dropped."""
    overrides = dict(overrides)
    lines = []
    for section, entries in FUZZ_BASE.items():
        if section not in dropped:
            lines.append(f"[{section}]")
        lines += [f"{key} = {overrides.get(key, value)}"
                  for key, value in entries.items() if key not in dropped]
    return "\n".join(lines + list(noise))


CONFIG_TEXTS = st.builds(
    fuzz_config,
    st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES, max_size=3),
    st.sets(st.sampled_from(FUZZ_KEYS + list(FUZZ_BASE)), max_size=2),
    st.lists(st.text(max_size=30), max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(CONFIG_TEXTS, st.text(), st.binary()))
@example(fuzz_config({"nx": "9" * 400}))
@example(fuzz_config({"gamma1": "[1, left]"}))
@example(fuzz_config({"formats": "[1]"}))
@example(fuzz_config({"directory": "5"}))
@example(b"\x80")
def test_any_config_text_parses_or_is_a_config_error(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
        try:
            assert isinstance(parse_config_text(text), dict)
        except ConfigError:
            pass
    try:
        assert isinstance(load_config(path), cli.RunConfig)
    except ConfigError:
        pass
