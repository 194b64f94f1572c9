import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
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

import golden

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


@pytest.mark.parametrize("key, value, left", [
    ("directory", '"run#1"', '"run'),
    ("z_d", '"csv:data#2.csv"', '"csv:data'),
])
def test_quoted_value_holding_a_comment_sign_is_refused(tmp_path, capsys, monkeypatch,
                                                         key, value, left):
    # '#' starts a comment also inside quotes, so the value keeps one quote
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, **{"out" if key == "directory" else key: value})
    line = path.read_text().splitlines().index(f"{key} = {value}") + 1
    assert main(["solve", "--config", "run.cfg", "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: run.cfg:{line}: unmatched quote in {key} = {left} "
        "('#' starts a comment, also inside quotes)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_missing_file_is_config_error(tmp_path, capsys, monkeypatch):
    # the default output directory is relative: run where it would appear
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "nope.cfg"
    assert main(["solve", "--config", str(missing)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: config file not found: {missing}\n")
    assert list(tmp_path.iterdir()) == []


# a file name longer than any file system allows
LONG_NAME = "a" * 300
TOO_LONG = os.strerror(errno.ENAMETOOLONG)

# the one error line of each unusable name, by where it is given
UNUSABLE_NAME_ERRORS = {
    "config": f"{LONG_NAME}: cannot read the config: [Errno {errno.ENAMETOOLONG}] "
              f"{TOO_LONG}: '{LONG_NAME}'",
    "field": f"[problem] z_d: field file not found: {LONG_NAME}",
    "out": f"output directory {LONG_NAME}: {TOO_LONG}",
    "directory": r"run.cfg: [output] directory must name a directory, got 'a\x00b'",
    "out-nul": r"--out must name a directory, got 'a\x00b'",
}


@pytest.mark.parametrize("where", list(UNUSABLE_NAME_ERRORS))
def test_an_unusable_path_name_is_a_config_error(tmp_path, capsys, monkeypatch, where):
    # a name the system refuses, too long or holding a NUL, fails before any
    # work with one line, and makes no directory
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, z_d=f"csv:{LONG_NAME}" if where == "field" else "zero",
                 out="a\0b" if where == "directory" else "out")
    argv = {"config": ["--config", LONG_NAME],
            "out": ["--config", "run.cfg", "--out", LONG_NAME],
            "out-nul": ["--config", "run.cfg", "--out", "a\0b"]}
    monkeypatch.setattr(cli, "solve_cg", _raising(AssertionError("work began")))
    assert main(["solve", *argv.get(where, ["--config", "run.cfg"])]) == 1
    assert capsys.readouterr() == (
        "", f"configuration error: {UNUSABLE_NAME_ERRORS[where]}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("where", ["long-name", "no-space"])
def test_an_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           where):
    # a name too long below a missing parent fails as the directories are
    # made, before the work, and a writer's OSError after it: one line, no
    # traceback, and no directory the run made stays
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    out = f"out/{LONG_NAME}" if where == "long-name" else "out"
    if where == "no-space":
        monkeypatch.setattr(cli, "write_json", _raising(NO_SPACE))
    assert main(["solve", "--config", "run.cfg", "--out", out]) == 1
    reason = TOO_LONG if where == "long-name" else NO_SPACE.strerror
    assert capsys.readouterr() == (
        "", f"configuration error: output directory {out}: {reason}\n")
    assert not (tmp_path / "out").exists()


def test_an_output_directory_that_cannot_be_made_stops_the_run_before_the_work(
        tmp_path, capsys, monkeypatch):
    # out is made, the name below it refused, and out removed again, all
    # before the problem is factorized
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    factorizations = []
    init = SpdFactor.__init__
    monkeypatch.setattr(SpdFactor, "__init__",
                        lambda self, A: factorizations.append(1) or init(self, A))
    out = f"out/{LONG_NAME}"
    assert main(["solve", "--config", "run.cfg", "--out", out]) == 1
    assert capsys.readouterr() == (
        "", f"configuration error: output directory {out}: {TOO_LONG}\n")
    assert not (tmp_path / "out").exists()
    assert factorizations == []


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


@pytest.mark.parametrize("command", ["solve", "constants"])
@pytest.mark.parametrize("form", ["config", "flag"])
def test_empty_output_directory_is_refused(tmp_path, capsys, monkeypatch, command, form):
    # an empty path would write the reports into the working directory
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    if form == "config":
        path.write_text(path.read_text().replace(f"directory = {tmp_path / 'out'}",
                                                 "directory ="))
        assert main([command, "--config", str(path), "--quiet"]) == 1
        err = f"configuration error: {path}: [output] directory must name a directory, got ''\n"
    else:
        assert main([command, "--config", str(path), "--quiet", "--out", ""]) == 1
        err = "configuration error: --out must name a directory, got ''\n"
    assert capsys.readouterr() == ("", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("form", ["config", "flag"])
def test_dot_output_directory_is_the_working_directory(tmp_path, monkeypatch, form):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, out="." if form == "config" else None)
    flag = ["--out", "."] if form == "flag" else []
    assert main(["constants", "--config", str(path), "--quiet", *flag]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["constants.json", "run.cfg"]


def test_config_with_a_byte_order_mark_loads_as_without(tmp_path):
    path = write_config(tmp_path)
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert bom.read_text(encoding="utf-8").startswith("\ufeff")
    assert load_config(bom) == load_config(path)


def test_missing_csv_field_names_path(tmp_path, capsys):
    missing = tmp_path / "no_such_field.csv"
    path = write_config(tmp_path, z_d=f"csv:{missing}")
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: [problem] z_d: field file not found: {missing}\n")
    assert not (tmp_path / "out").exists()


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


def test_target_is_one_read_only_field_seen_by_every_step(tmp_path):
    path = write_config(tmp_path, z_d="bump:0.7,0.5,0.15,1.0")
    data = cli.build_problem(load_config(path))
    z_d = data.z_d
    assert z_d.shape == (data.grid.n_steps, data.ops.n_nodes)
    assert z_d.strides[0] == 0 and not z_d.flags.writeable
    # one field of the bump itself: every step is a view of the same memory
    assert np.shares_memory(z_d[0], z_d[-1]) and np.any(z_d[0])


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


def _raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


NOT_CONVERGED = SolverError("inner solve for P stopped at grad_norm=5.000e-01 "
                            "after 3 iterations")


@pytest.mark.parametrize("command, module, name, error", [
    ("solve", cli, "solve_cg", SolverError("factorization failed: singular")),
    ("solve", cli, "solve_fixed_point", NOT_CONVERGED),
    ("sweep", heatctrl.analysis, "solve_cg", SolverError("factorization failed")),
    ("sweep", cli, "alpha_sweep", NOT_CONVERGED),
    ("check", heatctrl.analysis, "solve_distributed_only", SolverError("no descent")),
    ("constants", cli, "compute_constants", SolverError("iteration collapsed")),
])
def test_raised_failure_leaves_no_output_directory(tmp_path, capsys, monkeypatch,
                                                   command, module, name, error):
    # reports are written only once a command has finished
    monkeypatch.setattr(module, name, _raising(error))
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solver failure: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture
def no_mesh(monkeypatch):
    """cli.build_rect_mesh made to fail, so a refusal must come before any mesh."""
    def build(*args):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_rect_mesh", build)


@pytest.mark.parametrize("alpha", ["1.0", "0.5"])
def test_check_refuses_alpha_at_most_one(tmp_path, capsys, no_mesh, alpha):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("alpha = 10.0", f"alpha = {alpha}"))
    assert main(["check", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == \
        "configuration error: checks need problem.alpha > 1\n"
    assert not (tmp_path / "out").exists()


def test_check_trivial_target_reports_zero_distance(tmp_path):
    # zero data makes the zero-control trajectory the target, so both sides
    # of the distributed-distance estimate vanish
    path = write_config(tmp_path, z_d="zero")
    assert main(["check", "--config", str(path), "--quiet"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    est = next(c for c in checks if c["name"] == "distributed_distance_estimate")
    assert est["measured"] <= 1e-11 and est["bound"] <= 1e-11 and est["passed"]


def test_sweep_rejects_alpha_at_most_one(tmp_path, capsys, no_mesh):
    path = write_config(tmp_path)
    base = path.read_text()
    for alphas, message in (("[0.5, 10.0]", "must all exceed 1"),
                            ("[100.0, 10.0]", "must be strictly increasing")):
        path.write_text(base.replace("alphas = [10.0, 100.0, 1000.0]",
                                     f"alphas = {alphas}"))
        assert main(["sweep", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err == ("configuration error: [problem] alphas: "
                                           f"sweep coefficients {message}, got {alphas}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alphas", ["alphas = []", ""])
def test_sweep_rejects_an_empty_ladder(tmp_path, capsys, no_mesh, alphas):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("alphas = [10.0, 100.0, 1000.0]", alphas))
    assert main(["sweep", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == \
        "configuration error: [problem] alphas: a sweep needs at least one coefficient\n"
    assert not (tmp_path / "out").exists()


def test_a_mesh_beyond_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # nx = 1e12 is a positive integer, and numpy's allocation then fails; the
    # failure is faked, because whether a 7 TiB request fails at once depends
    # on the host's overcommit mode
    def build(nx, ny, gamma1):
        raise MemoryError(f"Unable to allocate 7.28 TiB for the {nx}x{ny} mesh")

    monkeypatch.setattr(cli, "build_rect_mesh", build)
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("nx = 2", "nx = 1e12"))
    assert main(["constants", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == \
        "configuration error: [mesh] nx = 1000000000000, ny = 2: out of memory\n"
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


def test_module_entry_point_runs_the_command_line(tmp_path):
    path = write_config(tmp_path)
    src = str(Path(heatctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "heatctrl.cli", "constants", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == (tmp_path / "out" / "constants.json").read_text()


SWEEP_SCRIPT = """
import sys
import heatctrl.shares
from heatctrl.cli import main
heatctrl.shares._usable_cpus = lambda: int(sys.argv[1])
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


SOLVE_SCRIPT = """
import os, sys
import heatctrl.shares
from heatctrl.cli import main
heatctrl.shares._usable_cpus = lambda: int(sys.argv[1])
print("before the solve")
code = main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child was left behind")
except ChildProcessError:
    pass
sys.exit(code)
"""


@pytest.mark.parametrize("n_steps", [1, 8])
def test_solve_writes_the_same_bytes_on_any_cpu_count(tmp_path, n_steps):
    # the constants job and the row shares of every series file run in as
    # many processes as there are CPUs; with one step a share of each
    # series file is empty at 3 CPUs
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    text = path.read_text().replace("n_steps = 2", f"n_steps = {n_steps}")
    path.write_text(text.replace("M1 = 1.0", "M1 = 60.0").replace("M2 = 1.0", "M2 = 60.0"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs, outputs = {}, {}
    for cpus in (1, 2, 3):
        out = tmp_path / f"out{cpus}"
        runs[cpus] = subprocess.run(
            [sys.executable, "-c", SOLVE_SCRIPT, str(cpus), "solve",
             "--config", str(path), "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs[1].returncode == 0, runs[1].stderr
    assert runs[1].stdout.splitlines()[0] == b"before the solve"
    assert runs[1].stdout.splitlines()[1:] == \
        summarize_solve(json.loads(outputs[1]["solve_report.json"])).encode().splitlines()
    assert len(outputs[1]) == 11
    for cpus in (2, 3):
        assert (runs[cpus].returncode, runs[cpus].stdout, runs[cpus].stderr) == \
            (runs[1].returncode, runs[1].stdout, runs[1].stderr)
        assert outputs[cpus] == outputs[1]


@pytest.mark.parametrize("where, cpus", [("child", 2), ("child", 3), ("parent", 1),
                                         ("parent", 2)])
def test_a_share_that_cannot_be_written_leaves_only_finished_files(
        tmp_path, capsys, monkeypatch, where, cpus):
    # the first series share written in a child, or this process's share 0
    # of state_cg.csv, fails; the files finished before it stay, and no
    # series file, whole or part, does
    parent = os.getpid()
    rows = heatctrl.shares._series_rows

    def no_space(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise NO_SPACE
        return rows(*args, **kwargs)

    monkeypatch.setattr(heatctrl.shares, "_series_rows", no_space)
    monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: cpus)
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0", optimizer="both")
    path.write_text(path.read_text().replace("M1 = 1.0", "M1 = 60.0")
                    .replace("M2 = 1.0", "M2 = 60.0"))
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr() == (
        "", f"configuration error: output directory {tmp_path / 'out'}: "
            f"{NO_SPACE.strerror}\n")
    finished = {"child": ["history_cg.csv", "history_fixed_point.csv",
                          "solve_report.json"],
                "parent": ["history_cg.csv", "solve_report.json"]}[where]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == finished
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)



@pytest.mark.parametrize("rows, shares", [(1, 1), (5, 5), (100, heatctrl.shares.MAX_SHARES)])
def test_row_shares_are_capped_and_each_holds_one_temporary_file(
        tmp_path, monkeypatch, rows, shares):
    # on a host of 1000 CPUs, the shares run one after the other in this
    # process: the share count stops at the longest table's rows and at
    # MAX_SHARES, and the two series tables share one temporary file per
    # share past the first
    values = np.arange(3.0 * rows).reshape(rows, 3) / 7
    files = {"report.json": (write_json, "{}"), "a.csv": (write_csv_series, values),
             "b.csv": (write_csv_series, values[:2] + 1, 1, np.array([4, 5, 9]))}
    opened = []

    def temporary_file(**kwargs):
        opened.append(kwargs)
        return make_temporary_file(**kwargs)

    make_temporary_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: 1000)
    monkeypatch.setattr(heatctrl.shares, "_fork_map",
                        lambda fn, items: [fn(item) for item in items])
    (tmp_path / "shares").mkdir()
    heatctrl.shares._write_files(tmp_path / "shares", files, ["a.csv", "b.csv"])
    assert opened == [{"dir": tmp_path / "shares"}] * (shares - 1)
    (tmp_path / "whole").mkdir()
    for name, (writer, *args) in files.items():
        writer(tmp_path / "whole" / name, *args)
    for name in files:
        assert (tmp_path / "shares" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes(), name
    assert sorted(p.name for p in (tmp_path / "shares").iterdir()) == sorted(files)

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


def test_check_refuses_a_cg_solve_that_stopped_short(tmp_path, capsys):
    # the Section-5 estimates hold at the optimum, not at one CG iteration
    path = tmp_path / "run.cfg"
    path.write_text(CRITERION_9_CONFIG.format(out=tmp_path / "out")
                    .replace("optimizer = cg", "optimizer = both"))
    assert main(["sweep", "--config", str(path), "--quiet"]) == 2
    sweep = capsys.readouterr()
    assert main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == sweep.err
    assert captured.err.startswith("solver failure: inner solve for P stopped at ")
    assert captured.err.endswith(" after 1 iterations\n")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_failing_alpha_in_a_worker_fails_the_sweep_as_in_process(tmp_path, capsys,
                                                                 monkeypatch):
    solve = heatctrl.analysis.solve_cg

    def capped(stepper, tol, **kwargs):
        if stepper.alpha == 100.0:  # the second alpha: a worker's, given 2 CPUs
            kwargs["max_iter"] = 1
        return solve(stepper, tol, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, "solve_cg", capped)
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    errs = []
    for cpus in (1, 2):
        monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda n=cpus: n)
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
    stepper = Stepper(data, variant, 10.0)
    if optimizer == "cg":
        rep = solve_cg(stepper, 1e-10)
    elif optimizer == "fixed_point":
        rep = solve_fixed_point(stepper, 1e-10)
    else:
        q = np.full((grid.n_steps, len(ops.gamma2_nodes)), 0.25)
        rep = solve_distributed_only(q, stepper, 1e-10)
    u = solve_state(rep.control, stepper)
    p = solve_adjoint(u, stepper)
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
    ("T = 1.0", "T = 0", "[time] T must be positive"),
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
    ("[mesh]", "[ ]", "run.cfg:2: empty section name"),
    ("z_d = zero", "z_d = bump:1,2", "'bump:1,2': expected 4 numbers, got 2"),
    ("z_d = zero", "z_d = sine:1", "[problem] z_d: unknown field 'sine'"),
    ("M1 = 1.0", "M1 = 0", "[problem] M1 must be positive"),
    ("tol = 1e-10", "tol = -1e-3", "[solver] tol must be positive"),
    ("z_d = zero", "z_d = bump:0.4,0.4,0,1.0",
     "[problem] z_d: bad field spec 'bump:0.4,0.4,0,1.0': width must be positive and "
     "2 W^2 must not underflow, got 0.0"),
    ("z_d = zero", "z_d = bump:0.4,0.4,1e-200,1.0",
     "[problem] z_d: bad field spec 'bump:0.4,0.4,1e-200,1.0': width must be positive and "
     "2 W^2 must not underflow, got 1e-200"),
    ("z_d = zero", "z_d = bump:0.5,0.5,0,1.0",
     "[problem] z_d: bad field spec 'bump:0.5,0.5,0,1.0': width must be positive and "
     "2 W^2 must not underflow, got 0.0"),
    ("z_d = zero", "z_d = bump:0.5,0.5,-0.15,1.0",
     "[problem] z_d: bad field spec 'bump:0.5,0.5,-0.15,1.0': width must be positive and "
     "2 W^2 must not underflow, got -0.15"),
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


def test_csv_field_of_the_wrong_length_is_refused(tmp_path, capsys):
    field_file = tmp_path / "field.csv"
    field_file.write_text("value\n0.5\n0.5\n")
    path = write_config(tmp_path, z_d=f"csv:{field_file}")
    path.write_text(path.read_text().replace("nx = 2", "nx = 4").replace("ny = 2", "ny = 4"))
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == (f"configuration error: [problem] z_d: "
                                       f"{field_file} must hold 25 values, got shape (2,)\n")
    assert not (tmp_path / "out").exists()


def test_bump_wider_than_the_float_range_is_flat():
    # 2 W^2 overflows to inf, so every exponent is -0.0
    points = build_rect_mesh(2, 2, "left").nodes
    values = cli._field_values("bump:0.5,0.5,1e200,2.0", points, "[problem] z_d")
    assert np.array_equal(values, np.full(len(points), 2.0))


@pytest.mark.parametrize("key", ["M1", "M2"])
def test_tiny_penalty_check_names_the_overflowing_bound(tmp_path, key):
    # a fresh interpreter with the default warning filters, as on the
    # command line: at 1e-170 the squared weight underflows to zero
    src = str(Path(heatctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONWARNINGS", None)
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    path.write_text(path.read_text().replace(f"{key} = 1.0", f"{key} = 1e-170"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from heatctrl.cli import main; "
         "sys.exit(main())", "check", "--config", str(path), "--quiet"],
        env=env, capture_output=True, text=True)
    weights = "M1 = 1e-170, M2 = 1" if key == "M1" else "M1 = 1, M2 = 1e-170"
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "solver failure: check fixed_point_lipschitz: the contraction bound C0 is "
        f"inf at {weights}, beyond the float range\n")
    assert not (tmp_path / "out").exists()


def test_check_refuses_a_nan_lipschitz_sample(tmp_path, capsys, monkeypatch):
    # NaN samples alone must fail the check, not read measured 0.0
    from heatctrl import analysis
    monkeypatch.setattr(analysis, "apply_W", lambda ctrl, stepper:
                        analysis.ControlPair(np.full_like(ctrl.g, np.nan),
                                             np.full_like(ctrl.q, np.nan)))
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("n_steps = 2", "n_steps = 3"))
    assert main(["check", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "solver failure: check fixed_point_lipschitz: the measured value is nan "
        "at M1 = 1, M2 = 1, beyond the float range\n")
    assert not (tmp_path / "out").exists()


# the failure line of each command on the overflowing target below
OVERFLOW_FAILURES = {
    "solve": "report holds a non-finite number at runs.cg.cost: inf",
    "sweep": "inner solve for P stopped at grad_norm=inf after 0 iterations",
    "check": "check gradient_finite_difference: the measured value is nan "
             "at M1 = 1, M2 = 1, beyond the float range",
}


@pytest.mark.parametrize("command, formats", [
    ("solve", "csv,json"), ("sweep", "csv,json"), ("check", "csv,json"),
    ("solve", "csv"), ("sweep", "csv"), ("check", "csv")],
    ids=["solve", "sweep", "check", "solve-csv", "sweep-csv", "check-csv"])
def test_overflowing_target_prints_only_the_failure_line(tmp_path, capsys, command,
                                                         formats):
    # criterion 9's instance with a target of amplitude 1e290: its squared
    # norms overflow, which the suite's RuntimeWarning filter would turn
    # into an exception and the command line would print as numpy warnings;
    # the run fails alike whether or not a JSON report is asked for
    path = tmp_path / "run.cfg"
    path.write_text(golden.config_text({"z_d": "bump:0.6,0.5,0.2,1e290",
                                        "formats": formats}, tmp_path / "out"))
    assert main([command, "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("solver failure:")
    assert captured.err == f"solver failure: {OVERFLOW_FAILURES[command]}\n"
    assert not (tmp_path / "out").exists()


def test_json_report_refuses_non_finite_numbers():
    with pytest.raises(SolverError, match="non-finite number at cost: nan"):
        cli._json_text({"cost": float("nan")})


@pytest.mark.parametrize("command, formats", [
    ("check", "csv"), ("constants", "csv"), ("solve", "")],
    ids=["check-csv", "constants-csv", "solve-none"])
def test_a_run_that_writes_no_file_makes_no_directory(tmp_path, command, formats):
    # check and constants have no CSV table, and no format writes nothing
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    path.write_text(path.read_text().replace("formats = csv,json", f"formats = {formats}"))
    assert main([command, "--config", str(path), "--quiet"]) == 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below, dangling", [("", False), ("sub", False), ("", True)],
                         ids=["file", "below-a-file", "dangling-link"])
def test_an_output_path_blocked_by_a_file_is_refused_first(tmp_path, capsys,
                                                            monkeypatch, below, dangling):
    afile = tmp_path / "afile"
    if dangling:
        afile.symlink_to(tmp_path / "nowhere")
    else:
        afile.write_text("kept\n")
    out = afile / below if below else afile
    built = []
    monkeypatch.setattr(cli, "build_problem", lambda config: built.append(config))
    path = write_config(tmp_path)
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"configuration error: output directory {out}: {afile} is not a directory\n")
    assert built == []
    assert dangling or afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]


@pytest.mark.parametrize("command, formats, count", [
    ("solve", "csv,json", 1), ("sweep", "csv,json", 1), ("check", "csv,json", 1),
    ("constants", "csv,json", 1), ("solve", "csv", 1)],
    ids=["solve-1", "sweep-1", "check-1", "constants-1", "solve-csv-1"])
def test_each_json_report_is_formed_once(tmp_path, monkeypatch, command, formats, count):
    # the one text gates the run, is the JSON file and is what constants
    # prints; it is formed also when no JSON file is asked for
    calls = []
    inner = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda payload: calls.append(1) or inner(payload))
    path = write_config(tmp_path, z_d="bump:0.6,0.5,0.2,1.0")
    path.write_text(path.read_text().replace("formats = csv,json", f"formats = {formats}"))
    assert main([command, "--config", str(path), "--quiet"]) == 0
    assert len(calls) == count


def test_non_finite_number_is_named_by_its_first_place_in_the_json():
    # keys in the JSON's sorted order, so "a" before "b" whatever the dict order
    payload = {"b": float("nan"), "a": [1.0, {"y": 2, "x": (0.5, float("-inf"))}]}
    with pytest.raises(SolverError) as failure:
        cli._json_text(payload)
    assert str(failure.value) == "report holds a non-finite number at a[1].x[1]: -inf"


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
