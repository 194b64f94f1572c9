import ast
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatctrl import (ControlPair, ProblemData, Stepper, TimeGrid, alpha_sweep,
                      assemble, build_rect_mesh, check_suite, hq_norm, solve_cg,
                      sweep_flags)

import heatctrl.analysis
import heatctrl.cli
import heatctrl.state
from heatctrl.analysis import SolverNotConverged, check_alphas
from heatctrl.linalg import SolverError

from oracles import ALPHA, make_instance, random_control

ALPHAS = [10.0, 100.0, 1000.0, 10000.0]


def compatible_constant_instance(n_steps=4):
    mesh = build_rect_mesh(3, 3, "left")
    ops = assemble(mesh)
    grid = TimeGrid(1.0, n_steps)
    data = ProblemData(
        ops=ops,
        b=np.ones(len(ops.dirichlet_nodes)),
        v_b=np.ones(ops.n_nodes),
        z_d=np.ones((n_steps, ops.n_nodes)),
        M1=1.0, M2=1.0, grid=grid,
    )
    return ops, data


def test_compatible_instance_has_zero_gaps():
    ops, data = compatible_constant_instance()
    ctrl = ControlPair.zeros_like(ops, data.grid)
    report, _ = alpha_sweep(data, ALPHAS, ctrl)
    assert max(report.gaps("state_gap")) <= 1e-12
    assert max(report.gaps("adjoint_gap")) <= 1e-12
    assert max(report.gaps("boundary_residual")) <= 1e-12


def test_fixed_control_gaps_decay():
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=40)
    rng = np.random.default_rng(41)
    ctrl = random_control(ops, data.grid, rng)
    report, _ = alpha_sweep(data, [10.0, 100.0, 1000.0], ctrl)
    gaps = report.gaps("state_gap")
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    adj = report.gaps("adjoint_gap")
    assert all(b < a for a, b in zip(adj, adj[1:]))
    res = report.gaps("boundary_residual")
    assert max(res) <= 10.0 * res[0]


def test_fixed_control_sweep_factorizes_each_operator_once(monkeypatch, fork_log):
    # a file, not a list: the sweep's forked workers factorize too
    log = fork_log("factorizations")
    factor = heatctrl.state.SpdFactor
    monkeypatch.setattr(heatctrl.state, "SpdFactor",
                        lambda A: log.append(A.shape[0]) or factor(A))
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=39)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    alphas = [10.0, 100.0, 1000.0]
    alpha_sweep(data, alphas, ctrl)
    built = log.lines()
    # one pinned factorization shared by the reference state and adjoint,
    # then one Robin factorization per coefficient
    assert len(built) == 1 + len(alphas)


def test_sweep_alphas_validated():
    ops, data = make_instance(seed=42)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    with pytest.raises(ValueError, match="exceed 1"):
        alpha_sweep(data, [0.5, 10.0], ctrl)
    with pytest.raises(ValueError, match="increasing"):
        alpha_sweep(data, [10.0, 10.0], ctrl)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sweep coefficients must be finite"):
            alpha_sweep(data, [10.0, bad], ctrl)


def test_empty_sweep_ladder_rejected():
    ops, data = make_instance(seed=42)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    with pytest.raises(ValueError, match="at least one coefficient"):
        check_alphas([])
    with pytest.raises(ValueError, match="at least one coefficient"):
        alpha_sweep(data, [], ctrl)
    with pytest.raises(ValueError, match="at least one coefficient"):
        alpha_sweep(data, [], ctrl, tol=1e-10)


def test_optimal_sweep_trivial_instance():
    # zero data and zero target: every optimum is (0, 0) and all gaps vanish
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=43, zero_data=True)
    _, report = alpha_sweep(data, ALPHAS, ControlPair.zeros_like(ops, data.grid),
                            tol=1e-10)
    assert max(report.gaps("state_gap")) == 0.0
    assert max(report.gaps("adjoint_gap")) == 0.0
    assert max(report.gaps("control_gap")) == 0.0
    assert report.reference["cost"] == 0.0


def test_optimal_sweep_converges_to_pinned_problem():
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=44)
    _, report = alpha_sweep(data, ALPHAS, ControlPair.zeros_like(ops, data.grid),
                            tol=1e-10)
    for name in ("state_gap", "adjoint_gap", "control_gap"):
        gaps = report.gaps(name)
        assert all(b < a for a, b in zip(gaps, gaps[1:])), name
        assert gaps[-1] < 0.2 * gaps[0], name
    flags = sweep_flags(report)
    assert all(flags.values()), flags


def test_shared_zero_pass_equals_separate_sweeps_and_solves():
    # the zero-control pass behind both sweeps of `heatctrl sweep` gives the
    # fixed-control report and starts each CG solve exactly as fresh runs do
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=44)
    alphas = [10.0, 100.0]
    zero = ControlPair.zeros_like(ops, data.grid)
    fixed, optimal = alpha_sweep(data, alphas, zero, tol=1e-10)
    alone, none = alpha_sweep(data, alphas, zero)
    assert fixed.to_dict() == alone.to_dict() and none is None
    ref = solve_cg(data, Stepper(ops, data.grid, "P"), 1e-10)
    assert optimal.reference == {"problem": "P", "cost": ref.cost,
                                 "grad_norm": ref.grad_norm,
                                 "iterations": ref.iterations}
    for alpha, rec in zip(alphas, optimal.records):
        rep = solve_cg(data, Stepper(ops, data.grid, "Palpha", alpha), 1e-10)
        assert rec.cost_alpha == rep.cost
        assert rec.control_gap == hq_norm(rep.control - ref.control, ops, data.grid)


def test_optimal_sweep_refuses_a_nonzero_start_control(monkeypatch):
    # each CG solve starts from the pass at ctrl, which must be its zero start
    built = []
    factor = heatctrl.state.SpdFactor
    monkeypatch.setattr(heatctrl.state, "SpdFactor",
                        lambda A: built.append(A) or factor(A))
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=44)
    ctrl = random_control(ops, data.grid, np.random.default_rng(44))
    with pytest.raises(ValueError, match="ctrl must be zero controls"):
        alpha_sweep(data, ALPHAS, ctrl, tol=1e-10)
    assert built == []
    fixed, optimal = alpha_sweep(data, ALPHAS, ctrl)
    assert len(fixed.records) == len(ALPHAS) and optimal is None


def test_one_public_sweep():
    for gone in ("_sweeps", "fixed_control_sweep", "optimal_control_sweep"):
        assert not hasattr(heatctrl.analysis, gone), gone
    imported = {alias.name
                for node in ast.walk(ast.parse(inspect.getsource(heatctrl.cli)))
                if isinstance(node, ast.ImportFrom) and node.module == "analysis"
                for alias in node.names}
    assert "alpha_sweep" in imported
    assert not any(name.startswith("_") for name in imported), imported


def test_check_suite_all_pass_on_random_instance():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=45, M1=0.9, M2=1.7)
    checks = check_suite(data, ALPHA, "P", tol=1e-11, n_pairs=20)
    names = {c["name"] for c in checks}
    assert "distributed_distance_estimate" in names
    assert "cost_ordering_alpha" in names
    assert "fixed_point_lipschitz" in names
    for c in checks:
        assert c["passed"], c


def test_identity_checks_solve_each_state_once(monkeypatch):
    forward = []
    at_constants = []
    inner_forward = heatctrl.state._forward
    inner_constants = heatctrl.analysis.compute_constants

    def counted(*args, **kwargs):
        forward.append(1)
        return inner_forward(*args, **kwargs)

    def constants(*args, **kwargs):
        at_constants.append(len(forward))
        return inner_constants(*args, **kwargs)

    monkeypatch.setattr(heatctrl.state, "_forward", counted)
    monkeypatch.setattr(heatctrl.analysis, "compute_constants", constants)
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    check_suite(data, ALPHA, "P", tol=1e-10, n_pairs=1)
    # the identity checks run before the constants: per variant the adjoint
    # identity solves 1 + 5 states, each gradient sample 3, and each of the
    # 3 convexity pairs its 2 end states and one blend per t (15 in all)
    assert at_constants == [2 * (1 + 5) + 5 * 3 + 3 * (2 + 3)]


def test_section5_trivial_instance_has_zero_sides():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=46, zero_data=True)
    checks = check_suite(data, ALPHA, "P", tol=1e-11, n_pairs=5)
    est = next(c for c in checks if c["name"] == "distributed_distance_estimate")
    assert est["measured"] <= 1e-12 and est["bound"] <= 1e-12
    assert est["passed"]


def test_section5_requires_alpha_above_one():
    ops, data = make_instance(seed=47)
    for alpha in (0.5, 1.0, None, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            check_suite(data, alpha, "P", tol=1e-10)


def test_sweep_report_round_trip_dict():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=48)
    rng = np.random.default_rng(49)
    ctrl = random_control(ops, data.grid, rng)
    report, _ = alpha_sweep(data, [10.0, 100.0], ctrl)
    payload = report.to_dict()
    assert payload["alphas"] == [10.0, 100.0]
    assert len(payload["records"]) == 2
    assert set(payload["records"][0]) >= {"alpha", "state_gap", "adjoint_gap",
                                          "boundary_residual"}


def test_solver_not_converged_survives_pickling():
    # a sweep worker sends its failure to the parent pickled
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=50)
    rep = solve_cg(data, Stepper(ops, data.grid, "P"), tol=1e-12, max_iter=1)
    assert not rep.converged
    exc = SolverNotConverged("Palpha at alpha=100.0", rep)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is SolverNotConverged
    assert str(back) == str(exc) and back.args == exc.args
    assert back.label == exc.label
    assert back.report.grad_norm == rep.grad_norm
    assert back.report.iterations == rep.iterations == 1


def sweep_instance():
    ops, data = make_instance(nx=4, ny=4, n_steps=4, seed=51)
    return data, ControlPair.zeros_like(ops, data.grid)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [None, 2, 3, 4])
def test_sweep_records_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    data, zero = sweep_instance()
    monkeypatch.setattr(heatctrl.analysis, "_usable_cpus", lambda: 1)
    serial = alpha_sweep(data, ALPHAS, zero, tol=1e-10)
    monkeypatch.undo()
    if cpus is not None:
        monkeypatch.setattr(heatctrl.analysis, "_usable_cpus", lambda: cpus)
    parallel = alpha_sweep(data, ALPHAS, zero, tol=1e-10)
    # repr of a float is exact, so equal reprs are equal bits
    for one, other in zip(serial, parallel):
        assert repr(one.to_dict()) == repr(other.to_dict())
    assert_no_child_left()


def capped_at(monkeypatch, failing):
    """solve_cg, capped at one iteration for the Robin alphas in failing."""
    solve = heatctrl.analysis.solve_cg

    def capped(data, stepper, tol, **kwargs):
        if stepper.alpha in failing:
            kwargs["max_iter"] = 1
        return solve(data, stepper, tol, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, "solve_cg", capped)


@pytest.mark.parametrize("cpus", [2, 3])
def test_first_failing_alpha_in_order_is_raised(monkeypatch, cpus):
    # with two processes alpha 100 runs in the child and 1000 in the parent,
    # with three each runs in its own child
    data, zero = sweep_instance()
    capped_at(monkeypatch, {100.0, 1000.0})
    monkeypatch.setattr(heatctrl.analysis, "_usable_cpus", lambda: 1)
    with pytest.raises(SolverNotConverged) as serial:
        alpha_sweep(data, ALPHAS, zero, tol=1e-10)
    monkeypatch.setattr(heatctrl.analysis, "_usable_cpus", lambda: cpus)
    with pytest.raises(SolverNotConverged) as parallel:
        alpha_sweep(data, ALPHAS, zero, tol=1e-10)
    assert str(serial.value).startswith("inner solve for Palpha at alpha=100.0 ")
    assert str(parallel.value) == str(serial.value)
    for name in ("grad_norm", "iterations", "cost"):
        assert getattr(parallel.value.report, name) == getattr(serial.value.report, name)
    assert_no_child_left()


def test_a_worker_that_dies_is_a_solver_error(monkeypatch):
    data, zero = sweep_instance()
    parent = os.getpid()
    solve = heatctrl.analysis.solve_cg

    def dying(data, stepper, tol, **kwargs):
        if os.getpid() != parent and stepper.alpha == 100.0:
            os._exit(3)
        return solve(data, stepper, tol, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, "solve_cg", dying)
    monkeypatch.setattr(heatctrl.analysis, "_usable_cpus", lambda: 2)
    with pytest.raises(SolverError, match=r"worker for \[100\.0, 10000\.0\] exited with code 3 "):
        alpha_sweep(data, ALPHAS, zero, tol=1e-10)
    assert_no_child_left()


ORPHAN_SCRIPT = """
import os, sys, time
from pathlib import Path
import heatctrl.analysis as analysis
from heatctrl import ControlPair, alpha_sweep
from conftest import ForkSafeLog
from oracles import make_instance

log = ForkSafeLog(Path(sys.argv[1]))
parent = os.getpid()
solve = analysis.solve_cg

def hooked(data, stepper, tol, **kwargs):
    if stepper.alpha is not None:
        if os.getpid() == parent:
            while not log.lines():  # until the child has started its first alpha
                time.sleep(0.01)
            os._exit(0)
        log.append(stepper.alpha)
        while os.getppid() == parent:
            time.sleep(0.01)
    return solve(data, stepper, tol, **kwargs)

analysis.solve_cg = hooked
analysis._usable_cpus = lambda: 2
ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=52)
alpha_sweep(data, [10.0, 100.0, 1000.0, 10000.0],
            ControlPair.zeros_like(ops, data.grid), tol=1e-10)
"""


def test_an_orphaned_worker_stops_before_its_next_alpha(fork_log):
    # the parent dies at its first alpha, once its child has started alpha
    # 100; the child finishes that alpha and exits before alpha 10000
    log = fork_log("started")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # the pipes close, and run returns, only once the child has exited too
    proc = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT, str(log.path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert log.lines() == ["100.0"]
