import ast
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatctrl import (ControlPair, ProblemData, Stepper, TimeGrid, alpha_sweep,
                      assemble, build_rect_mesh, check_suite, hq_norm,
                      solve_adjoint, solve_cg, solve_state, sweep_flags)

import heatctrl.adjoint
import heatctrl.analysis
import heatctrl.cli
import heatctrl.linalg
import heatctrl.shares
import heatctrl.state
from heatctrl.analysis import boundary_residual_norm, check_alphas, l2v_series_norm
from heatctrl.linalg import SolverError

from oracles import ALPHA, gaps, make_instance

ALPHAS = [10.0, 100.0, 1000.0, 10000.0]
NORM = r"\d\.\d{3}e[+-]\d{2}"  # a grad_norm as a stop-short message prints it


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
    report, _ = alpha_sweep(data, ALPHAS, 1e-10)
    assert max(gaps(report, "state_gap")) <= 1e-12
    assert max(gaps(report, "adjoint_gap")) <= 1e-12
    assert max(gaps(report, "boundary_residual")) <= 1e-12


def test_fixed_control_gaps_decay():
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=40)
    report, _ = alpha_sweep(data, [10.0, 100.0, 1000.0], 1e-10)
    state = gaps(report, "state_gap")
    assert all(b < a for a, b in zip(state, state[1:]))
    adj = gaps(report, "adjoint_gap")
    assert all(b < a for a, b in zip(adj, adj[1:]))
    res = gaps(report, "boundary_residual")
    assert max(res) <= 10.0 * res[0]


def test_fixed_control_sweep_factorizes_each_operator_once(monkeypatch, fork_log):
    # a file, not a list: the sweep's forked workers factorize too
    log = fork_log("factorizations")
    factor = heatctrl.state.SpdFactor
    monkeypatch.setattr(heatctrl.state, "SpdFactor",
                        lambda A: log.append(A.shape[0]) or factor(A))
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=39)
    alphas = [10.0, 100.0, 1000.0]
    alpha_sweep(data, alphas, 1e-10)
    built = log.lines()
    # one pinned factorization shared by the reference state and adjoint,
    # then one Robin factorization per coefficient
    assert len(built) == 1 + len(alphas)


def test_sweep_alphas_validated():
    ops, data = make_instance(seed=42)
    with pytest.raises(ValueError, match="exceed 1"):
        alpha_sweep(data, [0.5, 10.0], 1e-10)
    with pytest.raises(ValueError, match="increasing"):
        alpha_sweep(data, [10.0, 10.0], 1e-10)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sweep coefficients must be finite"):
            alpha_sweep(data, [10.0, bad], 1e-10)


def test_empty_sweep_ladder_rejected():
    ops, data = make_instance(seed=42)
    with pytest.raises(ValueError, match="at least one coefficient"):
        check_alphas([])
    with pytest.raises(ValueError, match="at least one coefficient"):
        alpha_sweep(data, [], 1e-10)


def test_optimal_sweep_trivial_instance():
    # zero data and zero target: every optimum is (0, 0) and all gaps vanish
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=43, zero_data=True)
    _, report = alpha_sweep(data, ALPHAS, 1e-10)
    assert max(gaps(report, "state_gap")) == 0.0
    assert max(gaps(report, "adjoint_gap")) == 0.0
    assert max(gaps(report, "control_gap")) == 0.0
    assert report["reference"]["cost"] == 0.0


def test_optimal_sweep_converges_to_pinned_problem():
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=44)
    _, report = alpha_sweep(data, ALPHAS, 1e-10)
    for name in ("state_gap", "adjoint_gap", "control_gap"):
        values = gaps(report, name)
        assert all(b < a for a, b in zip(values, values[1:])), name
        assert values[-1] < 0.2 * values[0], name
    flags = sweep_flags(report)
    assert all(flags.values()), flags


def test_shared_zero_pass_equals_separate_sweeps_and_solves():
    # the zero-control pass behind both sweeps of `heatctrl sweep` gives the
    # fixed-control report and starts each CG solve exactly as fresh runs do
    ops, data = make_instance(nx=4, ny=4, n_steps=6, seed=44)
    grid = data.grid
    alphas = [10.0, 100.0]
    fixed, optimal = alpha_sweep(data, alphas, 1e-10)
    zero = ControlPair.zeros_like(ops, grid)

    def zero_pass(*variant):
        stepper = Stepper(data, *variant)
        u = solve_state(zero, stepper)
        return u, solve_adjoint(u, stepper)

    u0, p0 = zero_pass("P")
    for alpha, rec in zip(alphas, fixed["records"]):
        u, p = zero_pass("Palpha", alpha)
        assert rec == {
            "alpha": alpha,
            "state_gap": l2v_series_norm(u[1:] - u0[1:], ops, grid),
            "adjoint_gap": l2v_series_norm(p[:-1] - p0[:-1], ops, grid),
            "boundary_residual": boundary_residual_norm(u, data.b, alpha, ops, grid),
        }
    ref = solve_cg(Stepper(data, "P"), 1e-10)
    assert optimal["reference"] == {"problem": "P", "cost": ref.cost,
                                    "grad_norm": ref.grad_norm,
                                    "iterations": ref.iterations}
    for alpha, rec in zip(alphas, optimal["records"]):
        rep = solve_cg(Stepper(data, "Palpha", alpha), 1e-10)
        assert rec["cost_alpha"] == rep.cost
        assert rec["control_gap"] == hq_norm(rep.control - ref.control, ops, data.grid)


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
    checks = check_suite(data, ALPHA, "P", tol=1e-11)
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
    check_suite(data, ALPHA, "P", tol=1e-10)
    # the identity checks run before the constants: per variant the adjoint
    # identity solves 1 + 5 states, each gradient sample 3, and each of the
    # 3 convexity pairs its 2 end states and one blend per t (15 in all)
    assert at_constants == [2 * (1 + 5) + 5 * 3 + 3 * (2 + 3)]


@pytest.mark.parametrize("fixed_point, counts", [(True, (137, 102, 5)),
                                                 (False, (112, 77, 5))],
                         ids=["fixed_point", "no_fixed_point"])
def test_the_whole_check_suite_does_fixed_work(monkeypatch, fixed_point, counts):
    # forward sweeps, backward sweeps and factorizations of one full run
    calls = {"forward": 0, "backward": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(heatctrl.state, "_forward",
                        counted("forward", heatctrl.state._forward))
    monkeypatch.setattr(heatctrl.adjoint, "_backward",
                        counted("backward", heatctrl.adjoint._backward))
    monkeypatch.setattr(heatctrl.linalg.SpdFactor, "__init__",
                        counted("factor", heatctrl.linalg.SpdFactor.__init__))
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    check_suite(data, ALPHA, "P", tol=1e-10, fixed_point=fixed_point)
    assert (calls["forward"], calls["backward"], calls["factor"]) == counts


def test_the_fixed_point_runs_in_its_variants_group_and_comes_last(monkeypatch):
    # the pinned group runs the fixed point before the Robin group starts,
    # and its record still follows every estimate record
    events = []

    def recorded(name):
        inner = getattr(heatctrl.analysis, name)

        def wrapper(stepper, *args, **kwargs):
            events.append((name, stepper.variant))
            return inner(stepper, *args, **kwargs)
        return wrapper

    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    without = check_suite(data, ALPHA, "P", tol=1e-10)
    for name in ("solve_cg", "solve_fixed_point"):
        monkeypatch.setattr(heatctrl.analysis, name, recorded(name))
    checks = check_suite(data, ALPHA, "P", tol=1e-10, fixed_point=True)
    assert events == [("solve_cg", "P"), ("solve_fixed_point", "P"),
                      ("solve_cg", "Palpha")]
    assert checks[:-1] == without
    assert checks[-1]["name"] == "fixed_point_vs_cg"


def test_an_unknown_variant_is_refused_before_any_factorization(monkeypatch):
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    factorizations = []
    inner = heatctrl.linalg.SpdFactor.__init__

    def counted(*args, **kwargs):
        factorizations.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(heatctrl.linalg.SpdFactor, "__init__", counted)
    with pytest.raises(ValueError,
                       match=r"^variant must be one of \('P', 'Palpha'\), got 'Q'$"):
        check_suite(data, ALPHA, "Q", tol=1e-10)
    assert factorizations == []


def test_both_lipschitz_checks_draw_the_same_control_pairs(monkeypatch):
    # each estimate group seeds its own generator: the Robin group's pairs
    # do not depend on the pinned group having drawn first
    seen = {"P": [], "Palpha": []}
    inner = heatctrl.analysis.apply_W

    def recorded(ctrl, stepper):
        seen[stepper.variant].append(ctrl.g.tobytes() + ctrl.q.tobytes())
        return inner(ctrl, stepper)

    monkeypatch.setattr(heatctrl.analysis, "apply_W", recorded)
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    check_suite(data, ALPHA, "P", tol=1e-10)
    assert len(seen["P"]) == 2 * 10
    assert seen["Palpha"] == seen["P"]


@pytest.mark.parametrize("solver, variant, label", [
    ("solve_cg", "P", "P"),
    ("solve_cg", "Palpha", f"Palpha at alpha={ALPHA}"),
    ("solve_distributed_only", "P", "distributed-only P"),
    ("solve_distributed_only", "Palpha", f"distributed-only Palpha at alpha={ALPHA}"),
])
def test_an_estimate_solve_that_stops_short_is_refused(monkeypatch, solver, variant,
                                                       label):
    # the estimates hold only at an optimum: one CG iteration is not one
    inner = getattr(heatctrl.analysis, solver)

    def capped(*args, **kwargs):
        stepper = next(a for a in args if isinstance(a, Stepper))
        if stepper.variant == variant:
            kwargs["max_iter"] = 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, solver, capped)
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    with pytest.raises(SolverError, match=rf"^inner solve for {re.escape(label)} stopped at "
                       rf"grad_norm={NORM} after 1 iterations$"):
        check_suite(data, ALPHA, "P", tol=1e-10)


def test_section5_trivial_instance_has_zero_sides():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=46, zero_data=True)
    checks = check_suite(data, ALPHA, "P", tol=1e-11)
    est = next(c for c in checks if c["name"] == "distributed_distance_estimate")
    assert est["measured"] <= 1e-12 and est["bound"] <= 1e-12
    assert est["passed"]


def test_section5_requires_alpha_above_one():
    ops, data = make_instance(seed=47)
    for alpha in (0.5, 1.0, None, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            check_suite(data, alpha, "P", tol=1e-10)


def test_sweep_reports_are_plain_records_of_fixed_keys():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=48)
    fixed, optimal = alpha_sweep(data, [10.0, 100.0], 1e-10)
    shared = {"alpha", "state_gap", "adjoint_gap", "boundary_residual"}
    for report, keys in ((fixed, shared),
                         (optimal, shared | {"control_gap", "cost_alpha"})):
        assert set(report) == {"alphas", "records", "reference"}
        assert report["alphas"] == [10.0, 100.0]
        assert [rec["alpha"] for rec in report["records"]] == [10.0, 100.0]
        for rec in report["records"]:
            assert set(rec) == keys, rec
    assert fixed["reference"] == {"problem": "P"}
    assert set(optimal["reference"]) == {"problem", "cost", "grad_norm", "iterations"}
    # each report owns its list of alphas
    assert fixed["alphas"] is not optimal["alphas"]
    fixed["alphas"].append(1e5)
    assert optimal["alphas"] == [10.0, 100.0]


def sweep_instance():
    return make_instance(nx=4, ny=4, n_steps=4, seed=51)[1]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_call(monkeypatch, count, usable):
    # where os.sched_getaffinity is missing, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert heatctrl.shares._usable_cpus() == usable


def test_usable_cpus_without_fork(monkeypatch):
    # where os.fork is missing, every job and every row share runs in this process
    monkeypatch.delattr(os, "fork")
    assert heatctrl.shares._usable_cpus() == 1
    assert heatctrl.shares._fork_map(lambda item: os.getpid(), [1, 2, 3]) == [os.getpid()] * 3


def test_only_shares_forks_and_pickles():
    # the process calls of side-by-side work, and the pickling of its
    # results, belong to the one fork helper, which needs nothing of the
    # package but its failure type
    found, package_imports = {}, []
    for path in sorted(Path(heatctrl.shares.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == "shares.py" and isinstance(node, ast.ImportFrom) and node.level:
                package_imports.append((node.module, [alias.name for alias in node.names]))
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in {"fork", "pipe", "_exit", "waitpid"}):
                found.setdefault(f"os.{node.attr}", set()).add(path.name)
            elif (isinstance(node, ast.Import)
                  and "pickle" in {alias.name for alias in node.names}
                  or isinstance(node, ast.ImportFrom) and node.module == "pickle"):
                found.setdefault("import pickle", set()).add(path.name)
    assert found == dict.fromkeys(
        ["os.fork", "os.pipe", "os._exit", "os.waitpid", "import pickle"], {"shares.py"})
    assert package_imports == [("linalg", ["SolverError"])]


@pytest.mark.parametrize("cpus", [None, 2, 3, 4])
def test_sweep_records_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    data = sweep_instance()
    monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: 1)
    serial = alpha_sweep(data, ALPHAS, 1e-10)
    monkeypatch.undo()
    if cpus is not None:
        monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: cpus)
    parallel = alpha_sweep(data, ALPHAS, 1e-10)
    # repr of a float is exact, so equal reprs are equal bits
    for one, other in zip(serial, parallel):
        assert repr(one) == repr(other)
    assert_no_child_left()


def capped_at(monkeypatch, failing):
    """solve_cg, capped at one iteration for the Robin alphas in failing."""
    solve = heatctrl.analysis.solve_cg

    def capped(stepper, tol, **kwargs):
        if stepper.alpha in failing:
            kwargs["max_iter"] = 1
        return solve(stepper, tol, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, "solve_cg", capped)


@pytest.mark.parametrize("cpus", [2, 3])
def test_first_failing_alpha_in_order_is_raised(monkeypatch, cpus):
    # with two processes alpha 100 runs in the child and 1000 in the parent,
    # with three each runs in its own child
    data = sweep_instance()
    capped_at(monkeypatch, {100.0, 1000.0})
    monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: 1)
    message = (rf"^inner solve for Palpha at alpha=100\.0 stopped at grad_norm={NORM} "
               r"after 1 iterations$")
    with pytest.raises(SolverError, match=message) as serial:
        alpha_sweep(data, ALPHAS, 1e-10)
    monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: cpus)
    with pytest.raises(SolverError, match=message) as parallel:
        alpha_sweep(data, ALPHAS, 1e-10)
    assert str(parallel.value) == str(serial.value)
    # the child sent back its failure as a message and nothing else
    assert type(parallel.value) is SolverError and vars(parallel.value) == {}
    assert len(pickle.dumps(parallel.value)) < 512
    assert_no_child_left()


def test_a_worker_that_dies_is_a_solver_error(monkeypatch):
    data = sweep_instance()
    parent = os.getpid()
    solve = heatctrl.analysis.solve_cg

    def dying(stepper, tol, **kwargs):
        if os.getpid() != parent and stepper.alpha == 100.0:
            os._exit(3)
        return solve(stepper, tol, **kwargs)

    monkeypatch.setattr(heatctrl.analysis, "solve_cg", dying)
    monkeypatch.setattr(heatctrl.shares, "_usable_cpus", lambda: 2)
    with pytest.raises(SolverError, match=r"worker for \[100\.0, 10000\.0\] exited with code 3 "):
        alpha_sweep(data, ALPHAS, 1e-10)
    assert_no_child_left()


ORPHAN_SCRIPT = """
import os, sys, time
from pathlib import Path
import heatctrl.analysis as analysis
import heatctrl.shares as shares
from heatctrl import alpha_sweep
from conftest import ForkSafeLog
from oracles import make_instance

log = ForkSafeLog(Path(sys.argv[1]))
parent = os.getpid()
solve = analysis.solve_cg

def hooked(stepper, tol, **kwargs):
    if stepper.alpha is not None:
        if os.getpid() == parent:
            while not log.lines():  # until the child has started its first alpha
                time.sleep(0.01)
            os._exit(0)
        log.append(stepper.alpha)
        while os.getppid() == parent:
            time.sleep(0.01)
    return solve(stepper, tol, **kwargs)

analysis.solve_cg = hooked
shares._usable_cpus = lambda: 2
ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=52)
alpha_sweep(data, [10.0, 100.0, 1000.0, 10000.0], 1e-10)
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
