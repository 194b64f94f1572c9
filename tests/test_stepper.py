"""The stepper is one problem's operator: its data, variant and alpha.

The data owns its mesh operators and time grid and checks itself once, when
it is made.  A stepper is built from the data and keeps it, so every solver
entry point takes the stepper alone and reads the data, ops, grid, variant
and alpha from it: a stepper and data that do not fit cannot be passed.
The solvers do not check the data again.
"""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

import heatctrl
import heatctrl.adjoint
import heatctrl.analysis
import heatctrl.control
import heatctrl.state
from heatctrl import ControlPair, ProblemData, Stepper, solve_adjoint, solve_cg, solve_state

import golden
from oracles import ALPHA, make_instance

# the entry points that read the data, ops, grid, variant and alpha from the stepper
SOLVERS = ("state.solve_state", "adjoint.solve_adjoint", "control.cost_J",
           "control.gradient_J", "control.convexity_gap", "control.apply_W",
           "control.solve_cg", "control.solve_fixed_point",
           "control.solve_distributed_only")


@pytest.mark.parametrize("variant, alpha", [("P", None), ("Palpha", ALPHA)])
def test_a_stepper_is_built_from_its_data(variant, alpha):
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=7)
    stepper = Stepper(data, variant, alpha)
    assert stepper.data is data
    assert stepper.ops is data.ops and stepper.grid is data.grid
    assert (stepper.variant, stepper.alpha) == (variant, alpha)
    assert list(inspect.signature(Stepper).parameters) == ["data", "variant", "alpha"]
    assert not hasattr(heatctrl.state, "_check")


def nan_target_instance():
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=3)
    stepper = Stepper(data, "P")
    u = solve_state(ControlPair.zeros_like(ops, data.grid), stepper)
    z_d = data.z_d.copy()
    z_d[1, 4] = np.nan
    return data, z_d, stepper, u


def test_adjoint_refuses_a_non_finite_target():
    data, z_d, _, u = nan_target_instance()
    with pytest.raises(ValueError, match="z_d must be finite"):
        solve_adjoint(u, Stepper(replace(data, z_d=z_d), "P"))


def public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


@pytest.mark.parametrize("module", [heatctrl.state, heatctrl.adjoint,
                                    heatctrl.control])
def test_no_public_function_takes_a_stepper_with_ops_or_variant(module):
    for name, fn in public_functions(module).items():
        params = inspect.signature(fn).parameters
        if "stepper" in params:
            assert not {"ops", "variant"} & set(params), name


@pytest.mark.parametrize("module", [heatctrl.state, heatctrl.adjoint,
                                    heatctrl.control])
def test_no_public_function_takes_both_data_and_a_stepper(module):
    # the stepper carries its data: a second argument could disagree with it
    for name, fn in public_functions(module).items():
        assert not {"data", "stepper"} <= set(inspect.signature(fn).parameters), name


def test_solvers_take_a_required_stepper():
    modules = {"state": heatctrl.state, "adjoint": heatctrl.adjoint,
               "control": heatctrl.control}
    for qualname in SOLVERS:
        short, name = qualname.split(".")
        stepper = inspect.signature(getattr(modules[short], name)).parameters["stepper"]
        assert stepper.default is inspect.Parameter.empty, qualname
    assert not hasattr(heatctrl.state, "stepper_for")
    assert not hasattr(heatctrl.state.ProblemData, "with_alpha")


def test_trajectories_are_plain_arrays():
    assert not hasattr(heatctrl, "Trajectory")
    assert not hasattr(heatctrl.state, "Trajectory")
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=4)
    stepper = Stepper(data, "P")
    u = solve_state(ControlPair.zeros_like(ops, data.grid), stepper)
    p = solve_adjoint(u, stepper)
    for trajectory in (u, p):
        assert type(trajectory) is np.ndarray
        assert trajectory.shape == (data.grid.n_steps + 1, ops.n_nodes)


@pytest.mark.parametrize("name", ["cost_J", "gradient_J", "apply_W"])
def test_cost_gradient_and_W_take_only_ctrl_and_stepper(name):
    # the state or adjoint a caller already holds goes to the private
    # formula, not to an optional argument of the public function
    params = inspect.signature(getattr(heatctrl.control, name)).parameters
    assert list(params) == ["ctrl", "stepper"]


def test_the_data_owns_its_operators():
    assert {f.name for f in fields(ProblemData)} \
        == {"ops", "b", "v_b", "z_d", "M1", "M2", "grid"}
    assert list(inspect.signature(ProblemData.validate).parameters) == ["self"]
    for module in (heatctrl.state, heatctrl.adjoint, heatctrl.control,
                   heatctrl.analysis):
        for name, fn in public_functions(module).items():
            params = inspect.signature(fn).parameters
            assert not {"data", "ops"} <= set(params), f"{module.__name__}.{name}"


def count_validations(monkeypatch):
    """Count the ProblemData.validate calls from now on, in this process."""
    calls = []
    validate = ProblemData.validate

    def counting(self):
        calls.append(self)
        validate(self)
    monkeypatch.setattr(ProblemData, "validate", counting)
    return calls


@pytest.mark.parametrize("name", ["solve-P", "sweep", "check"])
def test_a_command_validates_its_data_once(tmp_path, monkeypatch, name):
    command, changes = golden.RUNS[name]
    path = tmp_path / "run.cfg"
    path.write_text(golden.config_text(changes, tmp_path / "out"))
    calls = count_validations(monkeypatch)
    assert heatctrl.cli.main([command, "--config", str(path), "--quiet"]) == 0
    assert len(calls) == 1


def test_the_solvers_do_not_validate_the_data_again(monkeypatch):
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=5)
    stepper = Stepper(data, "P")
    calls = count_validations(monkeypatch)
    u = solve_state(ControlPair.zeros_like(ops, data.grid), stepper)
    solve_adjoint(u, stepper)
    solve_cg(stepper, 1e-10)
    heatctrl.analysis.check_suite(data, ALPHA, "P", 1e-10)
    assert calls == []


def test_the_data_is_refused_when_it_is_made():
    _, data = make_instance(nx=3, ny=3, n_steps=3, seed=6)
    z_d = data.z_d.copy()
    z_d[0, 0] = np.nan
    for changes, message in (
            ({"z_d": z_d}, "z_d must be finite and real, got a nan, inf or non-real entry"),
            ({"v_b": data.v_b + 1.0},
             "v_b restricted to the Dirichlet nodes must equal b exactly"),
            ({"M1": -1.0}, "M1 must be a real number in (0, inf), got -1.0")):
        with pytest.raises(ValueError) as err:
            replace(data, **changes)
        assert str(err.value) == message
