"""The library's rules for number arguments, at every public entry point.

There are three kinds of argument: a real number, not a bool, inside an
interval (tol, M1, M2, T, alpha, t, floor); an integer, not a bool, of at
least 1 (nx, ny, n_steps, max_iter); and a real, finite array (the data,
q_fixed, and the controls a solve receives).  A value outside its rule is a
ValueError naming the argument.  The rules below restate each one in the
test, independently of the package's helpers.
"""

import inspect
import math
import numbers
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import heatctrl
from heatctrl import (ControlPair, ProblemData, Stepper, TimeGrid, alpha_sweep, apply_W,
                      build_rect_mesh, check_suite, contraction_constant, convexity_gap,
                      cost_J, gen_eig_extreme, gradient_J, measured_step_ratio, solve_cg,
                      solve_distributed_only, solve_fixed_point, solve_state, sweep_flags)
from heatctrl.linalg import SolverError

from oracles import make_instance

OPS, DATA = make_instance(nx=2, ny=2, n_steps=2, seed=39)
P, PALPHA = Stepper(DATA, "P"), Stepper(DATA, "Palpha", 10.0)
CONSTANTS = {"lambda0": 0.5, "lambda1": 0.6, "trace_norm": 1.2}
ZERO = ControlPair.zeros_like(OPS, DATA.grid)
Q_SHAPE = ZERO.q.shape
# a small cap keeps every solve that cannot converge short
CAP = 5


# -- the probe cases: each was accepted, or raised another type, before the rules

def control_holding(value):
    g = ZERO.g.copy()
    g[1, 2] = value
    return ControlPair(g, ZERO.q.copy())


PROBES = [
    ("TimeGrid n_steps=2.5", lambda: TimeGrid(1.0, 2.5), "n_steps", 2.5),
    ("TimeGrid n_steps=True", lambda: TimeGrid(1.0, True), "n_steps", True),
    ("build_rect_mesh nx=2.5", lambda: build_rect_mesh(2.5, 2), "nx", 2.5),
    ("build_rect_mesh nx=True", lambda: build_rect_mesh(True, 2), "nx", True),
    *[(f"{solve.__name__} max_iter={bad}", call, "max_iter", bad)
      for bad in (-1, math.nan, 2.5, True)
      for solve, call in (
          (solve_cg, lambda bad=bad: solve_cg(P, 1e-8, max_iter=bad)),
          (solve_fixed_point, lambda bad=bad: solve_fixed_point(P, 1e-8, max_iter=bad)),
          (solve_distributed_only, lambda bad=bad: solve_distributed_only(
              np.zeros(Q_SHAPE), P, 1e-8, max_iter=bad)))],
    ("ProblemData M1=True", lambda: replace(DATA, M1=True), "M1", True),
    ("ProblemData complex z_d", lambda: replace(DATA, z_d=DATA.z_d + 1j), "z_d", None),
    ("Stepper alpha=True", lambda: Stepper(DATA, "Palpha", True), "alpha", True),
    *[(f"{fn.__name__} on a control holding {bad}",
       lambda fn=fn, bad=bad: fn(control_holding(bad), P), "g series", None)
      for fn in (cost_J, gradient_J, apply_W) for bad in (math.nan, math.inf)],
    ("sweep_flags on no records", lambda: sweep_flags({"records": []}),
     "the number of records", 0),
    ("alpha_sweep alphas=[1j]", lambda: alpha_sweep(DATA, [1j], 1e-8), "sweep coefficients",
     [1j]),
]


@pytest.mark.parametrize("call, name, value", [p[1:] for p in PROBES],
                         ids=[p[0] for p in PROBES])
def test_a_probe_value_is_refused_by_name(call, name, value):
    with pytest.raises(ValueError) as err:
        call()
    message = str(err.value)
    assert message.startswith(f"{name} must ")
    if value is not None:
        assert message.endswith(f"got {value!r}")


# -- the property: every number argument of the public API keeps its rule -----

def real(low=0.0, high=math.inf, closed=False):
    """The rule of a real number, not a bool, in (low, high) or [low, high]."""
    def accepts(value):
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (low <= value <= high if closed else low < value < high))
    return accepts


def count(value):
    """The rule of an integer, not a bool, of at least 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def finite_real(array):
    """The rule of an array: real (integer or float) entries, all finite."""
    return array.dtype.kind in "iuf" and bool(np.isfinite(array).all())


def full(shape):
    """An array argument made of one value, so its dtype follows the value's."""
    return lambda value: np.full(shape, value)


def stored(value):
    """A record's field: the record stores the value and refuses none."""
    return True


def report():
    return solve_cg(P, 1e-8, max_iter=CAP)


def eig(**kwargs):
    A = sp.diags([1.0, 2.0, 3.0], format="csr")
    return gen_eig_extreme(A, sp.identity(3, format="csr"), "largest", **kwargs)


# (callable, parameter, rule, value -> argument, argument -> the call); the
# argument is the value itself unless the fourth entry builds it
NUMBER = None
TABLE = [
    ("TimeGrid", "T", real(), NUMBER, lambda v: TimeGrid(v, 2)),
    ("TimeGrid", "n_steps", count, NUMBER, lambda v: TimeGrid(1.0, v)),
    ("build_rect_mesh", "nx", count, NUMBER, lambda v: build_rect_mesh(v, 2)),
    ("build_rect_mesh", "ny", count, NUMBER, lambda v: build_rect_mesh(2, v)),
    ("Mesh", "nx", stored, NUMBER, lambda v: replace(OPS.mesh, nx=v)),
    ("Mesh", "ny", stored, NUMBER, lambda v: replace(OPS.mesh, ny=v)),
    ("OptimalityReport", "tol", stored, NUMBER, lambda v: replace(report(), tol=v)),
    ("ProblemData", "M1", real(), NUMBER, lambda v: replace(DATA, M1=v)),
    ("ProblemData", "M2", real(), NUMBER, lambda v: replace(DATA, M2=v)),
    ("ProblemData", "z_d", finite_real, full(DATA.z_d.shape),
     lambda z: replace(DATA, z_d=z)),
    ("Stepper", "alpha", real(), NUMBER, lambda v: Stepper(DATA, "Palpha", v)),
    ("contraction_constant", "M1", real(), NUMBER,
     lambda v: contraction_constant(CONSTANTS, v, 1.0)),
    ("contraction_constant", "M2", real(), NUMBER,
     lambda v: contraction_constant(CONSTANTS, 1.0, v)),
    ("contraction_constant", "alpha", real(), NUMBER,
     lambda v: contraction_constant(CONSTANTS, 1.0, 1.0, "Palpha", v)),
    ("solve_cg", "tol", real(), NUMBER, lambda v: solve_cg(PALPHA, v, max_iter=CAP)),
    ("solve_cg", "max_iter", count, NUMBER, lambda v: solve_cg(PALPHA, 1e-8, max_iter=v)),
    ("solve_fixed_point", "tol", real(), NUMBER,
     lambda v: solve_fixed_point(P, v, max_iter=CAP)),
    ("solve_fixed_point", "max_iter", count, NUMBER,
     lambda v: solve_fixed_point(P, 1e-8, max_iter=v)),
    ("solve_distributed_only", "q_fixed", finite_real, full(Q_SHAPE),
     lambda q: solve_distributed_only(q, P, 1e-8, max_iter=CAP)),
    ("solve_distributed_only", "tol", real(), NUMBER,
     lambda v: solve_distributed_only(np.zeros(Q_SHAPE), P, v, max_iter=CAP)),
    ("solve_distributed_only", "max_iter", count, NUMBER,
     lambda v: solve_distributed_only(np.zeros(Q_SHAPE), P, 1e-8, max_iter=v)),
    ("solve_state", "ctrl", finite_real, full(ZERO.g.shape),
     lambda g: solve_state(ControlPair(g, ZERO.q), PALPHA)),
    ("cost_J", "ctrl", finite_real, full(ZERO.g.shape),
     lambda g: cost_J(ControlPair(g, ZERO.q), P)),
    ("gradient_J", "ctrl", finite_real, full(ZERO.g.shape),
     lambda g: gradient_J(ControlPair(g, ZERO.q), P)),
    ("apply_W", "ctrl", finite_real, full(ZERO.g.shape),
     lambda g: apply_W(ControlPair(g, ZERO.q), P)),
    ("convexity_gap", "t", real(0.0, 1.0, closed=True), NUMBER,
     lambda v: convexity_gap(ZERO, control_holding(1.0), v, P)),
    ("measured_step_ratio", "floor", real(-math.inf), NUMBER,
     lambda v: measured_step_ratio([(1, 1.0), (2, 0.5), (3, 0.25)], v)),
    ("alpha_sweep", "alphas", real(1.0), NUMBER,
     lambda v: alpha_sweep(DATA, [v], 1e-8, max_iter=CAP)),
    ("alpha_sweep", "tol", real(), NUMBER,
     lambda v: alpha_sweep(DATA, [10.0], v, max_iter=CAP)),
    ("alpha_sweep", "max_iter", count, NUMBER,
     lambda v: alpha_sweep(DATA, [10.0], 1e-8, max_iter=v)),
    ("check_suite", "alpha", real(1.0), NUMBER,
     lambda v: check_suite(DATA, v, "P", 1e-8, max_iter=CAP)),
    ("check_suite", "tol", real(), NUMBER,
     lambda v: check_suite(DATA, 10.0, "P", v, max_iter=CAP)),
    ("check_suite", "max_iter", count, NUMBER,
     lambda v: check_suite(DATA, 10.0, "P", 1e-8, max_iter=v)),
    ("gen_eig_extreme", "tol", real(), NUMBER, lambda v: eig(tol=v, max_iter=50)),
    ("gen_eig_extreme", "max_iter", count, NUMBER, lambda v: eig(max_iter=v)),
]
VALUES = [math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e308, True, 2.5, 1j]


# every (row, value) pair is a distinct example, so these many exhaust the space
@settings(max_examples=2 * len(TABLE) * len(VALUES), deadline=None, derandomize=True,
          database=None)
@given(row=st.sampled_from(TABLE), value=st.sampled_from(VALUES))
def test_every_number_argument_keeps_its_rule(row, value):
    name, parameter, rule, build, call = row
    argument = value if build is None else build(value)
    # a value the rule accepts may still overflow on its way: that is a
    # result, not an error of the rule
    with np.errstate(all="ignore"):
        try:
            call(argument)
        except ValueError:
            return
        except SolverError:
            assert rule(argument), f"{name}({parameter}={argument!r}) ran a solve"
            return
    assert rule(argument), f"{name} accepted {parameter}={argument!r}"


# the names of the arguments a rule governs
RULED = {"tol", "max_iter", "M1", "M2", "T", "n_steps", "nx", "ny", "alpha", "alphas"}


def test_the_property_table_covers_every_public_ruled_parameter():
    signatures = {name: inspect.signature(getattr(heatctrl, name)).parameters
                  for name in heatctrl.__all__
                  if not (isinstance(getattr(heatctrl, name), type)
                          and issubclass(getattr(heatctrl, name), BaseException))}
    covered = {(name, parameter) for name, parameter, *_ in TABLE}
    for name, parameter in covered:
        assert parameter in signatures[name], (name, parameter)
    missing = sorted((name, parameter) for name, parameters in signatures.items()
                     for parameter in parameters
                     if parameter in RULED and (name, parameter) not in covered)
    assert not missing, f"add these to the property test's table: {missing}"
