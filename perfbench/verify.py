"""Checks of the files one heatctrl run wrote.

`verify` returns a list of problems; an empty list means the run's outputs
are correct.  The checks, per workload:

* every JSON file parses under a strict parser (no NaN or Infinity) and every
  CSV value is finite;
* solve: every run converged with grad_norm <= tol * (1 + grad_norm0);
* solve with CSV output: the first-order optimality identities
  M1 g + p = 0 and M2 q - p|gamma2 = 0 hold on every step and node of the
  written files, to the tolerance of `optimality_tolerance`;
* sweep: every flag in sweep_report.json passes;
* on the reference seed: costs and sweep gaps match reference.json to
  |value - reference| <= rtol * |reference| + atol.
"""

import json
import math
from pathlib import Path

import numpy as np

from workloads import TOL, T, Workload

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def strict_json(path):
    """Parse a JSON file, rejecting NaN, Infinity and overflowing numbers."""
    path = Path(path)
    def reject(token):
        raise ValueError(f"{path.name}: non-finite number {token}")

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{path.name}: non-finite number {text}")
        return value

    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=reject, parse_float=finite)


def optimality_tolerance(workload: Workload, grad_norm0) -> float:
    """Pointwise bound on the optimality residuals of a converged solve.

    CG stops once the weighted gradient norm is at most
    eps = tol * (1 + grad_norm0), i.e. tau * sum_k r_k' M r_k <= eps^2 for
    the distributed residual r_k = M1 g_k + p_k.  Every P1 element mass
    matrix is at least |T|/12 times the identity on its nodes, and every node
    lies in a triangle of area 1/(2 nx ny), so the smallest eigenvalue of M
    is at least 1/(24 nx ny) and |r_k|_inf <= eps * sqrt(24 nx ny / tau).
    The boundary mass bound (1/(6 n) per gamma2 node) gives a smaller bound
    for the flux residual, so this one covers both.
    """
    eps = TOL * (1.0 + grad_norm0)
    return eps * math.sqrt(24.0 * workload.n * workload.n * workload.n_steps / T)


def _read_csv(path):
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path.name}: non-finite value")
    return values


def _grid(rows, n_rows, n_cols, step_offset, node_map=None):
    """(step, node, value) rows -> dense array; every cell exactly once."""
    steps = rows[:, 0].astype(int) - step_offset
    nodes = rows[:, 1].astype(int)
    if node_map is not None:
        nodes = np.searchsorted(node_map, nodes)
    if len(rows) != n_rows * n_cols or np.any(steps < 0) or np.any(steps >= n_rows) \
            or np.any(nodes < 0) or np.any(nodes >= n_cols):
        raise ValueError(f"expected {n_rows} x {n_cols} cells, got {len(rows)} rows")
    out = np.full((n_rows, n_cols), np.nan)
    out[steps, nodes] = rows[:, 2]
    if np.any(np.isnan(out)):
        raise ValueError("a (step, node) cell is missing or repeated")
    return out


def _check_optimality(workload, tables, name, run):
    n_nodes = (workload.n + 1) ** 2
    N = workload.n_steps
    p = _grid(tables[f"adjoint_{name}.csv"], N + 1, n_nodes, 0)
    g = _grid(tables[f"control_g_{name}.csv"], N, n_nodes, 1)
    q_rows = tables[f"control_q_{name}.csv"]
    gamma2 = np.unique(q_rows[:, 1].astype(int))
    # gamma1 = left: the flux acts on the bottom, right and top sides
    if len(gamma2) != 3 * workload.n + 1:
        return [f"{name}: flux control on {len(gamma2)} nodes, expected {3 * workload.n + 1}"]
    q = _grid(q_rows, N, len(gamma2), 1, node_map=gamma2)
    # adjoint slice k pairs with control step k, which the CSV numbers k + 1
    res_g = np.max(np.abs(workload.M * g + p[:-1]))
    res_q = np.max(np.abs(workload.M * q - p[:-1][:, gamma2]))
    bound = optimality_tolerance(workload, run["grad_norm0"])
    problems = []
    if not res_g <= bound:
        problems.append(f"{name}: max |M1 g + p| = {res_g:.3e} exceeds {bound:.3e}")
    if not res_q <= bound:
        problems.append(f"{name}: max |M2 q - p| = {res_q:.3e} exceeds {bound:.3e}")
    return problems


def reference_values(workload: Workload, out_dir) -> dict:
    """Costs and sweep gaps of a run, keyed by their place in the report."""
    out_dir = Path(out_dir)
    if workload.command == "solve":
        runs = strict_json(out_dir / "solve_report.json")["runs"]
        return {f"runs.{name}.cost": run["cost"] for name, run in runs.items()}
    payload = strict_json(out_dir / "sweep_report.json")
    values = {"report.reference.cost": payload["report"]["reference"]["cost"]}
    for part in ("report", "fixed_control_report"):
        for i, rec in enumerate(payload[part]["records"]):
            for key, value in rec.items():
                if key != "alpha":
                    values[f"{part}.records.{i}.{key}"] = value
    return values


def _check_reference(workload, out_dir, seed):
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if seed != ref["seed"] or workload.name not in ref["values"]:
        return []
    got = reference_values(workload, out_dir)
    problems = []
    for key, want in ref["values"][workload.name].items():
        value = got.get(key)
        if value is None or not abs(value - want) <= ref["rtol"] * abs(want) + ref["atol"]:
            problems.append(f"{key} = {value!r}, reference {want!r}")
    return problems


def verify(workload: Workload, out_dir, seed=None) -> list:
    """Problems found in the outputs of one run of `workload` (empty: correct)."""
    out_dir = Path(out_dir)
    problems = []
    try:
        for path in sorted(out_dir.glob("*.json")):
            strict_json(path)
        tables = {path.name: _read_csv(path) for path in sorted(out_dir.glob("*.csv"))}
        if workload.command == "solve":
            runs = strict_json(out_dir / "solve_report.json")["runs"]
            if not runs:
                problems.append("solve_report.json holds no runs")
            for name, run in runs.items():
                if run["converged"] is not True:
                    problems.append(f"{name}: not converged")
                if not run["grad_norm"] <= TOL * (1.0 + run["grad_norm0"]):
                    problems.append(f"{name}: grad_norm {run['grad_norm']:.3e} above tolerance")
                if "csv" in workload.formats:
                    problems += _check_optimality(workload, tables, name, run)
        else:
            payload = strict_json(out_dir / "sweep_report.json")
            flags = {**payload["flags"], **{
                f"fixed_control.{k}": v for k, v in payload["fixed_control_flags"].items()}}
            if not flags:
                problems.append("sweep_report.json holds no flags")
            problems += [f"flag {k} failed" for k, v in sorted(flags.items()) if v is not True]
        if seed is not None:
            problems += _check_reference(workload, out_dir, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems
