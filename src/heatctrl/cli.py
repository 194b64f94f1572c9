"""Configuration parsing, experiment orchestration and report emission.

Config files use flat `[section]` / `key = value` lines (see README for the
full schema).  Spatial fields are picked from a small catalog -- constant,
linear, gaussian bump, per-node CSV -- instead of arbitrary expressions.
Exit codes: 0 ok, 1 configuration error, 2 solver or check failure.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (SolverNotConverged, alpha_sweep, check_alphas, check_suite,
                       sweep_flags)
from .assembly import assemble, compute_constants
from .control import solve_cg, solve_fixed_point
from .linalg import EigenError, SolverError
from .mesh import SIDES, TimeGrid, build_rect_mesh
from .state import ControlPair, ProblemData, Stepper

OPTIMIZERS = ("cg", "fixed_point", "both")


class ConfigError(Exception):
    pass


# -- config file parsing -------------------------------------------------------

def _parse_scalar(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [] if not inner else [_parse_scalar(p) for p in inner.split(",")]
    return _parse_scalar(text)


def parse_config_text(text, origin="<config>") -> dict:
    """Parse the sectioned key/value format into nested dicts."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside of any [section]")
        key, value = line.split("=", 1)
        current[key.strip()] = _parse_value(value)
    return sections


# -- analytic field catalog ----------------------------------------------------

FIELD_CATALOG = ("zero", "constant", "linear", "bump", "csv")


def _spec_args(args, count):
    numbers = [float(a) for a in args.split(",")]
    if len(numbers) != count:
        raise ValueError(f"expected {count} numbers, got {len(numbers)}")
    if not all(math.isfinite(v) for v in numbers):
        raise ValueError("arguments must be finite")
    return numbers


# an overflow is not worth a numpy warning: the finiteness check turns it
# into a config error
@np.errstate(all="ignore")
def _field_values(spec, points, origin):
    """Evaluate a catalog field spec at an array of (x, y) points."""
    spec = str(spec).strip()
    name, _, args = spec.partition(":")
    name = name.strip()
    x, y = points[:, 0], points[:, 1]
    try:
        if name == "zero":
            values = np.zeros(len(points))
        elif name == "constant":
            (value,) = _spec_args(args, 1)
            values = value * np.ones(len(points))
        elif name == "linear":
            c0, cx, cy = _spec_args(args, 3)
            values = c0 + cx * x + cy * y
        elif name == "bump":
            cx, cy, width, amp = _spec_args(args, 4)
            values = amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))
        elif name == "csv":
            path = Path(args.strip())
            if not path.exists():
                raise ConfigError(f"{origin}: field file not found: {path}")
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
            if values.ndim != 1 or len(values) != len(points):
                raise ConfigError(
                    f"{origin}: {path} must hold {len(points)} values, "
                    f"got shape {values.shape}"
                )
            values = np.asarray(values, dtype=float)
        else:
            raise ConfigError(
                f"{origin}: unknown field {name!r}, expected one of {FIELD_CATALOG}"
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{origin}: bad field spec {spec!r}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{origin}: field {spec!r} has non-finite values")
    return values


# -- run configuration -----------------------------------------------------------

@dataclass
class RunConfig:
    nx: int
    ny: int
    gamma1: tuple
    T: float
    n_steps: int
    M1: float
    M2: float
    alpha: float | None
    alphas: list
    b_spec: str
    v_b_spec: str
    z_d_spec: str
    tol: float
    max_iter: int
    optimizer: str
    variant: str
    out_dir: Path
    formats: tuple


def _require(section, key, sections, origin):
    if section not in sections:
        raise ConfigError(f"{origin}: missing [{section}] section")
    if key not in sections[section]:
        raise ConfigError(f"{origin}: missing key {key!r} in [{section}]")
    return sections[section][key]


def _finite(value, label, origin) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigError(f"{origin}: {label} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{origin}: {label} must be finite, got {value!r}")
    return number


def _integer(value, label, origin) -> int:
    number = _finite(value, label, origin)
    if number != int(number) or number < 1:
        raise ConfigError(f"{origin}: {label} must be a positive integer, got {value!r}")
    return int(number)


def _items(value) -> list:
    """A list value as is, anything else split at commas."""
    return value if isinstance(value, list) else str(value).split(",")


def _names(value) -> tuple:
    """The nonblank items of a list or comma-separated value, as stripped text."""
    return tuple(name for name in (str(s).strip() for s in _items(value)) if name)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    origin = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{origin}: cannot read the config: {exc}") from None
    sections = parse_config_text(text, origin=origin)

    mesh_sec = sections.get("mesh", {})
    nx = _integer(_require("mesh", "nx", sections, origin), "[mesh] nx", origin)
    ny = _integer(_require("mesh", "ny", sections, origin), "[mesh] ny", origin)
    gamma1 = _names(mesh_sec.get("gamma1", "left"))
    for side in gamma1:
        if side not in SIDES:
            raise ConfigError(f"{origin}: unknown gamma1 side {side!r}")

    T = _finite(_require("time", "T", sections, origin), "[time] T", origin)
    n_steps = _integer(_require("time", "n_steps", sections, origin),
                       "[time] n_steps", origin)

    prob = sections.get("problem", {})
    M1 = _finite(_require("problem", "M1", sections, origin), "[problem] M1", origin)
    M2 = _finite(_require("problem", "M2", sections, origin), "[problem] M2", origin)
    if M1 <= 0 or M2 <= 0:
        raise ConfigError(f"{origin}: M1 and M2 must be positive")
    alpha = prob.get("alpha")
    alpha = None if alpha is None else _finite(alpha, "[problem] alpha", origin)
    alphas_val = prob.get("alphas", [])
    alphas = [_finite(a, "[problem] alphas", origin)
              for a in _items(alphas_val)] if alphas_val else []

    solver = sections.get("solver", {})
    tol = _finite(solver.get("tol", 1e-8), "[solver] tol", origin)
    if tol <= 0:
        raise ConfigError(f"{origin}: solver tol must be positive, got {tol}")
    max_iter = _integer(solver.get("max_iter", 500), "[solver] max_iter", origin)
    optimizer = str(solver.get("optimizer", "cg"))
    if optimizer not in OPTIMIZERS:
        raise ConfigError(
            f"{origin}: optimizer must be one of {OPTIMIZERS}, got {optimizer!r}"
        )
    variant = str(solver.get("variant", "P"))
    if variant not in ("P", "Palpha"):
        raise ConfigError(f"{origin}: variant must be 'P' or 'Palpha', got {variant!r}")
    if variant == "Palpha" and (alpha is None or alpha <= 0):
        raise ConfigError(f"{origin}: variant 'Palpha' needs problem.alpha > 0")

    out = sections.get("output", {})
    out_dir = Path(str(out.get("directory", "out")))
    formats = _names(out.get("formats", "csv,json"))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"{origin}: unknown output format {fmt!r}")

    return RunConfig(
        nx=nx, ny=ny, gamma1=gamma1, T=T, n_steps=n_steps,
        M1=M1, M2=M2, alpha=alpha, alphas=alphas,
        b_spec=str(prob.get("b", "zero")),
        v_b_spec=str(prob.get("v_b", "zero")),
        z_d_spec=str(prob.get("z_d", "zero")),
        tol=tol, max_iter=max_iter, optimizer=optimizer, variant=variant,
        out_dir=out_dir, formats=formats,
    )


def build_problem(config: RunConfig):
    """Construct the problem data, operators included, from a parsed configuration."""
    try:
        mesh = build_rect_mesh(config.nx, config.ny, config.gamma1)
        grid = TimeGrid(config.T, config.n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ops = assemble(mesh)
    if len(ops.free_nodes) == 0:
        raise ConfigError(
            f"[mesh] gamma1 = {','.join(config.gamma1)} leaves no free node "
            f"on the {config.nx}x{config.ny} mesh"
        )
    b = _field_values(config.b_spec, mesh.nodes[ops.dirichlet_nodes], "[problem] b")
    v_b = _field_values(config.v_b_spec, mesh.nodes, "[problem] v_b")
    z_node = _field_values(config.z_d_spec, mesh.nodes, "[problem] z_d")
    z_d = np.tile(z_node, (grid.n_steps, 1))
    data = ProblemData(ops=ops, b=b, v_b=v_b, z_d=z_d, M1=config.M1, M2=config.M2,
                       grid=grid)
    try:
        data.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return data


# -- report writers --------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _json_text(payload) -> str:
    """Sorted, indented, standards-valid JSON; a nan or inf is an error."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise SolverError(f"report holds a non-finite number: {exc}") from None


def write_json(path, payload):
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, (int, str)) else _fmt(c) for c in row])


def write_csv_series(path, values, step0=0, node_ids=None):
    """Write a (steps, columns) array as `step,node,value` CSV, one step at a time.

    Step numbers start at step0; node is the column index, or node_ids[column]
    when given.  The bytes equal write_csv on the same rows: CRLF line ends
    and values as %.17g.
    """
    nodes = range(values.shape[1]) if node_ids is None else node_ids
    # joined with the step number as separator, these pieces make the
    # %-template of one step's rows
    pieces = [""] + [f",{int(node)},%.17g\r\n" for node in nodes]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,node,value\r\n")
        for step, row in enumerate(values, start=step0):
            fh.write(str(step).join(pieces) % tuple(row.tolist()))


def summarize_solve(payload) -> str:
    lines = []
    for name in sorted(payload["runs"]):
        run = payload["runs"][name]
        lines.append(
            f"{name}: converged={run['converged']} iterations={run['iterations']} "
            f"cost={run['cost']:.12e} grad_norm={run['grad_norm']:.12e}"
        )
    return "\n".join(lines)


def summarize_sweep(payload) -> str:
    lines = []
    for rec in payload["report"]["records"]:
        parts = [f"alpha={rec['alpha']:g}",
                 f"state_gap={rec['state_gap']:.12e}",
                 f"adjoint_gap={rec['adjoint_gap']:.12e}"]
        if "control_gap" in rec:
            parts.append(f"control_gap={rec['control_gap']:.12e}")
        parts.append(f"boundary_residual={rec['boundary_residual']:.12e}")
        lines.append(" ".join(parts))
    for name in sorted(payload["flags"]):
        lines.append(f"check {name}: {'pass' if payload['flags'][name] else 'FAIL'}")
    for name in sorted(payload.get("fixed_control_flags", {})):
        ok = payload["fixed_control_flags"][name]
        lines.append(f"check fixed_control.{name}: {'pass' if ok else 'FAIL'}")
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------

def run_solve(config: RunConfig, quiet=False) -> int:
    data = build_problem(config)
    constants = compute_constants(data.ops)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    runs = {}
    reports = {}
    optimizers = ("cg", "fixed_point") if config.optimizer == "both" \
        else (config.optimizer,)
    stepper = Stepper(data.ops, data.grid, config.variant, config.alpha)
    for name in optimizers:
        if name == "cg":
            rep = solve_cg(data, stepper, config.tol, max_iter=config.max_iter)
        else:
            rep = solve_fixed_point(data, stepper, config.tol,
                                    max_iter=config.max_iter)
        reports[name] = rep
        runs[name] = rep.summary_dict()

    payload = {
        "command": "solve",
        "variant": config.variant,
        "constants": constants.to_dict(),
        "runs": runs,
    }
    if "json" in config.formats:
        write_json(out / "solve_report.json", payload)
    if "csv" in config.formats:
        for name, rep in reports.items():
            write_csv(out / f"history_{name}.csv",
                      ("iteration", "residual_norm"), rep.history)
            write_csv_series(out / f"state_{name}.csv", rep.state.slices)
            write_csv_series(out / f"adjoint_{name}.csv", rep.adjoint.slices)
            write_csv_series(out / f"control_g_{name}.csv", rep.control.g, step0=1)
            write_csv_series(out / f"control_q_{name}.csv", rep.control.q, step0=1,
                             node_ids=data.ops.gamma2_nodes)
    if not quiet:
        print(summarize_solve(payload))
    return 0 if all(r["converged"] for r in runs.values()) else 2


def run_sweep(config: RunConfig, quiet=False) -> int:
    data = build_problem(config)
    try:
        alphas = check_alphas(config.alphas)
    except ValueError as exc:
        raise ConfigError(f"[problem] alphas: {exc}") from None
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    zero = ControlPair.zeros_like(data.ops, data.grid)
    fixed, report = alpha_sweep(data, alphas, zero, tol=config.tol,
                                max_iter=config.max_iter)
    fixed_flags = sweep_flags(fixed)
    flags = sweep_flags(report)
    payload = {
        "command": "sweep",
        "report": report.to_dict(),
        "flags": flags,
        "fixed_control_report": fixed.to_dict(),
        "fixed_control_flags": fixed_flags,
    }
    if "json" in config.formats:
        write_json(out / "sweep_report.json", payload)
    if "csv" in config.formats:
        header = ("alpha", "state_gap", "adjoint_gap", "control_gap",
                  "boundary_residual", "cost_alpha")
        rows = [
            (rec.alpha, rec.state_gap, rec.adjoint_gap, rec.control_gap,
             rec.boundary_residual, rec.cost_alpha)
            for rec in report.records
        ]
        write_csv(out / "sweep.csv", header, rows)
        fixed_rows = [
            (rec.alpha, rec.state_gap, rec.adjoint_gap, rec.boundary_residual)
            for rec in fixed.records
        ]
        write_csv(out / "sweep_fixed.csv",
                  ("alpha", "state_gap", "adjoint_gap", "boundary_residual"),
                  fixed_rows)
    if not quiet:
        print(summarize_sweep(payload))
    return 0 if all(flags.values()) and all(fixed_flags.values()) else 2


def run_checks(config: RunConfig, quiet=False) -> int:
    data = build_problem(config)
    if config.alpha is None or config.alpha <= 1.0:
        raise ConfigError("checks need problem.alpha > 1")
    checks = check_suite(data, config.alpha, config.variant, config.tol,
                         max_iter=config.max_iter,
                         fixed_point=config.optimizer in ("fixed_point", "both"))
    payload = {"command": "check", "checks": checks}
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if "json" in config.formats:
        write_json(out / "checks.json", payload)
    if not quiet:
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"check {c['name']}: {status} "
                  f"(measured={c['measured']:.6e}, bound={c['bound']:.6e})")
    return 0 if all(c["passed"] for c in checks) else 2


def run_constants(config: RunConfig, quiet=False) -> int:
    constants = compute_constants(build_problem(config).ops)
    payload = {"command": "constants", "constants": constants.to_dict()}
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in config.formats:
        write_json(config.out_dir / "constants.json", payload)
    if not quiet:
        print(_json_text(payload))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatctrl",
        description="Distributed-boundary optimal control of the heat equation",
    )
    parser.add_argument("command", choices=("solve", "sweep", "check", "constants"))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.out is not None:
            config.out_dir = Path(args.out)
        handler = {
            "solve": run_solve,
            "sweep": run_sweep,
            "check": run_checks,
            "constants": run_constants,
        }[args.command]
        return handler(config, quiet=args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, EigenError, SolverNotConverged) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
