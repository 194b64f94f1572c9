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
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import (SolverNotConverged, alpha_sweep, check_alphas, check_suite,
                       sweep_flags)
from .assembly import assemble, compute_constants
from .control import solve_cg, solve_fixed_point
from .linalg import EigenError, SolverError
from .mesh import SIDES, TimeGrid, build_rect_mesh
from .state import VARIANTS, ControlPair, ProblemData, Stepper

OPTIMIZERS = ("cg", "fixed_point", "both")


class ConfigError(Exception):
    pass


# -- config file parsing -------------------------------------------------------

def parse_config_text(text, origin="<config>") -> dict:
    """Parse the sectioned key/value format into {section: {key: text}}.

    Comments and surrounding quotes are stripped; every value stays text
    until load_config types it.  A key given twice in a section, also in a
    reopened one, is refused.
    """
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in [{name}]")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        current[key] = value
    return sections


# -- analytic field catalog ----------------------------------------------------

FIELD_CATALOG = ("zero", "constant", "linear", "bump", "csv")


def _spec_args(args, count):
    numbers = [_finite(a) for a in args.split(",")]
    if len(numbers) != count:
        raise ValueError(f"expected {count} numbers, got {len(numbers)}")
    return numbers


# an overflow is not worth a numpy warning: the finiteness check turns it
# into a config error
@np.errstate(all="ignore")
def _field_values(spec, points, origin):
    """Evaluate a catalog field spec at an array of (x, y) points."""
    spec = spec.strip()
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
            try:
                # a file with no data rows is refused by the shape check below
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
            except OSError as exc:
                raise ConfigError(f"{origin}: cannot read field file {path}: "
                                  f"{exc.strerror or exc}") from None
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
#
# Each converter takes a value's text and returns the typed value, or raises
# a ValueError that load_config prefixes with the key's [section] and name.

def _finite(text) -> float:
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {text!r}")
    return number


def _positive(text) -> float:
    number = _finite(text)
    if number <= 0:
        raise ValueError(f"must be positive, got {text!r}")
    return number


def _positive_int(text) -> int:
    number = _finite(text)
    if number != int(number) or number < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return int(number)


def _choice(*names):
    def convert(text):
        if text not in names:
            raise ValueError(f"must be one of {names}, got {text!r}")
        return text
    return convert


def _comma_list(convert, container=tuple):
    """A converter of comma lists, brackets optional; blank text is the empty list."""
    def items(text):
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        if not text.strip():
            return container()
        return container(convert(s.strip()) for s in text.split(","))
    return items


def _key(section, convert, default=MISSING, name=None):
    """A field's config key: its [section], converter and default text.

    The key is named like the field unless name is given; a key without a
    default is required, and a default of None is kept as None.
    """
    return field(metadata={"section": section, "convert": convert,
                           "default": default, "name": name})


@dataclass
class RunConfig:
    """One run, typed from a config file; each field is one config key."""

    nx: int = _key("mesh", _positive_int)
    ny: int = _key("mesh", _positive_int)
    gamma1: tuple = _key("mesh", _comma_list(_choice(*SIDES)), "left")
    T: float = _key("time", _finite)
    n_steps: int = _key("time", _positive_int)
    M1: float = _key("problem", _positive)
    M2: float = _key("problem", _positive)
    alpha: float | None = _key("problem", _finite, None)
    alphas: list = _key("problem", _comma_list(_finite, list), "")
    b_spec: str = _key("problem", str, "zero", "b")
    v_b_spec: str = _key("problem", str, "zero", "v_b")
    z_d_spec: str = _key("problem", str, "zero", "z_d")
    tol: float = _key("solver", _positive, "1e-8")
    max_iter: int = _key("solver", _positive_int, "500")
    optimizer: str = _key("solver", _choice(*OPTIMIZERS), "cg")
    variant: str = _key("solver", _choice(*VARIANTS), "P")
    out_dir: Path = _key("output", Path, "out", "directory")
    formats: tuple = _key("output", _comma_list(_choice("csv", "json")), "csv,json")


# (section, key) -> the RunConfig field it fills
_KEYS = {(f.metadata["section"], f.metadata["name"] or f.name): f
         for f in fields(RunConfig)}


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
    for section, entries in sections.items():
        for key in entries:
            if (section, key) not in _KEYS:
                raise ConfigError(f"{origin}: unknown key {key!r} in [{section}]")

    values = {}
    for (section, key), spec in _KEYS.items():
        text = sections.get(section, {}).get(key, spec.metadata["default"])
        if text is MISSING:
            raise ConfigError(f"{origin}: missing key {key!r} in [{section}]")
        try:
            values[spec.name] = None if text is None else spec.metadata["convert"](text)
        except ValueError as exc:
            raise ConfigError(f"{origin}: [{section}] {key} {exc}") from None
    config = RunConfig(**values)
    if config.variant == "Palpha" and (config.alpha is None or config.alpha <= 0):
        raise ConfigError(f"{origin}: variant 'Palpha' needs problem.alpha > 0")
    return config


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
            write_csv_series(out / f"state_{name}.csv", rep.state)
            write_csv_series(out / f"adjoint_{name}.csv", rep.adjoint)
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
