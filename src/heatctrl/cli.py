"""Configuration parsing, experiment orchestration and report emission.

Config files use flat `[section]` / `key = value` lines (see README for the
full schema).  Spatial fields are picked from a small catalog -- constant,
linear, gaussian bump, per-node CSV -- instead of arbitrary expressions.
Exit codes: 0 ok, 1 configuration error, 2 solver or check failure.
"""

import argparse
import contextlib
import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import shares
from .analysis import alpha_sweep, check_alphas, check_suite, sweep_flags
from .assembly import assemble, compute_constants
from .control import solve_cg, solve_fixed_point
from .linalg import SolverError
from .mesh import SIDES, TimeGrid, build_rect_mesh
from .state import VARIANTS, ProblemData, Stepper

OPTIMIZERS = ("cg", "fixed_point", "both")


class ConfigError(Exception):
    pass


# -- config file parsing -------------------------------------------------------

def parse_config_text(text, origin="<config>") -> dict:
    """Parse the sectioned key/value format into {section: {key: text}}.

    Comments, then surrounding quotes, are stripped; every value stays text
    until load_config types it.  A quote that is not half of a pair around
    the value, and a key given twice in a section, also in a reopened one,
    are refused.
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
        elif value[:1] in ("'", '"') or value[-1:] in ("'", '"'):
            raise ConfigError(f"{origin}:{lineno}: unmatched quote in {key} = {value} "
                              "('#' starts a comment, also inside quotes)")
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
            # in numpy floats a huge width overflows to a flat field
            spread = 2.0 * np.float64(width) ** 2
            if width <= 0 or spread == 0.0:
                raise ValueError(f"width must be positive and 2 W^2 must not "
                                 f"underflow, got {width!r}")
            values = amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / spread)
        elif name == "csv":
            path = Path(args.strip())
            try:
                # a file with no data rows is refused by the shape check below
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)
            except (FileNotFoundError, NotADirectoryError):
                raise ConfigError(f"{origin}: field file not found: {path}") from None
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


def _comma_list(convert):
    """A converter of comma lists to tuples, brackets optional; blank text is ()."""
    def items(text):
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        if not text.strip():
            return ()
        return tuple(convert(s.strip()) for s in text.split(","))
    return items


# Path("") is the working directory: an empty output directory is refused,
# and so is a NUL, which no file name holds
def _directory(text) -> Path:
    if not text or "\0" in text:
        raise ValueError(f"must name a directory, got {text!r}")
    return Path(text)


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
    T: float = _key("time", _positive)
    n_steps: int = _key("time", _positive_int)
    M1: float = _key("problem", _positive)
    M2: float = _key("problem", _positive)
    alpha: float | None = _key("problem", _finite, None)
    alphas: tuple = _key("problem", _comma_list(_finite), "")
    b_spec: str = _key("problem", str, "zero", "b")
    v_b_spec: str = _key("problem", str, "zero", "v_b")
    z_d_spec: str = _key("problem", str, "zero", "z_d")
    tol: float = _key("solver", _positive, "1e-8")
    max_iter: int = _key("solver", _positive_int, "500")
    optimizer: str = _key("solver", _choice(*OPTIMIZERS), "cg")
    variant: str = _key("solver", _choice(*VARIANTS), "P")
    out_dir: Path = _key("output", _directory, "out", "directory")
    formats: tuple = _key("output", _comma_list(_choice("csv", "json")), "csv,json")


# (section, key) -> the RunConfig field it fills
_KEYS = {(f.metadata["section"], f.metadata["name"] or f.name): f
         for f in fields(RunConfig)}


def load_config(path) -> RunConfig:
    path = Path(path)
    origin = str(path)
    try:
        # utf-8-sig drops the byte-order mark some editors save
        text = path.read_text(encoding="utf-8-sig")
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:
        # a bad encoding, or a name the system refuses: too long, or with a NUL
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
        ops = assemble(mesh)
        if len(ops.free_nodes) == 0:
            raise ConfigError(f"[mesh] gamma1 = {','.join(config.gamma1)} leaves no free "
                              f"node on the {config.nx}x{config.ny} mesh")
        b = _field_values(config.b_spec, mesh.nodes[ops.dirichlet_nodes], "[problem] b")
        v_b = _field_values(config.v_b_spec, mesh.nodes, "[problem] v_b")
        z_node = _field_values(config.z_d_spec, mesh.nodes, "[problem] z_d")
        # the target is constant in time: one field seen by every step, read-only
        z_d = np.broadcast_to(z_node, (grid.n_steps, len(z_node)))
        return ProblemData(ops=ops, b=b, v_b=v_b, z_d=z_d, M1=config.M1,
                           M2=config.M2, grid=grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError:
        raise ConfigError(f"[mesh] nx = {config.nx}, ny = {config.ny}: out of memory")


# -- report writers --------------------------------------------------------------

def _leaves(value, where=""):
    """(place, value) of every leaf of a payload, in its JSON's sorted-key order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{where}.{key}" if where else key)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def _json_text(payload) -> str:
    """Sorted, indented, standards-valid JSON; a nan or inf is an error naming
    its place in the payload."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        where, number = next((place, x) for place, x in _leaves(payload)
                             if isinstance(x, float) and not math.isfinite(x))
        raise SolverError(f"report holds a non-finite number at {where}: {number}") \
            from None


def write_json(path, text):
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\r\n")


def write_csv_series(path, values, step0=0, node_ids=None):
    """Write a (steps, columns) array as `step,node,value` CSV, one step at a time.

    Step numbers start at step0; node is the column index, or node_ids[column]
    when given.  The bytes equal write_csv on the same rows: CRLF line ends
    and values as %.17g.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        shares._series_rows(fh, values, step0, node_ids)


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
    gaps = ("state_gap", "adjoint_gap", "control_gap", "boundary_residual")
    lines = [" ".join([f"alpha={rec['alpha']:g}"]
                      + [f"{name}={rec[name]:.12e}" for name in gaps])
             for rec in payload["report"]["records"]]
    for prefix, flags in (("", payload["flags"]),
                          ("fixed_control.", payload["fixed_control_flags"])):
        lines += [f"check {prefix}{name}: {'pass' if flags[name] else 'FAIL'}"
                  for name in sorted(flags)]
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------
#
# Each subcommand refuses the config keys only it reads, then builds its
# problem, and returns a Result; main alone writes the reports, prints the
# summary and picks the exit code.

@dataclass
class Result:
    """A finished command: its JSON report, CSV tables, stdout summary and verdict.

    A summary of None prints the report text; tables maps a CSV file name to
    (writer, *arguments after the path), in the order the files are written.
    """

    report: str
    payload: dict
    summary: str | None = None
    passed: bool = True
    tables: dict = field(default_factory=dict)


def run_solve(config: RunConfig) -> Result:
    data = build_problem(config)
    optimizers = ("cg", "fixed_point") if config.optimizer == "both" \
        else (config.optimizer,)
    # factorized before the fork: both optimizers share it, and the peak RSS
    # of a 128x128 solve read lower than with the fork first
    stepper = Stepper(data, config.variant, config.alpha)

    def job(item):
        if item == "constants":
            return compute_constants(data.ops)
        return [(solve_cg if name == "cg" else solve_fixed_point)(
            stepper, config.tol, max_iter=config.max_iter) for name in item]

    # the optimizers run in this process, so no report is pickled
    reports, constants = shares._fork_map(job, [optimizers, "constants"])
    runs, tables = {}, {}
    payload = {"command": "solve", "variant": config.variant,
               "constants": constants, "runs": runs}
    for name, rep in zip(optimizers, reports):
        runs[name] = rep.summary_dict()
        tables.update({
            f"history_{name}.csv": (write_csv, ("iteration", "residual_norm"),
                                    rep.history),
            f"state_{name}.csv": (write_csv_series, rep.state),
            f"adjoint_{name}.csv": (write_csv_series, rep.adjoint),
            f"control_g_{name}.csv": (write_csv_series, rep.control.g, 1),
            f"control_q_{name}.csv": (write_csv_series, rep.control.q, 1,
                                      data.ops.gamma2_nodes),
        })
    return Result("solve_report.json", payload, summarize_solve(payload),
                  all(r["converged"] for r in runs.values()), tables)


def run_sweep(config: RunConfig) -> Result:
    try:
        alphas = check_alphas(config.alphas)
    except ValueError as exc:
        raise ConfigError(f"[problem] alphas: {exc}") from None
    data = build_problem(config)
    fixed, report = alpha_sweep(data, alphas, config.tol, max_iter=config.max_iter)
    flags, fixed_flags = sweep_flags(report), sweep_flags(fixed)
    payload = {
        "command": "sweep",
        "report": report,
        "flags": flags,
        "fixed_control_report": fixed,
        "fixed_control_flags": fixed_flags,
    }
    # each CSV column is the record entry of its name
    tables = {
        name: (write_csv, columns,
               [[rec[c] for c in columns] for rec in sweep["records"]])
        for name, sweep, columns in (
            ("sweep.csv", report, ("alpha", "state_gap", "adjoint_gap", "control_gap",
                                   "boundary_residual", "cost_alpha")),
            ("sweep_fixed.csv", fixed, ("alpha", "state_gap", "adjoint_gap",
                                        "boundary_residual")))
    }
    return Result("sweep_report.json", payload, summarize_sweep(payload),
                  all(flags.values()) and all(fixed_flags.values()), tables)


def run_checks(config: RunConfig) -> Result:
    if config.alpha is None or config.alpha <= 1.0:
        raise ConfigError("checks need problem.alpha > 1")
    data = build_problem(config)
    checks = check_suite(data, config.alpha, config.variant, config.tol,
                         max_iter=config.max_iter,
                         fixed_point=config.optimizer in ("fixed_point", "both"))
    summary = "\n".join(
        f"check {c['name']}: {'pass' if c['passed'] else 'FAIL'} "
        f"(measured={c['measured']:.6e}, bound={c['bound']:.6e})" for c in checks)
    return Result("checks.json", {"command": "check", "checks": checks}, summary,
                  all(c["passed"] for c in checks))


def run_constants(config: RunConfig) -> Result:
    payload = {"command": "constants",
               "constants": compute_constants(build_problem(config).ops)}
    return Result("constants.json", payload)


# an overflow is not worth a numpy warning: a non-finite result ends in
# one failure line
@np.errstate(over="ignore", invalid="ignore")
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

    made = []  # the directories this run made, shallowest first
    try:
        config = load_config(args.config)
        if args.out is not None:
            try:
                config.out_dir = _directory(args.out)
            except ValueError as exc:
                raise ConfigError(f"--out {exc}") from None
        out = config.out_dir
        # made before any work, so that what the system refuses (a file or a
        # dangling link where the directory or a parent goes, a name too
        # long) fails fast
        for p in reversed((out, *out.parents)):
            try:
                p.mkdir()
                made.append(p)
            except FileExistsError:
                if not p.is_dir():
                    raise ConfigError(f"output directory {out}: {p} is not a directory") \
                        from None
            except OSError as exc:
                raise ConfigError(f"output directory {out}: {exc.strerror}") from None
        command = {"solve": run_solve, "sweep": run_sweep, "check": run_checks,
                   "constants": run_constants}[args.command]
        result = command(config)
        # whatever the formats, a report that cannot be written fails the
        # run before any output exists
        report_text = _json_text(result.payload)
        # the files of the formats asked for, JSON report first
        files = {name: spec for name, spec in
                 {result.report: (write_json, report_text), **result.tables}.items()
                 if Path(name).suffix[1:] in config.formats}
        try:
            shares._write_files(out, files, [
                name for name, (writer, *_) in files.items() if writer is write_csv_series])
        except OSError as exc:  # a full disk, say: the files finished stay
            raise ConfigError(f"output directory {out}: {exc.strerror}") from None
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    finally:
        # on every exit, a directory this run made goes again while it is
        # empty, so a run that wrote no file leaves none
        for p in reversed(made):  # deepest first; rmdir refuses one with files
            with contextlib.suppress(OSError):
                p.rmdir()
    if not args.quiet:
        print(report_text if result.summary is None else result.summary)
    return 0 if result.passed else 2


if __name__ == "__main__":
    sys.exit(main())
