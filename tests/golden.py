"""Golden outputs of the `heatctrl` command on small configs.

`golden.json`, next to this file, holds per run the exit code, the SHA-256
of stdout, of stderr and of every file the run wrote, and the parsed
contents of every JSON report; beside the runs it holds the environment
stamp of the machine that wrote it.  tests/test_golden.py reruns every run
and compares: the hashes when the stamp matches the running machine, the
exit codes, file names and report numbers (to NUMBERS_RTOL) otherwise.

Regenerate the file from the root of a checkout with

    PYTHONPATH=src python tests/golden.py

Before it overwrites the file, the script prints each run whose outputs
changed and what changed in it: the exit code, stdout, stderr or a named
file.  List that drift in CHANGES.md, with its reason.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy
import scipy

from heatctrl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# report numbers from another environment match when
# |a - b| <= NUMBERS_RTOL * max(|a|, |b|) + NUMBERS_ATOL
NUMBERS_RTOL = 1e-6
NUMBERS_ATOL = 1e-9

# criterion 9's instance: 4x4 cells, 8 time steps, a bump target
BASE = {
    "mesh": {"nx": "4", "ny": "4", "gamma1": "left"},
    "time": {"T": "1.0", "n_steps": "8"},
    "problem": {"M1": "1.0", "M2": "1.0", "alpha": "10.0",
                "alphas": "[10.0, 100.0, 1000.0]", "b": "zero", "v_b": "zero",
                "z_d": "bump:0.6,0.5,0.2,1.0"},
    "solver": {"tol": "1e-10", "max_iter": "500", "optimizer": "cg",
               "variant": "P"},
    "output": {"formats": "csv,json"},
}
# boundary data that makes the fixed-control sweep gaps nonzero
LINEAR = {"b": "linear:1,0,1", "v_b": "linear:1,0,1"}
# a tracking target whose squares leave the float range
OVERFLOW = {"z_d": "bump:0.6,0.5,0.2,1e290"}

# run name -> (command, the keys that differ from BASE)
RUNS = {
    "solve-P": ("solve", {"optimizer": "both"}),
    "solve-Palpha": ("solve", {"optimizer": "both", "variant": "Palpha"}),
    "solve-linear-Palpha": ("solve", {**LINEAR, "variant": "Palpha"}),
    "solve-not-converged": ("solve", {"max_iter": "1"}),
    "sweep": ("sweep", {}),
    "sweep-linear": ("sweep", LINEAR),
    "sweep-not-converged": ("sweep", {"max_iter": "1"}),
    "check": ("check", {**LINEAR, "optimizer": "both"}),
    "check-Palpha": ("check", {"optimizer": "fixed_point", "variant": "Palpha"}),
    "constants": ("constants", {}),
    # v_b (zero) differs from b on gamma1: a configuration error, no files
    "solve-bad-v_b": ("solve", {"b": "constant:1"}),
    # a target of huge amplitude overflows the cost: a solver failure, no files
    "solve-overflow": ("solve", OVERFLOW),
    "sweep-overflow": ("sweep", OVERFLOW),
}


def config_text(changes, out_dir) -> str:
    lines = []
    for section, entries in BASE.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {changes.get(key, value)}" for key, value in entries.items()]
    lines.append(f"directory = {out_dir}")
    return "\n".join(lines) + "\n"


def environment_stamp() -> dict:
    """What the output bits depend on besides the code."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    # numpy picks its SIMD loops, and OpenBLAS its kernels, by CPU
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "machine": platform.machine(), "cpu": cpu}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name, work_dir) -> dict:
    """One run's exit code, hashes and report numbers, run in this process."""
    command, changes = RUNS[name]
    out = Path(work_dir) / name
    cfg = Path(work_dir) / f"{name}.cfg"
    cfg.write_text(config_text(changes, out), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(cfg)])
    written = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit_code": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
                  for p in written},
        "reports": {p.relative_to(out).as_posix(): json.loads(p.read_text())
                    for p in written if p.suffix == ".json"},
    }


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as work_dir:
        return {name: run(name, work_dir) for name in RUNS}


def drift(old, new) -> list:
    """One line per run whose recorded outputs differ between two sets of runs.

    A line names the run and what changed: exit_code, stdout, stderr and
    each file written on one side only or with another hash.  A run on one
    side only is added or removed.
    """
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: {'added' if name in new else 'removed'}")
            continue
        was, now = old[name], new[name]
        changed = [key for key in ("exit_code", "stdout", "stderr") if was[key] != now[key]]
        changed += [file for file in sorted(was["files"].keys() | now["files"].keys())
                    if was["files"].get(file) != now["files"].get(file)]
        if changed:
            lines.append(f"{name}: {', '.join(changed)}")
    return lines


def main_script():
    golden = {"environment": environment_stamp(), "runs": run_all()}
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if old["environment"] != golden["environment"]:
            print("environment changed: every hash may differ")
        print("\n".join(drift(old["runs"], golden["runs"])) or "no run changed")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(golden['runs'])} runs")


if __name__ == "__main__":
    main_script()
