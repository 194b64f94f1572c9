"""The benchmark tracer's span names must name code that exists.

perfbench/tracing.py wraps methods by name and raises AttributeError on a
missing one; its layer table matches span names, so a stale entry there
silently measures nothing.  A sweep that bypasses the public sweep functions
is not counted, which a traced solve shows.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatctrl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# layer entries whose functions are gone from heatctrl; dropping them from
# the layer table (and pointing one sweep layer at `analysis.alpha_sweep`)
# is a change to the benchmark
STALE_LAYER_ENTRIES = {"cli.trajectory_rows", "cli.control_rows",
                       "analysis.optimal_control_sweep",
                       "analysis.fixed_control_sweep"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_exist():
    tracing = load_tracing()
    for qualname, methods in tracing.METHODS.items():
        short, cls_name = qualname.split(".")
        cls = getattr(importlib.import_module(f"heatctrl.{short}"), cls_name)
        for method in methods:
            assert inspect.isfunction(vars(cls).get(method)), f"{qualname}.{method}"


def resolves(entry, methods):
    short, _, rest = entry.partition(".")
    module = importlib.import_module(f"heatctrl.{short}")
    if "." in rest:
        cls_name, method = rest.split(".")
        return method in methods.get(f"{short}.{cls_name}", ())
    fn = getattr(module, rest, None)
    return (not rest.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_layer_entries_name_traced_functions():
    tracing = load_tracing()
    entries = {e for layer in tracing.LAYERS.values() for e in layer}
    unresolved = {e for e in entries if not resolves(e, tracing.METHODS)}
    assert unresolved <= STALE_LAYER_ENTRIES, unresolved


TRACED_CONFIG = """
[mesh]
nx = 3
ny = 3

[time]
T = 1.0
n_steps = 4

[problem]
M1 = 1e-2
M2 = 1e-2
alpha = 10.0
z_d = bump:0.6,0.5,0.2,1.0

[solver]
tol = 1e-10
optimizer = cg
variant = {variant}

[output]
directory = {out}
"""


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_traced_solve_counts_every_cg_sweep(tmp_path, variant):
    # a CG solve of k iterations makes k + 2 forward and k + 2 backward
    # sweeps: the start gradient, one Hessian product per iteration and the
    # final pass; the tracer sees only the public sweep functions
    config = tmp_path / "run.cfg"
    config.write_text(TRACED_CONFIG.format(variant=variant, out=tmp_path / "out"))
    spans = tmp_path / "spans.json"
    src = str(Path(heatctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, str(TRACING), str(spans), "solve",
                    "--config", str(config), "--quiet"], env=env, check=True)
    # wall_s only sets trace.uncovered_s, which is not read here
    metrics = load_tracing().layer_metrics(json.loads(spans.read_text()), 0.0)
    k = metrics["control.cg_iterations"]
    assert k > 0
    assert metrics["control.sweeps_per_cg_iter"] \
        == metrics["control.sweeps_per_cg_iter_ideal"]
    assert metrics["state.forward_count"] == metrics["adjoint.backward_count"] == k + 2
