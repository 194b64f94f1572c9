"""The benchmark tracer's span names must name code that exists.

perfbench/tracing.py wraps methods by name and raises AttributeError on a
missing one; its layer table matches span names, so a stale entry there
silently measures nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# layer entries whose functions are gone from heatctrl; dropping them from
# the layer table is a change to the benchmark
STALE_LAYER_ENTRIES = {"cli.trajectory_rows", "cli.control_rows"}


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
