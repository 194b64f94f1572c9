"""Spans around heatctrl's public functions, recorded from outside the package.

Run as a script, this wraps every public function of every heatctrl module
(in each heatctrl namespace that imported it) plus `SpdFactor.__init__`,
`SpdFactor.solve`, `Stepper.__init__` and `Stepper.load`, runs the heatctrl
command line with the remaining arguments, and writes the spans once, at
exit, to a JSON file:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json solve --config run.cfg

`layer_metrics` turns such a file into the per-layer metrics.
"""

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
import time

# Per-layer metric prefix -> span names it covers.  A span name matches an
# entry when it equals it or extends it with "_" (solve_state_P, ...).
LAYERS = {
    "cli.format": ("cli.trajectory_rows", "cli.control_rows"),
    "cli.write": ("cli.write_csv", "cli.write_json"),
    "cli.build_problem": ("cli.build_problem",),
    "mesh.build": ("mesh.build_rect_mesh",),
    "assembly.assemble": ("assembly.assemble",),
    "assembly.constants": ("assembly.compute_constants",),
    "linalg.factor": ("linalg.SpdFactor.__init__",),
    "linalg.solve": ("linalg.SpdFactor.solve",),
    "linalg.eig": ("linalg.gen_eig_extreme",),
    "state.stepper": ("state.Stepper.__init__",),
    "state.forward": ("state.solve_state",),
    "state.load": ("state.Stepper.load",),
    "adjoint.backward": ("adjoint.solve_adjoint",),
    "control.cg": ("control.solve_cg", "control.solve_distributed_only"),
    "control.inner": ("control.h_inner", "control.q_inner", "control.hq_inner"),
    "analysis.optimal_sweep": ("analysis.optimal_control_sweep",),
    "analysis.fixed_sweep": ("analysis.fixed_control_sweep",),
}
METHODS = {
    "linalg.SpdFactor": ("__init__", "solve"),
    "state.Stepper": ("__init__", "load"),
}


class Tracer:
    """Spans and per-call observations of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or -1]
        self._stack = []
        self.factors = []  # [operator digest, L+U nnz or None] per factorization
        self.cg_iterations = []  # per OptimalityReport returned by a CG solve

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def observe_factor(self, args, kwargs, _):
        import scipy.sparse as sp
        factor = args[0]
        A = sp.csr_matrix(args[1] if len(args) > 1 else kwargs["A"]).sorted_indices()
        digest = hashlib.sha1(repr(A.shape).encode())
        for part in (A.indptr, A.indices, A.data):
            digest.update(part.tobytes())
        fill = None
        for value in vars(factor).values():
            L, U = getattr(value, "L", None), getattr(value, "U", None)
            if L is not None and U is not None:
                fill = int(L.nnz + U.nnz)
        self.factors.append([digest.hexdigest(), fill])

    def observe_cg(self, args, kwargs, report):
        self.cg_iterations.append(int(report.iterations))

    def dump(self):
        return {"spans": self.spans, "factors": self.factors,
                "cg_iterations": self.cg_iterations}


def install(tracer):
    """Replace heatctrl's public functions and traced methods by wrappers."""
    import heatctrl
    modules = {name: importlib.import_module(f"heatctrl.{name}")
               for _, name, _ in pkgutil.iter_modules(heatctrl.__path__)}
    namespaces = [heatctrl, *modules.values()]
    observers = {"control.solve_cg": tracer.observe_cg,
                 "control.solve_distributed_only": tracer.observe_cg,
                 "linalg.SpdFactor.__init__": tracer.observe_factor}
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.wrap(name, fn, observers.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
    for qualname, methods in METHODS.items():
        short, cls_name = qualname.split(".")
        cls = getattr(modules[short], cls_name)
        for method in methods:
            name = f"{qualname}.{method}"
            setattr(cls, method, tracer.wrap(name, getattr(cls, method),
                                             observers.get(name)))


def _in_layer(name, entries):
    return any(name == e or name.startswith(e + "_") for e in entries)


def _child_time(spans):
    """Per span, the time its direct child spans cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def span_table(spans):
    """name -> [calls, inclusive seconds, self seconds] over all spans."""
    child_time = _child_time(spans)
    table = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    return table


def layer_metrics(trace, wall_s):
    """Per-layer metrics of one traced run whose command took wall_s seconds.

    For each layer: _count and _s count and time the outermost calls into it
    (a layer function called from the same layer is not counted again), and
    _self_s is the time spent in its spans outside any child span.
    """
    spans = trace["spans"]
    child_time = _child_time(spans)
    metrics = {}
    for layer, entries in LAYERS.items():
        names = {name for name, *_ in spans if _in_layer(name, entries)}
        member = [name in names for name, *_ in spans]
        count = inclusive = self_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            if not member[i]:
                continue
            self_s += end - start - child_time[i]
            while parent >= 0 and not member[parent]:
                parent = spans[parent][3]
            if parent < 0:
                count += 1
                inclusive += end - start
        metrics[f"{layer}_count"] = int(count)
        metrics[f"{layer}_s"] = inclusive
        metrics[f"{layer}_self_s"] = self_s

    factors = trace["factors"]
    fills = [fill for _, fill in factors if fill is not None]
    if fills:
        metrics["linalg.factor_fill_nnz"] = max(fills)
    if factors:
        metrics["linalg.factor_reuse"] = len({d for d, _ in factors}) / len(factors)
    iterations = trace["cg_iterations"]
    k = sum(iterations)
    metrics["control.cg_iterations"] = k
    if k:
        sweeps = metrics["state.forward_count"] + metrics["adjoint.backward_count"]
        metrics["control.sweeps_per_cg_iter"] = sweeps / k
        # first principles: a CG solve of k iterations needs 2k + 4 sweeps
        metrics["control.sweeps_per_cg_iter_ideal"] = sum(2 * i + 4 for i in iterations) / k
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    metrics["trace.uncovered_s"] = wall_s - covered
    return metrics


def metric_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith(("_count", "_iterations", "_rows", "_nnz")):
        return "count"
    return "ratio"


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from heatctrl import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
