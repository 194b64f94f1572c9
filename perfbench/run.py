"""The heatctrl benchmark: one workload, closed loop, one command at a time.

    python3 perfbench/run.py --workload sweep-64 --seed 1 --seconds 30 --trace 0

Run from the root of a heatctrl checkout; the program is imported from
./src.  A run repeats, until --seconds have passed and at least three times,
one set-up (a fresh interpreter until `cli.build_problem` returns) and one
`heatctrl` command of the workload, as subprocesses one at a time, and checks
every command's outputs (verify.py).

--trace 0 reports the end-to-end metrics as medians over the commands:
wall_s, cpu_s (user + system of the command, threads included), peak_rss_mb
and setup_s.  --trace 1 alternates untraced and traced commands
(tracing.py) and reports the per-layer metrics as medians over the traced
ones, the tracing overhead and the wall time no span covers.

Human-readable lines come first: the environment stamp, each metric with its
unit and failed_frac.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files live in .perfbench/
and each command's outputs are deleted once checked.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import layer_metrics, metric_unit, span_table
from verify import verify
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
MIN_COMMANDS = 3
# No command starts once the last one's duration would carry the run past
# DEADLINE_S, and none outlives RUN_LIMIT_S, so every run ends within 180 s.
DEADLINE_S = 150.0
RUN_LIMIT_S = 172.0

CLI = "import sys; from heatctrl.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys, time\n"
    "from heatctrl import cli\n"
    "cli.build_problem(cli.load_config(sys.argv[1]))\n"
    "print(repr(time.monotonic()))\n"
)


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks that reap children


def environment_stamp(root):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = root / ".perfbench" / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0

    def _fail(self, problems):
        self.failed += 1
        for problem in problems:
            print(f"FAILED {self.workload.name}: {problem}", flush=True)

    def _timeout(self):
        return max(RUN_LIMIT_S - (time.monotonic() - self.started), 1.0)

    def setup(self):
        """Seconds from spawning an interpreter to build_problem's return."""
        self.attempted += 1
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            config = tmp / "run.cfg"
            config.write_text(config_text(self.workload, self.seed, tmp / "out"))
            start = time.monotonic()
            try:
                proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                                      cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=self._timeout())
            except subprocess.TimeoutExpired:
                self._fail(["set-up timed out"])
                return None
            if proc.returncode != 0:
                self._fail([f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
                return None
            return float(proc.stdout.split()[-1]) - start
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def command(self, traced):
        """One checked command: {wall_s, cpu_s, peak_rss_mb} plus the trace."""
        self.attempted += 1
        w = self.workload
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            config, out = tmp / "run.cfg", tmp / "out"
            config.write_text(config_text(w, self.seed, out))
            args = [w.command, "--config", str(config), "--quiet"]
            spans = tmp / "spans.json"
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans), *args] if traced \
                else [sys.executable, "-c", CLI, *args]
            with open(tmp / "stderr.txt", "w+b") as err:
                start = time.monotonic()
                proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                        stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL, stderr=err)
                timer = threading.Timer(self._timeout(), proc.kill)
                timer.start()
                status = None
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.monotonic() - start
                finally:
                    timer.cancel()
                    if status is None:  # interrupted: leave no child running
                        proc.kill()
                        proc.wait()
                proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                stderr = err.read().decode(errors="replace").strip()
            sample = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}
            if proc.returncode != 0:
                self._fail([f"{w.command} exited {proc.returncode}: {stderr[-500:]}"])
                return sample
            problems = verify(w, out, self.seed)
            if problems:
                self._fail(problems)
            if traced and not problems:
                trace = json.loads(spans.read_text())
                sample["layers"] = layer_metrics(trace, wall)
                sample["layers"].update(output_sizes(out))
                sample["table"] = span_table(trace["spans"])
            return sample
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def output_sizes(out):
    files = sorted(p for p in out.iterdir() if p.is_file())
    rows = 0
    for path in files:
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1  # header
    return {"cli.write_rows": rows, "cli.write_bytes": sum(p.stat().st_size for p in files)}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_untraced(bench, seconds):
    # set-ups interleave with the commands so both sample the whole run
    setups, samples = [], []
    start = last = time.monotonic()
    cycle = 0.0
    while len(samples) < MIN_COMMANDS or last - start < seconds:
        if last - start + cycle > DEADLINE_S:
            break
        setup = bench.setup()
        if setup is not None:
            setups.append(setup)
        samples.append(bench.command(traced=False))
        cycle, last = time.monotonic() - last, time.monotonic()
    metrics, units = {}, {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
    series = {key: [s[key] for s in samples] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    if setups:
        series["setup_s"] = setups
    for key, values in series.items():
        metrics[key] = statistics.median(values)
        q1, q3 = _quartiles(values)
        print(f"{bench.workload.name} {key} {metrics[key]:.6g} {units[key]} "
              f"(median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}; "
              f"all {' '.join(f'{v:.4g}' for v in values)})", flush=True)
    return {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}


def run_traced(bench, seconds):
    plain, traced = [], []
    start = last = time.monotonic()
    cycle = 0.0
    while not traced or last - start < seconds:
        if last - start + cycle > DEADLINE_S:
            break
        plain.append(bench.command(traced=False))
        traced.append(bench.command(traced=True))
        cycle, last = time.monotonic() - last, time.monotonic()
    layers = [s["layers"] for s in traced if "layers" in s]
    if not layers:
        return {}
    metrics = {key: statistics.median(s[key] for s in layers) for key in layers[0]}
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(s["wall_s"] for s in plain)

    table = traced[-1].get("table", {})
    print(f"{bench.workload.name} spans of the last traced run "
          "(name, calls, inclusive s, self s):", flush=True)
    for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:40s} {calls:7d} {incl:10.4f} {self_s:10.4f}")
    notes = {"linalg.factor_fill_nnz": " (computed: L+U nnz of the largest factor)",
             "control.sweeps_per_cg_iter_ideal": " (first principles: 2k+4 sweeps per solve)"}
    out = {}
    for key, value in metrics.items():
        unit = metric_unit(key)
        print(f"{bench.workload.name} {key} {value:.6g} {unit}{notes.get(key, '')}", flush=True)
        out[key] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heatctrl" / "cli.py").is_file():
        print("perfbench: run from the root of a heatctrl checkout "
              "(src/heatctrl/cli.py not found)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    stamp = environment_stamp(root)
    print("environment " + json.dumps(stamp, sort_keys=True), flush=True)
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = run_traced(bench, args.seconds)
    else:
        metrics = run_untraced(bench, args.seconds)
    failed = bench.failed
    print(f"{args.workload} failed_frac {failed / max(bench.attempted, 1):.6g} "
          f"({failed} of {bench.attempted} runs)", flush=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
