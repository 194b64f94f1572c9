"""The benchmark's workloads and the seeded generator of their config files.

The seed draws only the centre and width of the tracking-target bump; every
other setting is fixed per workload, so the program receives nothing but the
generated config text.  The ranges are narrow enough that the solver does the
same kind of work on every seed.
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
# Kept out of tuning: later speed claims are re-checked on this seed.
HELD_OUT_SEED = 8191

CENTRE_X = (0.6, 0.8)
CENTRE_Y = (0.4, 0.6)
WIDTH = (0.12, 0.18)

T = 1.0
TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # heatctrl subcommand: "solve" or "sweep"
    n: int  # cells per side of the unit square
    n_steps: int
    M: float  # M1 = M2
    formats: str
    alphas: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        # Report writing dominates (about 830k CSV rows); CG is light.
        Workload("solve-csv-64", "solve", 64, 64, 1.0, "csv,json"),
        # Robin sweep over four alphas: many factorizations and triangular
        # solves, a few kilobytes of output.
        Workload("sweep-64", "sweep", 64, 64, 1.0, "json",
                 alphas=(10.0, 100.0, 1000.0, 10000.0)),
        # Fine mesh, small penalty: many CG sweeps on one factorization and
        # heavy assembly; reduced CG needs more iterations as M1, M2 shrink.
        Workload("solve-lowreg-128", "solve", 128, 32, 1e-2, "json"),
    )
}


def bump(seed):
    """(cx, cy, width) of the target bump drawn from `seed`."""
    rng = random.Random(seed)
    cx = round(rng.uniform(*CENTRE_X), 4)
    cy = round(rng.uniform(*CENTRE_Y), 4)
    width = round(rng.uniform(*WIDTH), 4)
    return cx, cy, width


def config_text(workload: Workload, seed: int, out_dir) -> str:
    """heatctrl config file text for one workload and seed."""
    cx, cy, width = bump(seed)
    alphas = ""
    if workload.alphas:
        alphas = "alphas = [" + ", ".join(repr(a) for a in workload.alphas) + "]\n"
    return (
        "[mesh]\n"
        f"nx = {workload.n}\n"
        f"ny = {workload.n}\n"
        "gamma1 = left\n"
        "[time]\n"
        f"T = {T!r}\n"
        f"n_steps = {workload.n_steps}\n"
        "[problem]\n"
        f"M1 = {workload.M!r}\n"
        f"M2 = {workload.M!r}\n"
        f"{alphas}"
        "b = zero\n"
        "v_b = zero\n"
        f"z_d = bump:{cx!r},{cy!r},{width!r},1.0\n"
        "[solver]\n"
        f"tol = {TOL!r}\n"
        "max_iter = 500\n"
        "optimizer = cg\n"
        "variant = P\n"
        "[output]\n"
        f"directory = {out_dir}\n"
        f"formats = {workload.formats}\n"
    )
