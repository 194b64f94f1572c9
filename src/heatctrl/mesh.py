"""Structured triangulations of the unit square with a two-part boundary.

The domain is always [0,1]^2, subdivided into nx-by-ny cells, each cell split
into two counterclockwise triangles along the same diagonal.  Boundary edges
are tagged either "gamma1" (the side where the temperature is pinned / the
Robin exchange acts) or "gamma2" (the side carrying the prescribed flux).
"""

import math
from dataclasses import dataclass

import numpy as np

SIDES = ("left", "right", "bottom", "top")
GAMMA1 = "gamma1"
GAMMA2 = "gamma2"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] for implicit Euler stepping."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if not math.isfinite(self.T):
            raise ValueError(f"final time must be finite, got {self.T}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one time step, got {self.n_steps}")
        # the step matrix M / tau + K needs a finite 1 / tau; a step can
        # also underflow to zero
        tau = float(self.tau)
        if tau == 0.0 or not math.isfinite(1.0 / tau):
            raise ValueError(
                f"time step T / n_steps = {self.T} / {self.n_steps} is too small: "
                f"its reciprocal is not finite")

    @property
    def tau(self) -> float:
        return self.T / self.n_steps


@dataclass(frozen=True)
class Mesh:
    """P1 triangulation of the unit square.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Vertex coordinates, exact multiples of 1/nx and 1/ny.
    triangles : ndarray, shape (n_triangles, 3)
        Node index triples, counterclockwise orientation.
    boundary_edges : ndarray, shape (n_edges, 2)
        Node index pairs along the boundary.
    boundary_tags : ndarray, shape (n_edges,)
        Per-edge tag, "gamma1" or "gamma2".
    gamma1 : tuple of str
        The sides tagged "gamma1", without repeats, in the order given.
    nx, ny : int
        Subdivision counts per axis.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    gamma1: tuple
    nx: int
    ny: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def edges_with_tag(self, tag):
        return self.boundary_edges[self.boundary_tags == tag]


def signed_areas(mesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def edge_lengths(mesh, tag) -> np.ndarray:
    edges = mesh.edges_with_tag(tag)
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    return np.hypot(d[:, 0], d[:, 1])


def _normalize_sides(gamma1_spec):
    if isinstance(gamma1_spec, str):
        sides = tuple(s.strip() for s in gamma1_spec.split(",") if s.strip())
    else:
        sides = tuple(gamma1_spec)
    for s in sides:
        if s not in SIDES:
            raise ValueError(f"unknown side {s!r}, expected one of {SIDES}")
    return tuple(dict.fromkeys(sides))  # stable dedup


def build_rect_mesh(nx: int, ny: int, gamma1_spec="left") -> Mesh:
    """Triangulate the unit square with tagged boundary sides.

    Parameters
    ----------
    nx, ny : int
        Number of cells per axis (each cell becomes two triangles).
    gamma1_spec : str or iterable of str
        Sides tagged "gamma1"; a nonempty, proper subset of
        {"left", "right", "bottom", "top"}.  Remaining sides get "gamma2".
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be >= 1, got nx={nx}, ny={ny}")
    g1_sides = _normalize_sides(gamma1_spec)
    if len(g1_sides) == 0:
        raise ValueError("gamma1 must own at least one side")
    if len(g1_sides) == len(SIDES):
        raise ValueError("gamma1 cannot cover the whole boundary (gamma2 would be empty)")

    # node ids[j, i] = j * (nx + 1) + i sits at (i / nx, j / ny)
    x, y = np.meshgrid(np.arange(nx + 1) / nx, np.arange(ny + 1) / ny)
    nodes = np.column_stack([x.ravel(), y.ravel()])
    ids = np.arange((ny + 1) * (nx + 1), dtype=np.intp).reshape(ny + 1, nx + 1)

    # a is the lower-left node of each cell; its two triangles share the
    # diagonal from a to the upper-right node a + nx + 2
    a = ids[:ny, :nx].ravel()
    triangles = np.stack([a, a + 1, a + nx + 2, a, a + nx + 2, a + nx + 1],
                         axis=1).reshape(-1, 3)

    # each side's edges pair every node of its border of the grid with the
    # next one; the borders in SIDES order
    borders = (ids[:, 0], ids[:, nx], ids[0], ids[ny])
    edges = np.concatenate([np.column_stack([b[:-1], b[1:]]) for b in borders])
    tags = np.repeat([GAMMA1 if s in g1_sides else GAMMA2 for s in SIDES],
                     [len(b) - 1 for b in borders])

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=edges,
        boundary_tags=tags,
        gamma1=g1_sides,
        nx=nx,
        ny=ny,
    )


def dof_partition(mesh):
    """Split node indices into (dirichlet_nodes, free_nodes).

    Dirichlet nodes are all nodes incident to a gamma1 edge; nodes shared by
    a gamma1 and a gamma2 edge count as Dirichlet.
    """
    dirichlet = np.unique(mesh.edges_with_tag(GAMMA1).ravel())
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    return dirichlet, free
