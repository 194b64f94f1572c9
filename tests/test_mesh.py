import math

import numpy as np
import pytest

from heatctrl import TimeGrid, build_rect_mesh, dof_partition
from heatctrl.mesh import GAMMA1, GAMMA2, SIDES, edge_lengths, signed_areas


def loop_rect_mesh(nx, ny, g1_sides):
    """nodes, triangles, boundary edges and tags filled cell by cell."""
    nodes = np.empty(((nx + 1) * (ny + 1), 2))
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes[j * (nx + 1) + i] = (i / nx, j / ny)

    triangles = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + nx + 2
            d = a + nx + 1
            triangles.append((a, b, c))
            triangles.append((a, c, d))

    def side_ids(side):
        if side == "left":
            return [j * (nx + 1) for j in range(ny + 1)]
        if side == "right":
            return [j * (nx + 1) + nx for j in range(ny + 1)]
        if side == "bottom":
            return list(range(nx + 1))
        return [ny * (nx + 1) + i for i in range(nx + 1)]

    edges, tags = [], []
    for side in SIDES:
        ids = side_ids(side)
        for k in range(len(ids) - 1):
            edges.append((ids[k], ids[k + 1]))
            tags.append(GAMMA1 if side in g1_sides else GAMMA2)
    return (nodes, np.asarray(triangles, dtype=np.intp),
            np.asarray(edges, dtype=np.intp), np.asarray(tags))


def test_smallest_grid_counts():
    mesh = build_rect_mesh(1, 1, "left")
    assert mesh.n_nodes == 4
    assert len(mesh.triangles) == 2
    assert len(mesh.edges_with_tag(GAMMA1)) == 1
    assert len(mesh.edges_with_tag(GAMMA2)) == 3


def test_two_by_two_counts():
    mesh = build_rect_mesh(2, 2, "left")
    assert mesh.n_nodes == 9
    assert len(mesh.triangles) == 8
    assert len(mesh.edges_with_tag(GAMMA1)) == 2
    assert len(mesh.edges_with_tag(GAMMA2)) == 6


def test_areas_partition_unit_square():
    mesh = build_rect_mesh(4, 4, "left")
    assert signed_areas(mesh).sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("nx,ny,gamma1", [
    (1, 1, "left"), (3, 2, "left"), (4, 4, "top"), (5, 3, ("left", "right")),
    (2, 7, ("bottom", "top", "left")),
])
def test_geometry_invariants(nx, ny, gamma1):
    mesh = build_rect_mesh(nx, ny, gamma1)
    assert np.all(signed_areas(mesh) > 0)
    assert signed_areas(mesh).sum() == pytest.approx(1.0, rel=1e-12)
    total = edge_lengths(mesh, GAMMA1).sum() + edge_lengths(mesh, GAMMA2).sum()
    assert total == pytest.approx(4.0, rel=1e-12)
    # node coordinates are exact grid multiples
    assert np.array_equal(mesh.nodes[:, 0] * nx, np.round(mesh.nodes[:, 0] * nx))


@pytest.mark.parametrize("nx,ny,gamma1", [
    (1, 1, ("left",)), (3, 2, ("left",)), (5, 3, ("left", "right")),
    (16, 16, ("left",)),
])
def test_mesh_equals_the_cell_loop_bitwise(nx, ny, gamma1):
    mesh = build_rect_mesh(nx, ny, ",".join(gamma1))
    nodes, triangles, edges, tags = loop_rect_mesh(nx, ny, gamma1)
    for got, expected in ((mesh.nodes, nodes), (mesh.triangles, triangles),
                          (mesh.boundary_edges, edges), (mesh.boundary_tags, tags)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_dof_partition_smallest():
    mesh = build_rect_mesh(1, 1, "left")
    dirichlet, free = dof_partition(mesh)
    assert set(dirichlet) == {0, 2}  # the two left-edge nodes
    assert len(dirichlet) == 2 and len(free) == 2


def test_dof_partition_two_by_two():
    mesh = build_rect_mesh(2, 2, "left")
    dirichlet, free = dof_partition(mesh)
    assert len(dirichlet) == 3
    assert len(free) == 6


@pytest.mark.parametrize("nx,ny,gamma1", [
    (1, 1, "left"), (4, 3, "right"), (3, 3, ("left", "bottom")),
])
def test_dof_partition_is_partition(nx, ny, gamma1):
    mesh = build_rect_mesh(nx, ny, gamma1)
    dirichlet, free = dof_partition(mesh)
    assert set(dirichlet) | set(free) == set(range(mesh.n_nodes))
    assert set(dirichlet) & set(free) == set()


def test_corner_nodes_are_dirichlet():
    mesh = build_rect_mesh(2, 2, "left")
    dirichlet, _ = dof_partition(mesh)
    # corners (0,0) and (0,1) sit on both boundary portions; they pin
    corners = [i for i, p in enumerate(mesh.nodes)
               if p[0] == 0.0 and p[1] in (0.0, 1.0)]
    assert set(corners) <= set(dirichlet)


def test_gamma1_spec_rejected_when_empty_or_full():
    with pytest.raises(ValueError):
        build_rect_mesh(2, 2, ())
    with pytest.raises(ValueError):
        build_rect_mesh(2, 2, ("left", "right", "bottom", "top"))
    with pytest.raises(ValueError):
        build_rect_mesh(2, 2, "north")


def test_bad_subdivisions_rejected():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 2, "left")


def test_every_boundary_edge_tagged():
    mesh = build_rect_mesh(3, 4, ("left", "top"))
    assert len(mesh.boundary_edges) == 2 * (3 + 4)
    assert set(mesh.boundary_tags) == {GAMMA1, GAMMA2}


def test_time_grid():
    grid = TimeGrid(2.0, 8)
    assert grid.tau == pytest.approx(0.25)
    assert grid.tau * grid.n_steps == grid.T
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    # an infinite T would make tau inf and the step matrix just K
    with pytest.raises(ValueError, match=r"^T must be a real number in \(0, inf\), got inf$"):
        TimeGrid(math.inf, 4)
