"""P1 finite-element matrices for the heat-control problem.

All element integrals are exact for piecewise-linear functions: constant
gradients per triangle for the stiffness form, the (area/12)[[2,1,1],...]
matrix for the domain mass, and the (len/6)[[2,1],[1,2]] matrix for boundary
edge masses.  Mass matrices are consistent (never lumped) so the discrete
adjoint identity holds to machine precision.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import gen_eig_extreme
from .mesh import (GAMMA1, GAMMA2, Mesh, dof_partition, edge_lengths,
                   signed_areas)


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled sparse operators of one mesh.

    K : stiffness (grad-grad form), positive semidefinite, zero row sums.
    M : domain mass (L2 inner product), positive definite.
    B1 : boundary mass on the gamma1 edges, positive semidefinite.
    B2 : boundary mass on the gamma2 edges, positive semidefinite.
    B2_gamma : B2 restricted to the gamma2 node set (the flux-control space).
    gamma2_nodes : sorted node indices incident to a gamma2 edge.
    dirichlet_nodes / free_nodes : the dof partition of the mesh.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    B1: sp.csr_matrix
    B2: sp.csr_matrix
    B2_gamma: sp.csr_matrix
    gamma2_nodes: np.ndarray
    dirichlet_nodes: np.ndarray
    free_nodes: np.ndarray
    mesh: Mesh

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    def trace2(self, values):
        """Restrict nodal fields (last axis) to the gamma2 nodes."""
        return np.asarray(values)[..., self.gamma2_nodes]


def _sparse(elements, local, n):
    """Sum the (n_elements, k, k) local matrices of the k-node elements.

    Entries enter the COO triplets element by element, row-major within an
    element, so duplicate entries are summed in that order.
    """
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    return sp.csr_matrix(sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)))


def _boundary_mass(mesh, tag, n):
    local = (edge_lengths(mesh, tag) / 6.0)[:, None, None] \
        * np.array([[2.0, 1.0], [1.0, 2.0]])
    return _sparse(mesh.edges_with_tag(tag), local, n)


def assemble(mesh: Mesh) -> DiscreteOperators:
    """Assemble stiffness, mass and boundary-mass matrices for a mesh."""
    n = mesh.n_nodes
    areas = signed_areas(mesh)
    bad = np.flatnonzero(areas <= 0)
    if bad.size:
        t = bad[0]
        raise ValueError(f"triangle {t} has non-positive area {areas[t]}")

    tri = mesh.triangles
    x = mesh.nodes[tri, 0]
    y = mesh.nodes[tri, 1]
    twice_area = (2.0 * areas)[:, None]
    # P1 gradient coefficients: grad(phi_i) = (b_i, c_i) / (2 area)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1) / twice_area
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1) / twice_area
    area = areas[:, None, None]
    k_local = area * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    m_local = area * (np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0)

    K = _sparse(tri, k_local, n)
    M = _sparse(tri, m_local, n)
    B1 = _boundary_mass(mesh, GAMMA1, n)
    B2 = _boundary_mass(mesh, GAMMA2, n)

    dirichlet, free = dof_partition(mesh)
    gamma2 = np.unique(mesh.edges_with_tag(GAMMA2).ravel())
    B2_gamma = sp.csr_matrix(B2[np.ix_(gamma2, gamma2)])

    return DiscreteOperators(
        K=K,
        M=M,
        B1=B1,
        B2=B2,
        B2_gamma=B2_gamma,
        gamma2_nodes=gamma2,
        dirichlet_nodes=dirichlet,
        free_nodes=free,
        mesh=mesh,
    )


def compute_constants(ops: DiscreteOperators) -> dict:
    """Discrete coercivity/trace constants via generalized eigen-extremes.

    Returns the record the reports write:
    lambda0 : coercivity of the stiffness form against the full H1 norm on
        the subspace vanishing at Dirichlet nodes (the free-node block).
    lambda1 : coercivity of stiffness plus gamma1 boundary mass on all nodes.
    trace_norm : operator norm of the restriction H1 -> L2(gamma2).
    mesh : the mesh size and its gamma1 sides, as text.
    The discrete H1 norm is v^T (K + M) v throughout.
    """
    F = ops.free_nodes
    if len(F) == 0:
        raise ValueError(
            "mesh has no free nodes; the coercivity constant on the "
            "Dirichlet-constrained subspace is undefined"
        )
    KM = sp.csr_matrix(ops.K + ops.M)
    K_ff = sp.csr_matrix(ops.K[np.ix_(F, F)])
    KM_ff = sp.csr_matrix(KM[np.ix_(F, F)])
    lambda0 = gen_eig_extreme(K_ff, KM_ff, "smallest")
    lambda1 = gen_eig_extreme(sp.csr_matrix(ops.K + ops.B1), KM, "smallest")
    mu_max = gen_eig_extreme(ops.B2, KM, "largest")
    mesh = ops.mesh
    g1 = ",".join(sorted(mesh.gamma1))
    return {"lambda0": float(lambda0), "lambda1": float(lambda1),
            "trace_norm": float(np.sqrt(mu_max)),
            "mesh": f"{mesh.nx}x{mesh.ny} unit square, gamma1={g1}"}
