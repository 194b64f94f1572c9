import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import brentq

import heatctrl
from heatctrl import assemble, build_rect_mesh, compute_constants
from heatctrl.mesh import GAMMA1, GAMMA2, signed_areas

from oracles import dense_assemble, extend_gamma2


@pytest.fixture(scope="module")
def ops44():
    return assemble(build_rect_mesh(4, 4, "left"))


def test_unit_mesh_totals():
    ops = assemble(build_rect_mesh(1, 1, "left"))
    one = np.ones(ops.n_nodes)
    assert one @ (ops.M @ one) == pytest.approx(1.0, rel=1e-12)
    assert one @ (ops.B1 @ one) == pytest.approx(1.0, rel=1e-12)
    assert one @ (ops.B2 @ one) == pytest.approx(3.0, rel=1e-12)


def test_stiffness_kills_constants(ops44):
    one = np.ones(ops44.n_nodes)
    assert np.max(np.abs(ops44.K @ one)) <= 1e-12


def test_entries_match_independent_dense_assembly():
    mesh = build_rect_mesh(2, 2, "left")
    ops = assemble(mesh)
    K, M, B1, B2 = dense_assemble(mesh)
    assert np.allclose(ops.K.toarray(), K, atol=1e-13)
    assert np.allclose(ops.M.toarray(), M, atol=1e-13)
    assert np.allclose(ops.B1.toarray(), B1, atol=1e-13)
    assert np.allclose(ops.B2.toarray(), B2, atol=1e-13)


def test_operator_invariants(ops44):
    one = np.ones(ops44.n_nodes)
    for A in (ops44.K, ops44.M, ops44.B1, ops44.B2):
        assert abs(A - A.T).max() <= 1e-14
    assert one @ (ops44.M @ one) == pytest.approx(1.0, rel=1e-12)   # area
    assert one @ (ops44.B1 @ one) == pytest.approx(1.0, rel=1e-12)  # gamma1 length
    assert one @ (ops44.B2 @ one) == pytest.approx(3.0, rel=1e-12)  # gamma2 length
    # positive definiteness / semidefiniteness
    assert np.all(sla.eigvalsh(ops44.M.toarray()) > 0)
    assert np.all(sla.eigvalsh(ops44.K.toarray()) > -1e-12)
    assert np.all(sla.eigvalsh(ops44.B1.toarray()) > -1e-12)
    assert np.all(sla.eigvalsh(ops44.B2.toarray()) > -1e-12)


def loop_assemble(mesh):
    """K, M, B1, B2 from the per-triangle and per-edge loops `assemble` replaced."""
    n = mesh.n_nodes
    areas = signed_areas(mesh)
    for t, area in enumerate(areas):
        if area <= 0:
            raise ValueError(f"triangle {t} has non-positive area {area}")
    k_rows, k_cols, k_vals = [], [], []
    m_rows, m_cols, m_vals = [], [], []
    m_local_ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    for t, tri in enumerate(mesh.triangles):
        x = mesh.nodes[tri, 0]
        y = mesh.nodes[tri, 1]
        area = areas[t]
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / (2.0 * area)
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / (2.0 * area)
        k_local = area * (np.outer(b, b) + np.outer(c, c))
        m_local = area * m_local_ref
        for i in range(3):
            for j in range(3):
                k_rows.append(tri[i])
                k_cols.append(tri[j])
                k_vals.append(k_local[i, j])
                m_rows.append(tri[i])
                m_cols.append(tri[j])
                m_vals.append(m_local[i, j])

    def boundary_mass(tag):
        rows, cols, vals = [], [], []
        for a, b in mesh.edges_with_tag(tag):
            d = mesh.nodes[b] - mesh.nodes[a]
            length = float(np.hypot(d[0], d[1]))
            local = (length / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
            for i, gi in enumerate((a, b)):
                for j, gj in enumerate((a, b)):
                    rows.append(gi)
                    cols.append(gj)
                    vals.append(local[i, j])
        return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))

    K = sp.csr_matrix(sp.coo_matrix((k_vals, (k_rows, k_cols)), shape=(n, n)))
    M = sp.csr_matrix(sp.coo_matrix((m_vals, (m_rows, m_cols)), shape=(n, n)))
    return K, M, boundary_mass(GAMMA1), boundary_mass(GAMMA2)


@pytest.mark.parametrize("nx, ny, gamma1", [
    (3, 5, "left"), (4, 4, "left,bottom"), (16, 16, "left"),
])
def test_assembly_equals_the_element_loop_bitwise(nx, ny, gamma1):
    mesh = build_rect_mesh(nx, ny, gamma1)
    ops = assemble(mesh)
    got = (ops.K, ops.M, ops.B1, ops.B2)
    for new, old, dense in zip(got, loop_assemble(mesh), dense_assemble(mesh)):
        assert new.dtype == old.dtype
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        assert np.array_equal(new.data, old.data)
        assert np.allclose(new.toarray(), dense, atol=1e-13)


def test_degenerate_triangle_reported():
    mesh = build_rect_mesh(1, 1, "left")
    tris = mesh.triangles.copy()
    tris[1] = (0, 1, 1)  # zero area
    broken = dataclasses.replace(mesh, triangles=tris)
    with pytest.raises(ValueError, match="triangle 1"):
        assemble(broken)


def test_first_bad_triangle_reported_as_the_loop_did():
    mesh = build_rect_mesh(3, 2, "left")
    tris = mesh.triangles.copy()
    tris[3] = tris[3][::-1]  # clockwise: negative area
    tris[7] = (0, 1, 1)  # zero area
    broken = dataclasses.replace(mesh, triangles=tris)
    with pytest.raises(ValueError) as expected:
        loop_assemble(broken)
    with pytest.raises(ValueError) as got:
        assemble(broken)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("triangle 3 has non-positive area -")


def test_trace2_roundtrip(ops44):
    rng = np.random.default_rng(2)
    q = rng.standard_normal(len(ops44.gamma2_nodes))
    assert np.array_equal(ops44.trace2(extend_gamma2(ops44, q)), q)


def test_constants_positive_and_ordered(ops44):
    rep = compute_constants(ops44)
    assert 0 < rep["lambda0"] <= 1.0  # stiffness never exceeds the full H1 form
    assert rep["lambda1"] > 0
    assert rep["trace_norm"] > 0


def test_constants_match_dense_eigensolves(ops44):
    rep = compute_constants(ops44)
    K = ops44.K.toarray()
    M = ops44.M.toarray()
    KM = K + M
    F = ops44.free_nodes
    lam0 = sla.eigh(K[np.ix_(F, F)], KM[np.ix_(F, F)], eigvals_only=True)[0]
    lam1 = sla.eigh(K + ops44.B1.toarray(), KM, eigvals_only=True)[0]
    mu = sla.eigh(ops44.B2.toarray(), KM, eigvals_only=True)[-1]
    assert rep["lambda0"] == pytest.approx(lam0, rel=1e-8)
    assert rep["lambda1"] == pytest.approx(lam1, rel=1e-8)
    assert rep["trace_norm"] == pytest.approx(np.sqrt(mu), rel=1e-8)


def test_rayleigh_bound_on_free_subspace(ops44):
    rep = compute_constants(ops44)
    KM = (ops44.K + ops44.M).toarray()
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = np.zeros(ops44.n_nodes)
        v[ops44.free_nodes] = rng.standard_normal(len(ops44.free_nodes))
        assert v @ (ops44.K @ v) >= rep["lambda0"] * (v @ (KM @ v)) - 1e-8


def test_trace_bound(ops44):
    rep = compute_constants(ops44)
    KM = (ops44.K + ops44.M).toarray()
    rng = np.random.default_rng(10)
    for _ in range(100):
        v = rng.standard_normal(ops44.n_nodes)
        assert v @ (ops44.B2 @ v) <= rep["trace_norm"]**2 * (v @ (KM @ v)) + 1e-8


def test_constants_rejected_without_free_nodes():
    ops = assemble(build_rect_mesh(1, 1, ("left", "right", "bottom")))
    with pytest.raises(ValueError, match="free nodes"):
        compute_constants(ops)


def test_descriptor_names_mesh(ops44):
    rep = compute_constants(ops44)
    assert "4x4" in rep["mesh"]
    assert "left" in rep["mesh"]


@pytest.mark.parametrize("spec, sides", [("right", "right"), ("bottom", "bottom"),
                                         ("top", "top"), ("top,left", "left,top")])
def test_descriptor_names_each_gamma1_side(spec, sides):
    # each side's name as the mesh keeps it; two sides come out sorted
    rep = compute_constants(assemble(build_rect_mesh(3, 2, spec)))
    assert rep["mesh"] == f"3x2 unit square, gamma1={sides}"


CONSTANTS_SCRIPT = """
from heatctrl import assemble, build_rect_mesh, compute_constants
rep = compute_constants(assemble(build_rect_mesh(101, 101, "left")))
print(rep["lambda0"].hex(), rep["lambda1"].hex(), rep["trace_norm"].hex())
"""


def test_constants_do_not_depend_on_the_blas_thread_count():
    # 10100 free nodes: long enough for OpenBLAS to split a dot product
    # across threads, which changes its rounding
    src = str(Path(heatctrl.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", CONSTANTS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        results.append(proc.stdout)
    assert results[0] == results[1]


def continuum_constants(gamma1):
    """The constants of the continuous problem on the unit square.

    With gamma1 = left, lambda0 = (π²/4)/(1+π²/4), lambda1 = k²/(1+k²) with
    k tan k = 1 + k², and trace_norm = σ^-1/2 with σ = √a tanh √a =
    √b tanh(√b/2), a + b = 1.  With gamma1 = left,right, lambda0 =
    π²/(1+π²), lambda1 = k²/(1+k²) with k tan(k/2) = 1 + k², and trace_norm
    = tanh(1/2)^-1/2.
    """
    def root(f, lo, hi):
        return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    if gamma1 == "left":
        k = root(lambda k: k * math.tan(k) - 1 - k * k, 1e-9, math.pi / 2 - 1e-9)
        a = root(lambda a: math.sqrt(a) * math.tanh(math.sqrt(a))
                 - math.sqrt(1 - a) * math.tanh(math.sqrt(1 - a) / 2), 0.0, 1.0)
        return {"lambda0": (math.pi ** 2 / 4) / (1 + math.pi ** 2 / 4),
                "lambda1": k * k / (1 + k * k),
                "trace_norm": (math.sqrt(a) * math.tanh(math.sqrt(a))) ** -0.5}
    k = root(lambda k: k * math.tan(k / 2) - 1 - k * k, 1e-9, math.pi - 1e-9)
    return {"lambda0": math.pi ** 2 / (1 + math.pi ** 2), "lambda1": k * k / (1 + k * k),
            "trace_norm": math.tanh(0.5) ** -0.5}


@pytest.mark.parametrize("gamma1", ["left", "left,right"])
def test_constants_converge_to_the_continuum_at_second_order(gamma1):
    exact = continuum_constants(gamma1)
    reports = [compute_constants(assemble(build_rect_mesh(n, n, gamma1))) for n in (8, 16, 32)]
    for name, value in exact.items():
        errors = [abs(rep[name] - value) for rep in reports]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert min(orders) >= 1.9, (name, errors)
