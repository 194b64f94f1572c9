import numpy as np
import pytest
import scipy.sparse as sp

from heatctrl import (EigenError, SpdFactor, Stepper, TimeGrid, assemble,
                      build_rect_mesh, gen_eig_extreme)

from oracles import dense_assemble


def test_identity_solve():
    A = sp.identity(3, format="csr")
    assert np.allclose(SpdFactor(A).solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_diagonal_solve():
    A = sp.diags([2.0, 4.0]).tocsr()
    assert np.allclose(SpdFactor(A).solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_zero_rhs_gives_zero():
    A = sp.diags([2.0, 4.0, 1.0]).tocsr()
    assert np.array_equal(SpdFactor(A).solve(np.zeros(3)), np.zeros(3))
    x = SpdFactor(A).solve(-np.zeros(3))
    assert np.array_equal(x, np.zeros(3)) and not np.signbit(x).any()


def test_tiny_rhs_is_not_taken_for_zero():
    # the squared norm of this right-hand side underflows to zero
    ops = assemble(build_rect_mesh(4, 4, "left"))
    rhs = np.full(ops.n_nodes, 1e-170)
    x = SpdFactor(ops.M).solve(rhs)
    expected = np.linalg.solve(ops.M.toarray(), np.ones(ops.n_nodes))
    assert np.allclose(x * 1e170, expected, rtol=1e-10, atol=0)


def test_solve_matches_dense_lu():
    ops = assemble(build_rect_mesh(2, 2, "left"))
    F = ops.free_nodes[:5]
    A = sp.csr_matrix((ops.K + ops.M)[np.ix_(F, F)])
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(5)
    expected = np.linalg.solve(A.toarray(), rhs)
    assert np.allclose(SpdFactor(A).solve(rhs), expected, atol=1e-11)


def test_residual_bound_holds():
    ops = assemble(build_rect_mesh(4, 4, "left"))
    A = sp.csr_matrix(ops.K + ops.M)
    rng = np.random.default_rng(7)
    factor = SpdFactor(A)
    for _ in range(5):
        rhs = rng.standard_normal(A.shape[0])
        x = factor.solve(rhs)
        assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_eig_trivial_smallest():
    A = sp.diags([1.0, 3.0]).tocsr()
    B = sp.identity(2, format="csr")
    assert gen_eig_extreme(A, B, "smallest") == pytest.approx(1.0, rel=1e-8)


def test_eig_trivial_largest():
    A = sp.diags([1.0, 3.0]).tocsr()
    B = sp.diags([1.0, 0.5]).tocsr()
    assert gen_eig_extreme(A, B, "largest") == pytest.approx(6.0, rel=1e-8)


def test_eig_matches_dense_on_mesh():
    ops = assemble(build_rect_mesh(4, 4, "left"))
    F = ops.free_nodes
    K, M, _, _ = dense_assemble(ops.mesh)
    KM = K + M
    import scipy.linalg as sla
    expected = sla.eigh(K[np.ix_(F, F)], KM[np.ix_(F, F)], eigvals_only=True)[0]
    got = gen_eig_extreme(
        sp.csr_matrix(ops.K[np.ix_(F, F)]),
        sp.csr_matrix((ops.K + ops.M)[np.ix_(F, F)]),
        "smallest",
    )
    assert got == pytest.approx(expected, rel=1e-8)


def test_eig_cap_raises_with_rayleigh():
    A = sp.diags([1.0, 2.0, 4.0]).tocsr()
    B = sp.identity(3, format="csr")
    with pytest.raises(EigenError) as err:
        gen_eig_extreme(A, B, "largest", tol=1e-14, max_iter=3)
    assert err.value.rayleigh is not None
    assert err.value.residual is not None


def test_rayleigh_quotients_bracketed_by_extremes():
    ops = assemble(build_rect_mesh(3, 3, "left"))
    A = sp.csr_matrix(ops.K + ops.B1)
    B = sp.csr_matrix(ops.K + ops.M)
    lo = gen_eig_extreme(A, B, "smallest")
    hi = gen_eig_extreme(A, B, "largest")
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(A.shape[0])
        quot = (x @ (A @ x)) / (x @ (B @ x))
        assert lo - 1e-8 <= quot <= hi + 1e-8


@pytest.mark.parametrize("variant, alpha", [("P", None), ("Palpha", 10.0)])
def test_step_matrix_solves_match_dense_solve(variant, alpha):
    ops = assemble(build_rect_mesh(6, 5, "left,bottom"))
    grid = TimeGrid(T=1.0, n_steps=4)
    stepper = Stepper(ops, grid, variant, alpha)
    A = ops.M / grid.tau + ops.K
    if variant == "P":
        A = A[np.ix_(ops.free_nodes, ops.free_nodes)]
    else:
        A = A + alpha * ops.B1
    A = sp.csr_matrix(A).toarray()
    rng = np.random.default_rng(3)
    for _ in range(5):
        rhs = rng.standard_normal(A.shape[0])
        expected = np.linalg.solve(A, rhs)
        got = stepper.factor.solve(rhs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_bad_inputs_rejected():
    A = sp.identity(2, format="csr")
    with pytest.raises(ValueError):
        gen_eig_extreme(A, A, "median")
    with pytest.raises(ValueError, match="square"):
        SpdFactor(sp.csr_matrix((2, 3)))
    # the transposed solve would return the solution of A^T x = b
    with pytest.raises(ValueError, match="symmetric"):
        SpdFactor(sp.csr_matrix([[2.0, 1.0], [0.0, 2.0]]))


def test_solves_and_eigenvalues_are_deterministic():
    ops = assemble(build_rect_mesh(3, 3, "left"))
    A = sp.csr_matrix(ops.K + ops.M)
    rhs = np.arange(1.0, A.shape[0] + 1)
    x1 = SpdFactor(A).solve(rhs)
    x2 = SpdFactor(A).solve(rhs)
    assert np.array_equal(x1, x2)
    e1 = gen_eig_extreme(ops.B2, A, "largest")
    e2 = gen_eig_extreme(ops.B2, A, "largest")
    assert e1 == e2
