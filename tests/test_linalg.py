import numpy as np
import pytest
import scipy.sparse as sp

from heatctrl import SpdFactor, Stepper, assemble, build_rect_mesh, gen_eig_extreme

import heatctrl.linalg
from heatctrl.linalg import SolverError

from oracles import dense_assemble, make_instance


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


def test_eig_cap_raises_a_solver_error():
    A = sp.diags([1.0, 2.0, 4.0]).tocsr()
    B = sp.identity(3, format="csr")
    with pytest.raises(SolverError) as err:
        gen_eig_extreme(A, B, "largest", tol=1e-14, max_iter=3)
    assert str(err.value) == "eigen-iteration did not settle within 3 iterations"


def test_an_unsettled_smallest_eig_factorizes_once(monkeypatch):
    # the failure is its message: no second factorization for a residual
    built = []

    class Counted(SpdFactor):
        def __init__(self, A):
            built.append(A.shape)
            super().__init__(A)

    monkeypatch.setattr(heatctrl.linalg, "SpdFactor", Counted)
    A = sp.diags([1.0, 2.0, 4.0]).tocsr()
    B = sp.diags([1.0, 3.0, 2.0]).tocsr()
    with pytest.raises(SolverError, match="did not settle within 3 iterations"):
        gen_eig_extreme(A, B, "smallest", tol=1e-14, max_iter=3)
    assert built == [(3, 3)]


def test_eig_of_a_zero_matrix_collapses_at_the_first_step():
    # B^-1 A x is the zero vector, which power iteration cannot normalize
    A = sp.csr_matrix((2, 2))
    with pytest.raises(SolverError) as err:
        gen_eig_extreme(A, sp.identity(2, format="csr"), "largest")
    assert str(err.value) == "iteration collapsed to the zero vector"


def test_singular_matrix_is_a_factorization_failure():
    with pytest.raises(SolverError) as err:
        SpdFactor(sp.csr_matrix((2, 2)))
    assert str(err.value) == "factorization failed: Factor is exactly singular"


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
    ops, data = make_instance(6, 5, 4, gamma1="left,bottom", zero_data=True)
    grid = data.grid
    stepper = Stepper(data, variant, alpha)
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
    with pytest.raises(ValueError, match=r"^matrix must have shape \(2, 2\), got \(2, 3\)$"):
        SpdFactor(sp.csr_matrix((2, 3)))
    # the transposed solve would return the solution of A^T x = b
    with pytest.raises(ValueError, match="symmetric"):
        SpdFactor(sp.csr_matrix([[2.0, 1.0], [0.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_reported_before_the_symmetry_test(bad):
    # the Robin step matrix at a non-finite alpha: a nan differs from its
    # transpose, and an inf made the factorization fail as singular
    ops = assemble(build_rect_mesh(3, 3, "left"))
    with pytest.raises(ValueError, match=r"^matrix must be finite and real, got a nan, inf "
                                         r"or non-real entry$"):
        SpdFactor(ops.M + ops.K + bad * ops.B1)


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
