"""Sparse symmetric linear algebra: SPD solves and generalized eigen-extremes.

A matrix here is any scipy sparse matrix that is symmetric; the factorization
object is immutable after construction and may be shared across time steps
(the implicit-Euler system matrix never changes within a solve).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    """A solve failed; the message says which and how.

    Every solver failure the command line reports with exit code 2 is one.
    """


class SpdFactor:
    """Reusable direct solver for a sparse SPD matrix.

    The sparse LU factorization is computed once at construction and reused
    by every solve; solves are deterministic across runs.  The matrix must be
    SPD: SuperLU runs in symmetric mode with a minimum-degree ordering of
    A + A^T and pivots on the diagonal, which gives much less fill than its
    default column ordering.

    Every solve runs SuperLU's transposed sweeps (``trans="T"``), which
    return A^-T b from the same factors and take about a quarter less time
    than the plain sweeps on the implicit-Euler matrices.  That is A^-1 b
    only because A = A^T, so construction refuses a matrix that is not
    exactly symmetric, entry for entry.
    """

    def __init__(self, A):
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        non_finite = np.count_nonzero(~np.isfinite(A.data))
        if non_finite:
            raise ValueError(
                f"matrix must be finite, got {non_finite} non-finite entries")
        asymmetric = (A != A.T).nnz
        if asymmetric:
            raise ValueError(
                f"matrix must be symmetric, got {asymmetric} entries that differ "
                "from their transpose"
            )
        try:
            self._lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        # not a norm: on long vectors that is a threaded BLAS call, whose
        # worker thread then spins through the rest of the run
        if not rhs.any():
            return np.zeros_like(rhs)
        return self._lu.solve(rhs, trans="T")


def _quad(a, A, b) -> float:
    """a' A b as an elementwise product and a pairwise sum.

    On long vectors a BLAS dot is threaded, and its rounding depends on the
    BLAS thread count.
    """
    y = A @ b
    y *= a
    return float(y.sum())


def gen_eig_extreme(A, B, which, tol=1e-10, max_iter=100_000):
    """Extreme generalized eigenvalue of A x = lambda B x.

    B must be SPD and A symmetric positive semidefinite.  "largest" runs
    power iteration on B^{-1} A; "smallest" runs inverse iteration (power
    iteration on A^{-1} B, so A must then be definite).  The start vector is
    all-ones, B-normalized, which keeps the returned constants reproducible.
    """
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    n = A.shape[0]
    iterate = SpdFactor(B) if which == "largest" else SpdFactor(A)

    x = np.ones(n)
    x /= np.sqrt(_quad(x, B, x))
    lam = _quad(x, A, x) / _quad(x, B, x)
    settled = 0
    for _ in range(max_iter):
        y = iterate.solve(A @ x) if which == "largest" else iterate.solve(B @ x)
        nrm = np.sqrt(_quad(y, B, y))
        if nrm == 0.0:
            raise SolverError("iteration collapsed to the zero vector")
        x = y / nrm
        lam_new = _quad(x, A, x)  # x is B-normalized
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            settled += 1
            if settled >= 2:
                return lam_new
        else:
            settled = 0
        lam = lam_new
    raise SolverError(f"eigen-iteration did not settle within {max_iter} iterations")
