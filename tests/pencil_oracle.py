"""Dense oracle of the instability pencil, for tests only.

The tangent space of the mass sphere is spanned by Q = H[:, 1:], where the
reflector H = I - 2 v v^T maps e_0 onto the line of u.  Q is never formed:
with q = A v - (v^T A v) v, H A H = A - 2 (v q^T + q v^T) (Golub & Van Loan
5.1).  On it the pencil P L1 P x = mu P L2^{-1} P x becomes the symmetric
problem S = C^T L1t C with L2t = C C^T (Cholesky congruence), whose lowest
eigenvalue is then refined in the original coordinates.
"""

import numpy as np
import scipy.linalg

from multibump.spectra import linearized_matrix


class _Ratio:
    """Stands in for the nonlinearity in linearized_matrix: its fprime is
    f(s)/s = |s|^(p-2), the weight of the comparison operator L2."""

    def __init__(self, p: float):
        self.p = p

    def fprime(self, s):
        return np.abs(s) ** (self.p - 2.0)


def householder_vector(u_vals: np.ndarray) -> np.ndarray:
    """Unit v such that (I - 2 v v^T) e_0 is parallel to u."""
    w = u_vals / np.linalg.norm(u_vals)
    v = w.copy()
    v[0] += np.copysign(1.0, w[0] if w[0] != 0 else 1.0)
    return v / np.linalg.norm(v)


def tangent_block(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q^T A Q for symmetric A, by the rank-2 update of A (exactly symmetric)."""
    q = A @ v
    q -= (v @ q) * v
    update = np.outer(v[1:], q[1:])
    update = update + update.T
    update *= -2.0
    update += A[1:, 1:]
    return update


def reflect(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x; Q y is H applied to (0, y), Q^T x is (H x)[1:]."""
    return x - 2.0 * (v @ x) * v


def dense_pencil(point, V, f, refine: int = 3):
    """(mu, x): the lowest pencil eigenvalue at point and its eigenvector in
    grid coordinates (unit L2 norm).

    The eigenvector of eigh(S) is mapped back, x = C y, refined by refine
    steps of inverse iteration on L2t L1t - mu, and mu is the quotient
    (L1t x, x) / (L2t^{-1} x, x) with an LU of L2t.  The quotient in these
    coordinates has none of the cancellation of S, whose radius is about
    k_max^4.
    """
    u, grid = point.u.values, point.u.grid
    hv = householder_vector(u)
    L1t = tangent_block(linearized_matrix(point.u, point.lam, V, f), hv)
    L2t = tangent_block(linearized_matrix(point.u, point.lam, V, _Ratio(f.p)), hv)
    C = np.linalg.cholesky(L2t)
    S = C.T @ L1t @ C
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    x = C @ vecs[:, 0]
    l2t_lu = scipy.linalg.lu_factor(L2t)

    def quotient(x):
        return float(x @ L1t @ x) / float(x @ scipy.linalg.lu_solve(l2t_lu, x))

    shifted = scipy.linalg.lu_factor(L2t @ L1t - quotient(x) * np.eye(len(x)))
    for _ in range(refine):
        x = scipy.linalg.lu_solve(shifted, x)
        x /= np.linalg.norm(x)
    grid_x = reflect(hv, np.concatenate(([0.0], x)))
    return quotient(x), grid_x / (np.sqrt(grid.h) * np.linalg.norm(grid_x))
