"""Galerkin projection: solve a_h(r_h u - u, w_h) = 0 over the free DOFs."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import CoercivityError, InvalidArgumentError, SolverFailureError
from .forms import DENSE_LIMIT, assemble_load, assemble_matrix
from .space import FeFunction

# Relative residuals below ~eps*cond are unreachable in double precision; a
# solve that stalls is still accepted while its residual sits well under the
# smallest quantity measured by any shipped study.
RESIDUAL_FLOOR = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    method: str = "auto"          # auto | direct | cg
    tolerance: float = 1e-13      # relative residual target
    max_iterations: int = None    # default 10 * n_free

    def __post_init__(self):
        if self.method not in ("auto", "direct", "cg"):
            raise InvalidArgumentError(f"unknown solver method {self.method!r}")
        if not (0.0 < self.tolerance <= 1e-6):
            raise InvalidArgumentError("tolerance must lie in (0, 1e-6]")


def _is_symmetric(A):
    d = abs(A - A.T)
    return d.max() <= 1e-14 * max(abs(A).max(), 1e-300)


def _solve_direct(A, b):
    n = A.shape[0]
    if n <= DENSE_LIMIT:
        Ad = A.toarray()
        if _is_symmetric(A):
            try:
                c, low = scipy.linalg.cho_factor(Ad)
            except scipy.linalg.LinAlgError as exc:
                raise CoercivityError("factorization found a nonpositive pivot") from exc
            return scipy.linalg.cho_solve((c, low), b)
        return scipy.linalg.solve(Ad, b)
    return scipy.sparse.linalg.splu(A.tocsc()).solve(b)


def _solve_pcg(A, b, tol, max_iter):
    """Jacobi-preconditioned conjugate gradients with stagnation detection."""
    n = A.shape[0]
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise CoercivityError("nonpositive diagonal entry in CG preconditioner")
    inv_diag = 1.0 / diag
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    best = np.linalg.norm(r) / bnorm
    best_x = x.copy()
    since_best = 0
    for _ in range(max_iter):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rel = np.linalg.norm(r) / bnorm
        if rel < best:
            best, best_x, since_best = rel, x.copy(), 0
        else:
            since_best += 1
        if rel <= tol:
            return x
        if since_best >= 200:
            break
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    if best <= max(tol, RESIDUAL_FLOOR):
        return best_x
    raise SolverFailureError(
        f"CG stalled at relative residual {best:.3e} (target {tol:.1e})")


def project(space, form, u, cfg=SolverConfig()):
    """Orthogonal projection of u onto the space with respect to the form."""
    A = assemble_matrix(space, form)
    b = assemble_load(space, form, u)
    method = cfg.method
    if method == "auto":
        # 1-D matrices are banded, so sparse LU factors them without fill-in
        direct = space.n_free <= DENSE_LIMIT or space.mesh.dimension == 1
        method = "direct" if direct else "cg"
    if method == "cg":
        if not _is_symmetric(A):
            method = "direct"   # CG requires symmetry; adr falls back
    if method == "direct":
        c_free = _solve_direct(A, b)
    else:
        max_iter = cfg.max_iterations if cfg.max_iterations else 10 * space.n_free
        c_free = _solve_pcg(A, b, cfg.tolerance, max_iter)
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.free_dofs] = c_free
    return FeFunction(space, coeffs)
