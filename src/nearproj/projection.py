"""Galerkin projection: solve a_h(r_h u - u, w_h) = 0 over the free DOFs by
sparse LU.  Assembly orders a system as `space.free_dofs`, by nested
dissection, so SuperLU factorises it in that order (NATURAL), with panels of
one column.  The matrix comes from a scatter in column chunks, so the LU of
a large level sits on the compact matrix, not on a whole mesh's entries.

`project` factorises its system once.  `project_pair` factorises mesh a's
system and builds mesh b's from it: they differ only in the columns and
rows of the DOFs that a differing element touches, and only those are
assembled on mesh b (with a DOF mask, `forms`).  When few DOFs differ, mesh
b's system is solved from mesh a's factor: its matrix is mesh a's outside
the k x k block of those k free DOFs, so a Sherman-Morrison-Woodbury
capacitance update (Hager, SIAM Review 31 (1989) 221) gives its solution
from k + 1 solves.  It does so when the form has no h^delta term (a finite
delta changes every row) and 2 k n_free < nnz(LU): k column solves cost
about 2 k nnz(LU) flops, and a factorisation at least nnz(LU)^2 / n_free.
Otherwise mesh b's spliced system is factorised too.

A singular system, or a solution that is not finite, raises a
`NearprojError`: a form coefficient so large that the system overflows
gives one, and numpy does not warn of the overflow first.  `_factor`
imports scipy.sparse.linalg at the first solve, not this module, so a
process that solves no system does not load scipy.linalg."""

import math
from dataclasses import replace

import numpy as np

from .errors import InvalidArgumentError, NearprojError
from .forms import MASS, assemble_load, assemble_matrix
from .space import FeFunction


def _factor(A):
    """SuperLU factor of A, a CSC matrix in elimination order."""
    # imported here, so a process that solves no system never loads scipy.linalg
    import scipy.sparse.linalg

    # one-column panels: SuperLU's default panel of 20 columns allocates
    # work arrays that sit on top of the factor at the memory peak of a
    # large level; the fill is the same, only the rounding order changes
    try:
        return scipy.sparse.linalg.splu(A, permc_spec="NATURAL", panel_size=1)
    except RuntimeError as exc:      # SuperLU: "Factor is exactly singular"
        raise NearprojError(f"the projection's system cannot be solved: {exc}") from exc


def _function(space, x):
    """The function on `space` with free coefficients x, in elimination order."""
    if not np.isfinite(x).all():
        raise NearprojError("the projection's system has a solution that is not finite")
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.free_dofs] = x
    return FeFunction(space, coeffs)


def _updated_solve(lu, x, S, D, rho):
    """x + A^{-1} P (I + D C)^{-1} rho, with C = (A^{-1})[S, S]: the
    solution of (A + P D P^T) x_b = b_b (Woodbury), where lu factors A,
    A x = b, P puts a k-vector at the positions S and
    rho = (b_b - b)[S] - D x[S]."""
    k = S.size
    if k == 0:
        return x
    # C from four unit columns per call: a call passes over the factor once
    # for all its columns, and no (n_free, k) array is held, which would
    # raise the memory peak of a level above that of its factorisation
    C = np.empty((k, k))
    for j in range(0, k, 4):
        cols = S[j:j + 4]
        E = np.zeros((x.size, cols.size))
        E[cols, np.arange(cols.size)] = 1.0
        C[:, j:j + cols.size] = lu.solve(E).take(S, axis=0)
    e = np.zeros(x.size)
    e[S] = np.linalg.solve(np.eye(k) + D @ C, rho)
    return x + lu.solve(e)


@np.errstate(over="ignore", invalid="ignore")
def project(space, form, u):
    """Orthogonal projection of u onto the space with respect to the form."""
    A, b = assemble_matrix(space, form), assemble_load(space, form, u)
    return _function(space, _factor(A).solve(b))


def _splice_columns(A, part, columns):
    """A with the columns in the mask `columns` taken from `part`, which
    holds those columns alone, every entry of them, as A does."""
    data = A.data.copy()
    data[np.repeat(columns, np.diff(A.indptr))] = part.data
    return type(A)((data, A.indices, A.indptr), shape=A.shape)


def _spliced(space_b, form, u, A, b):
    """Mesh b's system of `form` from mesh a's, A and b, with the columns and
    rows of the DOFs that a differing element touches assembled on mesh b."""
    dofs = space_b.recomputed_dofs
    rows = dofs[space_b.free_dofs]
    return (_splice_columns(A, assemble_matrix(space_b, form, dofs), rows),
            np.where(rows, assemble_load(space_b, form, u, dofs), b))


@np.errstate(over="ignore", invalid="ignore")
def project_pair(space_a, space_b, form, u):
    """The projections (f_a, f_b) of u onto mesh a's space with a_h, `form`
    without its h^delta term, and onto mesh b's space, derived from it, with
    `form` (a_h^+).  Mesh b's system is built from mesh a's, and is solved
    with mesh a's factor when `form.delta` is inf and the k free DOFs that
    a differing element touches satisfy 2 k n_free < nnz(LU); otherwise it
    is factorised too (see the module docstring)."""
    if space_b.base is not space_a:
        raise InvalidArgumentError("space_b must be derived from space_a")
    form_a = replace(form, delta=math.inf)
    A, b = assemble_matrix(space_a, form_a), assemble_load(space_a, form_a, u)
    lu = _factor(A)
    x = lu.solve(b)
    f_a = _function(space_a, x)
    dofs = space_b.recomputed_dofs
    S = np.flatnonzero(dofs[space_b.free_dofs])
    if math.isinf(form.delta) and 2 * S.size * space_a.n_free < lu.nnz:
        # mesh b's matrix is mesh a's outside the columns S, which the masked
        # assembly gives alone; mesh a's matrix is released before the solves
        D = (assemble_matrix(space_b, form, dofs)[:, S][S] - A[:, S][S]).toarray()
        del A
        rho = assemble_load(space_b, form, u, dofs)[S] - b[S] - D @ x[S]
        return f_a, _function(space_b, _updated_solve(lu, x, S, D, rho))
    del lu        # before mesh b's system is built, to keep it off the peak
    A, b = _spliced(space_b, form_a, u, A, b)
    if math.isfinite(form.delta):
        # h^delta times mesh b's mass system, built from mesh a's alike
        M, m = _spliced(space_b, MASS, u, assemble_matrix(space_a, MASS),
                        assemble_load(space_a, MASS, u))
        scale = space_b.mesh.h ** form.delta
        A, b = A + scale * M, b + scale * m
    return f_a, _function(space_b, _factor(A).solve(b))
