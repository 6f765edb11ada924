"""Galerkin projection: solve a_h(r_h u - u, w_h) = 0 over the free DOFs by one
sparse LU.  Assembly orders a system as `space.free_dofs`, by nested
dissection, so SuperLU factorises it in that order (NATURAL), with panels of
one column.  The matrix comes from a scatter in column chunks, so the LU of
a large level sits on the compact matrix, not on a whole mesh's entries.
`_solve` imports scipy.sparse.linalg at the first solve, not this module, so
a process that solves no system does not load scipy.linalg."""

import math
from dataclasses import replace

import numpy as np

from .errors import InvalidArgumentError
from .forms import assemble_load, assemble_matrix
from .space import FeFunction


def _solve(space, A, b):
    # imported here, so a process that solves no system never loads scipy.linalg
    import scipy.sparse.linalg

    coeffs = np.zeros(space.n_dofs)
    # one-column panels: SuperLU's default panel of 20 columns allocates
    # work arrays that sit on top of the factor at the memory peak of a
    # large level; the fill is the same, only the rounding order changes
    lu = scipy.sparse.linalg.splu(A, permc_spec="NATURAL", panel_size=1)
    coeffs[space.free_dofs] = lu.solve(b)
    return FeFunction(space, coeffs)


def project(space, form, u):
    """Orthogonal projection of u onto the space with respect to the form."""
    return _solve(space, assemble_matrix(space, form), assemble_load(space, form, u))


def project_pair(space_a, space_b, form, u):
    """The projections (f_a, f_b) of u onto mesh a's space with a_h, `form`
    without its h^delta term, and onto mesh b's space, derived from it, with
    `form` (a_h^+).  Mesh b's system starts from mesh a's."""
    if space_b.base is not space_a:
        raise InvalidArgumentError("space_b must be derived from space_a")
    form_a = replace(form, delta=math.inf)
    A, b = assemble_matrix(space_a, form_a), assemble_load(space_a, form_a, u)
    f_a = _solve(space_a, A, b)
    A = assemble_matrix(space_b, form, start=A)    # drops mesh a's matrix
    b = assemble_load(space_b, form, u, start=b)
    return f_a, _solve(space_b, A, b)
