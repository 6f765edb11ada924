"""Galerkin projection: solve a_h(r_h u - u, w_h) = 0 over the free DOFs."""

import numpy as np
import scipy.sparse.linalg

from .forms import assemble_load, assemble_matrix
from .space import FeFunction


def project(space, form, u):
    """Orthogonal projection of u onto the space with respect to the form,
    by one sparse LU.  The system comes out of assembly in the
    nested-dissection order of `space.free_dofs`, so SuperLU factorises it
    in that order (NATURAL) without a column ordering of its own."""
    A = assemble_matrix(space, form)
    b = assemble_load(space, form, u)
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.free_dofs] = scipy.sparse.linalg.splu(
        A, permc_spec="NATURAL").solve(b)
    return FeFunction(space, coeffs)
