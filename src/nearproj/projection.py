"""Galerkin projection: solve a_h(r_h u - u, w_h) = 0 over the free DOFs."""

import numpy as np
import scipy.sparse.linalg

from .forms import assemble_load, assemble_matrix
from .space import FeFunction


def project(space, form, u):
    """Orthogonal projection of u onto the space with respect to the form,
    by one sparse LU.  Minimum-degree ordering on A + A^T keeps the fill and
    peak memory of the 2-D P2 systems below those of the default COLAMD."""
    A = assemble_matrix(space, form)
    b = assemble_load(space, form, u)
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.free_dofs] = scipy.sparse.linalg.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    return FeFunction(space, coeffs)
