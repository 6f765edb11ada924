"""Mesh b's level is derived from mesh a's: its mesh copies a's per-element
arrays, its space takes a's numbering, and its system takes a's element
matrices and loads, recomputing only the differing elements.  Each part must
equal what building mesh b's level from scratch gives."""

import numpy as np
import pytest

from nearproj import Mesh, assemble_load, assemble_matrix, build_space, named_function
from nearproj.cli import TABLES
from nearproj.mesh import _GEOMETRY
from nearproj.space import shared_dof_mask
from nearproj.study import _pair, _spaces

# (table, config): the 1-D single-node pair, the table-4 and table-5 2-D
# single-node pair, and both forms of the table-6 band pair
CONFIGS = [(1, 0), (2, 1), (4, 0), (5, 0), (6, 0), (6, 1)]


def _level(table, index):
    cfg = TABLES[table].configs[index]
    return cfg, _pair(cfg, 3)


def _from_scratch(mesh):
    return Mesh(mesh.dimension, mesh.nodes, mesh.elements, mesh.boundary_nodes)


def _by_dof(space, A):
    """A with its rows and columns in ascending DOF number."""
    order = np.argsort(space.free_dofs)
    return A[order][:, order]


@pytest.mark.parametrize("table,index", CONFIGS)
def test_mesh_b_equals_the_mesh_built_from_its_nodes(table, index):
    _, pair = _level(table, index)
    fresh = _from_scratch(pair.mesh_b)
    for name in (*_GEOMETRY, "h"):
        assert np.array_equal(getattr(pair.mesh_b, name), getattr(fresh, name)), name
    assert not pair.shared.all()


@pytest.mark.parametrize("table,index", CONFIGS)
def test_space_b_takes_a_numbering(table, index):
    cfg, pair = _level(table, index)
    space_a, space_b = _spaces(pair, cfg.degree)
    fresh = build_space(_from_scratch(pair.mesh_b), cfg.degree, dirichlet=True)
    for name in ("element_dofs", "dirichlet_mask", "dof_coords"):
        assert np.array_equal(getattr(space_b, name), getattr(fresh, name)), name
    assert space_b.mesh is pair.mesh_b
    assert np.array_equal(space_b.free_dofs, space_a.free_dofs)


@pytest.mark.parametrize("table,index", CONFIGS)
def test_system_b_matches_a_fresh_assembly_and_shares_a_rows(table, index):
    cfg, pair = _level(table, index)
    u = named_function(cfg.u)
    space_a, space_b = _spaces(pair, cfg.degree)
    A_a, b_a = assemble_matrix(space_a, cfg.form), assemble_load(space_a, cfg.form, u)
    A_b, b_b = assemble_matrix(space_b, cfg.form), assemble_load(space_b, cfg.form, u)
    assert space_a.handoff == {}      # mesh b took a's element arrays

    fresh = build_space(_from_scratch(pair.mesh_b), cfg.degree, dirichlet=True)
    A_f = _by_dof(fresh, assemble_matrix(fresh, cfg.form))
    b_f = assemble_load(fresh, cfg.form, u)[np.argsort(fresh.free_dofs)]
    assert abs(_by_dof(space_b, A_b) - A_f).max() <= 1e-14 * abs(A_f).max()
    got = b_b[np.argsort(space_b.free_dofs)]
    assert np.abs(got - b_f).max() <= 1e-14 * np.abs(b_f).max()

    shared = shared_dof_mask(pair, space_a)[space_a.free_dofs]
    assert 0 < shared.sum() < shared.size
    assert (A_b[shared] != A_a[shared]).nnz == 0
    assert np.array_equal(b_b[shared], b_a[shared])

    # with nothing left by mesh a, mesh b recomputes a's arrays: same system
    assert (assemble_matrix(space_b, cfg.form) != A_b).nnz == 0
    assert np.array_equal(assemble_load(space_b, cfg.form, u), b_b)
