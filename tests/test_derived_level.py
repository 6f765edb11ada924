"""Mesh b's level is derived from mesh a's: its mesh is built from a's element
array with some nodes moved, so every shared element has a's geometry bit for
bit; its space takes a's numbering, and its system is a's system with the
columns and rows of the DOFs that a differing element touches assembled on
mesh b (a DOF mask).  Each part must equal what building mesh b's level from
scratch gives.  When few DOFs differ, mesh b's system is solved from mesh
a's factor, to within rounding of its own LU solve."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nearproj import (MASS, STIFFNESS, BilinearFormSpec, InvalidArgumentError, Mesh,
                      PerturbationSpec, StudyConfig, assemble_load, assemble_matrix,
                      build_space, cli, forms, named_function, project, project_pair,
                      projection)
from nearproj.cli import TABLES
from nearproj.space import shared_dof_mask
from nearproj.study import _pair, _spaces

# (table, config): the 1-D single-node pair, the table-4 and table-5 2-D
# single-node pair, and both forms of the table-6 band pair
CONFIGS = [(1, 0), (2, 1), (4, 0), (5, 0), (6, 0), (6, 1)]
ADR = BilinearFormSpec("adr", kappa=2.0, velocity=(1.0, -0.5))
# (table, config, form): each config's own form, a stiffness form with a
# finite delta on the 2-D single-node pair and an adr form on the band pair
# and on the 2-D single-node pair
SYSTEMS = [pytest.param(table, index, TABLES[table].configs[index].form,
                        id=f"{table}-{index}") for table, index in CONFIGS]
SYSTEMS += [pytest.param(4, 0, BilinearFormSpec("stiffness", delta=1.0), id="4-0-delta1"),
            pytest.param(6, 1, ADR, id="6-1-adr"),
            pytest.param(4, 0, ADR, id="4-0-adr")]
# the single-node P2 pair of the benchmark's node_p2 workload
NODE_P2 = StudyConfig(dimension=2, degree=2, form=STIFFNESS,
                      perturbation=PerturbationSpec("single-node", point=(0.25, 0.3125)),
                      u="sin_pi_2d", levels=4, n0=16)


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
    assert pair.mesh_b.h == fresh.h
    for got, want in zip(pair.mesh_b.geometry(), fresh.geometry()):
        assert np.array_equal(got, want)
    # the shared elements carry mesh a's geometry, sign of zero included
    shared = np.flatnonzero(pair.shared)
    for a, b in zip(pair.mesh_a.geometry(shared), pair.mesh_b.geometry(shared)):
        assert a.tobytes() == b.tobytes()
    assert pair.mesh_b.elements is pair.mesh_a.elements
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


def _system_b(space_a, space_b, form, u):
    """(A_a, b_a, A_b, b_b): mesh b's system as `project_pair` builds it to
    factorise it, and mesh a's system it is built from, with h^delta (h:
    mesh b's) times mesh a's mass system added for a finite delta."""
    form_a = replace(form, delta=math.inf)
    A_a, b_a = assemble_matrix(space_a, form_a), assemble_load(space_a, form_a, u)
    A_b, b_b = projection._spliced(space_b, form_a, u, A_a, b_a)
    if math.isfinite(form.delta):
        # mesh b adds h^delta times its mass system, with mesh b's h
        M_a, m_a = assemble_matrix(space_a, MASS), assemble_load(space_a, MASS, u)
        M_b, m_b = projection._spliced(space_b, MASS, u, M_a, m_a)
        scale = space_b.mesh.h ** form.delta
        A_a, b_a = A_a + scale * M_a, b_a + scale * m_a
        A_b, b_b = A_b + scale * M_b, b_b + scale * m_b
    return A_a, b_a, A_b, b_b


@pytest.mark.parametrize("table,index,form", SYSTEMS)
def test_system_b_matches_a_fresh_assembly_and_shares_a_rows(table, index, form):
    cfg, pair = _level(table, index)
    u = named_function(cfg.u)
    space_a, space_b = _spaces(pair, cfg.degree)
    A_a, b_a, A_b, b_b = _system_b(space_a, space_b, form, u)
    # the masked assembly holds every entry of the recomputed columns and
    # nothing else, bitwise those of mesh b's system
    dofs = space_b.recomputed_dofs
    S = np.flatnonzero(dofs[space_b.free_dofs])
    columns = assemble_matrix(space_b, form, dofs)
    assert columns.nnz == A_b[:, S].nnz
    assert (columns[:, S] != A_b[:, S]).nnz == 0
    assert np.array_equal(assemble_load(space_b, form, u, dofs)[S], b_b[S])

    fresh = build_space(_from_scratch(pair.mesh_b), cfg.degree, dirichlet=True)
    A_f = _by_dof(fresh, assemble_matrix(fresh, form))
    b_f = assemble_load(fresh, form, u)[np.argsort(fresh.free_dofs)]
    assert abs(_by_dof(space_b, A_b) - A_f).max() <= 1e-14 * abs(A_f).max()
    got = b_b[np.argsort(space_b.free_dofs)]
    assert np.abs(got - b_f).max() <= 1e-14 * np.abs(b_f).max()

    shared = shared_dof_mask(pair, space_a)[space_a.free_dofs]
    assert 0 < shared.sum() < shared.size
    assert (A_b[shared] != A_a[shared]).nnz == 0
    assert np.array_equal(b_b[shared], b_a[shared])


def _count_factorisations(monkeypatch):
    """The sizes of the systems that `projection._factor` factorises from now on."""
    sizes = []

    def counted(A):
        sizes.append(A.shape[0])
        return factor(A)

    factor = projection._factor
    monkeypatch.setattr(projection, "_factor", counted)
    return sizes


def _relative_residual(space, form, u, coeffs):
    A, b = assemble_matrix(space, form), assemble_load(space, form, u)
    return np.linalg.norm(A @ coeffs[space.free_dofs] - b) / np.linalg.norm(b)


@pytest.mark.parametrize("table,index,form", SYSTEMS)
def test_project_pair_is_two_projections(table, index, form, monkeypatch):
    cfg, pair = _level(table, index)
    u = named_function(cfg.u)
    space_a, space_b = _spaces(pair, cfg.degree)
    factorised = _count_factorisations(monkeypatch)
    f_a, f_b = project_pair(space_a, space_b, form, u)
    reused = len(factorised) == 1
    # the 2-D single-node pairs reuse mesh a's factor, unless h^delta changes every row
    assert reused == (table in (4, 5) and math.isinf(form.delta))
    assert f_a.space is space_a and f_b.space is space_b
    assert np.array_equal(f_a.coeffs,
                          project(space_a, replace(form, delta=math.inf), u).coeffs)
    direct = project(space_b, form, u).coeffs
    if not reused:
        _, _, A_b, b_b = _system_b(space_a, space_b, form, u)
        assert f_b.coeffs[space_b.free_dofs].tobytes() == projection._factor(A_b).solve(
            b_b).tobytes()
        assert np.abs(f_b.coeffs - direct).max() <= 1e-12 * np.abs(direct).max()
        return
    # solved from mesh a's factor: the direct solution up to rounding, and as
    # accurate a solution of mesh b's system
    assert np.abs(f_b.coeffs - direct).max() <= 1e-12 * np.abs(direct).max()
    assert (_relative_residual(space_b, form, u, f_b.coeffs)
            <= 2 * _relative_residual(space_b, form, u, direct))


def test_the_splice_path_releases_mesh_a_factor_before_it_assembles_on_mesh_b(
        monkeypatch):
    # the band pair factorises both systems; holding mesh a's LU while
    # mesh b's system is assembled would raise the peak of a large level
    cfg = TABLES[6].configs[1]
    pair = _pair(cfg, 3)
    space_a, space_b = _spaces(pair, cfg.degree)
    events = []

    class Factor:
        def __init__(self, A):
            self.lu = factor(A)
            self.nnz = self.lu.nnz
            events.append("factor")

        def solve(self, b):
            return self.lu.solve(b)

        def __del__(self):
            events.append("release")

    def on_mesh_b(name, wrapped):
        def assemble(space, *args):
            if space is space_b:
                events.append(name)
            return wrapped(space, *args)
        return assemble

    factor = projection._factor
    monkeypatch.setattr(projection, "_factor", Factor)
    for name in ("assemble_matrix", "assemble_load"):
        monkeypatch.setattr(projection, name, on_mesh_b(name, getattr(projection, name)))
    project_pair(space_a, space_b, cfg.form, named_function(cfg.u))
    assert events == ["factor", "release", "assemble_matrix", "assemble_load",
                      "factor", "release"]


@pytest.mark.parametrize("cfg,level,form,count", [
    (TABLES[4].configs[0], 3, None, 1),
    (TABLES[5].configs[0], 3, None, 1),
    (NODE_P2, 2, None, 1),                                   # P2, n = 64
    (TABLES[6].configs[1], 3, None, 2),                      # the band pair
    (TABLES[2].configs[1], 8, None, 2),                      # 1-D P2, n = 2048
    (TABLES[5].configs[0], 3, BilinearFormSpec("stiffness", delta=1.0), 2),
], ids=["table-4", "table-5", "node-p2-64", "band", "1d-2048", "delta1"])
def test_a_pair_factorises_mesh_b_only_when_many_dofs_differ(cfg, level, form, count,
                                                            monkeypatch):
    pair = _pair(cfg, level)
    space_a, space_b = _spaces(pair, cfg.degree)
    factorised = _count_factorisations(monkeypatch)
    project_pair(space_a, space_b, form or cfg.form, named_function(cfg.u))
    assert factorised == [space_a.n_free] * count


def test_identical_meshes_give_one_projection_bit_for_bit():
    cfg = replace(NODE_P2, perturbation=PerturbationSpec("single-node", point=(0.25, 0.3125),
                                                         fraction=0.0))
    pair = _pair(cfg, 1)
    space_a, space_b = _spaces(pair, cfg.degree)
    assert not space_b.recomputed_dofs.any()
    f_a, f_b = project_pair(space_a, space_b, cfg.form, named_function(cfg.u))
    assert f_b.coeffs.tobytes() == f_a.coeffs.tobytes()


def test_project_pair_leaves_nothing_on_mesh_a_space(pair1d8):
    # two lookups of one name build two unequal functions (new lambdas each)
    u, same_u = named_function("power_p3"), named_function("power_p3")
    assert u != same_u
    space_a, space_b = _spaces(pair1d8, 1)
    before = set(vars(space_a))
    project_pair(space_a, space_b, STIFFNESS, u)
    project(space_b, STIFFNESS, same_u)
    assert set(vars(space_a)) == before
    # no cache of systems: every attribute is the mesh, a number, None or a
    # write-protected array
    for name, value in vars(space_a).items():
        assert (value is None or value is space_a.mesh or np.isscalar(value)
                or isinstance(value, np.ndarray) and not value.flags.writeable), name


def test_project_pair_rejects_a_space_not_derived_from_the_first(pair1d8):
    space_a, space_b = _spaces(pair1d8, 1)
    other_a, _ = _spaces(pair1d8, 1)
    u = named_function("sin_pi")
    with pytest.raises(InvalidArgumentError, match="derived from space_a"):
        project_pair(other_a, space_b, MASS, u)
    with pytest.raises(InvalidArgumentError, match="derived from space_a"):
        project_pair(space_a, other_a, MASS, u)


def test_table_6_assembles_each_system_once_per_config_and_level(monkeypatch):
    # 2 configs x 6 levels: one full assembly on mesh a and one masked to the
    # recomputed DOFs on mesh b, for the matrix (one _scatter call) and for
    # the load (one _per_element call, on the elements that touch them)
    counts = {}

    def counting(system, wrapped):
        def counted(space, restricted, *args):
            key = (system, "full" if restricted is None else "recomputed")
            counts[key] = counts.get(key, 0) + 1
            return wrapped(space, restricted, *args)
        return counted

    monkeypatch.setattr(forms, "_scatter", counting("matrix", forms._scatter))
    monkeypatch.setattr(forms, "_per_element", counting("load", forms._per_element))
    assert cli.main(["table", "6", "--quiet"]) == 0
    assert counts == {("matrix", "full"): 12, ("matrix", "recomputed"): 12,
                      ("load", "full"): 12, ("load", "recomputed"): 12}
