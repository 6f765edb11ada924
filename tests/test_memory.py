"""A mesh holds its nodes and elements only, and whole-mesh passes hold one
block of samples or one chunk of matrix entries, not the whole mesh's.  A
pair's second system, solved from the first system's factor, holds a few of
its capacitance columns at a time.

tracemalloc counts numpy's allocations, so these peaks depend on the array
shapes alone, not on the machine.
"""

import tracemalloc

import numpy as np
import pytest

from nearproj import (NormSpec, PerturbationSpec, STIFFNESS, StudyConfig, assemble_load,
                      assemble_matrix, build_space, build_uniform_square,
                      interpolate_nodal, named_function, perturb_boundary_band,
                      projection, sobolev_norm_exact_diff, space)
from nearproj.quadrature import quadrature_rule
from nearproj.study import _pair, _spaces

# what a mesh may hold besides its node and element arrays: its boundary
# node set and the attributes' objects
MESH_SLACK = 64 * 2 ** 10
# bytes per quadrature point of one element that a pass may hold: its
# samples take about 10 (load) and 15 (H1 error norm) doubles per point
BYTES_PER_POINT = 24 * 8
# what does not grow with the block: element vectors, the load vector, tables
FIXED_BYTES = 2 ** 20
# bytes per entry of a chunk's element matrices that a matrix scatter may
# hold: the matrices, their row and column numbers and mask, the kept
# entries and their CSC conversion take about 48
BYTES_PER_ENTRY = 64
# the result is allocated at 17/16 of the nonzeros that the first chunk's
# nonzeros per (element, column) pair predict, and cut to its nonzeros at
# the end
RESULT_SLACK = 1.125


def _traced_peak(run):
    run()                       # quadrature rules and shape tables are cached
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_mesh_retains_its_nodes_and_elements_only():
    # 32,768 elements: stored per-element geometry (vertices, determinants,
    # inverse Jacobians, measures, diameters) would take 3.4 MB per mesh;
    # the band-perturbed mesh shares mesh a's element array
    build_uniform_square(8)
    tracemalloc.start()
    try:
        mesh = build_uniform_square(128)
        retained = tracemalloc.get_traced_memory()[0]
        assert retained <= mesh.nodes.nbytes + mesh.elements.nbytes + MESH_SLACK
        moved = perturb_boundary_band(mesh, mesh.h / 2 ** 0.5, (mesh.h / 4, 0.0))
        assert moved.elements is mesh.elements
        assert (tracemalloc.get_traced_memory()[0] - retained
                <= moved.nodes.nbytes + MESH_SLACK)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block", [512, 2048])
def test_load_and_error_norm_peaks_scale_with_the_block(block, monkeypatch):
    # 8192 P2 elements: the whole mesh's samples take 18 MB (load) and 33 MB
    # (H1 error norm), above either bound
    monkeypatch.setattr(space, "BLOCK_ELEMENTS", block)
    mesh = build_uniform_square(64)
    s = build_space(mesh, 2, dirichlet=True)
    u = named_function("sin_pi_2d")
    f = interpolate_nodal(s, u)
    for exactness, run in (
            (2 * s.degree + 4, lambda: assemble_load(s, STIFFNESS, u)),
            (2 * s.degree + 6, lambda: sobolev_norm_exact_diff(f, u, NormSpec(1, 2)))):
        points = len(quadrature_rule(2, exactness).weights)
        bound = FIXED_BYTES + block * points * BYTES_PER_POINT
        assert bound < mesh.n_elements * points * BYTES_PER_POINT / 2
        assert _traced_peak(run) < bound


@pytest.mark.parametrize("block", [512, 2048])
def test_matrix_peak_is_the_result_and_one_chunk(block, monkeypatch):
    # 8192 P2 elements: all their element matrices with their row and
    # column numbers, as one scatter of the whole mesh holds them, take
    # 18 MB at BYTES_PER_ENTRY, above either bound; the result takes 2.1 MB
    monkeypatch.setattr(space, "BLOCK_ELEMENTS", block)
    mesh = build_uniform_square(64)
    s = build_space(mesh, 2, dirichlet=True)
    A = assemble_matrix(s, STIFFNESS)
    result = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    entries = s.n_local ** 2
    bound = RESULT_SLACK * result + FIXED_BYTES + block * entries * BYTES_PER_ENTRY
    assert bound < mesh.n_elements * entries * BYTES_PER_ENTRY / 2
    assert _traced_peak(lambda: assemble_matrix(s, STIFFNESS)) < bound


def test_solving_from_the_first_factor_holds_no_block_of_columns():
    # the single-node P2 pair at n = 64: 19 of 16,129 free DOFs differ, and
    # an (n_free, 19) array would take 2.5 MB; the update solves four unit
    # columns per call, about 1.2 MB with the final solve
    cfg = StudyConfig(dimension=2, degree=2, form=STIFFNESS,
                      perturbation=PerturbationSpec("single-node", point=(0.25, 0.3125)),
                      u="sin_pi_2d", levels=3, n0=16)
    space_a, space_b = _spaces(_pair(cfg, 2), 2)
    u = named_function(cfg.u)
    A, b = assemble_matrix(space_a, STIFFNESS), assemble_load(space_a, STIFFNESS, u)
    lu = projection._factor(A)
    x = lu.solve(b)
    dofs = space_b.recomputed_dofs
    S = np.flatnonzero(dofs[space_b.free_dofs])
    D = (assemble_matrix(space_b, STIFFNESS, dofs)[:, S][S] - A[:, S][S]).toarray()
    rho = assemble_load(space_b, STIFFNESS, u, dofs)[S] - b[S] - D @ x[S]
    assert S.size == 19
    peak = _traced_peak(lambda: projection._updated_solve(lu, x, S, D, rho))
    assert peak < space_a.n_free * S.size * 8
