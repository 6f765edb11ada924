from fractions import Fraction

import numpy as np
import pytest

from nearproj import (STIFFNESS, CrossMeshDiff, DegenerateMeshError,
                      InvalidArgumentError, Mesh, NormSpec, assemble_matrix, build_space,
                      build_uniform_interval, build_uniform_square, classify_pair,
                      cross_mesh_norm, perturb_boundary_band, perturb_node_nearest,
                      project)
from nearproj.cli import TABLES
from nearproj.mesh import _GEOMETRY, COORD_TOL
from nearproj.space import shared_dof_mask
from nearproj.study import _pair, _spaces


class TestUniformInterval:
    def test_n8(self):
        m = build_uniform_interval(8)
        assert m.n_nodes == 9
        assert np.allclose(m.nodes[:, 0], np.arange(9) / 8, atol=0)
        assert m.h == pytest.approx(0.125, abs=1e-15)
        assert m.boundary_nodes == {0, 8}

    def test_smallest(self):
        m = build_uniform_interval(2)
        assert m.n_elements == 2
        assert np.allclose(m.nodes[:, 0], [0.0, 0.5, 1.0])

    def test_measures_sum_n256(self):
        m = build_uniform_interval(256)
        assert m.h == pytest.approx(1 / 256)
        assert m.n_elements == 256
        assert m.domain_measure == pytest.approx(1.0, abs=1e-12)

    def test_too_small_raises(self):
        with pytest.raises(InvalidArgumentError):
            build_uniform_interval(1)


class TestUniformSquare:
    def test_n4(self):
        m = build_uniform_square(4)
        assert m.n_nodes == 25
        assert m.n_elements == 32
        assert m.h == pytest.approx(np.sqrt(2) / 4, abs=1e-15)

    def test_smallest(self):
        m = build_uniform_square(2)
        assert m.n_elements == 8
        assert m.domain_measure == pytest.approx(1.0, abs=1e-12)

    def test_measures_sum_n64(self):
        m = build_uniform_square(64)
        assert m.n_elements == 8192
        assert m.domain_measure == pytest.approx(1.0, abs=1e-12)

    def test_counterclockwise(self):
        m = build_uniform_square(3)
        assert np.all(m.jacobian_dets > 0)

    def test_element_order_and_boundary(self):
        # squares row by row, lower triangle first; nodes row by row in y
        n = 3
        m = build_uniform_square(n)
        elements = []
        for j in range(n):
            for i in range(n):
                v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
                v01, v11 = v00 + n + 1, v10 + n + 1
                elements += [[v00, v10, v11], [v00, v11, v01]]
        assert np.array_equal(m.elements, elements)
        on_box = np.any((m.nodes == 0.0) | (m.nodes == 1.0), axis=1)
        assert m.boundary_nodes == frozenset(np.flatnonzero(on_box).tolist())

    def test_shape_regularity(self):
        for m in (build_uniform_square(4), build_uniform_square(16)):
            assert np.all(m.element_diameters / m.inradii() <= 10.0)


class TestPerturbNodeNearest:
    def test_1d_quarter_point(self):
        m = build_uniform_interval(8)
        out = perturb_node_nearest(m, (0.25,), (m.h / 4,))
        assert out.nodes[2, 0] == pytest.approx(0.28125, abs=1e-15)
        assert np.array_equal(out.elements, m.elements)

    def test_2d_quarter_point(self):
        m = build_uniform_square(4)
        out = perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0.0))
        moved = out.nodes[np.argmin(np.sum((m.nodes - [0.25, 0.25]) ** 2, axis=1))]
        assert moved[0] == pytest.approx(0.25 + np.sqrt(2) / 16, abs=1e-15)
        assert moved[1] == pytest.approx(0.25, abs=1e-15)

    def test_zero_displacement_identity(self):
        m = build_uniform_square(4)
        out = perturb_node_nearest(m, (0.25, 0.25), (0.0, 0.0))
        assert np.array_equal(out.nodes, m.nodes)

    def test_inverting_displacement_raises(self):
        m = build_uniform_interval(8)
        with pytest.raises(DegenerateMeshError):
            perturb_node_nearest(m, (0.25,), (2 * m.h,))

    def test_inverting_displacement_raises_2d(self):
        # node 6 sits at (1/4, 1/4); moved past x = 1/2 it inverts the
        # triangles it shares with the node at (1/2, 1/4)
        m = build_uniform_square(4)
        with pytest.raises(DegenerateMeshError,
                           match="displacement of node 6 inverts an incident element"):
            perturb_node_nearest(m, (0.25, 0.25), (0.3, 0.0))

    def test_move_below_coord_tol_keeps_every_element_shared(self, sin2d):
        # mesh b reuses mesh a's space and element matrices on exactly the
        # elements that pair.shared marks: a move of at most COORD_TOL is not
        # applied, so the level is a's bit for bit, and the cross norm's
        # shared pass reads 0
        m = build_uniform_square(4)
        out = perturb_node_nearest(m, (0.25, 0.25), (COORD_TOL / 2, 0.0))
        assert out.nodes[6, 0] == m.nodes[6, 0]
        pair = classify_pair(m, out, 2.0)
        assert pair.shared.all()
        for name in _GEOMETRY:
            assert np.array_equal(getattr(out, name), getattr(m, name)), name
        space_a, space_b = _spaces(pair, 2)
        assert (assemble_matrix(space_a, STIFFNESS)
                != assemble_matrix(space_b, STIFFNESS)).nnz == 0
        diff = CrossMeshDiff(project(space_a, STIFFNESS, sin2d),
                             project(space_b, STIFFNESS, sin2d), pair)
        assert cross_mesh_norm(diff, NormSpec(1, 2)) == 0.0

    def test_boundary_nearest_raises(self):
        m = build_uniform_interval(8)
        with pytest.raises(InvalidArgumentError):
            perturb_node_nearest(m, (0.0,), (m.h / 4,))

    def test_shape_regularity_preserved(self):
        m = build_uniform_square(8)
        out = perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0.0))
        assert np.all(out.element_diameters / out.inradii() <= 10.0)


def band_node_count_oracle(n):
    # interior lattice nodes at distance exactly 1/n from the closest side
    count = 0
    for i in range(1, n):
        for j in range(1, n):
            if min(i, j, n - i, n - j) == 1:
                count += 1
    return count


class TestPerturbBoundaryBand:
    def test_moved_count_n8(self):
        m = build_uniform_square(8)
        out = perturb_boundary_band(m, m.h / np.sqrt(2), (m.h / 4, 0.0))
        moved = np.where(~np.all(out.nodes == m.nodes, axis=1))[0]
        assert len(moved) == band_node_count_oracle(8) == 24

    def test_zero_displacement_identity(self):
        m = build_uniform_square(4)
        out = perturb_boundary_band(m, m.h / np.sqrt(2), (0.0, 0.0))
        assert np.array_equal(out.nodes, m.nodes)

    def test_1d_raises(self):
        with pytest.raises(InvalidArgumentError):
            perturb_boundary_band(build_uniform_interval(4), 0.25, (0.1,))

    def test_inversion_raises(self):
        m = build_uniform_square(4)
        with pytest.raises(DegenerateMeshError):
            perturb_boundary_band(m, m.h / np.sqrt(2), (1.5 / 4, 0.0))


class TestClassifyPair:
    def test_identical(self):
        m = build_uniform_square(4)
        pair = classify_pair(m, m, 2.0)
        assert len(pair.shared_elements) == m.n_elements
        assert pair.differing_region_measure == pytest.approx(0.0, abs=1e-14)

    def test_1d_single_node(self, pair1d8):
        # only the two intervals incident to the moved node change
        assert pair1d8.differing_region_measure == pytest.approx(0.25, abs=1e-14)
        assert len(pair1d8.shared_elements) == 6

    def test_2d_single_node(self, pair2d4):
        # six incident triangles of area 1/32 each
        assert pair2d4.differing_region_measure == pytest.approx(0.1875, abs=1e-13)
        assert len(pair2d4.shared_elements) == 32 - 6

    def test_symmetric(self):
        m = build_uniform_square(4)
        moved = perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0.0))
        ab = classify_pair(m, moved, 2.0)
        ba = classify_pair(moved, m, 2.0)
        assert ab.differing_region_measure == pytest.approx(
            ba.differing_region_measure, abs=1e-14)
        assert {(j, i) for i, j in ab.shared_elements} == set(ba.shared_elements)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InvalidArgumentError):
            classify_pair(build_uniform_interval(4), build_uniform_square(4), 1.0)

    def test_different_element_arrays_raise(self):
        # a pair is a mesh and a copy with moved nodes: the same nodes and
        # element rows, matched by index
        with pytest.raises(InvalidArgumentError, match="element array"):
            classify_pair(build_uniform_square(4), build_uniform_square(8), 2.0)
        m = build_uniform_square(4)
        reversed_rows = Mesh(2, m.nodes, m.elements[::-1], m.boundary_nodes)
        with pytest.raises(InvalidArgumentError, match="element array"):
            classify_pair(m, reversed_rows, 2.0)

    def test_node_straddling_a_rounding_boundary(self):
        # 1/1024 * 1e9 = 976562.5 lies on a rounding boundary of the 1e-9 keys:
        # nudged by +4e-15 and -4e-15 it rounds to neighbouring keys, yet the
        # two copies agree to within 1e-14 and must still match
        m = build_uniform_interval(1024)
        copies = []
        for nudge in (4e-15, -4e-15):
            nodes = m.nodes.copy()
            nodes[1, 0] += nudge
            copies.append(Mesh(1, nodes, m.elements, m.boundary_nodes))
        a, b = copies
        keys = np.round(np.array([a.nodes[1, 0], b.nodes[1, 0]]) * 1e9)
        assert keys[0] != keys[1]
        pair = classify_pair(a, b, 1.0)
        assert len(pair.shared_elements) == 1024
        assert pair.differing_region_measure == 0.0
        sa, sb = build_space(a, 1, dirichlet=True), build_space(b, 1, dirichlet=True)
        assert shared_dof_mask(pair, sa).all() and shared_dof_mask(pair, sb).all()


class TestGammaScaling:
    def test_single_node_gamma2(self):
        # measure * n^2 constant across the family
        consts = []
        for n in (4, 8, 16):
            m = build_uniform_square(n)
            moved = perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0.0))
            pair = classify_pair(m, moved, 2.0)
            consts.append(pair.differing_region_measure * n ** 2)
        assert max(consts) - min(consts) <= 1e-12

    def test_boundary_band_gamma1(self):
        consts = []
        for n in (4, 8, 16):
            m = build_uniform_square(n)
            moved = perturb_boundary_band(m, m.h / np.sqrt(2), (m.h / 4, 0.0))
            pair = classify_pair(m, moved, 1.0)
            consts.append(pair.differing_region_measure * n)
        assert min(consts) > 0
        assert max(consts) / min(consts) <= 2.0


class TestExactGeometry:
    """On the differing elements of these pairs the closed-form determinant
    a e - b c equals that of the exact rational Jacobian of the nodes, and
    each entry of the inverse is the exact inverse's entry correctly rounded."""

    @pytest.mark.parametrize("table", [4, 6])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_differing_elements_match_the_rational_jacobian(self, table, level):
        pair = _pair(TABLES[table].configs[0], level)
        for mesh in (pair.mesh_a, pair.mesh_b):
            for k in pair.differing_elements_a():
                (x0, y0), (x1, y1), (x2, y2) = (
                    map(Fraction, mesh.nodes[i]) for i in mesh.elements[k])
                a, b, c, e = x1 - x0, x2 - x0, y1 - y0, y2 - y0
                det = a * e - b * c
                assert Fraction(mesh.jacobian_dets[k]) == det, k
                exact = [[float(e / det), float(-b / det)],
                         [float(-c / det), float(a / det)]]
                assert mesh.inverse_jacobians[k].tolist() == exact, k
