import numpy as np
import pytest

from nearproj import (FeFunction, FunctionSpec, InvalidArgumentError,
                      OutOfDomainError, PerturbationSpec, build_space, build_uniform_interval,
                      build_uniform_square, classify_pair, evaluate,
                      interpolate_nodal, intersection_project,
                      perturb_boundary_band, perturb_node_nearest)
from nearproj.space import (eval_at_physical, eval_on_elements, physical_points,
                            shape_grads, shape_values)

from conftest import jittered_mesh, random_fe_function


class TestBuildSpace:
    def test_1d_p1_counts(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        assert s.n_dofs == 9 and s.n_free == 7

    def test_1d_p2_counts(self, mesh1d8):
        s = build_space(mesh1d8, 2, dirichlet=True)
        assert s.n_dofs == 17 and s.n_free == 15

    def test_2d_p1_counts(self, mesh2d4):
        s = build_space(mesh2d4, 1, dirichlet=True)
        assert s.n_dofs == 25 and s.n_free == 9

    def test_2d_p2_counts(self, mesh2d4):
        s = build_space(mesh2d4, 2, dirichlet=True)
        # 25 vertices + 56 edges; constrained: 16 boundary vertices + 16 boundary edges
        assert s.n_dofs == 81 and s.n_free == 49

    @pytest.mark.parametrize("pert", ["none", "single", "band"])
    def test_p2_numbering_is_first_encounter(self, pert):
        # the edges are numbered in the order the elements meet them, which
        # keeps P2 coefficient vectors in the order of a per-element dict
        mesh = build_uniform_square(8)
        if pert == "single":
            mesh = perturb_node_nearest(mesh, (0.25, 0.25), (mesh.h / 4, 0.0))
        elif pert == "band":
            mesh = perturb_boundary_band(mesh, mesh.h / np.sqrt(2), (mesh.h / 4, 0.0))
        ids, coords, conn = {}, list(mesh.nodes), []
        mask = [k in mesh.boundary_nodes for k in range(mesh.n_nodes)]
        for el in mesh.elements.tolist():
            row = list(el)
            for i, j in ((0, 1), (1, 2), (2, 0)):
                key = (min(el[i], el[j]), max(el[i], el[j]))
                if key not in ids:
                    ids[key] = mesh.n_nodes + len(ids)
                    mid = 0.5 * (mesh.nodes[key[0]] + mesh.nodes[key[1]])
                    coords.append(mid)
                    mask.append(key[0] in mesh.boundary_nodes
                                and key[1] in mesh.boundary_nodes
                                and min(*mid, *(1.0 - mid)) <= 1e-12)
                row.append(ids[key])
            conn.append(row)
        s = build_space(mesh, 2, dirichlet=True)
        assert np.array_equal(s.element_dofs, conn)
        assert np.array_equal(s.dof_coords, coords)
        assert np.array_equal(s.dirichlet_mask, mask)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_p1_shares_the_element_array(self, dim, mesh1d8, mesh2d4):
        mesh = mesh1d8 if dim == 1 else mesh2d4
        assert build_space(mesh, 1, dirichlet=True).element_dofs is mesh.elements

    def test_bad_degree(self, mesh1d8):
        with pytest.raises(InvalidArgumentError):
            build_space(mesh1d8, 3, dirichlet=True)

    @pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_nodal_duality(self, dim, degree, mesh1d8, mesh2d4):
        mesh = mesh1d8 if dim == 1 else mesh2d4
        space = build_space(mesh, degree, dirichlet=False)
        elems = np.arange(0, mesh.n_elements, max(1, mesh.n_elements // 4))
        for e, verts, Jinv in zip(elems, *mesh.geometry(elems)[::2]):
            dofs = space.element_dofs[e]
            ref = np.einsum("de,ke->kd", Jinv, space.dof_coords[dofs] - verts[0])
            vals = shape_values(dim, degree, ref)
            assert np.allclose(vals, np.eye(len(dofs)), atol=1e-12)


class TestBatchedEvaluation:
    """Batched values and gradients against per-point physical gradients."""

    @pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_per_point_formula(self, dim, degree, rng):
        mesh = jittered_mesh(dim, rng)
        s = build_space(mesh, degree, dirichlet=False)
        f = random_fe_function(s, rng)
        c = f.coeffs[s.element_dofs]
        elems = np.arange(mesh.n_elements)
        ref = rng.random((7, dim)) / dim                  # inside the simplex
        verts, _, Jinv = mesh.geometry(elems)
        vals, grads = eval_on_elements(s, f.coeffs, elems, ref, Jinv)
        PG = shape_grads(dim, degree, ref) @ Jinv[:, None]
        assert np.allclose(vals, c @ shape_values(dim, degree, ref).T,
                           rtol=0, atol=1e-13)
        assert np.allclose(grads, np.einsum("kl,kqle->kqe", c, PG), rtol=0, atol=1e-12)
        # the same points given in physical coordinates
        pts = physical_points(verts, ref)
        vals_p, grads_p = eval_at_physical(s, f.coeffs, elems, pts, gradients=True)
        assert np.allclose(vals_p, vals, rtol=0, atol=1e-13)
        assert np.allclose(grads_p, grads, rtol=0, atol=1e-12)

    def test_empty_batch(self, mesh2d4):
        s = build_space(mesh2d4, 2, dirichlet=False)
        none = np.zeros(0, dtype=np.int64)
        vals, grads = eval_at_physical(s, np.zeros(s.n_dofs), none,
                                       np.zeros((0, 3, 2)), gradients=True)
        assert vals.shape == (0, 3) and grads.shape == (0, 3, 2)


class TestEvaluate:
    def test_affine_reproduced(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=False)
        f = interpolate_nodal(s, FunctionSpec(value=lambda x: x[:, 0],
                                              gradient=lambda x: np.ones_like(x)))
        for x in (0.0, 0.3, 0.625, 1.0):
            val, grad = evaluate(f, (x,))
            assert val == pytest.approx(x, abs=1e-14)
            assert grad[0] == pytest.approx(1.0, abs=1e-12)

    def test_hat_at_own_node(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=False)
        coeffs = np.zeros(s.n_dofs)
        coeffs[3] = 1.0
        val, _ = evaluate(FeFunction(s, coeffs), s.dof_coords[3])
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_p2_reproduces_quadratic(self, mesh2d4, rng):
        s = build_space(mesh2d4, 2, dirichlet=False)
        u = FunctionSpec(value=lambda x: x[:, 0] ** 2,
                         gradient=lambda x: np.column_stack([2 * x[:, 0],
                                                             np.zeros(len(x))]))
        f = interpolate_nodal(s, u)
        for _ in range(20):
            x = rng.random(2)
            val, grad = evaluate(f, x)
            assert val == pytest.approx(x[0] ** 2, abs=1e-12)
            assert grad[0] == pytest.approx(2 * x[0], abs=1e-11)
            assert grad[1] == pytest.approx(0.0, abs=1e-11)

    def test_outside_raises(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=False)
        f = FeFunction(s, np.zeros(s.n_dofs))
        with pytest.raises(OutOfDomainError):
            evaluate(f, (1.5,))

    def test_gradient_at_interface_takes_lowest_element(self, mesh1d8, rng):
        # at a shared node the value is continuous and the gradient comes from
        # the lower-index (left) element
        s = build_space(mesh1d8, 1, dirichlet=False)
        f = random_fe_function(s, rng)
        h = mesh1d8.h
        _, grad = evaluate(f, (0.5,))
        left_slope = (f.coeffs[4] - f.coeffs[3]) / h
        assert grad[0] == pytest.approx(left_slope, abs=1e-12)


class TestInterpolate:
    def test_sin_midpoint_coefficient(self, mesh1d8, sin1d):
        s = build_space(mesh1d8, 1, dirichlet=True)
        f = interpolate_nodal(s, sin1d)
        assert f.coeffs[4] == pytest.approx(1.0, abs=1e-15)   # node at x = 0.5

    def test_reproduces_member(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=False)
        hat = np.zeros(s.n_dofs)
        hat[5] = 1.0
        g = FeFunction(s, hat)
        u = FunctionSpec(value=lambda x: np.array([evaluate(g, p)[0] for p in x]))
        f = interpolate_nodal(s, u)
        assert np.allclose(f.coeffs, hat, atol=1e-14)

    def test_interpolation_order_two(self, sin1d):
        from nearproj import NormSpec, sobolev_norm_exact_diff
        errs = []
        for n in (8, 16, 32):
            s = build_space(build_uniform_interval(n), 1, dirichlet=True)
            f = interpolate_nodal(s, sin1d)
            errs.append(sobolev_norm_exact_diff(f, sin1d, NormSpec(0, 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.02)


class TestIntersectionProject:
    def test_identity_on_identical_pair(self, mesh1d8, rng):
        pair = classify_pair(mesh1d8, mesh1d8, 1.0)
        s = build_space(mesh1d8, 1, dirichlet=True)
        f = random_fe_function(s, rng)
        g = intersection_project(pair, f)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_hat_at_moved_node_dropped(self, pair1d8):
        s = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        coeffs = np.zeros(s.n_dofs)
        coeffs[2] = 1.0     # node nearest 1/4, which the other mesh moves
        g = intersection_project(pair1d8, FeFunction(s, coeffs))
        assert np.all(g.coeffs == 0.0)

    def test_linf_stability(self, pair1d8, pair2d4, rng):
        # kept coefficients are a subset, so the P1 sup never grows
        for pair in (pair1d8, pair2d4):
            s = build_space(pair.mesh_a, 1, dirichlet=True)
            other = build_space(pair.mesh_b, 1, dirichlet=True)
            for _ in range(500):
                f = random_fe_function(s, rng)
                scale = np.abs(f.coeffs).max()
                if scale == 0:
                    continue
                f = FeFunction(s, f.coeffs / scale)
                g = intersection_project(pair, f, other_space=other)
                assert np.abs(g.coeffs).max() <= 1.0 + 1e-15

    def test_idempotent(self, pair1d8, pair2d4, rng):
        for pair, degree in ((pair1d8, 1), (pair1d8, 2), (pair2d4, 1), (pair2d4, 2)):
            s = build_space(pair.mesh_a, degree, dirichlet=True)
            other = build_space(pair.mesh_b, degree, dirichlet=True)
            f = random_fe_function(s, rng)
            once = intersection_project(pair, f, other_space=other)
            twice = intersection_project(pair, once, other_space=other)
            assert np.array_equal(once.coeffs, twice.coeffs)

    def test_agrees_outside_halo(self, pair2d4, rng):
        # pi_h f equals f on every element all of whose DOFs are kept
        from nearproj.space import shared_dof_mask
        s = build_space(pair2d4.mesh_a, 1, dirichlet=True)
        other = build_space(pair2d4.mesh_b, 1, dirichlet=True)
        keep = shared_dof_mask(pair2d4, s)
        f = random_fe_function(s, rng)
        g = intersection_project(pair2d4, f, other_space=other)
        full = set(np.where(keep[s.element_dofs].all(axis=1))[0].tolist())
        assert full            # some elements keep all their shape functions
        pts = rng.random((400, 2))
        hits = 0
        for x in pts:
            from nearproj.space import locate_element
            e, _ = locate_element(s.mesh, x)
            if e in full:
                hits += 1
                assert evaluate(g, x)[0] == pytest.approx(evaluate(f, x)[0],
                                                          abs=1e-12)
        assert hits > 100

    def test_representable_in_both_spaces(self, pair2d4, rng):
        s = build_space(pair2d4.mesh_a, 1, dirichlet=True)
        other = build_space(pair2d4.mesh_b, 1, dirichlet=True)
        f = random_fe_function(s, rng)
        g = intersection_project(pair2d4, f, other_space=other)
        # the spaces share their element array, so DOF k of one is DOF k of
        # the other; every kept DOF sits at the same point in both
        kept = np.nonzero(g.coeffs)[0]
        assert kept.size
        assert np.array_equal(s.dof_coords[kept], other.dof_coords[kept])
        gb = FeFunction(other, g.coeffs)
        for _ in range(50):
            x = rng.random(2)
            assert evaluate(g, x)[0] == pytest.approx(evaluate(gb, x)[0], abs=1e-12)

    def test_l2_stability_constant_bounded(self, rng):
        # measured L2 stability constant does not grow under refinement
        from nearproj import NormSpec, fe_norm
        consts = []
        for n in (8, 16, 32):
            m = build_uniform_interval(n)
            moved = perturb_node_nearest(m, (0.25,), (m.h / 4,))
            pair = classify_pair(m, moved, 1.0)
            s = build_space(m, 1, dirichlet=True)
            other = build_space(moved, 1, dirichlet=True)
            worst = 0.0
            for _ in range(40):
                f = random_fe_function(s, rng)
                g = intersection_project(pair, f, other_space=other)
                denom = fe_norm(f, NormSpec(0, 2))
                if denom > 1e-12:
                    worst = max(worst, fe_norm(g, NormSpec(0, 2)) / denom)
            consts.append(worst)
        assert consts[1] <= 1.1 * consts[0] + 1e-12
        assert consts[2] <= 1.1 * consts[1] + 1e-12

    def test_degree_mismatch_raises(self, pair1d8, rng):
        s = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        other = build_space(pair1d8.mesh_b, 2, dirichlet=True)
        f = random_fe_function(s, rng)
        with pytest.raises(InvalidArgumentError):
            intersection_project(pair1d8, f, other_space=other)



class TestDissectionOrder:
    """`free_dofs` lists the free DOFs in the nested-dissection order that
    every assembled system and its LU follow."""

    @pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_permutes_the_free_dofs(self, dim, degree, rng):
        s = build_space(jittered_mesh(dim, rng), degree, dirichlet=True)
        assert np.array_equal(np.sort(s.free_dofs), np.flatnonzero(~s.dirichlet_mask))
        s = build_space(build_uniform_square(32), degree, dirichlet=False)
        assert np.array_equal(np.sort(s.free_dofs), np.arange(s.n_dofs))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_1d_is_coordinate_order(self, degree, rng):
        for mesh in (build_uniform_interval(64), jittered_mesh(1, rng)):
            s = build_space(mesh, degree, dirichlet=True)
            assert np.all(np.diff(s.dof_coords[s.free_dofs, 0]) > 0)

    @staticmethod
    def _assert_pairs_share_order(perturbations, dimension, degree, ns):
        build = build_uniform_interval if dimension == 1 else build_uniform_square
        for n in ns:
            mesh = build(n)
            own = build_space(mesh, degree, dirichlet=True).free_dofs
            for pert in perturbations:
                other = build_space(pert.apply(mesh), degree, dirichlet=True)
                assert np.array_equal(own, other.free_dofs), (pert, degree, n)

    def test_single_node_pairs_share_order(self):
        # the 25 coarse nodes in [1/8, 3/8]^2 that a single-node study moves
        perts = [PerturbationSpec("single-node", point=(i / 16, j / 16), fraction=0.25)
                 for i in range(2, 7) for j in range(2, 7)]
        self._assert_pairs_share_order(perts, 2, 2, (16, 32, 64, 128))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_boundary_band_pairs_share_order(self, degree):
        pert = PerturbationSpec("boundary-band", fraction=0.25)
        self._assert_pairs_share_order([pert], 2, degree, (8, 16, 32, 64, 128, 256))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_1d_single_node_pair_shares_order(self, degree):
        pert = PerturbationSpec("single-node", point=(0.25,), fraction=0.25)
        self._assert_pairs_share_order([pert], 1, degree, (8, 64, 1024))
