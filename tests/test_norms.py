import dataclasses
import math

import numpy as np
import pytest

from nearproj import (CrossMeshDiff, FeFunction, FunctionSpec, GeometryError,
                      InvalidArgumentError, MASS, NormSpec, STIFFNESS, build_space,
                      build_uniform_interval, build_uniform_square, classify_pair,
                      cross_mesh_norm, fe_norm, interpolate_nodal, named_function,
                      perturb_node_nearest, project, sobolev_norm_exact_diff,
                      support_measure)
from nearproj.norms import fe_component_norms
from nearproj.quadrature import quadrature_rule
from nearproj.space import eval_at_physical, eval_on_elements, evaluate, physical_points

from conftest import random_fe_function


class TestSobolevNormExactDiff:
    def test_projection_of_member_is_zero(self, mesh1d8, rng):
        s = build_space(mesh1d8, 1, dirichlet=True)
        g = random_fe_function(s, rng)
        u = FunctionSpec(value=lambda x: np.array([evaluate(g, p)[0] for p in x]),
                         gradient=lambda x: np.array([evaluate(g, p)[1] for p in x]))
        r = project(s, MASS, u)
        assert sobolev_norm_exact_diff(r, u, NormSpec(0, 2)) <= 1e-11

    def test_norm_of_sin_against_zero(self, mesh1d8, sin1d):
        s = build_space(mesh1d8, 1, dirichlet=True)
        zero = FeFunction(s, np.zeros(s.n_dofs))
        val = sobolev_norm_exact_diff(zero, sin1d, NormSpec(0, 2))
        assert val == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_interpolant_error_matches_simpson_oracle(self, mesh1d8, sin1d):
        s = build_space(mesh1d8, 1, dirichlet=True)
        f = interpolate_nodal(s, sin1d)
        xs = np.linspace(0.0, 1.0, 100001)
        vals = np.array([evaluate(f, (x,))[0] for x in xs])
        diff2 = (vals - np.sin(np.pi * xs)) ** 2
        oracle = math.sqrt(scipy_simpson(diff2, xs))
        assert sobolev_norm_exact_diff(f, sin1d, NormSpec(0, 2)) == \
            pytest.approx(oracle, abs=1e-8)

    def test_missing_gradient_raises(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        f = FeFunction(s, np.zeros(s.n_dofs))
        with pytest.raises(InvalidArgumentError):
            sobolev_norm_exact_diff(f, FunctionSpec(value=lambda x: x[:, 0]),
                                    NormSpec(1, 2))

    def test_region_restriction(self, mesh1d8, sin1d):
        s = build_space(mesh1d8, 1, dirichlet=True)
        zero = FeFunction(s, np.zeros(s.n_dofs))
        full = sobolev_norm_exact_diff(zero, sin1d, NormSpec(0, 2))
        left = sobolev_norm_exact_diff(zero, sin1d,
                                       NormSpec(0, 2, region=frozenset(range(4))))
        right = sobolev_norm_exact_diff(zero, sin1d,
                                        NormSpec(0, 2, region=frozenset(range(4, 8))))
        assert math.hypot(left, right) == pytest.approx(full, abs=1e-13)


def scipy_simpson(y, x):
    from scipy.integrate import simpson
    return simpson(y, x=x)


class TestCrossMeshNorm:
    def test_identical_functions_identical_meshes(self, mesh1d8, rng):
        pair = classify_pair(mesh1d8, mesh1d8, 1.0)
        s = build_space(mesh1d8, 1, dirichlet=True)
        f = random_fe_function(s, rng)
        g = FeFunction(build_space(mesh1d8, 1, dirichlet=True), f.coeffs)
        d = CrossMeshDiff(f, g, pair)
        assert cross_mesh_norm(d, NormSpec(0, 2)) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2])
    def test_projection_against_itself_is_exactly_zero(self, dim, sin1d, sin2d):
        # the same projection on both sides of an identical pair: every
        # coefficient difference is 0, so the norm is 0, not rounding noise
        m = build_uniform_interval(8) if dim == 1 else build_uniform_square(4)
        pair = classify_pair(m, m, float(dim))
        f = project(build_space(m, 2, dirichlet=True), STIFFNESS,
                    sin1d if dim == 1 else sin2d)
        for s in (0, 1):
            assert cross_mesh_norm(CrossMeshDiff(f, f, pair), NormSpec(s, 2)) == 0.0

    def test_1d_hat_closed_form(self, pair1d8):
        # hat at the moved node of the perturbed grid vs zero on the uniform one:
        # integral of hat^2 over intervals of lengths l1, l2 is (l1 + l2)/3
        sb = build_space(pair1d8.mesh_b, 1, dirichlet=True)
        sa = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        coeffs = np.zeros(sb.n_dofs)
        coeffs[2] = 1.0
        l1, l2 = 0.28125 - 0.125, 0.375 - 0.28125
        expect = math.sqrt((l1 + l2) / 3.0)
        d = CrossMeshDiff(FeFunction(sa, np.zeros(sa.n_dofs)),
                          FeFunction(sb, coeffs), pair1d8)
        assert cross_mesh_norm(d, NormSpec(0, 2)) == pytest.approx(expect, abs=1e-13)
        assert expect == pytest.approx(0.28868, abs=5e-6)

    def test_reference_value_level_one(self, pair1d8, sin1d):
        sa = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        sb = build_space(pair1d8.mesh_b, 1, dirichlet=True)
        d = CrossMeshDiff(project(sa, MASS, sin1d), project(sb, MASS, sin1d), pair1d8)
        assert cross_mesh_norm(d, NormSpec(0, 2)) == pytest.approx(3.2150e-03,
                                                                   rel=5e-4)

    def test_same_mesh_reduction(self, mesh2d4, rng):
        pair = classify_pair(mesh2d4, mesh2d4, 2.0)
        s = build_space(mesh2d4, 1, dirichlet=True)
        s2 = build_space(mesh2d4, 1, dirichlet=True)
        f = random_fe_function(s, rng)
        g = random_fe_function(s2, rng)
        for spec in (NormSpec(0, 2), NormSpec(1, 2)):
            cross = cross_mesh_norm(CrossMeshDiff(f, g, pair), spec)
            same = fe_norm(FeFunction(s, f.coeffs - g.coeffs), spec)
            assert cross == pytest.approx(same, abs=1e-13)

    def test_triangle_inequality(self, pair2d4, sin2d, rng):
        sa = build_space(pair2d4.mesh_a, 1, dirichlet=True)
        sb = build_space(pair2d4.mesh_b, 1, dirichlet=True)
        f = random_fe_function(sa, rng)
        g = random_fe_function(sb, rng)
        for spec in (NormSpec(0, 2), NormSpec(1, 2)):
            cross = cross_mesh_norm(CrossMeshDiff(f, g, pair2d4), spec)
            bound = (sobolev_norm_exact_diff(f, sin2d, spec)
                     + sobolev_norm_exact_diff(g, sin2d, spec))
            assert cross <= bound + 1e-10

    def test_gradient_norm_cross_mesh(self, pair2d4, rng):
        # H1 norm dominated by its L2 part plus gradient part; check monotone
        sa = build_space(pair2d4.mesh_a, 1, dirichlet=True)
        sb = build_space(pair2d4.mesh_b, 1, dirichlet=True)
        f = random_fe_function(sa, rng)
        g = random_fe_function(sb, rng)
        d = CrossMeshDiff(f, g, pair2d4)
        l2 = cross_mesh_norm(d, NormSpec(0, 2))
        h1 = cross_mesh_norm(d, NormSpec(1, 2))
        assert h1 >= l2

    def test_eta_must_be_two(self, pair1d8, rng):
        sa = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        sb = build_space(pair1d8.mesh_b, 1, dirichlet=True)
        d = CrossMeshDiff(random_fe_function(sa, rng), random_fe_function(sb, rng),
                          pair1d8)
        with pytest.raises(InvalidArgumentError):
            cross_mesh_norm(d, NormSpec(0, 4))

    def test_degree_mismatch_raises(self, pair1d8):
        sa = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        sb = build_space(pair1d8.mesh_b, 2, dirichlet=True)
        with pytest.raises(InvalidArgumentError):
            CrossMeshDiff(FeFunction(sa, np.zeros(sa.n_dofs)),
                          FeFunction(sb, np.zeros(sb.n_dofs)), pair1d8)

    def test_region_filter_full_set_matches(self, pair2d4, rng):
        sa = build_space(pair2d4.mesh_a, 1, dirichlet=True)
        sb = build_space(pair2d4.mesh_b, 1, dirichlet=True)
        d = CrossMeshDiff(random_fe_function(sa, rng), random_fe_function(sb, rng),
                          pair2d4)
        everything = frozenset(range(pair2d4.mesh_a.n_elements))
        full = cross_mesh_norm(d, NormSpec(0, 2))
        restricted = cross_mesh_norm(d, NormSpec(0, 2, region=everything))
        assert restricted == pytest.approx(full, abs=1e-14)

    @pytest.mark.parametrize("n", [4, 8])
    def test_clipping_conservation_runs(self, n, sin2d):
        # every cross_mesh_norm call verifies fragment-area conservation at 1e-10
        from nearproj import perturb_boundary_band
        m = build_uniform_square(n)
        moved = perturb_boundary_band(m, m.h / np.sqrt(2), (m.h / 4, 0.0))
        pair = classify_pair(m, moved, 1.0)
        sa = build_space(m, 1, dirichlet=True)
        sb = build_space(moved, 1, dirichlet=True)
        d = CrossMeshDiff(project(sa, MASS, sin2d), project(sb, MASS, sin2d), pair)
        assert cross_mesh_norm(d, NormSpec(0, 2)) > 0


class TestRegionSplit:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_shared_and_differing_regions_add_up(self, dim, pair1d8, pair2d4,
                                                 sin1d, sin2d):
        # on the level-0 single-node pair, a norm restricted to the differing
        # elements (no shared element in the batch) runs, and the squares of
        # the two restricted norms add up to the full one
        pair, u = (pair1d8, sin1d) if dim == 1 else (pair2d4, sin2d)
        sa = build_space(pair.mesh_a, 1, dirichlet=True)
        sb = build_space(pair.mesh_b, 1, dirichlet=True)
        d = CrossMeshDiff(project(sa, STIFFNESS, u), project(sb, STIFFNESS, u), pair)
        shared = frozenset(i for i, _ in pair.shared_elements)
        differing = frozenset(pair.differing_elements_a().tolist())
        for s in (0, 1):
            full = cross_mesh_norm(d, NormSpec(s, 2))
            parts = [cross_mesh_norm(d, NormSpec(s, 2, region=r))
                     for r in (shared, differing)]
            assert parts[1] > 0
            assert math.hypot(*parts) == pytest.approx(full, rel=1e-13)


class TestConservationCheck:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_wrong_differing_measure_raises(self, dim, pair1d8, pair2d4):
        # fragments that cover 1e-8 less than the pair's differing region fail
        pair = pair1d8 if dim == 1 else pair2d4
        wrong = dataclasses.replace(
            pair, differing_region_measure=pair.differing_region_measure + 1e-8)
        sa = build_space(pair.mesh_a, 1, dirichlet=True)
        sb = build_space(pair.mesh_b, 1, dirichlet=True)
        d = CrossMeshDiff(FeFunction(sa, np.ones(sa.n_dofs)),
                          FeFunction(sb, np.ones(sb.n_dofs)), wrong)
        with pytest.raises(GeometryError, match="clipped fragments cover"):
            cross_mesh_norm(d, NormSpec(0, 2))


def _p1_at_points(f, pts):
    """Values and gradients of a 2-D P1 function by brute-force point location.

    Each point is placed by its barycentric coordinates against every triangle
    (first hit wins), independently of the library's element search.
    """
    mesh = f.space.mesh
    assert np.array_equal(f.space.dof_coords, mesh.nodes)   # P1 DOF k is node k
    vals = np.full(len(pts), np.nan)
    grads = np.empty((len(pts), 2))
    x, y = pts[:, 0], pts[:, 1]
    for tri in mesh.elements:
        v, c = mesh.nodes[tri], f.coeffs[tri]
        T = np.column_stack([v[1] - v[0], v[2] - v[0]])
        Ti = np.linalg.inv(T)
        l1 = Ti[0, 0] * (x - v[0, 0]) + Ti[0, 1] * (y - v[0, 1])
        l2 = Ti[1, 0] * (x - v[0, 0]) + Ti[1, 1] * (y - v[0, 1])
        hit = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1 + 1e-12) \
            & np.isnan(vals)
        vals[hit] = c[0] + l1[hit] * (c[1] - c[0]) + l2[hit] * (c[2] - c[0])
        grads[hit] = np.linalg.solve(T.T, c[1:] - c[0])
    assert not np.isnan(vals).any()
    return vals, grads


class TestCrossMeshNormOracle:
    """The exact 2-D cross-mesh norm against a midpoint rule on a fine grid.

    pair2d4 is level 0 of tables 4 and 5.  The oracle uses neither the
    shared/differing split, nor clipping, nor eval_at_physical.  Its 512 x 508
    cell midpoints lie on no mesh edge: 4(i + 1/2)/512 and 4(j + 1/2)/508 are
    never integers, (2j + 1) 128 - (2i + 1) 127 is odd so y - x is never k/4,
    and the edges through the moved node have irrational slope.  Both bounds
    exclude a factor of sqrt(2) by a wide margin.
    """

    @staticmethod
    def _oracle(fa, fb, s):
        nx, ny = 512, 508
        X, Y = np.meshgrid((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        va, ga = _p1_at_points(fa, pts)
        vb, gb = _p1_at_points(fb, pts)
        sq = (va - vb) ** 2
        if s == 1:
            sq += np.sum((ga - gb) ** 2, axis=1)
        return math.sqrt(sq.mean())

    @pytest.mark.parametrize("form, s, rel", [
        (MASS, 0, 1e-4),        # L2 of L2-projections, measured 3.4e-5
        (STIFFNESS, 1, 2e-3),   # H1 of elliptic projections, measured 1.7e-4;
                                # gradient jumps make the rule only O(1/N)
    ], ids=["table4-L2", "table5-H1"])
    def test_level0_pair_matches_midpoint_oracle(self, pair2d4, sin2d, form, s, rel):
        fa = project(build_space(pair2d4.mesh_a, 1, dirichlet=True), form, sin2d)
        fb = project(build_space(pair2d4.mesh_b, 1, dirichlet=True), form, sin2d)
        exact = cross_mesh_norm(CrossMeshDiff(fa, fb, pair2d4), NormSpec(s, 2))
        assert exact == pytest.approx(self._oracle(fa, fb, s), rel=rel)


class TestSeminormExact:
    def test_power_function_sup_gradient(self):
        # dense-sampling oracle: sup |(2-1/p) x^(1-1/p) - 1| on [0,1] is 1, at x=0
        u = named_function("power_p4")
        xs = np.linspace(0.0, 1.0, 2000001)[:, None]
        oracle = np.abs(u.gradient(xs)[:, 0]).max()
        assert oracle == pytest.approx(1.0, abs=1e-6)


class TestSupportMeasure:
    def test_single_hat(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        coeffs = np.zeros(s.n_dofs)
        coeffs[4] = 1.0
        assert support_measure(FeFunction(s, coeffs)) == pytest.approx(0.25,
                                                                       abs=1e-14)

    def test_zero_function(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        assert support_measure(FeFunction(s, np.zeros(s.n_dofs))) == 0.0

    def test_projector_difference_support(self, pair1d8, rng):
        # supp(pi_h f - f) lies inside the union of supports of the dropped
        # shape functions (the halo of the differing elements)
        from nearproj import intersection_project
        from nearproj.space import shared_dof_mask
        s = build_space(pair1d8.mesh_a, 1, dirichlet=True)
        other = build_space(pair1d8.mesh_b, 1, dirichlet=True)
        keep = shared_dof_mask(pair1d8, s)
        halo = np.isin(s.element_dofs, np.where(~keep)[0]).any(axis=1)
        halo_measure = pair1d8.mesh_a.element_measures[halo].sum()
        for _ in range(20):
            f = random_fe_function(s, rng)
            g = intersection_project(pair1d8, f, other_space=other)
            d = FeFunction(s, f.coeffs - g.coeffs)
            assert support_measure(d) <= halo_measure + 1e-14


class TestHolderSupportInequality:
    @pytest.mark.parametrize("eta", [4.0, math.inf])
    @pytest.mark.parametrize("k", [0, 1])
    def test_random_fe_functions(self, eta, k, rng):
        # ||f||_{k,2} <= |supp f|^(1/2 - 1/eta) ||f||_{k,eta} with norms taken
        # as sums of per-derivative component norms; 1.01 slack covers the
        # sampled supremum at eta = inf
        meshes = [build_uniform_interval(13), build_uniform_square(5)]
        count = 0
        while count < 50:
            mesh = meshes[count % 2]
            degree = 1 + (count % 4 < 2)
            s = build_space(mesh, degree, dirichlet=False)
            f = random_fe_function(s, rng, sparsity=0.3)
            supp = support_measure(f)
            if supp == 0.0:
                continue
            count += 1
            lhs = sum(fe_component_norms(f, k, 2.0))
            rhs = supp ** (0.5 - (0.0 if math.isinf(eta) else 1.0 / eta)) \
                * sum(fe_component_norms(f, k, eta))
            assert lhs <= 1.01 * rhs


# -- the norms against their formulas written out branch by branch ------------

_GRID = {1: np.linspace(0.0, 1.0, 25)[:, None],
         2: np.array([[i / 8.0, j / 8.0] for i in range(9) for j in range(9 - i)])}


def _exact_diff_oracle(f, u, spec):
    """sobolev_norm_exact_diff with a grid branch and a rule branch."""
    mesh = f.space.mesh
    elems = (np.arange(mesh.n_elements) if spec.region is None
             else np.array(sorted(spec.region), dtype=np.int64))
    if math.isinf(spec.eta):
        grid = _GRID[mesh.dimension]
        vals, grads = eval_on_elements(f.space, f.coeffs, elems, grid,
                                       gradients=spec.s == 1)
        pts = physical_points(mesh.element_vertices[elems], grid).reshape(
            -1, mesh.dimension)
        sup = np.abs(vals - np.asarray(u.value(pts)).reshape(vals.shape)).max()
        if spec.s == 1:
            ugrads = np.asarray(u.gradient(pts)).reshape(grads.shape)
            sup = max(sup, np.abs(grads - ugrads).max())
        return float(sup)
    rule = quadrature_rule(mesh.dimension, 2 * f.space.degree + 6)
    vals, grads = eval_on_elements(f.space, f.coeffs, elems, rule.points,
                                   gradients=spec.s == 1)
    flat = physical_points(mesh.element_vertices[elems], rule.points).reshape(
        -1, mesh.dimension)
    uvals = np.asarray(u.value(flat)).reshape(vals.shape)
    det = mesh.jacobian_dets[elems]
    total = np.einsum("kq,q,k->", np.abs(vals - uvals) ** spec.eta, rule.weights, det)
    if spec.s == 1:
        ugrads = np.asarray(u.gradient(flat)).reshape(grads.shape)
        total += np.einsum("kqd,q,k->", np.abs(grads - ugrads) ** spec.eta,
                           rule.weights, det)
    return float(total ** (1.0 / spec.eta))


def _component_oracle(f, k, eta):
    """fe_component_norms with a grid branch and a rule branch."""
    mesh = f.space.mesh
    elems = np.arange(mesh.n_elements)
    if math.isinf(eta):
        vals, grads = eval_on_elements(f.space, f.coeffs, elems, _GRID[mesh.dimension],
                                       gradients=k == 1)
        out = [float(np.abs(vals).max())]
        if k == 1:
            out += [float(np.abs(grads[:, :, d]).max()) for d in range(mesh.dimension)]
        return out
    rule = quadrature_rule(mesh.dimension, 2 * f.space.degree + 6)
    vals, grads = eval_on_elements(f.space, f.coeffs, elems, rule.points,
                                   gradients=k == 1)
    det = mesh.jacobian_dets
    out = [float(np.einsum("kq,q,k->", np.abs(vals) ** eta, rule.weights, det)
                 ** (1.0 / eta))]
    if k == 1:
        out += [float(np.einsum("kq,q,k->", np.abs(grads[:, :, d]) ** eta,
                                rule.weights, det) ** (1.0 / eta))
                for d in range(mesh.dimension)]
    return out


def _cross_oracle(diff, spec, per_side=False):
    """cross_mesh_norm as one running sum of squares over both passes.

    On shared elements it evaluates the one polynomial with coefficients
    f_a - f_b; with `per_side`, it instead evaluates f_a at the reference
    points and f_b at their physical images, and subtracts.
    """
    f_a, f_b, pair = diff.f_a, diff.f_b, diff.pair
    grad = spec.s == 1
    rule = quadrature_rule(pair.mesh_a.dimension, 2 * f_a.space.degree)

    def squares(v, g, det):
        total = np.einsum("kq,q,k->", v ** 2, rule.weights, det)
        if grad:
            total += np.einsum("kqd,q,k->", g ** 2, rule.weights, det)
        return total

    def difference(va, ga, vb, gb):
        return va - vb, None if ga is None else ga - gb

    region = None if spec.region is None else np.fromiter(spec.region, dtype=np.int64)
    ia = np.flatnonzero(pair.match >= 0)
    if region is not None:
        ia = ia[np.isin(ia, region)]
    if per_side:
        pts = physical_points(pair.mesh_a.element_vertices[ia], rule.points)
        v, g = difference(
            *eval_on_elements(f_a.space, f_a.coeffs, ia, rule.points, gradients=grad),
            *eval_at_physical(f_b.space, f_b.coeffs, pair.match[ia], pts, gradients=grad))
    else:
        v, g = eval_on_elements(f_a.space, f_a.coeffs - f_b.coeffs, ia, rule.points,
                                gradients=grad)
    total = squares(v, g, pair.mesh_a.jacobian_dets[ia])
    simplices, ia, ib, _ = pair.fragments
    if region is not None:
        keep = np.isin(ia, region)
        simplices, ia, ib = simplices[keep], ia[keep], ib[keep]
    pts = physical_points(simplices, rule.points)
    v, g = difference(
        *eval_at_physical(f_a.space, f_a.coeffs, ia, pts, gradients=grad),
        *eval_at_physical(f_b.space, f_b.coeffs, ib, pts, gradients=grad))
    det = np.abs(np.linalg.det(simplices[:, 1:, :] - simplices[:, :1, :]))
    total += squares(v, g, det)
    return float(np.sqrt(total))


def _pair(dim, identical):
    mesh = build_uniform_interval(8) if dim == 1 else build_uniform_square(4)
    point = (0.25,) if dim == 1 else (0.25, 0.25)
    moved = mesh if identical else perturb_node_nearest(
        mesh, point, (mesh.h / 4,) + (0.0,) * (dim - 1))
    return classify_pair(mesh, moved, float(dim))


class TestNormOracle:
    """Every norm is bitwise equal to its formulas written out in full."""

    @pytest.mark.parametrize("eta", [2.0, 3.0, math.inf])
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_diff_and_components(self, dim, degree, s, eta, sin1d, sin2d, rng):
        mesh = _pair(dim, identical=True).mesh_a
        f = random_fe_function(build_space(mesh, degree, dirichlet=False), rng)
        u = sin1d if dim == 1 else sin2d
        for region in (None, frozenset(range(1, mesh.n_elements, 3))):
            spec = NormSpec(s, eta, region=region)
            assert sobolev_norm_exact_diff(f, u, spec) == _exact_diff_oracle(f, u, spec)
        assert fe_component_norms(f, s, eta) == _component_oracle(f, s, eta)

    @pytest.mark.parametrize("identical", [False, True], ids=["moved", "identical"])
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_mesh(self, dim, degree, s, identical, rng):
        pair = _pair(dim, identical)
        f_a = random_fe_function(build_space(pair.mesh_a, degree, dirichlet=True), rng)
        f_b = random_fe_function(build_space(pair.mesh_b, degree, dirichlet=True), rng)
        diff = CrossMeshDiff(f_a, f_b, pair)
        if identical:
            assert len(pair.fragments[0]) == 0
        for region in (None, frozenset(range(0, pair.mesh_a.n_elements, 2))):
            spec = NormSpec(s, 2, region=region)
            value = cross_mesh_norm(diff, spec)
            assert value == _cross_oracle(diff, spec)
            # each side evaluated on its own mesh, then subtracted: the same
            # norm up to rounding
            assert value == pytest.approx(_cross_oracle(diff, spec, per_side=True),
                                          rel=1e-13, abs=0.0)


@pytest.mark.parametrize("region", [{-1}, {8}, {100}, {0.5}, {0, 2.0}, {"0"}],
                         ids=["negative", "n_elements", "far", "half", "float", "str"])
def test_region_entries_must_be_element_indices(region, pair1d8, sin1d):
    # mesh1d8 has 8 elements; every bad entry fails the same way in both norms
    sa = build_space(pair1d8.mesh_a, 1, dirichlet=True)
    sb = build_space(pair1d8.mesh_b, 1, dirichlet=True)
    f_a, f_b = FeFunction(sa, np.ones(sa.n_dofs)), FeFunction(sb, np.ones(sb.n_dofs))
    spec = NormSpec(0, 2, region=frozenset(region))
    with pytest.raises(InvalidArgumentError, match="not element indices"):
        sobolev_norm_exact_diff(f_a, sin1d, spec)
    with pytest.raises(InvalidArgumentError, match="not element indices"):
        cross_mesh_norm(CrossMeshDiff(f_a, f_b, pair1d8), spec)
