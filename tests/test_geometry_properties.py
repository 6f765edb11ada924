"""Sharp consistency checks of the cross-mesh integration machinery."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nearproj import (CrossMeshDiff, FunctionSpec, Mesh, NormSpec, build_space,
                      build_uniform_interval, build_uniform_square, classify_pair,
                      cross_mesh_norm, interpolate_nodal, perturb_boundary_band,
                      perturb_node_nearest)
from nearproj.mesh import _clip_triangles

L2, H1 = NormSpec(0, 2), NormSpec(1, 2)


def quadratic_2d():
    return FunctionSpec(
        value=lambda x: 1.0 + 2 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1]
        + x[:, 0] ** 2 - 0.25 * x[:, 1] ** 2,
        gradient=lambda x: np.column_stack([2 + 0.5 * x[:, 1] + 2 * x[:, 0],
                                            -1 + 0.5 * x[:, 0] - 0.5 * x[:, 1]]))


def quadratic_1d():
    return FunctionSpec(value=lambda x: 1.0 - 3 * x[:, 0] + 2 * x[:, 0] ** 2,
                        gradient=lambda x: (4 * x[:, 0] - 3)[:, None])


class TestPolynomialReproductionAcrossPair:
    """P2 interpolants of a quadratic agree exactly on both meshes of a pair,
    so the cross-mesh norm of their difference must vanish to rounding.  This
    exercises shared-element integration, clipping, and fragment quadrature
    end to end against an exact answer."""

    def test_1d(self):
        m = build_uniform_interval(8)
        moved = perturb_node_nearest(m, (0.25,), (m.h / 4,))
        pair = classify_pair(m, moved, 1.0)
        u = quadratic_1d()
        fa = interpolate_nodal(build_space(m, 2, dirichlet=False), u)
        fb = interpolate_nodal(build_space(moved, 2, dirichlet=False), u)
        d = CrossMeshDiff(fa, fb, pair)
        assert cross_mesh_norm(d, L2) <= 1e-13
        assert cross_mesh_norm(d, H1) <= 1e-12

    @pytest.mark.parametrize("pert", ["single", "band"])
    def test_2d(self, pert):
        m = build_uniform_square(4)
        if pert == "single":
            moved = perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0.0))
        else:
            moved = perturb_boundary_band(m, m.h / np.sqrt(2), (m.h / 4, 0.0))
        pair = classify_pair(m, moved, 2.0)
        u = quadratic_2d()
        fa = interpolate_nodal(build_space(m, 2, dirichlet=False), u)
        fb = interpolate_nodal(build_space(moved, 2, dirichlet=False), u)
        d = CrossMeshDiff(fa, fb, pair)
        assert cross_mesh_norm(d, L2) <= 1e-13
        assert cross_mesh_norm(d, H1) <= 1e-12

    def test_same_mesh_reduction_p2(self, rng):
        m = build_uniform_square(3)
        pair = classify_pair(m, m, 2.0)
        sa = build_space(m, 2, dirichlet=True)
        sb = build_space(m, 2, dirichlet=True)
        from nearproj import FeFunction, fe_norm
        ca, cb = rng.standard_normal(sa.n_dofs), rng.standard_normal(sa.n_dofs)
        d = CrossMeshDiff(FeFunction(sa, ca), FeFunction(sb, cb), pair)
        for spec in (L2, H1):
            same = fe_norm(FeFunction(sa, FeFunction(sa, ca).coeffs
                                      - FeFunction(sb, cb).coeffs), spec)
            assert cross_mesh_norm(d, spec) == pytest.approx(same, abs=1e-13)


def _triangle(points):
    a = np.array(points, dtype=float).reshape(3, 2)
    u, v = a[1] - a[0], a[2] - a[0]
    area2 = u[0] * v[1] - u[1] * v[0]
    if area2 < 0:
        a = a[::-1]
    return a, abs(area2) / 2


def _clipped_areas(subject, clipper):
    """Shoelace areas of subject[k] clipped by clipper[k] (0 for fewer than 3
    vertices); a repeated vertex adds nothing to the shoelace sum."""
    (x, y), n = _clip_triangles(np.array(subject), np.array(clipper))
    areas = np.zeros(len(n))
    for k in np.flatnonzero(n >= 3):
        i = np.arange(n[k])
        j = (i + 1) % n[k]
        areas[k] = 0.5 * np.sum(x[k, i] * y[k, j] - x[k, j] * y[k, i])
    return areas


coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, width=32)


@given(st.tuples(*[coords] * 6), st.tuples(*[coords] * 6))
@settings(max_examples=300, deadline=None)
def test_clip_area_properties(pa, pb):
    ta, area_a = _triangle(pa)
    tb, area_b = _triangle(pb)
    assume(area_a > 1e-3 and area_b > 1e-3)
    area_ab, area_ba = _clipped_areas([ta, tb], [tb, ta])
    assert area_ab >= -1e-12
    assert area_ab <= min(area_a, area_b) + 1e-9
    assert area_ab == pytest.approx(area_ba, abs=1e-9)


EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
nudges = st.floats(-0.1, 0.1)


@given(st.floats(0.125, 1.0), st.floats(0.0, 2 * math.pi),
       st.tuples(coords, coords), st.tuples(*[nudges] * 6))
@settings(max_examples=300, deadline=None)
def test_closed_form_geometry_matches_lapack(scale, angle, shift, nudge):
    # a nudged, scaled, rotated and shifted equilateral triangle is shape
    # regular (area >= diameter^2 / 5, so cond(J) <= 5) and of moderate size,
    # and there the closed-form determinant and inverse agree with LAPACK's
    # LU-based ones to a few ulps of the largest entry
    c, s = math.cos(angle), math.sin(angle)
    t = scale * (EQUILATERAL + np.reshape(nudge, (3, 2))) @ np.array([[c, s], [-s, c]]) + shift
    diam = max(np.linalg.norm(t[i] - t[j]) for i, j in ((0, 1), (1, 2), (2, 0)))
    assert _triangle(t)[1] >= diam ** 2 / 5
    mesh = Mesh(2, t, [[0, 1, 2]], ())
    jac = (t[1:] - t[0]).T
    ulp = 16 * np.finfo(float).eps
    det, inv = np.linalg.det(jac), np.linalg.inv(jac)
    assert abs(mesh.jacobian_dets[0] - det) <= ulp * det
    assert np.abs(mesh.inverse_jacobians[0] - inv).max() <= ulp * np.abs(inv).max()


def test_clip_identical_triangles():
    t, area = _triangle([(0, 0), (1, 0), (0, 1)])
    assert _clipped_areas([t], [t])[0] == pytest.approx(area, abs=1e-14)


class TestImmutability:
    def test_mesh_arrays_write_protected(self, mesh2d4):
        with pytest.raises(ValueError):
            mesh2d4.nodes[0, 0] = 5.0
        with pytest.raises(ValueError):
            mesh2d4.elements[0, 0] = 7

    def test_fe_function_coeffs_write_protected(self, mesh1d8):
        from nearproj import FeFunction
        s = build_space(mesh1d8, 1, dirichlet=True)
        f = FeFunction(s, np.zeros(s.n_dofs))
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0


def test_near_identical_meshes_classified_shared():
    # sub-tolerance coordinate noise (<= 1e-14 per coordinate) is "identical"
    m = build_uniform_interval(8)
    nudged = perturb_node_nearest(m, (0.25,), (5e-15,))
    pair = classify_pair(m, nudged, 1.0)
    assert len(pair.shared_elements) == m.n_elements
    assert pair.differing_region_measure == pytest.approx(0.0, abs=1e-13)


class TestCliSubprocess:
    def test_module_invocation(self):
        out = subprocess.run([sys.executable, "-m", "nearproj.cli", "predict",
                              "--gamma", "1", "--eta", "inf", "--delta", "inf",
                              "-s", "0", "-r", "2"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "sigma  = 0.5" in out.stdout

    def test_usage_error_exit_code(self):
        out = subprocess.run([sys.executable, "-m", "nearproj.cli", "table"],
                             capture_output=True, text=True)
        assert out.returncode == 2
