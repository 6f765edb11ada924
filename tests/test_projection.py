import math

import numpy as np
import pytest
import scipy.sparse.linalg

from nearproj import (BilinearFormSpec, FeFunction, FunctionSpec, MASS, NormSpec,
                      STIFFNESS, assemble_load, assemble_matrix, build_space,
                      build_uniform_interval, build_uniform_square,
                      interpolate_nodal, project, sobolev_norm_exact_diff)
from nearproj.space import evaluate

from conftest import random_fe_function


def wrap_fe(space, g):
    return FunctionSpec(
        value=lambda x: np.array([evaluate(g, p)[0] for p in x]),
        gradient=lambda x: np.array([evaluate(g, p)[1] for p in x]))


class TestProject:
    @pytest.mark.parametrize("form", [MASS, STIFFNESS])
    def test_idempotent_on_members(self, form, mesh1d8, rng):
        s = build_space(mesh1d8, 2, dirichlet=True)
        g = random_fe_function(s, rng)
        out = project(s, form, wrap_fe(s, g))
        assert np.abs(out.coeffs - g.coeffs).max() <= 1e-11

    def test_1d_elliptic_projection_is_interpolant(self, sin1d):
        for n in (8, 32):
            s = build_space(build_uniform_interval(n), 1, dirichlet=True)
            r = project(s, STIFFNESS, sin1d)
            i = interpolate_nodal(s, sin1d)
            assert np.abs(r.coeffs - i.coeffs).max() <= 1e-11

    def test_mass_projection_rate(self, sin1d):
        errs = []
        for n in (8, 16):
            s = build_space(build_uniform_interval(n), 1, dirichlet=True)
            r = project(s, MASS, sin1d)
            errs.append(sobolev_norm_exact_diff(r, sin1d, NormSpec(0, 2)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.02)

    def test_galerkin_orthogonality(self, mesh2d4, sin2d, rng):
        s = build_space(mesh2d4, 1, dirichlet=True)
        for form, unorm in ((MASS, 0.5), (STIFFNESS, np.pi / np.sqrt(2))):
            A = assemble_matrix(s, form)
            b = assemble_load(s, form, sin2d)
            c = project(s, form, sin2d).coeffs[s.free_dofs]
            spec = NormSpec(form.s, 2)
            for _ in range(50):
                w = random_fe_function(s, rng)
                wf = w.coeffs[s.free_dofs]
                defect = abs(c @ (A @ wf) - b @ wf)
                from nearproj import fe_norm
                assert defect <= 1e-10 * max(unorm * fe_norm(w, spec), 1e-30)

    def test_best_approximation_energy_norm(self, mesh1d8, sin1d):
        # ||r_h u - u||_a^2 = a(u,u) - 2 b.c + c.A.c with a(u,u) = pi^2/2
        s = build_space(mesh1d8, 1, dirichlet=True)
        A = assemble_matrix(s, STIFFNESS)
        b = assemble_load(s, STIFFNESS, sin1d)
        a_uu = np.pi ** 2 / 2
        cr = project(s, STIFFNESS, sin1d).coeffs[s.free_dofs]
        ci = interpolate_nodal(s, sin1d).coeffs[s.free_dofs]
        er = a_uu - 2 * b @ cr + cr @ (A @ cr)
        ei = a_uu - 2 * b @ ci + ci @ (A @ ci)
        assert math.sqrt(max(er, 0)) <= math.sqrt(max(ei, 0)) + 1e-10

    def test_linearity(self, mesh1d8, sin1d, rng):
        s = build_space(mesh1d8, 1, dirichlet=True)
        v = FunctionSpec(value=lambda x: x[:, 0] * (1 - x[:, 0]),
                         gradient=lambda x: (1 - 2 * x[:, 0])[:, None])
        alpha, beta = 0.7, -1.3
        combo = FunctionSpec(
            value=lambda x: alpha * sin1d.value(x) + beta * v.value(x),
            gradient=lambda x: alpha * sin1d.gradient(x) + beta * v.gradient(x))
        direct = project(s, MASS, combo).coeffs
        split = alpha * project(s, MASS, sin1d).coeffs + beta * project(s, MASS, v).coeffs
        assert np.abs(direct - split).max() <= 1e-11

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("form", [MASS, STIFFNESS, BilinearFormSpec(
        "adr", kappa=1.0, velocity=(0.5, 0.25))], ids=["mass", "stiffness", "adr"])
    def test_matches_dense_solve(self, form, degree, sin2d):
        s = build_space(build_uniform_square(8), degree, dirichlet=True)
        A = assemble_matrix(s, form)
        b = assemble_load(s, form, sin2d)
        dense = np.linalg.solve(A.toarray(), b)
        c = project(s, form, sin2d).coeffs[s.free_dofs]
        assert np.abs(c - dense).max() <= 1e-12 * np.abs(dense).max()


class TestFill:
    """The LU of an assembled system in the order of `free_dofs` (no column
    ordering of SuperLU's own) stays within the fill of nested dissection:
    a count that does not depend on the machine."""

    @staticmethod
    def _lu_nonzeros(mesh, degree):
        A = assemble_matrix(build_space(mesh, degree, dirichlet=True), STIFFNESS)
        lu = scipy.sparse.linalg.splu(A, permc_spec="NATURAL")
        return lu.L.nnz + lu.U.nnz, A.shape[0]

    # at n = 100 the bisection meets groups of odd width, where a split at the
    # median rank instead of the mean gives 5.15M
    @pytest.mark.parametrize("n,bound", [(128, 6.5e6), (100, 4.8e6)])
    def test_2d_p2_stiffness(self, n, bound):
        nnz, _ = self._lu_nonzeros(build_uniform_square(n), 2)
        assert nnz <= bound

    def test_1d_p2_stiffness_is_a_band(self):
        nnz, n_free = self._lu_nonzeros(build_uniform_interval(4096), 2)
        assert nnz <= 5 * n_free
