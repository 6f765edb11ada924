import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse.linalg

from nearproj import (BilinearFormSpec, FunctionSpec, InvalidArgumentError, MASS,
                      NormSpec, STIFFNESS, assemble_load, assemble_matrix,
                      build_space, build_uniform_interval, build_uniform_square,
                      fe_norm, perturb_node_nearest)
from nearproj import forms, space
from nearproj.forms import _element_data, _local_matrices
from nearproj.space import evaluate, physical_points

from conftest import jittered_mesh, random_fe_function


def oracle_local_matrices(space, form, rule, V, G):
    """Element matrices from physical gradients at every quadrature point."""
    _, det, Jinv = space.mesh.geometry()
    det = det[:, None, None]
    w = rule.weights
    mass_ref = np.einsum("q,qi,qj->ij", w, V, V)[None, :, :]
    if form.kind == "mass":
        return det * mass_ref
    PG = G @ Jinv[:, None]                                # (m, nq, nloc, d)
    loc = np.einsum("q,mqid,mqjd->mij", w, PG, PG) * det
    if form.kind == "adr":
        adv = np.einsum("q,mqj,qi->mij", w, PG @ np.array(form.velocity), V)
        loc = loc - adv * det + form.kappa * det * mass_ref
    return loc


def oracle_load(space, form, u):
    """Load vector from physical gradients at every quadrature point."""
    mesh = space.mesh
    rule, V, G = _element_data(space, 2 * space.degree + 4)
    verts, det, Jinv = mesh.geometry()
    xq = physical_points(verts, rule.points)
    det = det[:, None]
    w = rule.weights
    flat = xq.reshape(-1, mesh.dimension)
    b_el = np.zeros((mesh.n_elements, space.n_local))
    if form.kind in ("mass", "adr"):
        uq = u.value(flat).reshape(xq.shape[:2])
        scale = 1.0 if form.kind == "mass" else form.kappa
        b_el += scale * np.einsum("q,mq,qi->mi", w, uq, V) * det
    if form.kind in ("stiffness", "adr"):
        gu = u.gradient(flat).reshape(xq.shape)
        PG = G @ Jinv[:, None]
        b_el += np.einsum("q,mqd,mqid->mi", w, gu, PG) * det
        if form.kind == "adr":
            vq = gu @ np.array(form.velocity)
            b_el -= np.einsum("q,mq,qi->mi", w, vq, V) * det
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.element_dofs.ravel(), b_el.ravel())
    return b[space.free_dofs]


class TestReferenceTensorKernels:
    """The reference-tensor kernels against per-quadrature-point formulas."""

    FORMS = {"mass": lambda d: MASS, "stiffness": lambda d: STIFFNESS,
             "adr": lambda d: BilinearFormSpec("adr", kappa=0.75,
                                               velocity=(1.0, 0.5)[:d])}

    @pytest.mark.parametrize("kind", sorted(FORMS))
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_local_matrices_and_load(self, dim, degree, kind, rng):
        form = self.FORMS[kind](dim)
        s = build_space(jittered_mesh(dim, rng), degree, dirichlet=True)
        rule, V, G = _element_data(s, 2 * degree)
        got = _local_matrices(s, form, rule, V, G)
        want = oracle_local_matrices(s, form, rule, V, G)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        from nearproj import named_function
        u = named_function("sin_pi" if dim == 1 else "sin_pi_2d")
        got, want = assemble_load(s, form, u), oracle_load(s, form, u)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kind", sorted(FORMS) + ["perturbed"])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_load_in_ragged_blocks(self, dim, degree, kind, rng, monkeypatch):
        # blocks of 7 elements: 8 = 7 + 1 in 1-D and 32 = 4 * 7 + 4 in 2-D
        monkeypatch.setattr(space, "BLOCK_ELEMENTS", 7)
        s = build_space(jittered_mesh(dim, rng), degree, dirichlet=True)
        assert len(space.element_blocks(s.mesh.n_elements)) == (2 if dim == 1 else 5)
        from nearproj import named_function
        u = named_function("sin_pi" if dim == 1 else "sin_pi_2d")
        if kind == "perturbed":
            form = replace(self.FORMS["adr"](dim), delta=1.0)
            want = (oracle_load(s, replace(form, delta=math.inf), u)
                    + s.mesh.h * oracle_load(s, MASS, u))
        else:
            form = self.FORMS[kind](dim)
            want = oracle_load(s, form, u)
        got = assemble_load(s, form, u)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestFunctionSpec:
    @pytest.mark.parametrize("name", ["sin_pi", "sin_pi_2d", "power_p4"])
    def test_gradient_matches_finite_differences(self, name, rng):
        from nearproj import named_function
        u = named_function(name)
        dim = 2 if name.endswith("2d") else 1
        # interior points; central differences with step 1e-6
        x = 0.2 + 0.6 * rng.random((100, dim))
        g = np.asarray(u.gradient(x))
        for d in range(dim):
            step = np.zeros(dim)
            step[d] = 1e-6
            fd = (u.value(x + step) - u.value(x - step)) / 2e-6
            assert np.allclose(g[:, d], fd, rtol=1e-5, atol=1e-7)


class TestAssembleMatrix:
    def test_1d_n2_stiffness_single_hat(self):
        # one interior hat with h = 1/2: integral of (N')^2 = 2 * (1/h) = 4
        s = build_space(build_uniform_interval(2), 1, dirichlet=True)
        A = assemble_matrix(s, STIFFNESS).toarray()
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(4.0, abs=1e-13)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_mass_row_sums_are_basis_integrals(self, degree, mesh1d8):
        s = build_space(mesh1d8, degree, dirichlet=False)
        A = assemble_matrix(s, MASS).toarray()
        one = FunctionSpec(value=lambda x: np.ones(len(x)),
                           gradient=lambda x: np.zeros_like(x))
        integrals = assemble_load(s, MASS, one)
        assert np.allclose(A.sum(axis=1), integrals, atol=1e-14)

    def test_adr_with_zero_velocity_is_stiffness_plus_mass(self, mesh2d4):
        s = build_space(mesh2d4, 1, dirichlet=True)
        adr = assemble_matrix(s, BilinearFormSpec("adr", kappa=1.0)).toarray()
        ref = (assemble_matrix(s, STIFFNESS) + assemble_matrix(s, MASS)).toarray()
        assert np.abs(adr - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("form", [MASS, STIFFNESS])
    def test_symmetry_and_positive_definiteness(self, form, mesh2d4):
        s = build_space(mesh2d4, 1, dirichlet=True)
        A = assemble_matrix(s, form).toarray()
        assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()
        scipy.linalg.cholesky(A)   # raises if not SPD

    def test_advection_skew_contribution(self):
        # a constant velocity is divergence free, and the boundary term of the
        # advection part vanishes at Dirichlet DOFs: the symmetric part of the
        # ADR matrix is stiffness + kappa * mass, which is what makes ADR coercive
        mesh = build_uniform_square(8)
        mesh = perturb_node_nearest(mesh, (0.25, 0.25), (mesh.h / 4, 0.0))
        kappa = 0.75
        form = BilinearFormSpec("adr", kappa=kappa, velocity=(1.0, 0.5))
        for degree in (1, 2):
            s = build_space(mesh, degree, dirichlet=True)
            A = assemble_matrix(s, form)
            ref = assemble_matrix(s, STIFFNESS) + kappa * assemble_matrix(s, MASS)
            assert abs(A - A.T).max() > 1e-3          # the advection part is present
            gap = scipy.sparse.linalg.norm(0.5 * (A + A.T) - ref)
            assert gap <= 1e-14 * scipy.sparse.linalg.norm(ref)
            with pytest.raises(InvalidArgumentError):
                assemble_matrix(build_space(mesh, degree, dirichlet=False), form)

    @pytest.mark.parametrize("kwargs", [
        {"kappa": -1.0}, {"kappa": float("nan")}, {"kappa": float("inf")},
        {"velocity": (float("nan"), 0.0)}, {"velocity": (float("inf"), 0.0)}],
        ids=["kappa-negative", "kappa-nan", "kappa-inf", "velocity-nan",
             "velocity-inf"])
    def test_adr_inputs_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            BilinearFormSpec("adr", **kwargs)

    @pytest.mark.parametrize("kind", ["mass", "stiffness"])
    @pytest.mark.parametrize("kwargs", [
        {"kappa": 5.0}, {"kappa": float("nan")}, {"velocity": (3.0,)},
        {"velocity": (1.0, 2.0, 3.0)}], ids=["kappa", "kappa-nan", "velocity",
                                             "velocity-3"])
    def test_adr_inputs_rejected_on_other_kinds(self, kind, kwargs):
        # the mass and stiffness kernels would ignore them
        with pytest.raises(InvalidArgumentError, match="apply only to adr"):
            BilinearFormSpec(kind, **kwargs)
        assert BilinearFormSpec(kind, kappa=1.0) == BilinearFormSpec(kind)

    def test_velocity_dimension_mismatch_raises(self, mesh2d4):
        s = build_space(mesh2d4, 1, dirichlet=True)
        with pytest.raises(InvalidArgumentError):
            assemble_matrix(s, BilinearFormSpec("adr", velocity=(1.0,)))


class TestChunkedScatter:
    """`forms._scatter` sums the columns in chunks.  Each column gets the
    same sequence of (row, value) entries as in one COO -> CSC conversion
    of the whole mesh, so scipy's per-column sort and duplicate sum give the
    same bits."""

    @staticmethod
    def one_conversion(s, elements, columns, local):
        index = np.full(s.n_dofs, -1)
        index[s.free_dofs] = np.arange(s.n_free)
        conn = index[s.element_dofs[elements]]
        rows = np.repeat(conn, s.n_local, axis=1).ravel()
        cols = np.tile(conn, (1, s.n_local)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        if columns is not None:
            keep &= columns[cols]
        return scipy.sparse.coo_matrix(
            (local[elements].ravel()[keep], (rows[keep], cols[keep])),
            shape=(s.n_free, s.n_free)).tocsc()

    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    @pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "natural"])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_chunks_equal_one_conversion_bitwise(self, dim, degree, dirichlet,
                                                 restricted, rng, monkeypatch):
        # random element matrices: no symmetry, and no two entries alike, so
        # a swapped or reordered entry changes the result
        mesh = build_uniform_interval(64) if dim == 1 else build_uniform_square(6)
        s = build_space(mesh, degree, dirichlet=dirichlet)
        local = rng.standard_normal((mesh.n_elements, s.n_local, s.n_local))
        elements, columns = None, None
        if restricted:      # as on a derived space: some elements and columns
            elements = np.flatnonzero(rng.random(mesh.n_elements) < 0.5)
            columns = rng.random(s.n_free) < 0.5
        chunks = []
        monkeypatch.setattr(space, "BLOCK_ELEMENTS", 4)
        got = forms._scatter(s, elements, columns,
                             lambda e: chunks.append(e) or local[e])
        want = self.one_conversion(
            s, slice(None) if elements is None else elements, columns, local)
        assert len(chunks) >= 3
        assert got.data.view(np.int64).tobytes() == want.data.view(np.int64).tobytes()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)
        # the result owns its entries: no buffer of more than nnz behind them
        for arr in (got.data, got.indices):
            assert arr.base is None or arr.base.size == got.nnz


class TestAssembleLoad:
    @pytest.mark.parametrize("form", [MASS, STIFFNESS])
    def test_member_consistency(self, form, mesh1d8, rng):
        s = build_space(mesh1d8, 2, dirichlet=True)
        g = random_fe_function(s, rng)
        u = FunctionSpec(
            value=lambda x: np.array([evaluate(g, p)[0] for p in x]),
            gradient=lambda x: np.array([evaluate(g, p)[1] for p in x]))
        b = assemble_load(s, form, u)
        A = assemble_matrix(s, form)
        assert np.abs(b - A @ g.coeffs[s.free_dofs]).max() <= 1e-12

    def test_zero_function(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        from nearproj import named_function
        b = assemble_load(s, MASS, named_function("zero"))
        assert np.all(b == 0.0)

    def test_sin_mass_load_against_quad_oracle(self, mesh1d8, sin1d):
        s = build_space(mesh1d8, 1, dirichlet=True)
        b = assemble_load(s, MASS, sin1d)
        h = 0.125
        for row, dof in enumerate(s.free_dofs):
            xi = s.dof_coords[dof, 0]
            left, _ = scipy.integrate.quad(
                lambda x: np.sin(np.pi * x) * (x - xi + h) / h, xi - h, xi)
            right, _ = scipy.integrate.quad(
                lambda x: np.sin(np.pi * x) * (xi + h - x) / h, xi, xi + h)
            assert b[row] == pytest.approx(left + right, abs=1e-12)

    def test_quadrature_refinement_stable(self, mesh1d8, sin1d, monkeypatch):
        s = build_space(mesh1d8, 1, dirichlet=True)
        b1 = assemble_load(s, MASS, sin1d)
        import nearproj.forms as forms_mod
        orig = forms_mod._element_data
        monkeypatch.setattr(forms_mod, "_element_data",
                            lambda sp, ex: orig(sp, min(2 * ex, 20)))
        b2 = assemble_load(s, MASS, sin1d)
        assert np.abs(b1 - b2).max() < 1e-12

    def test_missing_gradient_raises(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        u = FunctionSpec(value=lambda x: x[:, 0])
        with pytest.raises(InvalidArgumentError):
            assemble_load(s, STIFFNESS, u)


class TestPerturbedForm:
    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0])
    def test_difference_bound(self, delta, rng):
        # |a+(v,w) - a(v,w)| = h^delta |(v,w)_L2| <= h^delta ||v||_0 ||w||_0
        mesh = build_uniform_interval(16)
        s = build_space(mesh, 1, dirichlet=False)
        base = assemble_matrix(s, STIFFNESS)
        plus = assemble_matrix(s, replace(STIFFNESS, delta=delta))
        D = (plus - base).toarray()
        spec = NormSpec(0, 2)
        for _ in range(100):
            v = random_fe_function(s, rng)
            w = random_fe_function(s, rng)
            lhs = abs(v.coeffs @ D @ w.coeffs)
            rhs = mesh.h ** delta * fe_norm(v, spec) * fe_norm(w, spec)
            assert lhs <= rhs * (1 + 1e-12)

    def test_infinite_delta_is_base(self, mesh1d8):
        s = build_space(mesh1d8, 1, dirichlet=True)
        base = assemble_matrix(s, STIFFNESS).toarray()
        plus = assemble_matrix(s, replace(STIFFNESS, delta=math.inf)).toarray()
        assert np.array_equal(base, plus)

    FORMS = TestReferenceTensorKernels.FORMS

    @pytest.mark.parametrize("kind", sorted(FORMS))
    def test_finite_delta_adds_h_delta_mass_bitwise(self, kind, sin2d, rng):
        s = build_space(jittered_mesh(2, rng), 2, dirichlet=True)
        base = self.FORMS[kind](2)
        plus = replace(base, delta=1.0)
        h = s.mesh.h
        want = assemble_matrix(s, base) + h * assemble_matrix(s, MASS)
        got = assemble_matrix(s, plus)
        assert (got != want).nnz == 0
        want = assemble_load(s, base, sin2d) + h * assemble_load(s, MASS, sin2d)
        assert assemble_load(s, plus, sin2d).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", sorted(FORMS))
    def test_delta_is_a_field_of_every_kind(self, kind):
        form = self.FORMS[kind](2)
        assert form.delta == math.inf
        for delta in (-1.0, math.nan):
            with pytest.raises(InvalidArgumentError, match="delta must be >= 0"):
                replace(form, delta=delta)
