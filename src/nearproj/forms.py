"""Bilinear form descriptions, matrix assembly, and exact-function load vectors.

Scalar callables follow the convention value(x) -> (N,) and gradient(x) -> (N, d)
for x of shape (N, d).  Vector fields (advection velocities) return (N, d).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import CoercivityError, InvalidArgumentError
from .quadrature import quadrature_rule
from .space import shape_grads, shape_values

DENSE_LIMIT = 2000


@dataclass(frozen=True)
class FunctionSpec:
    """An exactly evaluable function with optional gradient and known seminorms.

    seminorms maps (order, integrability) -> analytic value |u|_{k,eta}.
    """

    value: callable
    gradient: callable = None
    seminorms: dict = field(default_factory=dict)
    name: str = ""

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))


ZERO = FunctionSpec(value=lambda x: np.zeros(x.shape[0]),
                    gradient=lambda x: np.zeros_like(x), name="zero")

@dataclass(frozen=True)
class BilinearFormSpec:
    """Declarative description of the bilinear form a_h.

    kind 'mass':       a(u,w) = integral(u w)                          (s = 0)
    kind 'stiffness':  a(u,w) = integral(grad u . grad w)              (s = 1)
    kind 'adr':        stiffness - integral((v . grad u) w) + kappa*mass
    kind 'perturbed':  base + h^delta * perturbation
    """

    kind: str
    kappa: float = 1.0
    velocity: FunctionSpec = None
    base: "BilinearFormSpec" = None
    delta: float = None
    perturbation: "BilinearFormSpec" = None
    mu: int = 0
    nu: int = 0
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("mass", "stiffness", "adr", "perturbed"):
            raise InvalidArgumentError(f"unknown form kind {self.kind!r}")
        if self.kind == "adr" and self.kappa < 0:
            raise InvalidArgumentError("adr requires kappa >= 0")
        if self.kind == "perturbed":
            if self.base is None or self.perturbation is None or self.delta is None:
                raise InvalidArgumentError(
                    "perturbed form requires base, delta and perturbation")
            if self.delta < 0:
                raise InvalidArgumentError("delta must be >= 0 (or inf)")

    @property
    def s(self):
        """Sobolev order of the form: 0 for mass, 1 otherwise."""
        if self.kind == "mass":
            return 0
        if self.kind == "perturbed":
            return self.base.s
        return 1

    @property
    def needs_gradient(self):
        if self.kind == "mass":
            return False
        if self.kind == "perturbed":
            return self.base.needs_gradient or self.perturbation.needs_gradient
        return True


MASS = BilinearFormSpec("mass")
STIFFNESS = BilinearFormSpec("stiffness")


def perturbed_form(base, delta, perturbation=MASS, mu=0, nu=0, q=2.0):
    return BilinearFormSpec("perturbed", base=base, delta=delta,
                            perturbation=perturbation, mu=mu, nu=nu, q=q)


def _element_data(space, exactness):
    rule = quadrature_rule(space.mesh.dimension, exactness)
    V = shape_values(space.mesh.dimension, space.degree, rule.points)
    G = shape_grads(space.mesh.dimension, space.degree, rule.points)
    x = (space.mesh.element_vertices[:, None, 0, :]
         + np.einsum("qd,mde->mqe", rule.points, np.swapaxes(space.mesh.jacobians, 1, 2)))
    return rule, V, G, x


def _local_matrices(space, form, rule, V, G, xq):
    mesh = space.mesh
    det = mesh.jacobian_dets
    w = rule.weights
    if form.kind == "mass":
        ref = np.einsum("q,qi,qj->ij", w, V, V)
        return det[:, None, None] * ref[None, :, :]
    if form.kind in ("stiffness", "adr"):
        PG = np.einsum("qld,mde->mqle", G, mesh.inverse_jacobians)   # (m, nq, nloc, d)
        loc = np.einsum("q,mqid,mqjd->mij", w, PG, PG) * det[:, None, None]
        if form.kind == "adr":
            vel = form.velocity
            if vel is None:
                vq = np.zeros(xq.shape)
            else:
                vq = np.asarray(vel.value(xq.reshape(-1, mesh.dimension)))
                vq = vq.reshape(xq.shape)
            adv = np.einsum("q,mqjd,mqd,qi->mij", w, PG, vq, V)
            mass_ref = np.einsum("q,qi,qj->ij", w, V, V)
            loc = loc - adv * det[:, None, None] \
                + form.kappa * det[:, None, None] * mass_ref[None, :, :]
        return loc
    raise InvalidArgumentError(f"cannot assemble kind {form.kind!r}")


def _scatter(space, local):
    nloc = space.n_local
    conn = space.element_dofs
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    mat = scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                  shape=(space.n_dofs, space.n_dofs)).tocsr()
    free = space.free_dofs
    return mat[free][:, free].tocsr()


def _check_coercive(space, A):
    sym = 0.5 * (A + A.T)
    if space.n_free <= DENSE_LIMIT:
        try:
            scipy.linalg.cholesky(sym.toarray())
        except scipy.linalg.LinAlgError as exc:
            raise CoercivityError("assembled form is not coercive") from exc
    else:
        val = scipy.sparse.linalg.eigsh(sym, k=1, which="SA",
                                        return_eigenvectors=False)[0]
        if val <= 0:
            raise CoercivityError(f"assembled form is not coercive (lambda_min={val})")


def assemble_matrix(space, form):
    """Sparse matrix A[i,j] = a_h(N_j, N_i) over the free DOFs."""
    if form.kind == "perturbed":
        A = assemble_matrix(space, form.base)
        if not math.isinf(form.delta):
            A = A + space.mesh.h ** form.delta * assemble_matrix(space, form.perturbation)
        return A
    exactness = 2 * space.degree
    rule, V, G, xq = _element_data(space, exactness)
    local = _local_matrices(space, form, rule, V, G, xq)
    A = _scatter(space, local)
    if form.kind == "adr":
        _check_coercive(space, A)
    return A


def assemble_load(space, form, u):
    """Load vector b[i] = a_h(u, N_i) over the free DOFs, for exact u."""
    if form.kind == "perturbed":
        b = assemble_load(space, form.base, u)
        if not math.isinf(form.delta):
            b = b + space.mesh.h ** form.delta * assemble_load(space, form.perturbation, u)
        return b
    if form.needs_gradient and u.gradient is None:
        raise InvalidArgumentError(
            f"form kind {form.kind!r} requires a gradient for the projected function")
    mesh = space.mesh
    exactness = 2 * space.degree + 4
    rule, V, G, xq = _element_data(space, exactness)
    det = mesh.jacobian_dets
    w = rule.weights
    flat = xq.reshape(-1, mesh.dimension)
    b_el = np.zeros((mesh.n_elements, space.n_local))
    if form.kind in ("mass", "adr"):
        uq = np.asarray(u.value(flat), dtype=float).reshape(xq.shape[:2])
        scale = 1.0 if form.kind == "mass" else form.kappa
        b_el += scale * np.einsum("q,mq,qi->mi", w, uq, V) * det[:, None]
    if form.kind in ("stiffness", "adr"):
        gu = np.asarray(u.gradient(flat), dtype=float).reshape(xq.shape)
        PG = np.einsum("qld,mde->mqle", G, mesh.inverse_jacobians)
        b_el += np.einsum("q,mqd,mqid->mi", w, gu, PG) * det[:, None]
        if form.kind == "adr" and form.velocity is not None:
            vq = np.asarray(form.velocity.value(flat)).reshape(xq.shape)
            b_el -= np.einsum("q,mqd,mqd,qi->mi", w, vq, gu, V) * det[:, None]
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.element_dofs.ravel(), b_el.ravel())
    return b[space.free_dofs]
