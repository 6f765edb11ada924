"""Bilinear form descriptions, matrix assembly, and exact-function load vectors.

Scalar callables follow the convention value(x) -> (N,) and gradient(x) -> (N, d)
for x of shape (N, d).  The advection velocity of an ADR form is a constant
vector.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import InvalidArgumentError
from .quadrature import quadrature_rule
from .space import physical_grads, physical_points, shape_grads, shape_values


@dataclass(frozen=True)
class FunctionSpec:
    """An exactly evaluable function with optional gradient and known seminorms.

    seminorms maps (order, integrability) -> analytic value |u|_{k,eta}.
    dimension is the dimension of the domain it is defined on (None: any).
    """

    value: callable
    gradient: callable = None
    seminorms: dict = field(default_factory=dict)
    name: str = ""
    dimension: int = None

    def __call__(self, x):
        return self.value(np.asarray(x, dtype=float))


ZERO = FunctionSpec(value=lambda x: np.zeros(x.shape[0]),
                    gradient=lambda x: np.zeros_like(x), name="zero")

@dataclass(frozen=True)
class BilinearFormSpec:
    """Declarative description of the bilinear form a_h.

    kind 'mass':       a(u,w) = integral(u w)                          (s = 0)
    kind 'stiffness':  a(u,w) = integral(grad u . grad w)              (s = 1)
    kind 'adr':        stiffness - integral((v . grad u) w) + kappa*mass, for a
                       constant velocity v (None: zero) and finite kappa >= 0;
                       on a space with Dirichlet constraints its symmetric
                       part is stiffness + kappa*mass, so it is coercive
    kind 'perturbed':  base + h^delta * perturbation
    """

    kind: str
    kappa: float = 1.0
    velocity: tuple = None
    base: "BilinearFormSpec" = None
    delta: float = None
    perturbation: "BilinearFormSpec" = None
    mu: int = 0
    nu: int = 0
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("mass", "stiffness", "adr", "perturbed"):
            raise InvalidArgumentError(f"unknown form kind {self.kind!r}")
        if self.kind == "adr" and not 0 <= self.kappa < math.inf:
            raise InvalidArgumentError(f"adr requires a finite kappa >= 0, got {self.kappa}")
        if self.velocity is not None:
            object.__setattr__(self, "velocity", tuple(map(float, self.velocity)))
            if not all(map(math.isfinite, self.velocity)):
                raise InvalidArgumentError(
                    f"velocity components must be finite, got {self.velocity}")
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
    return rule, V, G


def _velocity(space, form):
    """The constant advection velocity of an ADR form as a (d,) array."""
    v = np.array(form.velocity or (0.0,) * space.mesh.dimension)
    if v.shape != (space.mesh.dimension,):
        raise InvalidArgumentError(
            f"velocity {form.velocity} does not match dimension {space.mesh.dimension}")
    return v


def _local_matrices(space, form, rule, V, G):
    mesh = space.mesh
    det = mesh.jacobian_dets[:, None, None]
    w = rule.weights
    mass_ref = np.einsum("q,qi,qj->ij", w, V, V)[None, :, :]
    if form.kind == "mass":
        return det * mass_ref
    PG = physical_grads(G, mesh.inverse_jacobians)       # (m, nq, nloc, d)
    loc = np.einsum("q,mqid,mqjd->mij", w, PG, PG) * det
    if form.kind == "adr":
        adv = np.einsum("q,mqj,qi->mij", w, PG @ _velocity(space, form), V)
        loc = loc - adv * det + form.kappa * det * mass_ref
    return loc


def _scatter(space, local):
    nloc = space.n_local
    conn = space.element_dofs
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    mat = scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                  shape=(space.n_dofs, space.n_dofs)).tocsr()
    free = space.free_dofs
    return mat[free][:, free].tocsr()


def assemble_matrix(space, form):
    """Sparse matrix A[i,j] = a_h(N_j, N_i) over the free DOFs."""
    if form.kind == "perturbed":
        A = assemble_matrix(space, form.base)
        if not math.isinf(form.delta):
            A = A + space.mesh.h ** form.delta * assemble_matrix(space, form.perturbation)
        return A
    if form.kind == "adr" and not space.dirichlet:
        raise InvalidArgumentError("an adr form needs a space with Dirichlet constraints")
    rule, V, G = _element_data(space, 2 * space.degree)
    return _scatter(space, _local_matrices(space, form, rule, V, G))


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
    rule, V, G = _element_data(space, 2 * space.degree + 4)
    xq = physical_points(mesh.element_vertices, rule.points)
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
        PG = physical_grads(G, mesh.inverse_jacobians)
        b_el += np.einsum("q,mqd,mqid->mi", w, gu, PG) * det[:, None]
        if form.kind == "adr":
            b_el -= np.einsum("q,mq,qi->mi", w, gu @ _velocity(space, form), V) * det[:, None]
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.element_dofs.ravel(), b_el.ravel())
    return b[space.free_dofs]
