"""Bilinear form descriptions, matrix assembly, and exact-function load vectors.

Scalar callables follow the convention value(x) -> (N,) and gradient(x) -> (N, d)
for x of shape (N, d).  The advection velocity of an ADR form is a constant
vector.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import InvalidArgumentError
from .quadrature import quadrature_rule
from .space import physical_points, shape_grads, shape_values


@dataclass(frozen=True)
class FunctionSpec:
    """An exactly evaluable function with optional gradient.

    dimension is the dimension of the domain it is defined on (None: any).
    regularity is the (k, eta) of the Sobolev space W^{k,eta} that the
    predicted orders take u from; (inf, inf) for a smooth function.
    """

    value: callable
    gradient: callable = None
    name: str = ""
    dimension: int = None
    regularity: tuple = (math.inf, math.inf)


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
    kind 'perturbed':  base + h^delta * mass
    """

    kind: str
    kappa: float = 1.0
    velocity: tuple = None
    base: "BilinearFormSpec" = None
    delta: float = None

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
            if self.base is None or self.delta is None:
                raise InvalidArgumentError("perturbed form requires base and delta "
                                           "(it adds h^delta * mass)")
            if not self.delta >= 0:   # also rejects nan
                raise InvalidArgumentError("delta must be >= 0 (or inf)")

    @property
    def s(self):
        """Sobolev order of the form: 0 for mass, 1 otherwise."""
        if self.kind == "mass":
            return 0
        if self.kind == "perturbed":
            return self.base.s
        return 1


MASS = BilinearFormSpec("mass")
STIFFNESS = BilinearFormSpec("stiffness")


def perturbed_form(base, delta):
    return BilinearFormSpec("perturbed", base=base, delta=delta)


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
    """Element matrices as geometry tensors contracted with reference tensors.

    On an affine simplex with J^{-1} = Jinv the stiffness matrix is
    sum_ab (det Jinv Jinv^T)_ab S_abij with S_abij = sum_q w_q G_qia G_qjb,
    and the advection matrix sum_a (det Jinv v)_a T_aij with
    T_aij = sum_q w_q V_qi G_qja (Kirby & Logg, ACM TOMS 32 (2006)).
    """
    mesh = space.mesh
    m, d, nloc = mesh.n_elements, mesh.dimension, space.n_local
    det = mesh.jacobian_dets
    w = rule.weights
    mass_ref = np.einsum("q,qi,qj->ij", w, V, V)[None, :, :]
    if form.kind == "mass":
        return det[:, None, None] * mass_ref
    Jinv = mesh.inverse_jacobians
    S = np.einsum("q,qia,qjb->abij", w, G, G).reshape(d * d, nloc * nloc)
    geometry = det[:, None, None] * (Jinv @ Jinv.transpose(0, 2, 1))
    loc = (geometry.reshape(m, d * d) @ S).reshape(m, nloc, nloc)
    if form.kind == "adr":
        T = np.einsum("q,qi,qja->aij", w, V, G).reshape(d, nloc * nloc)
        adv = ((det[:, None] * (Jinv @ _velocity(space, form))) @ T).reshape(loc.shape)
        loc = loc - adv + form.kappa * det[:, None, None] * mass_ref
    return loc


def _scatter(space, local):
    """Sum the element matrices into a CSC matrix over the free DOFs, numbered
    in the order of `space.free_dofs`; constrained entries are dropped."""
    nloc = space.n_local
    index = np.full(space.n_dofs, -1, dtype=np.int32)
    index[space.free_dofs] = np.arange(space.n_free, dtype=np.int32)
    conn = index[space.element_dofs]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    # one compressed copy at a time keeps the peak of the scatter low
    rows = rows[keep]
    cols = cols[keep]
    return scipy.sparse.coo_matrix((local.ravel()[keep], (rows, cols)),
                                   shape=(space.n_free, space.n_free)).tocsc()


def assemble_matrix(space, form):
    """Sparse matrix A[i,j] = a_h(N_j, N_i) over the free DOFs."""
    if form.kind == "perturbed":
        A = assemble_matrix(space, form.base)
        if not math.isinf(form.delta):
            A = A + space.mesh.h ** form.delta * assemble_matrix(space, MASS)
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
            b = b + space.mesh.h ** form.delta * assemble_load(space, MASS, u)
        return b
    if form.s == 1 and u.gradient is None:
        raise InvalidArgumentError(
            f"form kind {form.kind!r} requires a gradient for the projected function")
    mesh = space.mesh
    rule, V, G = _element_data(space, 2 * space.degree + 4)
    xq = physical_points(mesh.element_vertices, rule.points)
    w = rule.weights
    flat = xq.reshape(-1, mesh.dimension)
    # b_ei = det_e sum_q w_q (s_q V_qi + sum_a r_qa G_qia): s are the value
    # samples and r the gradient samples mapped to reference coordinates
    samples = np.zeros(xq.shape[:2])
    b_el = 0.0
    if form.kind in ("mass", "adr"):
        uq = np.asarray(u.value(flat), dtype=float).reshape(xq.shape[:2])
        samples += uq if form.kind == "mass" else form.kappa * uq
    if form.kind in ("stiffness", "adr"):
        gu = np.asarray(u.gradient(flat), dtype=float).reshape(xq.shape)
        if form.kind == "adr":
            samples -= gu @ _velocity(space, form)
        mapped = (gu @ mesh.inverse_jacobians.transpose(0, 2, 1)) * w[:, None]
        b_el = mapped.reshape(mesh.n_elements, -1) @ G.transpose(0, 2, 1).reshape(
            -1, space.n_local)
    b_el = b_el + (samples * w) @ V
    b_el *= mesh.jacobian_dets[:, None]
    b = np.bincount(space.element_dofs.ravel(), weights=b_el.ravel(),
                    minlength=space.n_dofs)
    return b[space.free_dofs]
