"""Sobolev norms of exact functions, FE functions, and cross-mesh differences.

Finite-integrability norms combine derivative components as
(sum_k sum_{|alpha|<=s} integral |d^alpha v|^eta)^(1/eta).  The eta=inf norm
is a sampled supremum over fixed per-element grids (25 points per interval,
45 per triangle) and is used only in diagnostics.

Differences of FE functions on a mesh pair are integrated exactly.  The two
spaces of a pair share their element array, so on a shared element the
difference is one polynomial, with coefficients f_a - f_b, evaluated at the
reference points.  The differing region is overlaid by simplices that each
lie in one element of either mesh (the pair's `fragments`), and there the
difference is integrated on all of them at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidArgumentError
from .forms import ZERO
from .quadrature import quadrature_rule
from .space import eval_at_physical, eval_on_elements, physical_points

CONSERVATION_TOL = 1e-10
SUPPORT_THRESHOLD = 1e-13

_GRID = {1: np.linspace(0.0, 1.0, 25)[:, None],
         2: np.array([[i / 8.0, j / 8.0] for i in range(9) for j in range(9 - i)])}


@dataclass(frozen=True)
class NormSpec:
    s: int = 0
    eta: float = 2.0
    region: frozenset = None     # optional element subset of the first mesh

    def __post_init__(self):
        if self.s not in (0, 1):
            raise InvalidArgumentError("norm order s must be 0 or 1")
        if not self.eta >= 2:
            raise InvalidArgumentError("integrability eta must be >= 2")


@dataclass(frozen=True)
class CrossMeshDiff:
    f_a: "FeFunction"
    f_b: "FeFunction"
    pair: "MeshPair"

    def __post_init__(self):
        if self.f_a.space.degree != self.f_b.space.degree:
            raise InvalidArgumentError("cross-mesh difference requires equal degrees")
        if self.f_a.space.mesh is not self.pair.mesh_a or \
                self.f_b.space.mesh is not self.pair.mesh_b:
            raise InvalidArgumentError("functions do not match the meshes of the pair")


def _elements(spec, mesh):
    """Every element of `mesh`, or the region of `spec` as sorted int64 indices."""
    n = mesh.n_elements
    if spec.region is None:
        return np.arange(n)
    idx = np.array(list(spec.region))
    if idx.size and (idx.dtype.kind not in "biu" or idx.min() < 0 or idx.max() >= n):
        bad = [i for i in spec.region if not (isinstance(i, (int, np.integer)) and 0 <= i < n)]
        raise InvalidArgumentError(
            f"region entries {sorted(bad, key=repr)} are not element indices 0 .. {n - 1}")
    return np.sort(idx).astype(np.int64)


def _sample(f, u, elems, eta, gradients):
    """f - u on the elements elems of f's mesh, at the fixed grid when
    eta = inf and else at a rule exact to degree 2 degree + 6.

    Returns the rule's weights (None on the grid) and the parts: the value
    differences (K, nq) and, with `gradients`, the gradient differences
    (K, nq, d).
    """
    space = f.space
    mesh = space.mesh
    if math.isinf(eta):
        pts, weights = _GRID[mesh.dimension], None
    else:
        rule = quadrature_rule(mesh.dimension, 2 * space.degree + 6)
        pts, weights = rule.points, rule.weights
    vals, grads = eval_on_elements(space, f.coeffs, elems, pts, gradients=gradients)
    flat = physical_points(mesh.element_vertices[elems], pts).reshape(-1, mesh.dimension)
    parts = [vals - np.asarray(u.value(flat)).reshape(vals.shape)]
    if gradients:
        parts.append(grads - np.asarray(u.gradient(flat)).reshape(grads.shape))
    return weights, parts


def _integral(parts, eta, weights, det):
    """Sum over parts, values (K, nq) or gradients (K, nq, d), of the
    integral of |part|^eta, with the rule's weights and the element
    determinants det (K,); with weights None (the grid), the largest
    magnitude instead."""
    if weights is None:
        return max(float(np.abs(p).max(initial=0.0)) for p in parts)
    total = 0.0
    for p in parts:
        total += np.einsum("kqd"[:p.ndim] + ",q,k->", np.abs(p) ** eta, weights, det)
    return total


def _norm(total, eta):
    return float(total if math.isinf(eta) else total ** (1.0 / eta))


def sobolev_norm_exact_diff(f, u, spec):
    """W^{s,eta} norm of (f - u) for an FeFunction f and exact u."""
    if spec.s == 1 and u.gradient is None:
        raise InvalidArgumentError("s=1 norm requires a gradient for u")
    mesh = f.space.mesh
    elems = _elements(spec, mesh)
    weights, parts = _sample(f, u, elems, spec.eta, spec.s == 1)
    return _norm(_integral(parts, spec.eta, weights, mesh.jacobian_dets[elems]), spec.eta)


def fe_norm(f, spec):
    """Norm of an FE function itself (difference against zero)."""
    return sobolev_norm_exact_diff(f, ZERO, spec)


def fe_component_norms(f, k, eta):
    """Per-derivative-component L^eta norms (|f|, |df/dx1|, ...), orders <= k.

    Used to check support/Holder inequalities in the norm convention that sums
    component norms.
    """
    mesh = f.space.mesh
    elems = np.arange(mesh.n_elements)
    weights, parts = _sample(f, ZERO, elems, eta, k == 1)
    if k == 1:
        parts = parts[:1] + [parts[1][:, :, d] for d in range(mesh.dimension)]
    return [_norm(_integral([p], eta, weights, mesh.jacobian_dets), eta) for p in parts]


def cross_mesh_norm(diff, spec):
    """Exact W^{s,2} norm of f_a - f_b across the meshes of a pair."""
    if spec.eta != 2:
        raise InvalidArgumentError("cross-mesh norms are measured with eta = 2")
    f_a, f_b, pair = diff.f_a, diff.f_b, diff.pair
    sa, sb = f_a.space, f_b.space
    mesh_a = pair.mesh_a
    need_grad = spec.s == 1
    rule = quadrature_rule(mesh_a.dimension, 2 * sa.degree)

    # a shared element has the same DOFs in both spaces: one polynomial
    elems = _elements(spec, mesh_a)
    ia = elems[pair.match[elems] >= 0]
    v, g = eval_on_elements(sa, f_a.coeffs - f_b.coeffs, ia, rule.points,
                            gradients=need_grad)
    shared = _integral([v] if g is None else [v, g], 2, rule.weights,
                       mesh_a.jacobian_dets[ia])

    simplices, ia, ib, covered = pair.fragments
    if spec.region is not None:
        keep = np.isin(ia, elems)
        simplices, ia, ib = simplices[keep], ia[keep], ib[keep]
    pts = physical_points(simplices, rule.points)
    va, ga = eval_at_physical(sa, f_a.coeffs, ia, pts, gradients=need_grad)
    vb, gb = eval_at_physical(sb, f_b.coeffs, ib, pts, gradients=need_grad)
    parts = [va - vb] if ga is None else [va - vb, ga - gb]
    det = np.abs(np.linalg.det(simplices[:, 1:, :] - simplices[:, :1, :]))
    fragments = _integral(parts, 2, rule.weights, det)
    if spec.region is None and \
            abs(covered - pair.differing_region_measure) > CONSERVATION_TOL:
        raise GeometryError(
            f"clipped fragments cover {covered:.17g} of a differing region "
            f"of measure {pair.differing_region_measure:.17g}")
    return float(np.sqrt(shared + fragments))


def support_measure(f):
    """Total measure of elements where f is not identically below SUPPORT_THRESHOLD."""
    space = f.space
    mesh = space.mesh
    rule = quadrature_rule(mesh.dimension, 2 * space.degree)
    elems = np.arange(mesh.n_elements)
    vals, _ = eval_on_elements(space, f.coeffs, elems, rule.points)
    active = np.abs(vals).max(axis=1) > SUPPORT_THRESHOLD
    active |= np.abs(f.coeffs[space.element_dofs]).max(axis=1) > SUPPORT_THRESHOLD
    return float(mesh.element_measures[active].sum())

