"""Sobolev norms of exact functions, FE functions, and cross-mesh differences.

Finite-integrability norms combine derivative components as
(sum_k sum_{|alpha|<=s} integral |d^alpha v|^eta)^(1/eta).  The eta=inf norm
is a sampled supremum over fixed per-element grids (25 points per interval,
45 per triangle) and is used only in diagnostics.

Differences of FE functions on a mesh pair are integrated exactly: shared
elements carry a single polynomial difference; the differing region is
overlaid by simplices that each lie in one element of either mesh (the
pair's `fragments`), and the difference is integrated on all of them at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidArgumentError
from .forms import ZERO
from .quadrature import quadrature_rule
from .space import eval_at_physical, eval_on_elements, physical_points

CONSERVATION_TOL = 1e-10

_GRID_1D = np.linspace(0.0, 1.0, 25)[:, None]
_GRID_2D = np.array([[i / 8.0, j / 8.0]
                     for i in range(9) for j in range(9 - i)])


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


def sobolev_norm_exact_diff(f, u, spec):
    """W^{s,eta} norm of (f - u) for an FeFunction f and exact u."""
    space = f.space
    mesh = space.mesh
    if spec.s == 1 and u.gradient is None:
        raise InvalidArgumentError("s=1 norm requires a gradient for u")
    elems = (np.arange(mesh.n_elements) if spec.region is None
             else np.array(sorted(spec.region), dtype=np.int64))

    if math.isinf(spec.eta):
        grid = _GRID_1D if mesh.dimension == 1 else _GRID_2D
        vals, grads = eval_on_elements(space, f.coeffs, elems, grid,
                                       gradients=spec.s == 1)
        pts = physical_points(mesh.element_vertices[elems], grid)
        pts = pts.reshape(-1, mesh.dimension)
        uvals = np.asarray(u.value(pts)).reshape(vals.shape)
        sup = np.abs(vals - uvals).max()
        if spec.s == 1:
            ugrads = np.asarray(u.gradient(pts)).reshape(grads.shape)
            sup = max(sup, np.abs(grads - ugrads).max())
        return float(sup)

    rule = quadrature_rule(mesh.dimension, 2 * space.degree + 6)
    vals, grads = eval_on_elements(space, f.coeffs, elems, rule.points,
                                   gradients=spec.s == 1)
    pts = physical_points(mesh.element_vertices[elems], rule.points)
    flat = pts.reshape(-1, mesh.dimension)
    uvals = np.asarray(u.value(flat)).reshape(vals.shape)
    det = mesh.jacobian_dets[elems]
    total = np.einsum("kq,q,k->", np.abs(vals - uvals) ** spec.eta, rule.weights, det)
    if spec.s == 1:
        ugrads = np.asarray(u.gradient(flat)).reshape(grads.shape)
        diff = np.abs(grads - ugrads) ** spec.eta
        total += np.einsum("kqd,q,k->", diff, rule.weights, det)
    return float(total ** (1.0 / spec.eta))


def fe_norm(f, spec):
    """Norm of an FE function itself (difference against zero)."""
    return sobolev_norm_exact_diff(f, ZERO, spec)


def fe_component_norms(f, k, eta):
    """Per-derivative-component L^eta norms (|f|, |df/dx1|, ...), orders <= k.

    Used to check support/Holder inequalities in the norm convention that sums
    component norms.
    """
    space = f.space
    mesh = space.mesh
    elems = np.arange(mesh.n_elements)
    if math.isinf(eta):
        grid = _GRID_1D if mesh.dimension == 1 else _GRID_2D
        vals, grads = eval_on_elements(space, f.coeffs, elems, grid, gradients=k == 1)
        out = [float(np.abs(vals).max())]
        if k == 1:
            out += [float(np.abs(grads[:, :, d]).max()) for d in range(mesh.dimension)]
        return out
    rule = quadrature_rule(mesh.dimension, 2 * space.degree + 6)
    vals, grads = eval_on_elements(space, f.coeffs, elems, rule.points, gradients=k == 1)
    det = mesh.jacobian_dets
    out = [float(np.einsum("kq,q,k->", np.abs(vals) ** eta, rule.weights, det)
                 ** (1.0 / eta))]
    if k == 1:
        for d in range(mesh.dimension):
            out.append(float(np.einsum("kq,q,k->", np.abs(grads[:, :, d]) ** eta,
                                       rule.weights, det) ** (1.0 / eta)))
    return out


def _squared_difference(va, ga, vb, gb, weights, det):
    """Quadrature of (va - vb)^2, plus |ga - gb|^2 when gradients are given."""
    total = np.einsum("kq,q,k->", (va - vb) ** 2, weights, det)
    if ga is not None:
        total += np.einsum("kqd,q,k->", (ga - gb) ** 2, weights, det)
    return total


def cross_mesh_norm(diff, spec):
    """Exact W^{s,2} norm of f_a - f_b across the meshes of a pair."""
    if spec.eta != 2:
        raise InvalidArgumentError("cross-mesh norms are measured with eta = 2")
    f_a, f_b, pair = diff.f_a, diff.f_b, diff.pair
    sa, sb = f_a.space, f_b.space
    mesh_a = pair.mesh_a
    degree = sa.degree
    need_grad = spec.s == 1
    rule = quadrature_rule(mesh_a.dimension, 2 * degree)

    region = None if spec.region is None else np.fromiter(spec.region, dtype=np.int64)
    ia = np.flatnonzero(pair.shared_mask_a)
    if region is not None:
        ia = ia[np.isin(ia, region)]
    ib = pair.match[ia]
    pts = physical_points(mesh_a.element_vertices[ia], rule.points)
    va, ga = eval_on_elements(sa, f_a.coeffs, ia, rule.points, gradients=need_grad)
    vb, gb = eval_at_physical(sb, f_b.coeffs, ib, pts, gradients=need_grad)
    total = _squared_difference(va, ga, vb, gb, rule.weights, mesh_a.jacobian_dets[ia])

    simplices, ia, ib, covered = pair.fragments
    if region is not None:
        keep = np.isin(ia, region)
        simplices, ia, ib = simplices[keep], ia[keep], ib[keep]
    pts = physical_points(simplices, rule.points)
    va, ga = eval_at_physical(sa, f_a.coeffs, ia, pts, gradients=need_grad)
    vb, gb = eval_at_physical(sb, f_b.coeffs, ib, pts, gradients=need_grad)
    det = np.abs(np.linalg.det(simplices[:, 1:, :] - simplices[:, :1, :]))
    total += _squared_difference(va, ga, vb, gb, rule.weights, det)
    if spec.region is None and \
            abs(covered - pair.differing_region_measure) > CONSERVATION_TOL:
        raise GeometryError(
            f"clipped fragments cover {covered:.17g} of a differing region "
            f"of measure {pair.differing_region_measure:.17g}")
    return float(np.sqrt(total))


def seminorm_exact(u, k, eta, approximate_ok=False):
    """Seminorm |u|_{k,eta}: the analytic value when known, else a sampled
    approximation (only with approximate_ok=True; sampling covers the unit
    interval, so the fallback applies to 1-D functions)."""
    for key, val in u.seminorms.items():
        if key[0] == k and (key[1] == eta or (math.isinf(key[1]) and math.isinf(eta))):
            return float(val)
    if not approximate_ok:
        raise InvalidArgumentError(
            f"no analytic seminorm ({k}, {eta}) for {u.name or 'function'}")
    if k == 0:
        f = u.value
    elif k == 1 and u.gradient is not None:
        f = lambda x: np.linalg.norm(np.asarray(u.gradient(x)), axis=-1)
    else:
        raise InvalidArgumentError(f"derivative order {k} unavailable")
    xs = np.linspace(0.0, 1.0, 200001)[:, None]
    vals = np.abs(np.asarray(f(xs)))
    if math.isinf(eta):
        return float(vals.max())
    return float((np.trapezoid(vals.ravel() ** eta, xs.ravel())) ** (1.0 / eta))


def support_measure(f, threshold=1e-13):
    """Total measure of elements where f is not identically below threshold."""
    if threshold < 0:
        raise InvalidArgumentError("threshold must be nonnegative")
    space = f.space
    mesh = space.mesh
    rule = quadrature_rule(mesh.dimension, 2 * space.degree)
    elems = np.arange(mesh.n_elements)
    vals, _ = eval_on_elements(space, f.coeffs, elems, rule.points)
    active = np.abs(vals).max(axis=1) > threshold
    active |= np.abs(f.coeffs[space.element_dofs]).max(axis=1) > threshold
    return float(mesh.element_measures[active].sum())

