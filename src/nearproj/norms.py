"""Sobolev norms of exact functions, FE functions, and cross-mesh differences.

Finite-integrability norms combine derivative components as
(sum_k sum_{|alpha|<=s} integral |d^alpha v|^eta)^(1/eta).  The eta=inf norm
is a sampled supremum over fixed per-element grids (25 points per interval,
45 per triangle) and is used only in diagnostics.

Differences of FE functions on a mesh pair are integrated exactly.  The two
spaces of a pair share their element array, so on a shared element the
difference is one polynomial, with coefficients f_a - f_b, evaluated at the
reference points.  The differing region is overlaid by simplices that each
lie in one element of either mesh (the pair's `fragments`, checked by the
pair to cover that region), and there the difference is integrated on all of
them at once with the determinants the overlay stores.

Every pass over whole meshes (error norms, component norms, the shared-element
pass, `support_measure`) samples its elements in blocks of
`space.BLOCK_ELEMENTS`, with each block's geometry computed once for it
(`Mesh.geometry`), and sums the blocks' integrals (takes their maximum for
eta = inf), so it holds one block's samples and geometry at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .forms import ZERO
from .quadrature import quadrature_rule
from .space import element_blocks, eval_at_physical, eval_on_elements, physical_points

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

    Returns the rule's weights (None on the grid), the elements' Jacobian
    determinants and the parts: the value differences (K, nq) and, with
    `gradients`, the gradient differences (K, nq, d).
    """
    space = f.space
    mesh = space.mesh
    if math.isinf(eta):
        pts, weights = _GRID[mesh.dimension], None
    else:
        rule = quadrature_rule(mesh.dimension, 2 * space.degree + 6)
        pts, weights = rule.points, rule.weights
    verts, det, Jinv = mesh.geometry(elems)
    vals, grads = eval_on_elements(space, f.coeffs, elems, pts, Jinv if gradients else None)
    flat = physical_points(verts, pts).reshape(-1, mesh.dimension)
    parts = [vals - np.asarray(u.value(flat)).reshape(vals.shape)]
    if gradients:
        parts.append(grads - np.asarray(u.gradient(flat)).reshape(grads.shape))
    return weights, det, parts


def _integrals(parts, eta, weights, det):
    """Per part, values (K, nq) or gradients (K, nq, d), the integral of
    |part|^eta with the rule's weights and the element determinants det (K,);
    with weights None (the grid), the largest magnitude instead."""
    if weights is None:
        return np.array([np.abs(p).max(initial=0.0) for p in parts])
    return np.array([np.einsum("kqd"[:p.ndim] + ",q,k->", np.abs(p) ** eta, weights, det)
                     for p in parts])


def _blockwise(elems, eta, sample):
    """`_integrals` of the parts that `sample(e)` returns with its weights
    and determinants, over the elements elems taken in blocks e
    (`element_blocks`): summed over the blocks, or their maximum when
    eta = inf; 0.0 for no elements."""
    totals = 0.0
    for blk in element_blocks(len(elems)):
        weights, det, parts = sample(elems[blk])
        block = _integrals(parts, eta, weights, det)
        totals = np.maximum(totals, block) if math.isinf(eta) else totals + block
    return totals


def _norm(totals, eta):
    """The norm from per-part integrals: the largest part when eta = inf,
    else the eta-th root of their sum."""
    totals = np.asarray(totals)
    return float(totals.max() if math.isinf(eta) else totals.sum() ** (1.0 / eta))


def sobolev_norm_exact_diff(f, u, spec):
    """W^{s,eta} norm of (f - u) for an FeFunction f and exact u."""
    if spec.s == 1 and u.gradient is None:
        raise InvalidArgumentError("s=1 norm requires a gradient for u")
    mesh = f.space.mesh
    totals = _blockwise(_elements(spec, mesh), spec.eta,
                        lambda e: _sample(f, u, e, spec.eta, spec.s == 1))
    return _norm(totals, spec.eta)


def fe_norm(f, spec):
    """Norm of an FE function itself (difference against zero)."""
    return sobolev_norm_exact_diff(f, ZERO, spec)


def fe_component_norms(f, k, eta):
    """Per-derivative-component L^eta norms (|f|, |df/dx1|, ...), orders <= k.

    Used to check support/Holder inequalities in the norm convention that sums
    component norms.
    """
    mesh = f.space.mesh

    def sample(e):
        weights, det, parts = _sample(f, ZERO, e, eta, k == 1)
        if k == 1:
            parts = parts[:1] + [parts[1][:, :, d] for d in range(mesh.dimension)]
        return weights, det, parts

    totals = _blockwise(np.arange(mesh.n_elements), eta, sample)
    return [_norm(t, eta) for t in totals]


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
    coeffs = f_a.coeffs - f_b.coeffs

    def shared_parts(e):
        _, det, Jinv = mesh_a.geometry(e)
        v, g = eval_on_elements(sa, coeffs, e, rule.points, Jinv if need_grad else None)
        return rule.weights, det, [v] if g is None else [v, g]

    shared = _blockwise(elems[pair.shared[elems]], 2, shared_parts)

    simplices, ia, ib, det = pair.fragments
    if spec.region is not None:
        keep = np.isin(ia, elems)
        simplices, ia, ib, det = simplices[keep], ia[keep], ib[keep], det[keep]
    pts = physical_points(simplices, rule.points)
    va, ga = eval_at_physical(sa, f_a.coeffs, ia, pts, gradients=need_grad)
    vb, gb = eval_at_physical(sb, f_b.coeffs, ib, pts, gradients=need_grad)
    parts = [va - vb] if ga is None else [va - vb, ga - gb]
    fragments = _integrals(parts, 2, rule.weights, det)
    return float(np.sqrt(np.sum(shared) + fragments.sum()))


def support_measure(f):
    """Total measure of elements where f is not identically below SUPPORT_THRESHOLD."""
    space = f.space
    mesh = space.mesh
    rule = quadrature_rule(mesh.dimension, 2 * space.degree)
    dets = []
    for blk in element_blocks(mesh.n_elements):
        vals, _ = eval_on_elements(space, f.coeffs, blk, rule.points)
        active = ((np.abs(vals).max(axis=1) > SUPPORT_THRESHOLD)
                  | (np.abs(f.coeffs[space.element_dofs[blk]]).max(axis=1)
                     > SUPPORT_THRESHOLD))
        dets.append(mesh.geometry(blk)[1][active])
    # an element measures det / d!, and d! = d for d = 1, 2
    return float(np.concatenate(dets).sum()) / mesh.dimension

