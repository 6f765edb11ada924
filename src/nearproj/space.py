"""Lagrange finite element spaces of degree 1 and 2 with Dirichlet masks.

Local degree-of-freedom order per element:
    1-D P1: [v0, v1]                     2-D P1: [v0, v1, v2]
    1-D P2: [v0, v1, midpoint]           2-D P2: [v0, v1, v2, e01, e12, e20]

Shape functions are expressed in barycentric coordinates; all element maps
are affine, so physical gradients are reference gradients times J^{-1}, and
evaluation contracts the coefficients with reference tables before mapping.
"""

import copy
import math

import numpy as np

from .errors import InvalidArgumentError, OutOfDomainError

BARY_TOL = 1e-12
# elements per block of a pass that samples every element at quadrature
# points (loads, error norms, the shared-element pass), and elements' worth
# of entries per column chunk of a matrix scatter: a block's samples or a
# chunk's entries take a few MB, so they do not grow with the mesh
BLOCK_ELEMENTS = 2048


def _bary(dim, pts):
    """Barycentric coordinates of reference points, shape (nq, dim+1)."""
    pts = np.asarray(pts, dtype=float)
    if dim == 1:
        t = pts[:, 0]
        return np.column_stack([1.0 - t, t])
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([1.0 - x - y, x, y])


def _bary_grads(dim):
    """Reference-coordinate gradients of the barycentric coordinates, (dim+1, dim)."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    return np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


_EDGES = {1: [(0, 1)], 2: [(0, 1), (1, 2), (2, 0)]}


def shape_values(dim, degree, pts):
    """Values of the local shape functions at reference points, (nq, n_loc)."""
    lam = _bary(dim, pts)
    if degree == 1:
        return lam
    vals = [lam[:, i] * (2.0 * lam[:, i] - 1.0) for i in range(dim + 1)]
    vals += [4.0 * lam[:, i] * lam[:, j] for i, j in _EDGES[dim]]
    return np.column_stack(vals)


def shape_grads(dim, degree, pts):
    """Reference gradients of the local shape functions, (nq, n_loc, dim)."""
    lam = _bary(dim, pts)
    g = _bary_grads(dim)
    nq = lam.shape[0]
    if degree == 1:
        return np.broadcast_to(g, (nq, dim + 1, dim)).copy()
    out = []
    for i in range(dim + 1):
        out.append((4.0 * lam[:, i] - 1.0)[:, None] * g[i])
    for i, j in _EDGES[dim]:
        out.append(4.0 * (lam[:, i][:, None] * g[j] + lam[:, j][:, None] * g[i]))
    return np.stack(out, axis=1)


def _dissection_order(mesh, element_dofs, dof_coords, free):
    """The free DOFs in nested-dissection order (George, SIAM J. Numer. Anal.
    10 (1973) 345), under which a sparse LU without reordering has near
    optimal fill.

    Each group of elements splits at its mean centroid, alternating the axis,
    for ceil(log2(elements)) levels, which on a uniform square mesh leaves at
    most one element per group (generalized nested dissection: Lipton, Rose &
    Tarjan, SIAM J. Numer. Anal. 16 (1979) 346); a split at the median rank
    cuts zig-zag separators through cell pairs where a group has odd width.
    P1 and P2 have no DOF inside an element, so every DOF lies on a
    separator.

    A DOF belongs to the deepest tree node whose elements contain all elements
    that touch it: the separator of a group is what elements on both of its
    sides touch.  DOFs are listed in postorder, both halves before their
    separator, and inside one node by coordinate, the last axis first.  The
    space of a pair's second mesh takes the order of the first
    (`derived_space`), so both systems of a pair are eliminated in the same
    order for any displacement.  1-D uses no level, since coordinate order is
    already a band that fills nothing.
    """
    d = mesh.dimension
    levels = 0 if d == 1 else math.ceil(math.log2(mesh.n_elements))
    # the element centroids as one contiguous array per axis, which bincount
    # reads several times faster than a strided column
    centroids = [sum(mesh.nodes[:, a][mesh.elements[:, k]] for k in range(d + 1)) / (d + 1)
                 for a in range(d)]
    leaf = np.zeros(mesh.n_elements, dtype=np.intp)
    for level in range(levels):
        c = centroids[level % d]
        size = np.maximum(np.bincount(leaf, minlength=2 ** level), 1)
        mean = np.bincount(leaf, c, 2 ** level) / size
        leaf = 2 * leaf + (c >= mean[leaf])
    # the node of a DOF is the common prefix of the lowest and highest leaf
    # that touch it; `height` levels above the leaves, it ends at leaf `last`
    touch = np.repeat(leaf, element_dofs.shape[1])
    lo = np.full(len(dof_coords), 2 ** levels, dtype=np.intp)
    hi = np.zeros(len(dof_coords), dtype=np.intp)
    np.minimum.at(lo, element_dofs.ravel(), touch)
    np.maximum.at(hi, element_dofs.ravel(), touch)
    height = np.frexp(lo ^ hi)[1]
    last = lo | ((1 << height) - 1)
    idx = np.flatnonzero(free)
    node = last[idx] * (levels + 1) + height[idx]
    return idx[np.lexsort((*dof_coords[idx].T, node))]


def _dof_coords(mesh, edges):
    """The nodes, then the midpoint of each edge (end nodes `edges`)."""
    nodes = mesh.nodes
    return np.concatenate([nodes, 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])])


class FeSpace:
    """Lagrange space of degree r-1 in {1,2} over a mesh, with Dirichlet mask.

    A space built on a mesh computes its numbering; one derived from the
    space of a pair's first mesh (`derived_space`) takes it.  On a derived
    space, `base` is that space, `recomputed_dofs` masks the DOFs that a
    differing element of the pair touches and `recomputed_elements` lists
    the elements that touch one of them: assembly sums anew only the entries
    of those DOFs, over those elements, on the base's system (`forms`,
    `projection.project_pair`).  All three are None on a built space.
    """

    def __init__(self, mesh, degree, dirichlet):
        if degree not in (1, 2):
            raise InvalidArgumentError(f"degree must be 1 or 2, got {degree}")
        self.mesh = mesh
        self.degree = degree
        self.dirichlet = bool(dirichlet)
        self.base = self.recomputed_dofs = self.recomputed_elements = None

        nn = mesh.n_nodes
        boundary = np.zeros(nn, dtype=bool)
        boundary[np.fromiter(mesh.boundary_nodes, dtype=np.int64)] = True
        if degree == 1:
            self.element_dofs = mesh.elements      # write-protected, so shared
            self.edges = np.empty((0, 2), dtype=np.int64)
            self.dof_coords = _dof_coords(mesh, self.edges)
        else:
            # one row per (element, local edge), element-major, keyed by its
            # sorted end nodes; np.unique numbers equal rows alike, and ranking
            # the numbers by first row numbers the edges in the order the
            # elements meet them
            ends = np.sort(mesh.elements[:, _EDGES[mesh.dimension]], axis=2)
            ends = ends.reshape(-1, 2)
            _, first, inverse = np.unique(ends[:, 0] * nn + ends[:, 1],
                                          return_index=True, return_inverse=True)
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(first.size)
            self.edges = edges = ends[np.sort(first)]
            self.element_dofs = np.concatenate(
                [mesh.elements, nn + rank[inverse].reshape(mesh.n_elements, -1)],
                axis=1)
            self.dof_coords = _dof_coords(mesh, edges)
            mid = self.dof_coords[nn:]
            # a midpoint is constrained only if the edge itself lies on the
            # boundary; for unit-box meshes both endpoints on the boundary and
            # the midpoint on it imply that
            on_box = np.min(np.concatenate([mid, 1.0 - mid], axis=1), axis=1) <= 1e-12
            boundary = np.concatenate([boundary, boundary[edges].all(axis=1) & on_box])

        self.n_dofs = self.dof_coords.shape[0]
        self.dirichlet_mask = boundary & self.dirichlet
        # free DOF numbers in elimination order: the rows and columns of every
        # assembled system follow it
        self.free_dofs = _dissection_order(mesh, self.element_dofs, self.dof_coords,
                                           ~self.dirichlet_mask)
        self.n_free = int(self.free_dofs.size)

        for arr in (self.element_dofs, self.edges, self.dof_coords,
                    self.dirichlet_mask, self.free_dofs):
            arr.setflags(write=False)

    @property
    def n_local(self):
        return self.element_dofs.shape[1]


def build_space(mesh, degree, dirichlet):
    return FeSpace(mesh, degree, dirichlet)


def derived_space(space, pair):
    """The space of pair.mesh_b with the numbering of `space`, a space over
    pair.mesh_a: its element DOFs, Dirichlet mask and free DOFs in their
    elimination order, with the DOF coordinates of mesh b.  The meshes share
    their element array and boundary nodes, so a space built on mesh b would
    number its DOFs alike, up to the elimination order.  Its systems start
    from those of `space` (`projection.project_pair`)."""
    if space.mesh is not pair.mesh_a:
        raise InvalidArgumentError("a space is derived from the space of the "
                                   "first mesh of the pair")
    out = copy.copy(space)
    out.mesh = pair.mesh_b
    out.dof_coords = _dof_coords(pair.mesh_b, space.edges)
    out.base = space
    out.recomputed_dofs = ~shared_dof_mask(pair, space)
    out.recomputed_elements = np.flatnonzero(
        out.recomputed_dofs[space.element_dofs].any(axis=1))
    for arr in (out.dof_coords, out.recomputed_dofs, out.recomputed_elements):
        arr.setflags(write=False)
    return out


class FeFunction:
    """A coefficient vector over the DOFs of an FeSpace (zero at constrained DOFs)."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float).copy()
        if coeffs.shape != (space.n_dofs,):
            raise InvalidArgumentError(
                f"coefficient vector must have length {space.n_dofs}")
        coeffs[space.dirichlet_mask] = 0.0
        coeffs.setflags(write=False)
        self.space = space
        self.coeffs = coeffs


def interpolate_nodal(space, u):
    """Nodal interpolant: coefficients are u at the DOF coordinates (free DOFs)."""
    vals = u.value(space.dof_coords)
    coeffs = np.where(space.dirichlet_mask, 0.0, vals)
    return FeFunction(space, coeffs)


def _locate(mesh, x, tol):
    """The element containing x (lowest index on ties), the reference
    coordinates of x in it and its inverse Jacobian, or raise.  The elements
    are searched block by block, up to the first block that holds x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for blk in element_blocks(mesh.n_elements):
        verts, _, Jinv = mesh.geometry(blk)
        ref = np.einsum("mdk,mk->md", Jinv, x[None, :] - verts[:, 0, :])
        lam_last = 1.0 - ref.sum(axis=1)
        inside = np.flatnonzero(np.all(ref >= -tol, axis=1) & (lam_last >= -tol))
        if inside.size:
            i = inside[0]
            return blk.start + int(i), ref[i], Jinv[i]
    raise OutOfDomainError(f"point {x} is outside the mesh domain")


def locate_element(mesh, x, tol=BARY_TOL):
    """Index of the element containing x (lowest index on ties) and the
    reference coordinates of x in it, or raise."""
    return _locate(mesh, x, tol)[:2]


def evaluate(f, x):
    """Value and gradient of an FeFunction at a single point."""
    space = f.space
    e, ref, Jinv = _locate(space.mesh, x, BARY_TOL)
    V = shape_values(space.mesh.dimension, space.degree, ref[None, :])
    G = shape_grads(space.mesh.dimension, space.degree, ref[None, :])
    dofs = space.element_dofs[e]
    value = float(V[0] @ f.coeffs[dofs])
    grad = f.coeffs[dofs] @ (G[0] @ Jinv)
    return value, grad


def element_blocks(n):
    """Slices that cover 0 .. n - 1 in consecutive blocks of BLOCK_ELEMENTS."""
    return [slice(k, min(k + BLOCK_ELEMENTS, n)) for k in range(0, n, BLOCK_ELEMENTS)]


def physical_points(vertices, ref_pts):
    """Images of reference points under the affine maps of simplices (K, d+1, d)."""
    JT = vertices[:, 1:, :] - vertices[:, :1, :]
    return vertices[:, :1, :] + ref_pts @ JT


def _reference_grads(space, c, lam):
    """Reference gradients of the element functions with coefficients c
    (K, n_loc) at points with barycentric coordinates lam, (nq, d+1) shared
    by all elements or (K, nq, d+1); returns (K, nq, d).

    For degree <= 2 the gradient is affine on each element, so it is the
    barycentric combination of its values at the d+1 reference vertices, which
    one product of c with the vertex gradients of the shape functions gives.
    """
    dim = space.mesh.dimension
    G = shape_grads(dim, space.degree, np.eye(dim + 1)[:, 1:])    # (d+1, n_loc, d)
    at_vertices = c @ G.transpose(1, 0, 2).reshape(space.n_local, -1)
    return lam @ at_vertices.reshape(len(c), dim + 1, dim)


def _rows(a, elems):
    """The rows `elems` (a slice or an index array) of a; take() gathers
    whole rows several times faster than fancy indexing."""
    return a[elems] if isinstance(elems, slice) else a.take(elems, axis=0)


def eval_on_elements(space, coeffs, elem_idx, ref_pts, Jinv=None):
    """Evaluate at the same reference points on a batch of elements.

    Returns values (K, nq) and, given the inverse Jacobians Jinv (K, d, d) of
    those elements (`Mesh.geometry`), physical gradients (K, nq, d).
    """
    dim = space.mesh.dimension
    c = coeffs[_rows(space.element_dofs, elem_idx)]       # (K, n_loc)
    vals = c @ shape_values(dim, space.degree, ref_pts).T  # (K, nq)
    if Jinv is None:
        return vals, None
    grads = _reference_grads(space, c, _bary(dim, ref_pts))
    return vals, grads @ Jinv


def eval_at_physical(space, coeffs, elem_idx, phys_pts, gradients=False):
    """Evaluate on known elements at per-element physical points (K, nq, d)."""
    verts, _, Jinv = space.mesh.geometry(elem_idx)
    v0 = verts[:, 0, :]                                            # (K, d)
    ref = (phys_pts - v0[:, None, :]) @ Jinv.transpose(0, 2, 1)    # (K, nq, d)
    K, nq, d = ref.shape
    V = shape_values(d, space.degree, ref.reshape(-1, d)).reshape(K, nq, space.n_local)
    c = coeffs[_rows(space.element_dofs, elem_idx)]
    vals = (V @ c[:, :, None])[:, :, 0]
    if not gradients:
        return vals, None
    lam = _bary(d, ref.reshape(-1, d)).reshape(K, nq, d + 1)
    return vals, _reference_grads(space, c, lam) @ Jinv


def shared_dof_mask(pair, space):
    """DOFs of `space` whose shape function is common to both spaces of the
    pair: those that no differing element touches.  The two spaces share
    their element array, so DOF k of one is DOF k of the other.
    """
    out = np.ones(space.n_dofs, dtype=bool)
    out[space.element_dofs.take(pair.differing_elements_a(), axis=0)] = False
    return out


def intersection_project(pair, f, other_space=None):
    """Keep exactly the coefficients of shape functions shared by both spaces.

    `f` must live on a space over pair.mesh_a or pair.mesh_b; the result is
    representable in both spaces and is returned on f's own space.
    `other_space`, if given, must have f's degree.
    """
    space = f.space
    if space.mesh is not pair.mesh_a and space.mesh is not pair.mesh_b:
        raise InvalidArgumentError("function does not live on either mesh of the pair")
    if other_space is not None and other_space.degree != space.degree:
        raise InvalidArgumentError("spaces of a pair must share the polynomial degree")
    keep = shared_dof_mask(pair, space)
    return FeFunction(space, np.where(keep, f.coeffs, 0.0))
