"""Simplicial meshes of [0,1]^d (d = 1, 2), node perturbations, mesh pairing.

Meshes are immutable after construction: the coordinate and connectivity
arrays are write-protected, and every operation returns a new mesh.  A mesh
pair is a mesh and a copy of it with some nodes moved, so the two share one
element array and are matched by index: element k is shared when none of its
nodes moved.  A pair overlays its differing region once, on first use:
interval intersections in 1-D, fan triangles of clipped polygons in 2-D.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMeshError, GeometryError, InvalidArgumentError

COORD_TOL = 1e-14          # per-coordinate tolerance for "identical point"
MEASURE_TOL = 1e-12
BOX_TOL = 1e-13            # bounding boxes this close count as overlapping
CLIP_VERTEX_TOL = 1e-12
# Clipping a convex polygon by a half-plane adds at most one vertex, so a
# triangle clipped by the three edges of another has at most six.
MAX_CLIP_VERTICES = 6


class Mesh:
    """A 1-D interval mesh or 2-D triangle mesh with boundary flags.

    Attributes
    ----------
    dimension : int, 1 or 2
    nodes : (n_nodes, dimension) array
    elements : (n_elements, dimension+1) int array, counterclockwise in 2-D
    boundary_nodes : frozenset of node indices on the domain boundary
    h : float, maximum element diameter
    """

    def __init__(self, dimension, nodes, elements, boundary_nodes):
        if dimension not in (1, 2):
            raise InvalidArgumentError(f"dimension must be 1 or 2, got {dimension}")
        nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        elements = np.ascontiguousarray(np.asarray(elements, dtype=np.int64))
        if nodes.shape[1] != dimension or elements.shape[1] != dimension + 1:
            raise InvalidArgumentError("node/element array shapes do not match dimension")
        self.dimension = dimension
        self.nodes = nodes
        self.elements = elements
        self.boundary_nodes = frozenset(int(i) for i in boundary_nodes)

        verts = nodes[elements]                       # (m, d+1, d)
        jac = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)   # (m, d, d)
        det = np.linalg.det(jac) if dimension == 2 else jac[:, 0, 0]
        if np.any(det <= 0.0):
            raise DegenerateMeshError("element with nonpositive measure")
        self.element_vertices = verts
        self.jacobian_dets = det
        self.inverse_jacobians = np.linalg.inv(jac)
        self.element_measures = det / (1.0 if dimension == 1 else 2.0)
        self.element_diameters = self._diameters(verts)
        self.h = float(self.element_diameters.max())
        for arr in (self.nodes, self.elements, self.element_vertices, self.jacobian_dets,
                    self.inverse_jacobians, self.element_measures, self.element_diameters):
            arr.setflags(write=False)

    @staticmethod
    def _diameters(verts):
        m, nv, _ = verts.shape
        diam = np.zeros(m)
        for i in range(nv):
            for j in range(i + 1, nv):
                diam = np.maximum(diam, np.linalg.norm(verts[:, i] - verts[:, j], axis=1))
        return diam

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def domain_measure(self):
        return float(self.element_measures.sum())

    def inradii(self):
        """Element inradii (2-D: area / semiperimeter; 1-D: half length)."""
        if self.dimension == 1:
            return 0.5 * self.element_measures
        v = self.element_vertices
        a = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        b = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        c = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        return 2.0 * self.element_measures / (a + b + c)


def build_uniform_interval(n):
    """Uniform mesh of [0,1] with n elements and nodes at i/n."""
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    nodes = np.linspace(0.0, 1.0, n + 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(1, nodes, elements, {0, n})


def build_uniform_square(n):
    """Structured mesh of [0,1]^2: each lattice square split along the same diagonal.

    All diagonals run bottom-left to top-right; triangles are counterclockwise.
    """
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)               # row j = constant y
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)     # nid[j, i] = j (n+1) + i
    v00, v10 = nid[:-1, :-1].ravel(), nid[:-1, 1:].ravel()
    v01, v11 = nid[1:, :-1].ravel(), nid[1:, 1:].ravel()
    # the lower and the upper triangle of each square, squares row by row
    elements = np.stack([np.column_stack([v00, v10, v11]),
                         np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)
    boundary = np.concatenate([nid[0], nid[-1], nid[:, 0], nid[:, -1]])
    return Mesh(2, nodes, elements, boundary)


def _as_displacement(mesh, displacement):
    d = np.atleast_1d(np.asarray(displacement, dtype=float))
    if d.shape != (mesh.dimension,):
        raise InvalidArgumentError(
            f"displacement must have {mesh.dimension} component(s), got shape {d.shape}")
    return d


def perturb_node_nearest(mesh, point, displacement):
    """Translate the single node nearest to `point` (ties: lowest index).

    The nearest node must be interior, and the displacement must keep every
    incident element at positive measure.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    disp = _as_displacement(mesh, displacement)
    dist2 = np.sum((mesh.nodes - point[None, :]) ** 2, axis=1)
    k = int(np.argmin(dist2))
    if k in mesh.boundary_nodes:
        raise InvalidArgumentError(f"nearest node {k} lies on the boundary")
    nodes = mesh.nodes.copy()
    nodes[k] += disp
    try:
        return Mesh(mesh.dimension, nodes, mesh.elements, mesh.boundary_nodes)
    except DegenerateMeshError as exc:
        raise DegenerateMeshError(
            f"displacement of node {k} inverts an incident element") from exc


def _boundary_distance(nodes):
    """Euclidean distance to the boundary of the unit box (meshes live in [0,1]^d)."""
    return np.min(np.concatenate([nodes, 1.0 - nodes], axis=1), axis=1)


def perturb_boundary_band(mesh, band_distance, displacement):
    """Translate every interior node whose distance to the boundary is band_distance."""
    if mesh.dimension != 2:
        raise InvalidArgumentError("boundary-band perturbation requires a 2-D mesh")
    disp = _as_displacement(mesh, displacement)
    dist = _boundary_distance(mesh.nodes)
    sel = np.where(np.abs(dist - band_distance) <= 1e-12)[0]
    sel = [k for k in sel if k not in mesh.boundary_nodes]
    nodes = mesh.nodes.copy()
    nodes[sel] += disp[None, :]
    try:
        return Mesh(mesh.dimension, nodes, mesh.elements, mesh.boundary_nodes)
    except DegenerateMeshError as exc:
        raise DegenerateMeshError("band displacement inverts an element") from exc


@dataclass(frozen=True)
class MeshPair:
    """A mesh and a copy with moved nodes, with their shared/differing
    classification."""

    mesh_a: Mesh
    mesh_b: Mesh
    # the element of b at each element of a, or -1 where they differ
    match: np.ndarray = field(repr=False, compare=False)
    differing_region_measure: float
    gamma_nominal: float

    @property
    def shared_mask_a(self):
        return self.match >= 0

    @cached_property
    def shared_elements(self):
        """frozenset of (index_in_a, index_in_b) for the shared elements."""
        ia = np.flatnonzero(self.shared_mask_a)
        return frozenset(zip(ia.tolist(), self.match[ia].tolist()))

    def differing_elements_a(self):
        return np.where(~self.shared_mask_a)[0]

    @cached_property
    def fragments(self):
        """Overlay of the differing region, built once per pair: see _fragments."""
        dia = self.differing_elements_a()
        out = _fragments(self.mesh_a, dia, self.mesh_b, dia)
        for arr in out[:3]:
            arr.setflags(write=False)
        return out


def classify_pair(a, b, gamma_nominal):
    """Match the elements of a mesh and a copy of it with some nodes moved.

    Both meshes must have the same element array and the same number of
    nodes, so node k and element k of one are node k and element k of the
    other.  A node is unmoved when its coordinates agree to within COORD_TOL
    per coordinate, and an element is shared when all its nodes are unmoved.
    The differing-region measure is the domain measure minus the measure of
    the shared elements.
    """
    if a.dimension != b.dimension:
        raise InvalidArgumentError("meshes have different dimensions")
    if a.n_nodes != b.n_nodes or not np.array_equal(a.elements, b.elements):
        raise InvalidArgumentError(
            "meshes of a pair must have as many nodes and the same element array")
    unmoved = np.all(np.abs(a.nodes - b.nodes) <= COORD_TOL, axis=1)
    shared = unmoved[a.elements].all(axis=1)
    match = np.where(shared, np.arange(a.n_elements), -1)
    match.setflags(write=False)

    diff_a = a.domain_measure - float(a.element_measures[shared].sum())
    diff_b = b.domain_measure - float(b.element_measures[shared].sum())
    if abs(diff_a - diff_b) > MEASURE_TOL:
        raise GeometryError(
            f"differing-region measure disagrees between meshes: {diff_a} vs {diff_b}")
    return MeshPair(a, b, match, diff_a, float(gamma_nominal))


# -- the overlay of the differing region --------------------------------------

def _overlap_pairs(mesh_a, ia, mesh_b, ib):
    """Pairs (row of ia, row of ib) of elements whose bounding boxes overlap,
    in lexicographic order.

    Sort and sweep on x: the boxes of ib are sorted by their lower x bound.
    Box i of ia is tested, in every coordinate, against the window of them
    whose lower x bound lies in [lo_a - widest box - 2 BOX_TOL, hi_a + BOX_TOL].
    """
    va = mesh_a.element_vertices[ia]
    vb = mesh_b.element_vertices[ib]
    lo_a, hi_a = va.min(axis=1).T, va.max(axis=1).T + BOX_TOL
    lo_b, hi_b = vb.min(axis=1).T, vb.max(axis=1).T + BOX_TOL
    order = np.argsort(lo_b[0], kind="stable")
    sorted_lo = lo_b[0, order]
    width = (hi_b[0] - lo_b[0]).max(initial=0.0)
    start = np.searchsorted(sorted_lo, lo_a[0] - width - BOX_TOL)
    count = np.searchsorted(sorted_lo, hi_a[0], side="right") - start
    # the k-th box in the window of box i is order[start[i] + k]
    i = np.repeat(np.arange(len(ia)), count)
    j = order[np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)]
    for d in reversed(range(len(lo_a))):
        ok = (lo_a[d, i] <= hi_b[d, j]) & (lo_b[d, j] <= hi_a[d, i])
        i, j = i[ok], j[ok]
    k = np.lexsort((j, i))
    return np.column_stack([i[k], j[k]])


def _clip_triangles(subject, clipper):
    """Sutherland-Hodgman clip of each ccw triangle subject[k] by the ccw
    triangle clipper[k], all pairs at once.

    Returns the polygons as coordinates (2, pairs, MAX_CLIP_VERTICES), padded
    with zeros, and their vertex counts.  Each vertex is computed with the
    operations of the scalar algorithm, in its order, so no result depends on
    the rest of the batch.
    """
    m, width = len(subject), MAX_CLIP_VERTICES
    rows, slots = np.arange(m), np.arange(width)
    poly = np.zeros((2, m, width))
    poly[:, :, :3] = subject.transpose(2, 0, 1)
    count = np.full(m, 3)
    corners = clipper.transpose(1, 2, 0)[..., None]        # (3, 2, pairs, 1)
    for k in range(3):
        (ax, ay), (bx, by) = corners[k], corners[(k + 1) % 3]
        ex, ey = bx - ax, by - ay
        x, y = poly
        inside = ex * (y - ay) - ey * (x - ax) >= -CLIP_VERTEX_TOL
        # s: the vertex before each slot, cyclically
        s = np.concatenate([poly[:, rows, count - 1, None], poly[:, :, :-1]], axis=2)
        s_in = np.column_stack([inside[rows, count - 1], inside[:, :-1]])
        valid = slots < count[:, None]
        cross, keep = valid & (inside != s_in), valid & inside
        # each vertex emits the crossing of the edge that ends at it, then itself
        emit = np.stack([cross, keep], axis=2)
        count = emit.sum(axis=(1, 2))
        if count.max(initial=0) > width:
            raise GeometryError(f"a clipped triangle has {count.max()} vertices, "
                                f"more than the bound of {width}")
        dest = np.cumsum(emit.reshape(m, 2 * width), axis=1).reshape(emit.shape) - 1 \
            + width * rows[:, None, None]
        r = np.nonzero(cross)[0]
        (sx, sy), (px, py) = s[:, cross], poly[:, cross]
        ax, ay, ex, ey = ax[r, 0], ay[r, 0], ex[r, 0], ey[r, 0]
        dx, dy = px - sx, py - sy
        t = (ex * (ay - sy) - ey * (ax - sx)) / (ex * dy - ey * dx)
        out = np.zeros((2, m * width))
        out[:, dest[..., 0][cross]] = sx + t * dx, sy + t * dy
        out[:, dest[..., 1][keep]] = poly[:, keep]
        poly = out.reshape(2, m, width)
    return poly, count


def _dedupe(poly, count):
    """Drop each vertex within CLIP_VERTEX_TOL of the last one kept, then a
    last vertex within CLIP_VERTEX_TOL of the first."""
    out, last = np.zeros_like(poly), poly[:, :, 0]
    n = np.zeros(len(count), dtype=np.int64)
    for j in range(poly.shape[2]):
        p = poly[:, :, j]
        new = (j < count) & ((n == 0) | np.any(np.abs(p - last) > CLIP_VERTEX_TOL, axis=0))
        out[:, new, n[new]] = p[:, new]
        last = np.where(new, p, last)
        n += new
    n -= (n > 1) & np.all(np.abs(out[:, :, 0] - last) <= CLIP_VERTEX_TOL, axis=0)
    return out, n


def _polygon_areas(poly, n):
    """Signed shoelace areas, summed vertex by vertex."""
    x, y = poly
    rows, total = np.arange(len(n)), np.zeros(len(n))
    for i in range(poly.shape[2]):
        nxt = np.where(i + 1 < n, i + 1, 0)
        term = x[:, i] * y[rows, nxt] - x[rows, nxt] * y[:, i]
        total = np.where(i < n, total + term, total)
    return 0.5 * total


def _fragments(mesh_a, dia, mesh_b, dib):
    """Overlay of elements dia of mesh_a with elements dib of mesh_b.

    Returns the fragments as simplices (F, d+1, d), the parent element of each
    in mesh_a and in mesh_b, and the measure they cover, summed in pair order.
    Overlaps of measure at most CLIP_VERTEX_TOL are dropped.
    """
    pairs = _overlap_pairs(mesh_a, dia, mesh_b, dib)
    ia, ib = dia[pairs[:, 0]], dib[pairs[:, 1]]
    va, vb = mesh_a.element_vertices[ia], mesh_b.element_vertices[ib]
    if mesh_a.dimension == 1:
        lo = np.maximum(va.min(axis=1), vb.min(axis=1))
        hi = np.minimum(va.max(axis=1), vb.max(axis=1))
        keep = (hi - lo)[:, 0] > CLIP_VERTEX_TOL
        return (np.stack([lo, hi], axis=1)[keep], ia[keep], ib[keep],
                float((hi - lo)[keep].sum()))
    poly, n = _dedupe(*_clip_triangles(va, vb))
    area = _polygon_areas(poly, n)
    keep = (n >= 3) & ~(area <= CLIP_VERTEX_TOL)
    poly, n = poly[:, keep].transpose(1, 2, 0), n[keep]
    # fan triangles (0, k, k + 1), k = 1 .. n - 2, in pair order
    fan = np.arange(1, poly.shape[1] - 1) < n[:, None] - 1
    tris = np.stack([np.broadcast_to(poly[:, :1], poly[:, 1:-1].shape),
                     poly[:, 1:-1], poly[:, 2:]], axis=2)
    return (tris[fan], np.repeat(ia[keep], n - 2), np.repeat(ib[keep], n - 2),
            float(np.cumsum(np.append(0.0, area[keep]))[-1]))
