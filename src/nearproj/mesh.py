"""Simplicial meshes of [0,1]^d (d = 1, 2), node perturbations, mesh pairing.

Meshes are immutable after construction: the coordinate and connectivity
arrays are write-protected, and every operation returns a new mesh.  Every
mesh is built by Mesh(), which computes each element's geometry in closed
form, elementwise from its nodes.  A perturbation returns a new mesh with
some nodes moved, built from the original's element array and boundary nodes;
a move of at most COORD_TOL in every coordinate is not applied.  A mesh pair
is a mesh and such a perturbation, matched by index: element k is shared when
none of its nodes moved, so its nodes, and therefore its geometry, are
bitwise the same in both meshes.  A pair overlays its differing region once,
on first use: interval intersections in 1-D, fan triangles of clipped
polygons in 2-D (no clip vertex is merged), each with its Jacobian
determinant, and checks as it builds it that the fragments cover the
differing region.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMeshError, GeometryError, InvalidArgumentError

COORD_TOL = 1e-14          # per-coordinate tolerance for "identical point"
MEASURE_TOL = 1e-12
BOX_TOL = 1e-13            # bounding boxes this close count as overlapping
CLIP_VERTEX_TOL = 1e-12
CONSERVATION_TOL = 1e-10   # overlay measure vs differing-region measure
# A half-plane clip keeps the vertices inside and adds a crossing per change of
# side, so m vertices become at most 3m/2 (3, 4, 6, 9) in any arithmetic.
MAX_CLIP_VERTICES = 9


# the per-element arrays of a mesh, in the order _geometry returns them
_GEOMETRY = ("element_vertices", "jacobian_dets", "inverse_jacobians",
             "element_measures", "element_diameters")


def _geometry(nodes, elements):
    """The per-element arrays (_GEOMETRY) of `elements`; raises
    DegenerateMeshError if one of them has a nonpositive measure.  The
    determinant and inverse of each Jacobian are closed forms: the length and
    its reciprocal in 1-D, a e - b c and the adjugate divided by it in 2-D."""
    d = nodes.shape[1]
    verts = nodes[elements]                       # (m, d+1, d)
    diam = np.zeros(len(verts))
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            diam = np.maximum(diam, np.linalg.norm(verts[:, i] - verts[:, j], axis=1))
    jac = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)   # (m, d, d)
    if d == 1:
        det, inv = jac[:, 0, 0], np.ones_like(jac)
    else:
        (a, b), (c, e) = jac.transpose(1, 2, 0)
        det = a * e - b * c
        inv = np.stack([e, -b, -c, a], axis=1).reshape(-1, 2, 2)
    if np.any(det <= 0.0):
        raise DegenerateMeshError("element with nonpositive measure")
    inv /= det[:, None, None]                     # the adjugate over det
    return verts, det, inv, det / (1.0 if d == 1 else 2.0), diam


def _unmoved(nodes_a, nodes_b):
    """Nodes whose coordinates agree to within COORD_TOL in every coordinate."""
    return np.all(np.abs(nodes_a - nodes_b) <= COORD_TOL, axis=1)


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
        for name, arr in zip(_GEOMETRY, _geometry(nodes, elements)):
            setattr(self, name, arr)
        self.h = float(self.element_diameters.max())
        for arr in (nodes, elements, *(getattr(self, name) for name in _GEOMETRY)):
            arr.setflags(write=False)

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


def _moved(mesh, nodes):
    """`mesh` with its nodes at `nodes`, each node that moved by at most
    COORD_TOL in every coordinate (the rule by which classify_pair shares
    elements) put back, so a shared element has mesh's geometry bit for bit."""
    nodes = np.where(_unmoved(mesh.nodes, nodes)[:, None], mesh.nodes, nodes)
    return Mesh(mesh.dimension, nodes, mesh.elements, mesh.boundary_nodes)


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
        return _moved(mesh, nodes)
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
        return _moved(mesh, nodes)
    except DegenerateMeshError as exc:
        raise DegenerateMeshError("band displacement inverts an element") from exc


@dataclass(frozen=True)
class MeshPair:
    """A mesh and a perturbation of it, with their shared/differing
    classification.  The two meshes share their element array, and a shared
    element has bitwise the same nodes and geometry in both, so everything
    built on the second mesh can start from what the first built and redo the
    differing elements only: its space takes the first space's numbering and
    its systems the first space's systems (`projection.project_pair`)."""

    mesh_a: Mesh
    mesh_b: Mesh
    # element k is shared: none of its nodes moved (write-protected)
    shared: np.ndarray = field(repr=False, compare=False)
    differing_region_measure: float
    gamma_nominal: float

    @cached_property
    def shared_elements(self):
        """frozenset of (index_in_a, index_in_b) for the shared elements."""
        return frozenset((k, k) for k in np.flatnonzero(self.shared).tolist())

    def differing_elements_a(self):
        return np.flatnonzero(~self.shared)

    @cached_property
    def fragments(self):
        """Overlay of the differing region (see _fragments), built once per
        pair and checked: its measures, summed in pair order, must match
        differing_region_measure to within CONSERVATION_TOL."""
        dia = self.differing_elements_a()
        out = _fragments(self.mesh_a, dia, self.mesh_b, dia)
        covered = float(np.cumsum(np.append(0.0, out[3]))[-1]) / self.mesh_a.dimension
        if abs(covered - self.differing_region_measure) > CONSERVATION_TOL:
            raise GeometryError(
                f"clipped fragments cover {covered:.17g} of a differing region "
                f"of measure {self.differing_region_measure:.17g}")
        for arr in out:
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
    shared = _unmoved(a.nodes, b.nodes)[a.elements].all(axis=1)
    shared.setflags(write=False)

    diff_a = a.domain_measure - float(a.element_measures[shared].sum())
    diff_b = b.domain_measure - float(b.element_measures[shared].sum())
    if abs(diff_a - diff_b) > MEASURE_TOL:
        raise GeometryError(
            f"differing-region measure disagrees between meshes: {diff_a} vs {diff_b}")
    return MeshPair(a, b, shared, diff_a, float(gamma_nominal))


# -- the overlay of the differing region --------------------------------------

def _overlap_pairs(mesh_a, ia, mesh_b, ib):
    """Pairs (row of ia, row of ib) of elements whose bounding boxes overlap,
    in lexicographic order: one k-d tree query on the box centres (Bentley,
    CACM 18 (1975) 509), then the box test in every coordinate."""
    # imported here: scipy.spatial adds ~50 ms to `import nearproj`
    from scipy.spatial import cKDTree
    va, vb = mesh_a.element_vertices[ia], mesh_b.element_vertices[ib]
    lo_a, hi_a = va.min(axis=1), va.max(axis=1) + BOX_TOL
    lo_b, hi_b = vb.min(axis=1), vb.max(axis=1) + BOX_TOL
    # boxes overlap iff their centres lie at most half their summed widths
    # apart in every coordinate, so a max-norm reach of half the widest box of
    # each side, + BOX_TOL against rounding, returns a superset of the pairs
    reach = ((hi_a - lo_a).max(initial=0.0) + (hi_b - lo_b).max(initial=0.0)) / 2 + BOX_TOL
    near = cKDTree((lo_a + hi_a) / 2).sparse_distance_matrix(
        cKDTree((lo_b + hi_b) / 2), reach, p=np.inf, output_type="ndarray")
    i, j = near["i"], near["j"]
    ok = np.all((lo_a[i] <= hi_b[j]) & (lo_b[j] <= hi_a[i]), axis=1)
    k = np.lexsort((j[ok], i[ok]))
    return np.column_stack([i[ok][k], j[ok][k]])


def _clip_triangles(subject, clipper):
    """Sutherland-Hodgman clip of each ccw triangle subject[k] by the ccw
    triangle clipper[k], all pairs at once.

    Returns the polygons as coordinates (2, pairs, width), padded with zeros
    to the largest vertex count, and their vertex counts.  Each vertex is
    computed with the operations of the scalar algorithm, in its order, so no
    result depends on the rest of the batch.
    """
    m, rows = len(subject), np.arange(len(subject))
    poly = subject.transpose(2, 0, 1)
    count = np.full(m, 3)
    corners = clipper.transpose(1, 2, 0)[..., None]        # (3, 2, pairs, 1)
    for k in range(3):
        width = poly.shape[2]
        (ax, ay), (bx, by) = corners[k], corners[(k + 1) % 3]
        ex, ey = bx - ax, by - ay
        x, y = poly
        inside = ex * (y - ay) - ey * (x - ax) >= -CLIP_VERTEX_TOL
        # s: the vertex before each slot, cyclically
        s = np.concatenate([poly[:, rows, count - 1, None], poly[:, :, :-1]], axis=2)
        s_in = np.column_stack([inside[rows, count - 1], inside[:, :-1]])
        valid = np.arange(width) < count[:, None]
        cross, keep = valid & (inside != s_in), valid & inside
        # each vertex emits the crossing of the edge that ends at it, then itself
        emit = np.stack([cross, keep], axis=2)
        count = emit.sum(axis=(1, 2))
        if count.max(initial=0) > MAX_CLIP_VERTICES:
            raise GeometryError(f"a clipped triangle has {count.max()} vertices, "
                                f"more than the bound of {MAX_CLIP_VERTICES}")
        new_width = max(count.max(initial=0), 1)   # a slot for count - 1 = -1
        dest = np.cumsum(emit.reshape(m, 2 * width), axis=1).reshape(emit.shape) - 1 \
            + new_width * rows[:, None, None]
        r = np.nonzero(cross)[0]
        (sx, sy), (px, py) = s[:, cross], poly[:, cross]
        ax, ay, ex, ey = ax[r, 0], ay[r, 0], ex[r, 0], ey[r, 0]
        dx, dy = px - sx, py - sy
        t = (ex * (ay - sy) - ey * (ax - sx)) / (ex * dy - ey * dx)
        out = np.zeros((2, m * new_width))
        out[:, dest[..., 0][cross]] = sx + t * dx, sy + t * dy
        out[:, dest[..., 1][keep]] = poly[:, keep]
        poly = out.reshape(2, m, new_width)
    return poly, count


def _fragments(mesh_a, dia, mesh_b, dib):
    """Overlay of elements dia of mesh_a with elements dib of mesh_b.

    Returns the fragments as simplices (F, d+1, d), the parent element of each
    in mesh_a and in mesh_b, and the Jacobian determinant of each (d! times
    its signed measure), in pair order.  Overlaps whose simplices measure at
    most CLIP_VERTEX_TOL in total are dropped, and so is a fan triangle of
    determinant exactly 0, which integrates to 0; no clip vertex is merged.
    A clip vertex rounded off its line can turn a fan triangle clockwise; its
    negative measure cancels the overshoot of the next triangle.
    """
    pairs = _overlap_pairs(mesh_a, dia, mesh_b, dib)
    ia, ib = dia[pairs[:, 0]], dib[pairs[:, 1]]
    va, vb = mesh_a.element_vertices[ia], mesh_b.element_vertices[ib]
    if mesh_a.dimension == 1:
        lo = np.maximum(va.min(axis=1), vb.min(axis=1))
        hi = np.minimum(va.max(axis=1), vb.max(axis=1))
        simplices, owner = np.stack([lo, hi], axis=1), np.arange(len(ia))
    else:
        poly, n = _clip_triangles(va, vb)
        poly = poly.transpose(1, 2, 0)
        # fan triangles (0, k, k + 1), k = 1 .. n - 2, of each pair's polygon
        fan = np.arange(1, poly.shape[1] - 1) < n[:, None] - 1
        simplices = np.stack([np.broadcast_to(poly[:, :1], poly[:, 1:-1].shape),
                              poly[:, 1:-1], poly[:, 2:]], axis=2)[fan]
        owner = np.nonzero(fan)[0]
    dets = np.linalg.det(simplices[:, 1:] - simplices[:, :1])
    # a simplex measures det / d!, and d! = d for d = 1, 2
    measure = np.bincount(owner, dets, len(ia)) / mesh_a.dimension
    keep = ~(measure <= CLIP_VERTEX_TOL)[owner] & (dets != 0)
    return simplices[keep], ia[owner[keep]], ib[owner[keep]], dets[keep]
