"""Simplicial meshes of [0,1]^d (d = 1, 2), node perturbations, mesh pairing.

Meshes are immutable after construction: the coordinate and connectivity
arrays are write-protected, and every operation returns a new mesh.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeshError, GeometryError, InvalidArgumentError

COORD_TOL = 1e-14          # per-coordinate tolerance for "identical point"
MEASURE_TOL = 1e-12
KEY_SCALE = 1e9            # points are keyed by their coordinates rounded to 1e-9


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
        self.jacobians = jac
        self.jacobian_dets = det
        self.inverse_jacobians = np.linalg.inv(jac)
        self.element_measures = det / (1.0 if dimension == 1 else 2.0)
        self.element_diameters = self._diameters(verts)
        self.h = float(self.element_diameters.max())
        for arr in (self.nodes, self.elements, self.element_vertices, self.jacobians,
                    self.jacobian_dets, self.inverse_jacobians, self.element_measures,
                    self.element_diameters):
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

    def to_text(self):
        """Plain-text export: header, node lines, element lines, boundary indices."""
        lines = [f"{self.dimension} {self.n_nodes} {self.n_elements}"]
        for p in self.nodes:
            lines.append(" ".join(f"{x:.17g}" for x in p))
        for el in self.elements:
            lines.append(" ".join(str(int(i)) for i in el))
        lines.append(" ".join(str(i) for i in sorted(self.boundary_nodes)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        lines = [ln for ln in text.strip().splitlines()]
        dim, nn, ne = (int(t) for t in lines[0].split())
        nodes = [[float(t) for t in lines[1 + k].split()] for k in range(nn)]
        elems = [[int(t) for t in lines[1 + nn + k].split()] for k in range(ne)]
        bnd = [int(t) for t in lines[1 + nn + ne].split()] if len(lines) > 1 + nn + ne else []
        return Mesh(dim, np.array(nodes), np.array(elems), bnd)


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
    """Two meshes of the same domain with their shared/differing classification."""

    mesh_a: Mesh
    mesh_b: Mesh
    shared_elements: frozenset          # of (index_in_a, index_in_b)
    differing_region_measure: float
    gamma_nominal: float
    shared_mask_a: np.ndarray = field(repr=False, compare=False, default=None)
    shared_mask_b: np.ndarray = field(repr=False, compare=False, default=None)

    def differing_elements_a(self):
        return np.where(~self.shared_mask_a)[0]

    def differing_elements_b(self):
        return np.where(~self.shared_mask_b)[0]


def match_points(x, y):
    """Index of the row of y at the same point as each row of x, or -1.

    Rows are keyed by their coordinates rounded to 1e-9.  A point within
    COORD_TOL of a rounding boundary can round to a neighbouring key, so the
    3^d keys around each point of x are probed, and a match is confirmed when
    every coordinate agrees to within COORD_TOL.
    """
    kx = np.round(x * KEY_SCALE).astype(np.int64)
    ky = np.round(y * KEY_SCALE).astype(np.int64)
    lo = np.minimum(kx.min(axis=0), ky.min(axis=0)) - 1
    dims = tuple(np.maximum(kx.max(axis=0), ky.max(axis=0)) - lo + 2)
    flat_y = np.ravel_multi_index((ky - lo).T, dims)
    order = np.argsort(flat_y)
    sorted_y = flat_y[order]
    out = np.full(len(x), -1, dtype=np.int64)
    for offset in itertools.product((-1, 0, 1), repeat=x.shape[1]):
        todo = np.flatnonzero(out < 0)
        flat = np.ravel_multi_index((kx[todo] + offset - lo).T, dims)
        pos = np.minimum(np.searchsorted(sorted_y, flat), len(sorted_y) - 1)
        cand = order[pos]
        hit = (sorted_y[pos] == flat) & np.all(np.abs(x[todo] - y[cand]) <= COORD_TOL,
                                               axis=1)
        out[todo[hit]] = cand[hit]
    return out


def classify_pair(a, b, gamma_nominal):
    """Match geometrically identical elements of two meshes of the same domain.

    Nodes are identical when their coordinates agree to within 1e-14 per
    coordinate, and elements when they have the same identical nodes.  The
    differing-region measure is the domain measure minus the measure of the
    shared elements.
    """
    if a.dimension != b.dimension:
        raise InvalidArgumentError("meshes have different dimensions")
    # an element is a sorted row of node ids in b (-1 for an unmatched node);
    # rows that np.unique numbers alike are the same element
    rows = np.sort(np.concatenate([match_points(a.nodes, b.nodes)[a.elements],
                                   b.elements]), axis=1)
    _, row_id = np.unique(rows, axis=0, return_inverse=True)
    row_id = row_id.ravel()
    element_in_b = np.full(row_id.max() + 1, -1, dtype=np.int64)
    element_in_b[row_id[a.n_elements:]] = np.arange(b.n_elements)
    match = element_in_b[row_id[:a.n_elements]]
    mask_a = match >= 0
    ia = np.flatnonzero(mask_a)
    mask_b = np.zeros(b.n_elements, dtype=bool)
    mask_b[match[ia]] = True
    shared = zip(ia.tolist(), match[ia].tolist())

    shared_measure_a = float(a.element_measures[mask_a].sum())
    shared_measure_b = float(b.element_measures[mask_b].sum())
    diff_a = a.domain_measure - shared_measure_a
    diff_b = b.domain_measure - shared_measure_b
    if abs(diff_a - diff_b) > MEASURE_TOL:
        raise GeometryError(
            f"differing-region measure disagrees between meshes: {diff_a} vs {diff_b}")
    mask_a.setflags(write=False)
    mask_b.setflags(write=False)
    return MeshPair(a, b, frozenset(shared), diff_a, float(gamma_nominal),
                    mask_a, mask_b)
