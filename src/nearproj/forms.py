"""Bilinear form descriptions, matrix assembly, and exact-function load vectors.

Scalar callables follow the convention value(x) -> (N,) and gradient(x) -> (N, d)
for x of shape (N, d).  The advection velocity of an ADR form is a constant
vector.  A form with a finite delta is the paper's a_h^+ = a_h + h^delta (u, w):
its matrix and load are those of its kind plus h^delta times the mass matrix
and the mass load.

Element loads are computed in blocks of `space.BLOCK_ELEMENTS` elements, so
a load's memory is one block's geometry and samples of u plus one
(elements, n_local) array of element vectors, whatever the mesh size.  A
matrix is summed in chunks of its columns with about `space.BLOCK_ELEMENTS`
elements' worth of entries each (`_scatter`), so its memory is the compact
CSC result, one chunk's geometry and element matrices and a few
(elements, n_local) index arrays.  Each block or chunk computes the geometry
of its elements once (`Mesh.geometry`).

Given a mask `dofs` over the DOFs of the space, assembly sums only the
matrix columns, or load rows, of the free DOFs in it, over the elements
that touch one and in the order of a full assembly; the others are empty or
zero.  They are the full assembly's up to the rounding of element matrices
and vectors computed in other batches.  Without a mask any space assembles
in full, one derived from a pair's first space too (`project_pair` builds
the second space's systems from the first's with a mask).

scipy is imported by `_scatter`, at the first assembly, not with this
module: a process that assembles no system does not load it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import space as fe_space
from .errors import InvalidArgumentError
from .quadrature import quadrature_rule
from .space import element_blocks, physical_points, shape_grads, shape_values


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
    A finite delta >= 0 adds h^delta * mass to any kind (the paper's
    a_h^+ = a_h + h^delta (u, w)); delta = inf adds nothing.
    """

    kind: str
    kappa: float = 1.0
    velocity: tuple = None
    delta: float = math.inf

    def __post_init__(self):
        if self.kind not in ("mass", "stiffness", "adr"):
            raise InvalidArgumentError(f"unknown form kind {self.kind!r}")
        if self.kind == "adr" and not 0 <= self.kappa < math.inf:
            raise InvalidArgumentError(f"adr requires a finite kappa >= 0, got {self.kappa}")
        if self.kind != "adr" and (self.kappa != 1.0 or self.velocity is not None):
            raise InvalidArgumentError(f"kappa and velocity apply only to adr, "
                                       f"not to {self.kind}")
        if self.velocity is not None:
            object.__setattr__(self, "velocity", tuple(map(float, self.velocity)))
            if not all(map(math.isfinite, self.velocity)):
                raise InvalidArgumentError(
                    f"velocity components must be finite, got {self.velocity}")
        if not self.delta >= 0:   # also rejects nan
            raise InvalidArgumentError("delta must be >= 0 (or inf)")

    @property
    def s(self):
        """Sobolev order of the form: 0 for mass, 1 otherwise."""
        return 0 if self.kind == "mass" else 1


MASS = BilinearFormSpec("mass")
STIFFNESS = BilinearFormSpec("stiffness")


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


def _per_element(space, elements, shape, compute):
    """`compute(space, blk)` for each block `blk` of the elements `elements`
    (None: all, in slices), as one (len(elements), *shape) array."""
    n = space.mesh.n_elements if elements is None else elements.size
    out = np.empty((n, *shape))
    for blk in element_blocks(n):
        out[blk] = compute(space, blk if elements is None else elements[blk])
    return out


def _local_matrices(space, form, rule, V, G, elems=slice(None)):
    """Element matrices of the elements `elems` (a slice or an index array),
    as geometry tensors contracted with reference tensors.

    On an affine simplex with J^{-1} = Jinv the stiffness matrix is
    sum_ab (det Jinv Jinv^T)_ab S_abij with S_abij = sum_q w_q G_qia G_qjb,
    and the advection matrix sum_a (det Jinv v)_a T_aij with
    T_aij = sum_q w_q V_qi G_qja (Kirby & Logg, ACM TOMS 32 (2006)).
    """
    d, nloc = space.mesh.dimension, space.n_local
    _, det, Jinv = space.mesh.geometry(elems)
    m = det.size
    w = rule.weights
    mass_ref = np.einsum("q,qi,qj->ij", w, V, V)[None, :, :]
    if form.kind == "mass":
        return det[:, None, None] * mass_ref
    S = np.einsum("q,qia,qjb->abij", w, G, G).reshape(d * d, nloc * nloc)
    tensor = det[:, None, None] * (Jinv @ Jinv.transpose(0, 2, 1))
    loc = (tensor.reshape(m, d * d) @ S).reshape(m, nloc, nloc)
    if form.kind == "adr":
        T = np.einsum("q,qi,qja->aij", w, V, G).reshape(d, nloc * nloc)
        adv = ((det[:, None] * (Jinv @ _velocity(space, form))) @ T).reshape(loc.shape)
        loc = loc - adv + form.kappa * det[:, None, None] * mass_ref
    return loc


def _column_chunks(cols, n_free, budget):
    """Contiguous chunks [c0, c1) of the columns 0 .. n_free - 1 that hold
    about `budget` of the (element, column) pairs of `cols` each (an
    (elements, n_local) array of columns; -1: not kept), as (c0, c1, e): e
    holds the positions of the elements with a column in the chunk, in
    ascending order.  Transposed, the arrays are a few rows of one entry per
    element, which numpy passes over fastest.
    """
    m = len(cols)
    at = np.ascontiguousarray(cols.T) + 1       # 0: not kept
    per_column = np.bincount(at.ravel(), minlength=n_free + 1)[1:]
    if per_column.sum() <= budget:
        return [(0, n_free, np.arange(m))]
    chunk = (np.cumsum(per_column) - per_column) // budget
    touch = np.concatenate([[-1], chunk]).take(at)
    # the (chunk, element) pairs as keys chunk * m + element, sorted and
    # each once; most elements lie in one chunk, so a pair that repeats the
    # first column's is dropped before the sort
    sel = touch >= 0
    sel[1:] &= touch[1:] != touch[0]
    key = np.sort((touch * m + np.arange(m))[sel])
    key = key[np.diff(key, prepend=-1) > 0]
    chunk_of = key // m
    elements = key - chunk_of * m
    first = np.flatnonzero(chunk_of[1:] != chunk_of[:-1]) + 1
    ids = chunk_of[np.concatenate([[0], first])]
    return zip(np.searchsorted(chunk, ids).tolist(),
               np.searchsorted(chunk, ids, side="right").tolist(),
               np.split(elements, first))


def _touching(space, dofs):
    """The elements that touch a DOF in the mask `dofs` and their rows of
    `space.element_dofs`; None and every row for no mask."""
    if dofs is None:
        return None, space.element_dofs
    if np.shape(dofs) != (space.n_dofs,) or np.asarray(dofs).dtype != bool:
        raise InvalidArgumentError(f"dofs must be a boolean mask over the "
                                   f"{space.n_dofs} DOFs of the space")
    elements = np.flatnonzero(dofs[space.element_dofs].any(axis=1))
    return elements, space.element_dofs.take(elements, axis=0)


def _scatter(space, dofs, local):
    """Sum the element matrices into a CSC matrix over the free DOFs,
    numbered in the order of `space.free_dofs`, for the columns of the free
    DOFs in the mask `dofs` (None: every column) over the elements that
    touch them; `local(elems)` gives the element matrices of the elements
    `elems`, an index array.  Constrained entries are dropped.

    The columns are summed in contiguous chunks of about
    `space.BLOCK_ELEMENTS` elements' worth of entries, each from the element
    matrices of the elements that touch it, in element order.  So a column
    receives its (row, value) entries in the order of one scatter of the
    whole mesh, and scipy's per-column sort and duplicate sum give it bit for
    bit, while no array but the result holds more than a chunk's entries."""
    # imported here, so a process that assembles no system never loads scipy
    import scipy.sparse

    nloc = space.n_local
    index = np.full(space.n_dofs, -1, dtype=np.int32)
    index[space.free_dofs] = np.arange(space.n_free, dtype=np.int32)
    elements, element_dofs = _touching(space, dofs)
    rows = index[element_dofs]
    cols = rows if dofs is None else np.where(dofs[element_dofs], rows, -1)
    # kept (element, column) pairs still to scatter
    pairs = np.count_nonzero(cols >= 0)
    indptr = np.zeros(space.n_free + 1, dtype=np.int64)
    data, indices, nnz = np.empty(0), np.empty(0, dtype=np.int32), 0
    for c0, c1, e in _column_chunks(cols, space.n_free, fe_space.BLOCK_ELEMENTS * nloc):
        c = cols.take(e, axis=0) - c0
        c[c >= c1 - c0] = -1
        in_chunk = np.count_nonzero(c >= 0)
        r = np.repeat(rows.take(e, axis=0), nloc, axis=1).ravel()
        c = np.tile(c, (1, nloc)).ravel()
        keep = (r >= 0) & (c >= 0)
        values = local(e if elements is None else elements[e]).ravel()[keep]
        block = scipy.sparse.coo_matrix((values, (r[keep], c[keep])),
                                        shape=(space.n_free, c1 - c0)).tocsc()
        pairs -= in_chunk
        end = nnz + block.nnz
        if end > data.size:
            # room for the pairs to come at this chunk's nonzeros per pair,
            # and 1/16 more; resize reallocates the one array rather than
            # copying it into a second
            size = end + int(pairs * block.nnz / in_chunk * 17 / 16)
            data.resize(size, refcheck=False)
            indices.resize(size, refcheck=False)
        data[nnz:end] = block.data
        indices[nnz:end] = block.indices
        indptr[c0 + 1:c1 + 1] = np.diff(block.indptr)
        nnz = end
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    np.cumsum(indptr, out=indptr)
    return scipy.sparse.csc_matrix((data, indices, indptr),
                                   shape=(space.n_free, space.n_free))


def assemble_matrix(space, form, dofs=None):
    """Sparse matrix A[i,j] = a_h(N_j, N_i) over the free DOFs, in the
    columns of the DOFs in the mask `dofs` only if one is given."""
    if form.kind == "adr" and not space.dirichlet:
        raise InvalidArgumentError("an adr form needs a space with Dirichlet constraints")
    rule, V, G = _element_data(space, 2 * space.degree)
    A = _scatter(space, dofs, lambda elems: _local_matrices(space, form, rule, V, G, elems))
    if math.isfinite(form.delta):
        A = A + space.mesh.h ** form.delta * assemble_matrix(space, MASS, dofs)
    return A


def assemble_load(space, form, u, dofs=None):
    """Load vector b[i] = a_h(u, N_i) over the free DOFs, for exact u, in the
    rows of the DOFs in the mask `dofs` only if one is given.

    The element vectors are computed block by block into one
    (elements, n_local) array and summed into b by one bincount, so the
    samples of u at the quadrature points are held for one block at a time.
    """
    if form.s == 1 and u.gradient is None:
        raise InvalidArgumentError(
            f"form kind {form.kind!r} requires a gradient for the projected function")
    rule, V, G = _element_data(space, 2 * space.degree + 4)
    elements, element_dofs = _touching(space, dofs)
    b_el = _per_element(space, elements, (space.n_local,),
                        lambda s, blk: _local_loads(s, form, u, rule, V, G, blk))
    b = np.bincount(element_dofs.ravel(), weights=b_el.ravel(), minlength=space.n_dofs)
    if dofs is not None:
        b[~dofs] = 0.0
    b = b[space.free_dofs]
    if math.isfinite(form.delta):
        b = b + space.mesh.h ** form.delta * assemble_load(space, MASS, u, dofs)
    return b


def _local_loads(space, form, u, rule, V, G, blk):
    """Element load vectors (K, n_local) of the elements blk (a slice or an
    index array)."""
    mesh = space.mesh
    verts, det, Jinv = mesh.geometry(blk)
    xq = physical_points(verts, rule.points)
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
        mapped = (gu @ Jinv.transpose(0, 2, 1)) * w[:, None]
        b_el = mapped.reshape(len(xq), -1) @ G.transpose(0, 2, 1).reshape(
            -1, space.n_local)
    b_el = b_el + (samples * w) @ V
    b_el *= det[:, None]
    return b_el
