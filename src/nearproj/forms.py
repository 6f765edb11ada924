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

On a space derived from the space of a pair's first mesh
(`space.derived_space`), a system starts from the first space's system of
the same form (and u), which `projection.project_pair` passes as `start`:
only the entries of the DOFs that a differing element touches, the columns
of the matrix and the rows of the load, are summed anew, over the elements
that touch those DOFs and in the order of a full assembly.  So the system is
the one a full assembly on the second mesh gives, and its rows of DOFs that
no differing element touches are bitwise those of the first system.  The
other columns are copied from `start`, so a start that holds only the
recomputed columns gives only those columns of the second matrix, which is
all that `project_pair` reads when it solves from the first system's factor.

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


def _system(space, start, part, splice):
    """The matrix or load of `space`: `part(space, elements, dofs)` sums it
    over `elements` for the free DOFs in the mask `dofs` (None: all).  A
    derived space `splice`s its part over its `recomputed_elements` for its
    `recomputed_dofs` into `start`, its base's system (None: assembled here).
    """
    if space.base is None:
        if start is not None:
            raise InvalidArgumentError("a start system applies only to a derived space")
        return part(space, None, None)
    if start is None:
        start = part(space.base, None, None)
    dofs = space.recomputed_dofs[space.free_dofs]
    return splice(start, part(space, space.recomputed_elements, dofs), dofs)


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


def _scatter(space, elements, columns, local):
    """Sum the element matrices of `elements` (None: all) into a CSC matrix
    over the free DOFs, numbered in the order of `space.free_dofs`;
    `local(elems)` gives the element matrices of the elements `elems`, an
    index array.  Constrained entries are dropped, and so are the columns
    outside `columns` (a mask over the free DOFs; None: every column is kept).

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
    rows = index[space.element_dofs if elements is None
                 else space.element_dofs.take(elements, axis=0)]
    cols = rows if columns is None else np.where((rows >= 0) & columns[rows], rows, -1)
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


def _splice_columns(A, part, columns):
    """A with the columns in `columns` taken from `part`.  Both hold every
    entry of those columns: the sums of a column are computed one column at
    a time, in the order of the column's entries, so they are the ones a
    full scatter makes."""
    data = A.data.copy()
    data[np.repeat(columns, np.diff(A.indptr))] = part.data
    return type(A)((data, A.indices, A.indptr), shape=A.shape)


def assemble_matrix(space, form, start=None):
    """Sparse matrix A[i,j] = a_h(N_j, N_i) over the free DOFs; `start`: on a
    derived space, its base's matrix of `form` without h^delta, or None."""
    if form.kind == "adr" and not space.dirichlet:
        raise InvalidArgumentError("an adr form needs a space with Dirichlet constraints")
    rule, V, G = _element_data(space, 2 * space.degree)

    def part(sp, elements, columns):
        return _scatter(sp, elements, columns,
                        lambda elems: _local_matrices(sp, form, rule, V, G, elems))

    A = _system(space, start, part, _splice_columns)
    if math.isfinite(form.delta):
        A = A + space.mesh.h ** form.delta * assemble_matrix(space, MASS)
    return A


def assemble_load(space, form, u, start=None):
    """Load vector b[i] = a_h(u, N_i) over the free DOFs, for exact u.

    The element vectors are computed block by block into one
    (elements, n_local) array and summed into b by one bincount, so the
    samples of u at the quadrature points are held for one block at a time.
    `start` is the base's load, as in `assemble_matrix`.
    """
    if form.s == 1 and u.gradient is None:
        raise InvalidArgumentError(
            f"form kind {form.kind!r} requires a gradient for the projected function")
    rule, V, G = _element_data(space, 2 * space.degree + 4)

    def part(sp, elements, _rows):
        b_el = _per_element(sp, elements, (sp.n_local,),
                            lambda s, blk: _local_loads(s, form, u, rule, V, G, blk))
        dofs = sp.element_dofs if elements is None else sp.element_dofs[elements]
        return np.bincount(dofs.ravel(), weights=b_el.ravel(),
                           minlength=sp.n_dofs)[sp.free_dofs]

    b = _system(space, start, part, lambda full, new, rows: np.where(rows, new, full))
    if math.isfinite(form.delta):
        b = b + space.mesh.h ** form.delta * assemble_load(space, MASS, u)
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
