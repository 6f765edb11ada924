"""The batched overlay of a mesh pair against a scalar Sutherland-Hodgman oracle.

The oracle is the per-candidate loop the overlay is built to reproduce: a
dense bounding-box matrix for the candidate pairs, then one clip and fan of
determinants per pair, with no clip vertex merged and the fan triangles of
determinant exactly 0 dropped.  The batched overlay must equal it bitwise, and
the fragments' measures must add up to the clipped polygons' shoelace areas.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nearproj import (DegenerateMeshError, GeometryError, Mesh, PerturbationSpec,
                      build_uniform_interval, build_uniform_square, classify_pair,
                      perturb_boundary_band, perturb_node_nearest)
from nearproj import mesh as meshmod
from nearproj import space as spacemod
from nearproj.cli import BAND_2D
from nearproj.mesh import (BOX_TOL, CLIP_VERTEX_TOL, _clip_triangles, _fragments,
                           _overlap_pairs)


# -- the scalar oracle --------------------------------------------------------

def _clip_convex(subject, clipper):
    """Sutherland-Hodgman: clip ccw convex polygon `subject` by ccw `clipper`."""
    out = subject
    m = len(clipper)
    for k in range(m):
        ax, ay = clipper[k]
        bx, by = clipper[(k + 1) % m]
        ex, ey = bx - ax, by - ay
        inp = out
        out = []
        if not inp:
            return []
        sx, sy = inp[-1]
        s_in = ex * (sy - ay) - ey * (sx - ax) >= -CLIP_VERTEX_TOL
        for px, py in inp:
            p_in = ex * (py - ay) - ey * (px - ax) >= -CLIP_VERTEX_TOL
            if p_in != s_in:
                dx, dy = px - sx, py - sy
                t = (ex * (ay - sy) - ey * (ax - sx)) / (ex * dy - ey * dx)
                out.append((sx + t * dx, sy + t * dy))
            if p_in:
                out.append((px, py))
            sx, sy, s_in = px, py, p_in
    return out


def _det(rows):
    """a e - b c of [[a, b], [c, e]]."""
    (a, b), (c, e) = rows
    return a * e - b * c


def _polygon_area(poly):
    s = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _dense_overlap_pairs(mesh_a, ia, mesh_b, ib):
    """Candidate pairs from the full |ia| x |ib| bounding-box matrix."""
    va, vb = mesh_a.geometry(ia)[0], mesh_b.geometry(ib)[0]
    lo_a, hi_a = va.min(axis=1), va.max(axis=1)
    lo_b, hi_b = vb.min(axis=1), vb.max(axis=1)
    ok = np.all((lo_a[:, None, :] <= hi_b[None, :, :] + BOX_TOL)
                & (lo_b[None, :, :] <= hi_a[:, None, :] + BOX_TOL), axis=2)
    return np.argwhere(ok)


def _oracle_fragments(mesh_a, dia, mesh_b, dib):
    """The overlay's fragments, parents and determinants, and the measure the
    fragments cover as shoelace areas of the clipped polygons."""
    pairs = _dense_overlap_pairs(mesh_a, dia, mesh_b, dib)
    ia, ib = dia[pairs[:, 0]], dib[pairs[:, 1]]
    va, vb = mesh_a.geometry(ia)[0], mesh_b.geometry(ib)[0]
    if mesh_a.dimension == 1:
        lo = np.maximum(va.min(axis=1), vb.min(axis=1))
        hi = np.minimum(va.max(axis=1), vb.max(axis=1))
        intervals = np.stack([lo, hi], axis=1)
        dets = (hi - lo)[:, 0]
        keep = ~(dets <= CLIP_VERTEX_TOL)
        return (intervals[keep], ia[keep], ib[keep], dets[keep],
                float((hi - lo)[keep].sum()))
    simplices, parent_a, parent_b, dets = [], [], [], []
    covered = 0.0
    for i, j, tri_a, tri_b in zip(ia, ib, va.tolist(), vb.tolist()):
        poly = _clip_convex(tri_a, tri_b)
        fan = [(poly[0], poly[k], poly[k + 1]) for k in range(1, len(poly) - 1)]
        fan_dets = [_det(np.subtract(t[1:], t[0]).tolist()) for t in fan]
        if sum(fan_dets) / 2 <= CLIP_VERTEX_TOL:
            continue
        covered += _polygon_area(poly)
        for triangle, det in zip(fan, fan_dets):
            if det != 0:
                simplices.append(triangle)
                dets.append(det)
                parent_a.append(i)
                parent_b.append(j)
    return (np.array(simplices).reshape(-1, 3, 2), np.array(parent_a, dtype=np.int64),
            np.array(parent_b, dtype=np.int64), np.array(dets, dtype=float), covered)


def assert_same_bits(x, y):
    assert (x.shape, x.dtype) == (y.shape, y.dtype)
    assert x.tobytes() == y.tobytes()


def assert_matches_oracle(a, dia, b, dib):
    assert_same_bits(_overlap_pairs(a, dia, b, dib), _dense_overlap_pairs(a, dia, b, dib))
    arrays = _fragments(a, dia, b, dib)
    *expected, expected_covered = _oracle_fragments(a, dia, b, dib)
    for x, y in zip(arrays, expected, strict=True):
        assert_same_bits(x, y)
    # the fragments' signed measures (det / d!, and d! = d) add up to the
    # shoelace areas of the polygons, to rounding
    assert abs(arrays[3].sum() / a.dimension - expected_covered) <= 1e-14


# -- perturbed mesh pairs -----------------------------------------------------

@st.composite
def perturbed_pairs(draw):
    """A uniform mesh (n 2-8) and a single-node or boundary-band perturbation
    of it by a random fraction of h."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 8))
    fraction = draw(st.floats(-0.6, 0.6))
    m = build_uniform_interval(n) if dim == 1 else build_uniform_square(n)
    try:
        if dim == 2 and draw(st.booleans()):
            return m, perturb_boundary_band(m, m.h / math.sqrt(2), (fraction * m.h, 0.0))
        point = [draw(st.integers(1, n - 1)) / n for _ in range(dim)]
        angle = draw(st.floats(0.0, 2 * math.pi)) if dim == 2 else 0.0
        disp = fraction * m.h * np.array([math.cos(angle), math.sin(angle)][:dim])
        return m, perturb_node_nearest(m, point, disp)
    except DegenerateMeshError:
        assume(False)


@given(perturbed_pairs())
@settings(max_examples=150, deadline=None)
def test_overlay_of_perturbed_pairs_matches_oracle(meshes):
    a, b = meshes
    pair = classify_pair(a, b, 1.0)
    dia = pair.differing_elements_a()
    assert_matches_oracle(a, dia, b, dia)


def _triangle_mesh(flat):
    """A mesh of up to four disjointly numbered ccw triangles; None if one is
    thinner than 1e-3 in area."""
    tris = np.array(flat, dtype=float).reshape(-1, 3, 2)
    u, v = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area2 = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    if np.any(np.abs(area2) < 2e-3):
        return None
    tris[area2 < 0] = tris[area2 < 0][:, ::-1]
    return Mesh(2, tris.reshape(-1, 2), np.arange(3 * len(tris)).reshape(-1, 3), [])


coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, width=32)
triangle_soups = st.lists(st.tuples(*[coords] * 6), min_size=1, max_size=4)


@given(triangle_soups, triangle_soups)
@settings(max_examples=200, deadline=None)
def test_overlay_of_random_triangles_matches_oracle(ta, tb):
    a, b = _triangle_mesh(ta), _triangle_mesh(tb)
    assume(a is not None and b is not None)
    assert_matches_oracle(a, np.arange(a.n_elements), b, np.arange(b.n_elements))


@pytest.mark.parametrize("perturbation", [
    BAND_2D, PerturbationSpec("single-node", point=(3 / 16, 5 / 16), fraction=0.25)],
    ids=["table-6-band", "single-node"])
def test_overlay_of_study_pairs_matches_oracle(perturbation):
    # the strategies above build meshes of at most 8 x 8 squares; the band's
    # long vertical sides at n = 32 put many boxes of one side at one x
    m = build_uniform_square(32)
    pair = classify_pair(m, perturbation.apply(m), 1.0)
    dia = pair.differing_elements_a()
    assert_matches_oracle(m, dia, pair.mesh_b, dia)


@given(triangle_soups, triangle_soups)
@settings(max_examples=200, deadline=None)
def test_fragment_determinants_match_lapack(ta, tb):
    # the closed form a e - b c is within an ulp of |a e| + |b c|; LAPACK's
    # det is sign * exp(logdet), whose rounding grows with |ln det| (the
    # closed form's, which is never 0: such fan triangles are dropped)
    a, b = _triangle_mesh(ta), _triangle_mesh(tb)
    assume(a is not None and b is not None)
    simplices, *_, dets = _fragments(a, np.arange(a.n_elements), b, np.arange(b.n_elements))
    edges = simplices[:, 1:] - simplices[:, :1]
    scale = np.abs(edges[:, 0, 0] * edges[:, 1, 1]) + np.abs(edges[:, 0, 1] * edges[:, 1, 0])
    lapack = np.linalg.det(edges)
    assert np.all(np.abs(dets - lapack)
                  <= 4 * np.spacing(scale) * (1 + np.abs(np.log(np.abs(dets)))))


# -- the candidate pairs and the blocks ---------------------------------------

@st.composite
def moved_meshes(draw):
    """Two uniform meshes (n 2-8) with every node moved by up to 0.4 h in each
    coordinate, and a random subset of the elements of each."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = build_uniform_interval(n) if dim == 1 else build_uniform_square(n)
    meshes = []
    for _ in range(2):
        move = draw(st.floats(0.0, 0.4)) * m.h * rng.uniform(-1.0, 1.0, m.nodes.shape)
        try:
            meshes.append(Mesh(dim, m.nodes + move, m.elements, ()))
        except DegenerateMeshError:
            assume(False)
    a, b = meshes
    return a, np.flatnonzero(rng.random(m.n_elements) < 0.7), \
        b, np.flatnonzero(rng.random(m.n_elements) < 0.7)


@given(moved_meshes())
@settings(max_examples=200, deadline=None)
def test_overlap_pairs_of_moved_meshes_match_dense_pairs(case):
    assert_same_bits(_overlap_pairs(*case), _dense_overlap_pairs(*case))


@pytest.mark.parametrize("dim", [1, 2])
def test_overlap_pairs_of_identical_meshes_are_empty(dim):
    # fraction = 0 moves no node, so no element differs
    m = build_uniform_interval(8) if dim == 1 else build_uniform_square(8)
    pair = classify_pair(m, perturb_node_nearest(m, (0.5,) * dim, (0.0,) * dim), 1.0)
    dia = pair.differing_elements_a()
    assert len(dia) == 0
    assert_same_bits(_overlap_pairs(m, dia, pair.mesh_b, dia), np.empty((0, 2), np.intp))


def test_fragments_do_not_depend_on_the_block_size(monkeypatch):
    # one block of all 2,243 candidate pairs, then a block per pair
    m = build_uniform_square(16)
    pair = classify_pair(m, BAND_2D.apply(m), 1.0)
    dia = pair.differing_elements_a()
    monkeypatch.setattr(spacemod, "BLOCK_ELEMENTS",
                        len(_overlap_pairs(m, dia, pair.mesh_b, dia)))
    whole = _fragments(m, dia, pair.mesh_b, dia)
    monkeypatch.setattr(spacemod, "BLOCK_ELEMENTS", 1)
    for x, y in zip(_fragments(m, dia, pair.mesh_b, dia), whole, strict=True):
        assert_same_bits(x, y)


# -- one overlay per pair -----------------------------------------------------

def test_overlay_is_built_once_and_restricts_by_parent():
    # a region of mesh a restricts the cached overlay to the fragments of its
    # elements; that is exactly the overlay of those elements alone
    m = build_uniform_square(8)
    pair = classify_pair(m, perturb_boundary_band(m, m.h / math.sqrt(2),
                                                  (m.h / 4, 0.0)), 1.0)
    assert pair.fragments is pair.fragments
    simplices, ia, ib, dets = pair.fragments
    assert dets.sum() / 2 == pytest.approx(pair.differing_region_measure, abs=1e-12)
    dia = pair.differing_elements_a()
    region = dia[::3]
    keep = np.isin(ia, region)
    alone = _fragments(pair.mesh_a, region, pair.mesh_b, dia)
    for x, y in zip((simplices[keep], ia[keep], ib[keep], dets[keep]), alone,
                    strict=True):
        assert_same_bits(x, y)


def test_fan_triangle_inverted_by_a_rounded_clip_vertex():
    # a node moved by 1e-9 h lays two edges through (0, 0) nearly on top of
    # each other; their rounded crossing lands 2e-8 outside both triangles,
    # and the fan from it starts with a clockwise triangle.  Its signed
    # measure cancels the overshoot of the next one, so the overlay covers
    # the differing region and the pair's check passes
    m = build_uniform_square(3)
    pair = classify_pair(m, perturb_node_nearest(m, (1 / 3, 1 / 3),
                                                 (4.714045265252764e-10, 0.0)), 2.0)
    dets = pair.fragments[3]
    assert dets.min() < -1e-9
    assert dets.sum() / 2 == pytest.approx(pair.differing_region_measure, abs=1e-15)


def test_clip_past_six_vertices_by_rounding():
    # exact arithmetic would give at most six vertices; here a crossing rounded
    # 1.5e-12 off the next clip edge makes the sides alternate, and the clip
    # has seven
    ta = [(0.0, 0.84375), (-0.5, 0.8616943955421448), (0.0, 0.0)]
    tb = [(-9.999999747378752e-06, 0.84375), (-0.5, 0.8616943955421448), (1.0, 0.0)]
    a, b = (Mesh(2, np.array(t), [[0, 1, 2]], []) for t in (ta, tb))
    assert _clip_triangles(a.geometry()[0], b.geometry()[0])[1].tolist() == [7]
    assert_matches_oracle(a, np.arange(1), b, np.arange(1))


def test_clip_beyond_vertex_bound_raises(monkeypatch):
    # two triangles of a hexagram meet in a hexagon: six vertices, one more
    # than a bound of five
    up = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)]
    down = [(0.0, 0.6), (0.5, -0.3), (1.0, 0.6)]
    a, b = (Mesh(2, np.array(t), [[0, 1, 2]], []) for t in (up, down))
    assert _fragments(a, np.arange(1), b, np.arange(1))[0].shape == (4, 3, 2)
    monkeypatch.setattr(meshmod, "MAX_CLIP_VERTICES", 5)
    with pytest.raises(GeometryError, match="more than the bound of 5"):
        _fragments(a, np.arange(1), b, np.arange(1))
