"""The batched overlay of a mesh pair against a scalar Sutherland-Hodgman oracle.

The oracle is the per-candidate loop the overlay is built to reproduce: a
dense bounding-box matrix for the candidate pairs, then one clip, dedupe and
shoelace area per pair.  The batched overlay must equal it bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nearproj import (DegenerateMeshError, GeometryError, Mesh, build_uniform_interval,
                      build_uniform_square, classify_pair, perturb_boundary_band,
                      perturb_node_nearest)
from nearproj import mesh as meshmod
from nearproj.mesh import BOX_TOL, CLIP_VERTEX_TOL, _fragments, _overlap_pairs


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


def _dedupe_polygon(poly):
    out = []
    for p in poly:
        if not out or (abs(p[0] - out[-1][0]) > CLIP_VERTEX_TOL
                       or abs(p[1] - out[-1][1]) > CLIP_VERTEX_TOL):
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= CLIP_VERTEX_TOL \
            and abs(out[0][1] - out[-1][1]) <= CLIP_VERTEX_TOL:
        out.pop()
    return out


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
    va = mesh_a.element_vertices[ia]
    vb = mesh_b.element_vertices[ib]
    lo_a, hi_a = va.min(axis=1), va.max(axis=1)
    lo_b, hi_b = vb.min(axis=1), vb.max(axis=1)
    ok = np.all((lo_a[:, None, :] <= hi_b[None, :, :] + BOX_TOL)
                & (lo_b[None, :, :] <= hi_a[:, None, :] + BOX_TOL), axis=2)
    return np.argwhere(ok)


def _oracle_fragments(mesh_a, dia, mesh_b, dib):
    pairs = _dense_overlap_pairs(mesh_a, dia, mesh_b, dib)
    ia, ib = dia[pairs[:, 0]], dib[pairs[:, 1]]
    va, vb = mesh_a.element_vertices[ia], mesh_b.element_vertices[ib]
    if mesh_a.dimension == 1:
        lo = np.maximum(va.min(axis=1), vb.min(axis=1))
        hi = np.minimum(va.max(axis=1), vb.max(axis=1))
        keep = (hi - lo)[:, 0] > CLIP_VERTEX_TOL
        return (np.stack([lo, hi], axis=1)[keep], ia[keep], ib[keep],
                float((hi - lo)[keep].sum()))
    simplices, parent_a, parent_b = [], [], []
    covered = 0.0
    for i, j, tri_a, tri_b in zip(ia, ib, va.tolist(), vb.tolist()):
        poly = _dedupe_polygon(_clip_convex(tri_a, tri_b))
        if len(poly) < 3:
            continue
        area = _polygon_area(poly)
        if area <= CLIP_VERTEX_TOL:
            continue
        covered += area
        simplices += [(poly[0], poly[k], poly[k + 1]) for k in range(1, len(poly) - 1)]
        parent_a += [i] * (len(poly) - 2)
        parent_b += [j] * (len(poly) - 2)
    return (np.array(simplices).reshape(-1, 3, 2), np.array(parent_a, dtype=np.int64),
            np.array(parent_b, dtype=np.int64), covered)


def assert_same_bits(x, y):
    assert (x.shape, x.dtype) == (y.shape, y.dtype)
    assert x.tobytes() == y.tobytes()


def assert_matches_oracle(a, dia, b, dib):
    assert_same_bits(_overlap_pairs(a, dia, b, dib), _dense_overlap_pairs(a, dia, b, dib))
    *arrays, covered = _fragments(a, dia, b, dib)
    *expected, expected_covered = _oracle_fragments(a, dia, b, dib)
    for x, y in zip(arrays, expected):
        assert_same_bits(x, y)
    assert abs(covered - expected_covered) <= 1e-15


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


# -- one overlay per pair -----------------------------------------------------

def test_overlay_is_built_once_and_restricts_by_parent():
    # a region of mesh a restricts the cached overlay to the fragments of its
    # elements; that is exactly the overlay of those elements alone
    m = build_uniform_square(8)
    pair = classify_pair(m, perturb_boundary_band(m, m.h / math.sqrt(2),
                                                  (m.h / 4, 0.0)), 1.0)
    assert pair.fragments is pair.fragments
    simplices, ia, ib, covered = pair.fragments
    assert covered == pytest.approx(pair.differing_region_measure, abs=1e-12)
    dia = pair.differing_elements_a()
    region = dia[::3]
    keep = np.isin(ia, region)
    alone = _fragments(pair.mesh_a, region, pair.mesh_b, dia)
    for x, y in zip((simplices[keep], ia[keep], ib[keep]), alone[:3]):
        assert_same_bits(x, y)


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
