"""Whole-mesh passes hold one block of samples, not the whole mesh's.

tracemalloc counts numpy's allocations, so these peaks depend on the array
shapes alone, not on the machine.
"""

import tracemalloc

import pytest

from nearproj import (NormSpec, STIFFNESS, assemble_load, build_space,
                      build_uniform_square, interpolate_nodal, named_function,
                      sobolev_norm_exact_diff, space)
from nearproj.quadrature import quadrature_rule

# bytes per quadrature point of one element that a pass may hold: its
# samples take about 10 (load) and 15 (H1 error norm) doubles per point
BYTES_PER_POINT = 24 * 8
# what does not grow with the block: element vectors, the load vector, tables
FIXED_BYTES = 2 ** 20


def _traced_peak(run):
    run()                       # quadrature rules and shape tables are cached
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block", [512, 2048])
def test_load_and_error_norm_peaks_scale_with_the_block(block, monkeypatch):
    # 8192 P2 elements: the whole mesh's samples take 18 MB (load) and 33 MB
    # (H1 error norm), above either bound
    monkeypatch.setattr(space, "BLOCK_ELEMENTS", block)
    mesh = build_uniform_square(64)
    s = build_space(mesh, 2, dirichlet=True)
    u = named_function("sin_pi_2d")
    f = interpolate_nodal(s, u)
    for exactness, run in (
            (2 * s.degree + 4, lambda: assemble_load(s, STIFFNESS, u)),
            (2 * s.degree + 6, lambda: sobolev_norm_exact_diff(f, u, NormSpec(1, 2)))):
        points = len(quadrature_rule(2, exactness).weights)
        bound = FIXED_BYTES + block * points * BYTES_PER_POINT
        assert bound < mesh.n_elements * points * BYTES_PER_POINT / 2
        assert _traced_peak(run) < bound
