import numpy as np
import pytest

from nearproj import (build_space, build_uniform_interval, build_uniform_square,
                      classify_pair, named_function, perturb_node_nearest)
from nearproj.mesh import Mesh


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mesh1d8():
    return build_uniform_interval(8)


@pytest.fixture(scope="session")
def pair1d8(mesh1d8):
    m = mesh1d8
    moved = perturb_node_nearest(m, (0.25,), (m.h / 4,))
    return classify_pair(m, moved, 1.0)


@pytest.fixture(scope="session")
def mesh2d4():
    return build_uniform_square(4)


@pytest.fixture(scope="session")
def pair2d4(mesh2d4):
    m = mesh2d4
    moved = perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0.0))
    return classify_pair(m, moved, 2.0)


@pytest.fixture(scope="session")
def sin1d():
    return named_function("sin_pi")


@pytest.fixture(scope="session")
def sin2d():
    return named_function("sin_pi_2d")


def random_fe_function(space, rng, sparsity=1.0):
    """Random FE function; sparsity < 1 zeroes a fraction of the coefficients."""
    from nearproj import FeFunction
    coeffs = rng.standard_normal(space.n_dofs)
    if sparsity < 1.0:
        keep = rng.random(space.n_dofs) < sparsity
        coeffs = np.where(keep, coeffs, 0.0)
    return FeFunction(space, coeffs)


def jittered_mesh(dim, rng):
    """A unit-box mesh with every interior node moved by up to h/10 per
    coordinate, so that no two elements share a Jacobian."""
    mesh = build_uniform_interval(8) if dim == 1 else build_uniform_square(4)
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), list(mesh.boundary_nodes))
    nodes[interior] += 0.2 * mesh.h * (rng.random((interior.size, dim)) - 0.5)
    return Mesh(dim, nodes, mesh.elements, mesh.boundary_nodes)
