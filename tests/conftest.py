import numpy as np
import pytest

from fracwave import SchemeConfig, build_mesh, build_operators
from fracwave.potentials import zero_potential


def make_line_ops(n_cells=64, s=1.0, a=0.0, b=1.0, dirichlet=(0.0, 0.0)):
    mesh = build_mesh(a, b, n_cells, dirichlet=dirichlet)
    return build_operators(mesh, s)


def make_radial_ops(n_cells=40, s=1.0, b=1.0, dim=2, right=-1.0):
    mesh = build_mesh(0.0, b, n_cells, geometry="radial", dim=dim,
                      dirichlet=(None, right))
    return build_operators(mesh, s)


def eigenmode_config(ops, k=1, amp=1.0, T=1.0, n_steps=128, potential=None,
                     **kwargs):
    """Obstacle-free run started at rest on one eigenmode."""
    u0 = amp * ops.Phi[:, k - 1]
    v0 = np.zeros(ops.n_free)
    return SchemeConfig(
        T=T, n_steps=n_steps, ops=ops,
        potential=potential if potential is not None else zero_potential(),
        u0=u0, v0=v0, **kwargs)


@pytest.fixture(scope="session")
def ops64():
    return make_line_ops(64, 1.0)


@pytest.fixture(scope="session")
def ops64_half():
    return make_line_ops(64, 0.5)


@pytest.fixture(scope="session")
def ops1000_half():
    return make_line_ops(1000, 0.5)
