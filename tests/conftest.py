import numpy as np
import pytest
from hypothesis import strategies as st

from fracwave import (Mesh1D, SchemeConfig, build_mesh, build_operators,
                      spectral_decompose)
from fracwave.operators import SineStiffness, SpectralStiffness, Tridiagonal
from fracwave.potentials import zero_potential

U = np.finfo(float).eps / 2
# Backward error of a tridiagonal LDL^T solve (LAPACK ?pttrs, ?ptsv) with
# A symmetric positive definite: the computed x satisfies (A + dA) x = b with
# |dA| <= f(u) |L||D||L^T|, f(u) = 4u + 3u^2 + u^3 (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sec. 9.5).  Every d_k of the
# computed factors is positive, so the entries of |L||D||L^T| are those of
# L D L^T = A + E, |E| <= u |L||D||L^T|, and |L||D||L^T| <= |A| / (1 - u).
LDLT_BACKWARD = (4 * U + 3 * U**2 + U**3) / (1 - U)
# Residuals are formed in extended precision: at most three nonzero products
# and one subtraction per row, each rounded at the unit round-off U_EXT.
U_EXT = np.finfo(np.longdouble).eps / 2
RESIDUAL_ROUNDING = 4 * U_EXT / (1 - 4 * U_EXT)


def make_line_ops(n_cells=64, s=1.0, a=0.0, b=1.0, dirichlet=(0.0, 0.0)):
    mesh = build_mesh(a, b, n_cells, dirichlet=dirichlet)
    return build_operators(mesh, s)


def make_radial_ops(n_cells=40, s=1.0, b=1.0, dim=2, right=-1.0):
    mesh = build_mesh(0.0, b, n_cells, geometry="radial", dim=dim,
                      dirichlet=(None, right))
    return build_operators(mesh, s)


@st.composite
def meshes(draw):
    """Strictly increasing meshes of 2-40 cells, line or radial, dim 1-3,
    with every Dirichlet pattern the geometry admits."""
    geometry = draw(st.sampled_from(["line", "radial"]))
    widths = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40))
    start = 0.0 if geometry == "radial" else draw(st.floats(-1.0, 1.0))
    data = st.one_of(st.none(), st.floats(-2.0, 2.0))
    left = None if geometry == "radial" else draw(data)
    return Mesh1D(nodes=start + np.concatenate(([0.0], np.cumsum(widths))),
                  geometry=geometry, dim=draw(st.integers(1, 3)),
                  dirichlet=(left, draw(data)))


@st.composite
def uniform_lines(draw):
    """Uniform line meshes of 2-40 cells, as build_mesh makes them, with
    both ends fixed: at fractional s (data 0) the sine backend's meshes."""
    a = draw(st.floats(-1.0, 1.0))
    return build_mesh(a, a + draw(st.floats(0.1, 2.0)), draw(st.integers(2, 40)),
                      dirichlet=(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))))


def dense_A_s(ops):
    """A_s as a dense array: the storage of the tridiagonal and spectral
    backends, and A_s @ I for the sine backend, which stores none."""
    if isinstance(ops.A_s, SineStiffness):
        return ops.A_s @ np.eye(ops.n_free)
    if isinstance(ops.A_s, Tridiagonal):
        return ops.A_s.toarray()
    return ops.A_s.matrix


def spectral_oracle(ops):
    """The dense SpectralStiffness of ops's pair at ops.s, built explicitly
    from the eigensolve whichever backend build_operators chose."""
    return SpectralStiffness(ops.M, spectral_decompose(ops.M, ops.K), ops.s)


def sine_oracle(ops, x):
    """A_s x (x a vector or a block along axis 0) in extended precision for
    the sine backend: S diag(mu) S x with
    the backend's own symbol mu and S = sqrt(2/(n+1)) sin(pi j k/(n+1)),
    each sine taken at j k reduced mod 2(n+1).  Its error is at most
    about 4 n U_EXT max(mu) |x|_2."""
    ext = np.longdouble
    n = ops.n_free
    j = np.arange(1, n + 1)
    r = (np.outer(j, j) % (2 * (n + 1))).astype(ext)
    S = np.sqrt(ext(2) / (n + 1)) * np.sin(np.arccos(ext(-1)) * r / (n + 1))
    x = np.asarray(x).astype(ext)
    mu = ops.A_s.mu.astype(ext)
    return S @ ((mu if x.ndim == 1 else mu[:, None]) * (S @ x))


def assert_tridiagonal_backward_error(A, x, b, rhs_error=0.0):
    """Check |b - A x| <= LDLT_BACKWARD |A||x| + rhs_error componentwise,
    with the residual in extended precision and its rounding allowed for.
    rhs_error bounds the rounding already in b, where b was computed."""
    ext = np.longdouble
    resid = np.abs(b.astype(ext) - A.astype(ext) @ x.astype(ext))
    scale = np.abs(A).astype(ext) @ np.abs(x).astype(ext)
    bound = (LDLT_BACKWARD * scale + rhs_error
             + RESIDUAL_ROUNDING * (scale + np.abs(b.astype(ext))))
    assert np.all(resid <= bound), float(np.max(resid / bound))


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
    # a free end keeps the line on the dense spectral backend
    return make_line_ops(1000, 0.5, dirichlet=(0.0, None))
