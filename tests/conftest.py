import functools

import numpy as np
import pytest
from hypothesis import strategies as st

from fracwave import Mesh1D, SchemeConfig, build_mesh, build_operators
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
    return SpectralStiffness(ops.M, ops.K, ops.s)


@functools.lru_cache(maxsize=1)
def _sine_basis(n):
    """S = sqrt(2/(n+1)) sin(pi j k/(n+1)) in extended precision, each sine
    taken at j k reduced mod 2(n+1); the last n asked is kept."""
    ext = np.longdouble
    j = np.arange(1, n + 1)
    r = (np.outer(j, j) % (2 * (n + 1))).astype(ext)
    return np.sqrt(ext(2) / (n + 1)) * np.sin(np.arccos(ext(-1)) * r / (n + 1))


def sine_oracle(ops, x):
    """A_s x (x a vector or a block along axis 0) in extended precision for
    the sine backend: S diag(mu) S x with the backend's own symbol mu and S
    from _sine_basis.  Its error is at most about 4 n U_EXT max(mu) |x|_2."""
    ext = np.longdouble
    S = _sine_basis(ops.n_free)
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


def gamma(k, u=U):
    """gamma_k = k u / (1 - k u): a sum or dot product of k terms errs by at
    most gamma_k times the sum of the terms' magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1)."""
    return k * u / (1 - k * u)


def norm_1(B):
    """The 1-norm of a dense matrix, which for a symmetric one bounds its
    2-norm."""
    return np.abs(B).sum(axis=0).max()


def eigen_residual_bound(ops, spectrum=None):
    """spectral_decompose's backward-error bound on |K phi_k - lam_k M phi_k|_2
    for each pair of spectrum (default ops's), (n + 4) u (|K|_1 + max|lam|
    |M|_1) |phi_k|_2."""
    lam, phi = (ops.lam, ops.Phi) if spectrum is None else spectrum
    return ((ops.n_free + 4) * U
            * (norm_1(ops.K.toarray()) + np.abs(lam).max() * norm_1(ops.M.toarray()))
            * np.linalg.norm(phi, axis=0))


def endpoint_power_bound(ops, s):
    """(Y Lambda^s Y^T, Y = M Phi, and an entrywise bound on its distance from
    A_s) at s in {0, 1}.  spectral_decompose's model has eigh solve the
    reduced pencil C = L^-1 K L^-T backward stably, so Y Lambda Y^T =
    L Z Lambda Z^T L^T = L (C + E) L^T with |L E L^T|_2 <= n u max|lam| |M|_2,
    the |K|_1 term covering the reduction; at s = 0, Y Y^T = L Z Z^T L^T, off
    M by the orthogonality of Z and the back-transform, which the same model
    bounds by (n + 4) u (|M|_1 + |M|_1).  Forming Y (three terms a row) and
    the power (n terms an entry) adds gamma_(n+3) |Y| Lambda^s |Y|^T."""
    n = ops.n_free
    power = np.maximum(ops.lam, 0.0) ** s
    Y = ops.M @ ops.Phi
    bound = ((n + 4) * U * (norm_1(ops.A_s.toarray()) + power.max() * norm_1(ops.M.toarray()))
             + gamma(n + 3) * (np.abs(Y) * power) @ np.abs(Y).T)
    return (Y * power) @ Y.T, bound


# The sine backend's operators in exact arithmetic are S diag(.) S, with S
# the orthonormal DST-I and the symbol (m, kappa, mu) it holds.  The bounds
# below carry its results to the assembled pair (K, M): the pair's distance
# from Toeplitz is measured, and the symbol's rounding is bounded.
def toeplitz_gap(A):
    """A bound on |A - S diag(sym) S|_2, with sym the symbol SineStiffness
    forms from the tridiagonal form A by _toeplitz_symbol (m from M, kappa
    from K): A's distance, by the 1-norm, from the Toeplitz T of its
    diagonals' means (a, b), in extended precision, plus the rounding of
    (a + 2b) - 4b sin^2(theta_k / 2) against T's eigenvalues.  To first
    order, with one u more in each coefficient for the rest: the means
    err by gamma_n (a sum in any order, then a quotient); sin(theta_k / 2)
    by 5 u, its argument by 3 u (pi, a product, a quotient), which sin
    passes on at most once on [0, pi/2], and sin itself by 2 u; its square
    and the product with 4b by 12 u; each sum by u."""
    ext = np.longdouble
    d, e = (np.asarray(v, dtype=ext) for v in A.band)
    n = d.size
    a, b = d.mean(), (e.mean() if e.size else ext(0))
    size = abs(a) + 2 * abs(b)
    distance = (np.abs(d - a).max() + 2 * np.abs(e - b).max(initial=0)
                + gamma(n, U_EXT) * size)
    sin2 = np.sin(np.arccos(ext(-1)) * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
    rounding = (2 * U * abs(a + 2 * b) + gamma(n + 1) * size
                + (13 * U + gamma(n + 1)) * 4 * abs(b) * sin2.max())
    return float(distance + rounding)


# mu = m (kappa / m)^s errs by at most 6 u relative to its formula in m and
# kappa: the quotient by u, which the power passes on at most s <= 1 times,
# the power by 2 u (one ulp) and the product by u, with one u for the rest
MU_ROUNDING = 6 * U


def sine_identity_error(ops):
    """A bound on |A_s @ I - S diag(mu) S|_2 on the sine backend: the worst
    case of SineStiffness's model, 30 log2(n + 1) u max(mu) per unit column,
    over n columns by the Frobenius norm."""
    n = ops.n_free
    return np.sqrt(n) * 30 * np.log2(n + 1) * U * ops.A_s.mu.max()


def half_power_composition(ops):
    """(A M^-1 A with A = A_s @ I and M^-1 A by np.linalg.solve, and an
    entrywise bound on its distance from K) on the sine backend at s = 1/2.

    With the held symbol, S diag(mu) S M'^-1 S diag(mu) S = K' exactly, for
    M' = S diag(m) S and K' = S diag(mu^2 / m) S.  So the result is off K by
    |K' - K|_2 <= eps_K, toeplitz_gap(K) plus the rounding of mu^2 / m =
    kappa (1 + MU_ROUNDING)^2, by max(mu)^2 eps_M / (m_min (m_min - eps_M))
    for using M in place of M' (eps_M = toeplitz_gap(M), and lambda_min(M)
    >= m_min - eps_M), and by (2 max(mu) + e) e / lambda_min(M)
    for the products' error e (sine_identity_error).  The solve is LU with
    partial pivoting: M is column diagonally dominant with nonnegative
    entries, so no rows swap, the factors are nonnegative, and (M + dM) X =
    A with |dM| <= gamma_3n |L||U| <= gamma_3n / (1 - gamma_n) M (Higham,
    Thms 9.3, 9.4), which adds |dM|_2 |A|_2^2 / (lambda_min (lambda_min -
    |dM|_2)).  The last product adds gamma_n |A||X|."""
    n, sym, M = ops.n_free, ops.A_s, ops.M.toarray()
    assert np.all(2 * np.diag(M) > np.abs(M).sum(axis=0))
    eps_M = toeplitz_gap(ops.M)
    eps_K = toeplitz_gap(ops.K) + ((1 + MU_ROUNDING)**2 - 1) * sym.kappa.max()
    lam_min, mu_max = sym.m.min() - eps_M, sym.mu.max()
    e = sine_identity_error(ops)
    dM = gamma(3 * n) / (1 - gamma(n)) * (sym.m.max() + eps_M)
    A = ops.A_s @ np.eye(n)
    X = np.linalg.solve(M, A)
    bound = (eps_K + mu_max**2 * eps_M / (sym.m.min() * lam_min)
             + (2 * mu_max + e) * e / lam_min
             + dM * (mu_max + e)**2 / (lam_min * (lam_min - dM))
             + gamma(n) * np.abs(A) @ np.abs(X))
    return A @ X, bound


def sine_against_dense_power(ops):
    """(D, bound): the dense spectral power D of ops's pair at ops.s
    (spectral_oracle), and a bound on every entry of A_s @ I - D on the sine
    backend, derived from the two backends' models.

    With (m, kappa) the held symbol, M' = S diag(m) S and K' = S diag(kappa)
    S lie within eps_M, eps_K of M and K (toeplitz_gap); their pairs are
    lam'_k = kappa_k / m_k, phi'_k = s_k / sqrt(m_k), and the sine backend
    forms A' = S diag(m lam'^s) S.  Its products err by at most
    30 log2(n + 1) u max(mu) a column (SineStiffness's worst case) and its
    symbol by MU_ROUNDING.  The dense power sums lam^_k^s (M phi^_k)
    (M phi^_k)^T over eigh's pairs, whose residuals spectral_decompose
    holds below rho_k (eigen_residual_bound).  Against (K', M') the
    residual is at most rho'_k = rho_k + (eps_K + lam^_k eps_M) |phi^_k|;
    for z = M'^(1/2) phi^_k = c s_k + z_perp this gives |c| |lam^_k -
    lam'_k| <= eta and |z_perp| <= eta / delta_k (the sin theta bound), with
    eta = rho'_k / sqrt(min m) and delta_k = min over j != k of |lam'_j -
    lam^_k|, the uniform line's eigenvalue gap.  Then M phi^_k = c sqrt(m_k)
    s_k + e with |e| <= sqrt(max m) eta / delta_k + eps_M |phi^_k|, and c^2
    = |z|^2 - |z_perp|^2 with |z|^2 within eps_M |phi^_k|^2 of phi^_k^T M
    phi^_k (formed in extended precision), so each mode's term is off
    lam'_k^s m_k s_k s_k^T by at most |lam^^s c^2 - lam'^s| m_k +
    lam^^s (2 |c| sqrt(m_k) |e| + |e|^2), with |lam^^s - lam'^s| <= s
    min(lam^, lam')^(s-1) eta / |c|.  Forming D (M phi^ three terms a row,
    the power 2 u, the products, n terms an entry) adds gamma_(n+12)
    (|M||Phi^|) Lambda^^s (|M||Phi^|)^T entrywise."""
    ext = np.longdouble
    n, sym, s = ops.n_free, ops.A_s, ops.s
    oracle = spectral_oracle(ops)
    lam, phi = oracle.spectrum(ops.M, ops.K)
    M = ops.M.toarray()
    eps_M, eps_K = toeplitz_gap(ops.M), toeplitz_gap(ops.K)
    m = sym.m.astype(ext)
    lam_t = sym.kappa.astype(ext) / m
    norm_phi = np.linalg.norm(phi, axis=0)
    rho = eigen_residual_bound(ops, (lam, phi))
    eta = (rho + (eps_K + lam * eps_M) * norm_phi) / np.sqrt(float(m.min()))
    modes = 0.0
    for k in range(n):
        delta = float(np.abs(np.delete(lam_t, k) - ext(lam[k])).min(initial=np.inf))
        z_perp = eta[k] / delta
        f = phi[:, k].astype(ext)
        nu = (float(abs(f @ M.astype(ext) @ f - 1))
              + gamma(4 * n, U_EXT) * float(np.abs(f) @ np.abs(M) @ np.abs(f)))
        z2_hi = 1 + nu + eps_M * norm_phi[k]**2
        c2_lo = 1 - nu - eps_M * norm_phi[k]**2 - z_perp**2
        lt_s = float(lam_t[k]) ** s
        dpow = s * min(lam[k], float(lam_t[k])) ** (s - 1) * eta[k] / np.sqrt(c2_lo)
        e = np.sqrt(float(m.max())) * z_perp + eps_M * norm_phi[k]
        modes += ((dpow * z2_hi + lt_s * max(z2_hi - 1, 1 - c2_lo)) * float(m[k])
                  + (lt_s + dpow) * (2 * np.sqrt(z2_hi * float(m[k])) * e + e**2))
    abs_y = np.abs(M) @ np.abs(phi)
    forming = gamma(n + 12) * (abs_y * np.maximum(lam, 0.0) ** s) @ abs_y.T
    mu_max = sym.mu.max()
    bound = ((30 * np.log2(n + 1) * U + MU_ROUNDING / (1 - MU_ROUNDING)) * mu_max
             + modes + forming)
    return oracle.matrix, bound


def sine_eigen_residual_bound(ops):
    """The bound on |K phi_k - lam_k M phi_k|_2 for the sine backend's closed
    form pairs.  phi_k = s_k / sqrt(m_k) is exact for (K', M') = (S diag(kappa)
    S, S diag(m) S) with lam_k = kappa_k / m_k, which rounds by u.  Each entry
    of the computed phi_k errs by at most 10 u: the argument pi q / (n + 1)
    by 3 u (pi, product, quotient), which sin, at most x cot x <= 1 times as
    sensitive on [0, pi/2], passes on, plus 2 u for sin itself, 3.5 u for
    sqrt(2 / (n + 1)) / sqrt(m_k) and u for the product.  So the residual is
    at most (eps_K + lam_k eps_M + u kappa_k) |phi_k| + 10 u (|K'|_2 +
    lam_k |M'|_2) |phi_k| in exact arithmetic, with |phi_k| <= |phi^_k| /
    (1 - 10 u), and forming it adds gamma_4 (|K|_1 + lam_k |M|_1) |phi^_k|
    and u times itself, and its 2-norm, n squares and a root, gamma_(n+1):
    together at most a factor 1 + gamma_(n+2)."""
    sym, lam = ops.A_s, ops.lam
    eps_M, eps_K = toeplitz_gap(ops.M), toeplitz_gap(ops.K)
    scale = norm_1(ops.K.toarray()) + eps_K + lam * (norm_1(ops.M.toarray()) + eps_M)
    return (((eps_K + lam * eps_M + U * sym.kappa) / (1 - 10 * U)
             + (10 * U / (1 - 10 * U) + gamma(4)) * scale)
            * np.linalg.norm(ops.Phi, axis=0) * (1 + gamma(ops.n_free + 2)))


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
