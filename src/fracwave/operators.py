"""1d finite element operators with fractional spectral calculus.

Piecewise-linear elements on an interval, optionally carrying the radial
volume weight r**(d-1) so that radially symmetric problems in d ambient
dimensions reduce to one dimension.  Mass and stiffness forms are assembled
over the unconstrained ("free") nodes, the one contiguous slice Mesh1D.free,
as symmetric tridiagonal matrices held as their two diagonals (Tridiagonal);
fixed endpoint values enter through a precomputed load offset.  The order-s
stiffness A_s is one object, whose class build_operators chooses: the
assembled form itself at the endpoints, A_0 = M and A_1 = K; between them,
on a uniform line with both ends fixed, the sine-transform diagonalization
A_s = S diag(m_k (kappa_k/m_k)**s) S of the Toeplitz pair (SineStiffness);
and on every other mesh the dense spectral power
A_s = (M Phi) Lambda**s (M Phi)^T (SpectralStiffness), with the generalized
eigenpairs K phi = lambda M phi (M-orthonormal), which reproduces both
endpoints up to round-off.  The eigenpairs are computed only where
something reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericError


@dataclass(frozen=True)
class Mesh1D:
    """Nodes of a 1d interval mesh plus geometry weight and endpoint data.

    nodes: finite, strictly increasing coordinates, length n_cells + 1.
    geometry: "line" (unit weight) or "radial" (weight r**(dim - 1)).
    dim: ambient dimension; only meaningful for radial geometry.
    dirichlet: (left, right) finite fixed endpoint values; None marks a free
    endpoint.
    """

    nodes: np.ndarray
    geometry: str = "line"
    dim: int = 1
    dirichlet: tuple[float | None, float | None] = (None, None)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ConfigurationError("mesh needs at least 2 cells (3 nodes)")
        if not np.isfinite(nodes).all():
            raise ConfigurationError("mesh nodes must be finite")
        if any(g is not None and not math.isfinite(g) for g in self.dirichlet):
            raise ConfigurationError(
                f"Dirichlet values must be finite, got {self.dirichlet}")
        if not np.all(np.diff(nodes) > 0):
            raise ConfigurationError("mesh nodes must be strictly increasing")
        if self.geometry not in ("line", "radial"):
            raise ConfigurationError(f"unknown geometry {self.geometry!r}")
        if self.geometry == "radial":
            if self.dim < 1:
                raise ConfigurationError("radial geometry needs dim >= 1")
            if nodes[0] != 0.0:
                raise ConfigurationError("radial mesh must start at r = 0")
            if self.dirichlet[0] is not None:
                raise ConfigurationError(
                    "r = 0 is a symmetry endpoint and cannot carry a Dirichlet value"
                )

    @property
    def free(self) -> slice:
        """The unconstrained nodes: one contiguous range, every node but
        an end that carries a Dirichlet value."""
        return slice(int(self.dirichlet[0] is not None),
                     self.nodes.size - int(self.dirichlet[1] is not None))

    @property
    def n_free(self) -> int:
        return self.nodes[self.free].size

    def weight(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.geometry == "radial" and self.dim > 1:
            return x ** (self.dim - 1)
        return np.ones_like(x)

    def embed(self, values: np.ndarray, boundary: str = "data") -> np.ndarray:
        """Expand a free-node vector to all nodes.

        boundary="data" fills constrained slots with the Dirichlet values
        (states); boundary="zero" fills them with 0 (velocities, residuals).
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_free,):
            raise ConfigurationError("free-node vector has wrong length")
        full = np.zeros(self.nodes.size)
        full[self.free] = values
        if boundary == "data":
            if self.dirichlet[0] is not None:
                full[0] = self.dirichlet[0]
            if self.dirichlet[1] is not None:
                full[-1] = self.dirichlet[1]
        elif boundary != "zero":
            raise ConfigurationError(f"unknown boundary fill {boundary!r}")
        return full


def build_mesh(a, b, n_cells, geometry="line", dim=1,
               dirichlet=(None, None)) -> Mesh1D:
    """Uniform mesh of [a, b] with n_cells cells."""
    if not b > a:
        raise ConfigurationError(f"need b > a, got [{a}, {b}]")
    if n_cells < 2:
        raise ConfigurationError("need at least 2 cells")
    nodes = np.linspace(float(a), float(b), int(n_cells) + 1)
    return Mesh1D(nodes=nodes, geometry=geometry, dim=dim,
                  dirichlet=(dirichlet[0], dirichlet[1]))


def _assemble_all_nodes(mesh: Mesh1D):
    """Cell integrals over all cells, Gauss quadrature exact for the
    polynomial weight against piecewise-linear products: the mass blocks
    [[left, cross], [cross, right]] as (left, cross, right), and the
    stiffness coefficients k of the blocks k [[1, -1], [-1, 1]]."""
    gx, gw = np.polynomial.legendre.leggauss(max(2, (mesh.dim + 3) // 2))
    xl, xr = mesh.nodes[:-1, None], mesh.nodes[1:, None]
    h = xr - xl
    x = 0.5 * (xl + xr) + 0.5 * h * gx          # (cells, points)
    w = 0.5 * h * gw * mesh.weight(x)
    phi0 = (xr - x) / h
    phi1 = (x - xl) / h
    mass = (np.sum(w * (phi0 * phi0), axis=1), np.sum(w * (phi0 * phi1), axis=1),
            np.sum(w * (phi1 * phi1), axis=1))
    return mass, np.sum(w, axis=1) / h[:, 0] ** 2


def _tridiagonal(left, cross, right, free):
    """Sum of the cell blocks [[left, cross], [cross, right]] at nodes c, c+1,
    restricted to the free nodes (Mesh1D.free)."""
    main = (np.r_[left, 0.0] + np.r_[0.0, right])[free]
    return Tridiagonal(main, cross[free.start:free.stop - 1])


def band_apply(band, x):
    """B x for the symmetric tridiagonal B with diagonals band = (d, e); x
    is a vector or a block of vectors along axis 0.

    Row j is formed as (d_j x_j + e_(j-1) x_(j-1)) + e_j x_(j+1).  A csr
    product sums the row's stored entries in column order from 0,
    ((0 + e_(j-1) x_(j-1)) + d_j x_j) + e_j x_(j+1), and fl(a + b) =
    fl(b + a), so the two agree bit for bit except where every term is
    -0.0: there the sum from +0.0 gives +0.0, which the final + 0.0
    restores.  The products therefore equal SciPy's csr products bit for
    bit, which the tests check."""
    d, e = band
    if np.ndim(x) == 2:
        d, e = d[:, None], e[:, None]
    y = d * x
    y[1:] += e * x[:-1]
    y[:-1] += e * x[1:]
    y += 0.0
    return y


def pt_args(d, e):
    """(d, e) as SciPy's wrappers of LAPACK's SPD tridiagonal routines
    (?pttrf, ?ptsv) take them: those want e of length at least 1, so a single
    node passes one unused zero."""
    return d, e if e.size else np.zeros(1)


def _fix_signs(phi):
    """Flip each column of phi in place so that its largest-magnitude entry
    (the first, on a tie) is positive."""
    j = np.argmax(np.abs(phi), axis=0)
    phi *= np.where(phi[j, np.arange(phi.shape[1])] < 0, -1.0, 1.0)


def _norm_1(A):
    """|A|_1 of the symmetric tridiagonal A: its largest absolute row sum."""
    return float(band_apply(A.abs_band, np.ones(A.band[0].size)).max())


def _pair_residual_scale(M, K, lam):
    """(n + 4) u (|K|_1 + max|lam| |M|_1): spectral_decompose's bound on
    |K phi_k - lam_k M phi_k|_2 per unit of |phi_k|_2."""
    return ((lam.size + 4) * np.finfo(float).eps / 2.0
            * (_norm_1(K) + np.abs(lam).max() * _norm_1(M)))


def spectral_decompose(M, K):
    """Generalized symmetric eigenpairs K phi = lambda M phi.

    M and K are the Tridiagonal forms; only eigh's arguments are dense
    copies, and the residual check below takes band products.  Returns
    (lam, Phi) with lam ascending and Phi^T M Phi = identity.  Eigenvector
    signs are fixed so the largest-magnitude entry is positive, which keeps
    runs reproducible across invocations.

    Every pair must satisfy the backward-error bound

        |K phi_k - lam_k M phi_k| <= (n + 4) u (|K|_1 + max|lam| |M|_1) |phi_k|,

    with u the unit round-off and n the order.  eigh reduces the pencil by
    the Cholesky factor L of M to C = L^-1 K L^-T and solves C z = lam z
    backward stably, (C + E) z = lam z with |E|_2 <= p(n) u max|lam|, p a
    modest function of n (LAPACK Users' Guide, sec. 4.10).  For phi = L^-T z
    the residual -L E L^T phi is at most p(n) u max|lam| |M|_2 |phi|, which
    scales with max|lam| even for a low mode; the |K|_1 term covers the
    rounding of the reduction, 4 u that of the residual's own products, and
    a symmetric matrix's 2-norm is at most its 1-norm.  The check takes
    p(n) = n.  Measured worst residuals sit 2.3x (3,000 random meshes of
    2-40 cells), 34x (line, 100 cells) and 1,400x (radial, 2,400 cells)
    below it; a corrupted pair exceeds it by orders of magnitude.
    """
    try:
        lam, phi = scipy.linalg.eigh(K.toarray(), M.toarray())
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"generalized eigendecomposition failed: {exc}") from exc
    _fix_signs(phi)
    resid = np.linalg.norm(K @ phi - (M @ phi) * lam, axis=0)
    bound = _pair_residual_scale(M, K, lam) * np.linalg.norm(phi, axis=0)
    worst = float(np.max(resid / bound))
    if worst > 1.0:
        raise NumericError(
            f"eigenpair residual is {worst:.3e} times its backward-error bound")
    return lam, phi


class Tridiagonal:
    """A symmetric tridiagonal matrix held as its diagonals band = (d, e):
    the mass and stiffness forms M and K, and A_s at s in {0, 1}, where
    build_operators makes A_0 the object M and A_1 the object K.  Products
    (@) are taken by band_apply, O(n), on a vector or a block of vectors
    along axis 0; toarray() gives a dense copy.  As an order-s stiffness
    its band part B is all of it, so R = A_s - B = 0 and rest_apply is None.

    Round-off model: componentwise.  roundoff(w) gives the entrywise term
    |A_s| |w|, band_apply on (|d|, |e|), and no normwise term.  A row of A_s w
    has three terms and errs by gamma_3 ~ 1.5 eps relative to |A_s| |w|, so
    the worst case of the round-off floor's t (stepper._roundoff_floor) is
    2.5 to 3 eps per entry, which roundings of either sign seldom reach;
    its c = 2 sits just below it.  Measured at s = 1, Newton's residual
    stalls 6 to 9 times below the floor (3.5e-9 against 3.0e-8 on the first
    step of 4,800 radial cells with the eps-scaled well, tau = 5e-4,
    re-measured with the pre-scaled M / tau^2 and d = u - w of
    stepper._evaluate; 1.0e-6 against 6.6e-6 on 102,400 line cells).
    abs_band, the band of |A_s|, is formed on first use and kept.
    """

    rest_apply = None
    shifted_inverse = None

    def __init__(self, d, e):
        self.band = (d, e)

    def __matmul__(self, x):
        return band_apply(self.band, x)

    def toarray(self):
        d, e = self.band
        dense = np.diag(d)
        j = np.arange(e.size)
        dense[j, j + 1] = dense[j + 1, j] = e
        return dense

    @cached_property
    def abs_band(self):
        """(|d|, |e|), the band of |A|."""
        d, e = self.band
        return np.abs(d), np.abs(e)

    def roundoff(self, w):
        return band_apply(self.abs_band, np.abs(w)), 0.0

    def spectrum(self, M, K):
        """The eigenpairs of (K, M), computed here on request."""
        return spectral_decompose(M, K)


class SpectralStiffness:
    """A_s at fractional s: the dense spectral power y y^T, y = (M Phi)
    Lambda^(s/2), from the pairs of spectral_decompose(M, K), exactly
    symmetric because NumPy forms it by BLAS syrk.  An eigenvalue counts as
    0 where |lam_k| |M phi_k|_2 <= rho |phi_k|_2, rho the bound per unit
    |phi_k|_2 that spectral_decompose checks the residuals against
    (_pair_residual_scale): the term lam_k M phi_k then lies within the
    pair's allowed backward error, and the pair does not tell lam_k from 0.
    Taken as lam_k^(s/2), such a round-off eigenvalue gave the constant null
    vector of a line with both ends free an order-s energy of a few percent
    of its M-norm.  Negative eigenvalues beyond the threshold are
    clamped to 0.  Products cost O(n^2).  B is the diagonal of A_s; rest_apply forms
    R x = A_s x - B x with one product and no n x n temporary.  It serves
    radial, free-end and nonuniform meshes, and is the small-n oracle.

    Round-off model: componentwise.  roundoff(w) gives no normwise term and
    the entrywise term |A_s| |w| = 2 A_s^+ |w| - A_s |w|, from
    |a| = 2 max(a, 0) - a, with A_s^+ = max(A_s, 0) built here and held as
    the coordinates plus = (rows, cols, vals) of its nonzero entries in row
    order: O(n^2), one Newton product, with no second dense array held.
    The product sums each row's terms in column order from 0, as a csr
    product does, by np.bincount.  On the meshes checked (line and radial,
    200 cells) the number of entries over n is 1 for s >= 0.5, 1.04 at
    s = 0.25 and 2.99 at s = 0.1, so A_s^+ holds O(n).  A row of A_s w has
    n terms, so its worst case is gamma_n ~ n eps / 2 relative to |A_s| |w|, and the
    round-off floor's c = 2 rests on measurement, not on that derivation: at
    s = 1/2 the residual stalls 48 times below the floor (7.2e-11 against
    3.5e-9 on 1,600 radial cells with the eps-scaled well).
    """

    shifted_inverse = None

    def __init__(self, M, K, s: float):
        self._spectrum = lam, phi = spectral_decompose(M, K)
        y = M @ phi
        # squared column norms by einsum: no n x n temporary
        within = (lam**2 * np.einsum("ij,ij->j", y, y)
                  <= _pair_residual_scale(M, K, lam)**2 * np.einsum("ij,ij->j", phi, phi))
        y *= np.where(within, 0.0, np.maximum(lam, 0.0)) ** (s / 2.0)
        self.matrix = y @ y.T
        del y   # n x n: gone before the A_s^+ temporary
        self.band = (np.diagonal(self.matrix).copy(), np.zeros(lam.size - 1))
        plus = np.maximum(self.matrix, 0.0)
        rows, cols = np.nonzero(plus)
        self.plus = (rows, cols, plus[rows, cols])

    def __matmul__(self, x):
        return self.matrix @ x

    def rest_apply(self, x):
        return self.matrix @ x - self.band[0] * x

    def roundoff(self, w):
        w = np.abs(w)
        rows, cols, vals = self.plus
        return (2.0 * np.bincount(rows, vals * w[cols], minlength=w.size)
                - self.matrix @ w, 0.0)

    def spectrum(self, M, K):
        """The eigenpairs this power was formed from."""
        return self._spectrum


def _dst(x):
    """The orthonormal DST-I S along axis 0 of the float array x; S is
    symmetric and S S = I.

    A direct call of pocketfft's kernel, scipy.fft._pocketfft.pypocketfft.dst,
    with the arguments scipy.fft.dst(x, type=1, norm="ortho", axis=0) passes
    it (inorm 1, one thread), so the output is the same bits.  Both public
    wrappers, scipy.fft.dst and scipy.fftpack.dst, check and convert their
    arguments first, which at a few hundred nodes costs more than the
    transform: at 383 nodes the kernel takes about 3.3 us per call,
    scipy.fftpack.dst 6.0 us and scipy.fft.dst, with its backend dispatch,
    more still.  SineStiffness.__init__ imports the kernel, not this
    module, so that the import lands in setup and only where it is needed:
    scipy's FFT modules add about 5 MB of resident memory, which only the
    sine backend needs."""
    return scipy.fft._pocketfft.pypocketfft.dst(x, 1, (0,), 1, None, 1, None)


def _toeplitz_symbol(A, half_angle):
    """Eigenvalues a + 2 b cos(theta_k) of A's Toeplitz approximation (a, b
    the means of its diagonal and off-diagonal), at sin(theta_k / 2) =
    half_angle, as (a + 2 b) - 4 b sin^2(theta_k / 2): cos(theta_k) rounds
    near 1, and the low modes of K would lose relative accuracy to it."""
    d, e = A.band
    a = d.mean()
    b = e.mean() if e.size else 0.0
    return (a + 2.0 * b) - 4.0 * b * half_angle**2


class SineStiffness:
    """A_s at fractional s on a uniform line with both ends fixed, where M
    and K are tridiagonal Toeplitz.  The orthonormal DST-I S, with columns
    s_k = sqrt(2/(n+1)) sin(j k pi/(n+1)), diagonalizes both: M = S diag(m) S
    and K = S diag(kappa) S, so lambda_k = kappa_k / m_k, Phi = S
    diag(m^-1/2) and A_s = S diag(mu) S with mu_k = m_k lambda_k^s.  Only
    the symbol (m, kappa, mu) is held, O(n), with m_min = min m; m and
    kappa come from the assembled diagonals of M and K.  A product is two
    DSTs (_dst, pocketfft's kernel), O(n log n); x may be a block of
    vectors along axis 0.
    B is the diagonal of A_s, d_j = sum_k mu_k s_jk^2 = (sum mu -
    Re F_(n+1)([0, mu])_j) / (n + 1), one FFT of length n + 1; rest_apply
    forms R x = A_s x - d x.

    The same basis inverts the Newton step's quadratic part:
    shifted_inverse(c, r) = S diag(1 / (c m + mu)) S r, two DSTs, is
    (c M' + A_s)^-1 r for M' = S diag(m) S, and shifted_floor(c) =
    min_k (c m_k + mu_k) (1 - 2 eps) - c mass_gap bounds the eigenvalues of
    c M + A_s from below (Weyl), c >= 0.  mass_gap = 2 gap (a + 2 b), with
    (a, b) the means of M's diagonals, both positive, and gap the relative
    spread build_operators' Toeplitz rule admits (_toeplitz_tol), bounds
    |M - M'|_2: gap (a + 2 b) bounds M's 1-norm distance from the Toeplitz
    matrix of (a, b), and as much again the rounding of m against that
    matrix's eigenvalues, at most about (2 n + 17) u (a + 2 b)
    (tests/conftest.py, toeplitz_gap) against gap >= 16 (n + 1) u.  The
    factor 1 - 2 eps covers the rounding of c m + mu.  Both are formed for
    the last c asked, which a run's time step fixes.

    Round-off model: normwise.  An FFT errs normwise, not componentwise
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 24): a radix-2 FFT of length N with accurate weights gives
    |fl(y) - y|_2 <= log2(N) eta / (1 - log2(N) eta) |y|_2, eta ~ 6.7 u.
    SciPy takes the DST-I through a real FFT of length N = 2(n + 1), so two
    transforms and the scaling by mu give, in the worst case,

        |fl(A_s w) - A_s w|_2 <= c log2(n + 1) u max(mu) |w|_2

    with c = 30, since 2 log2(2(n + 1)) eta + 3 u <= 30 log2(n + 1) u.
    Against a product in extended precision, on 1 to 2,047 free nodes
    (powers of two, primes, and n + 1 prime, which SciPy transforms by
    Bluestein's algorithm), the error stays below 6.2 u max(mu) |w|_2
    (2,002 nodes) and below 2.1 log2(n + 1) u max(mu) |w|_2 (2 nodes):
    roundings of either sign add up like a random walk.  roundoff(w) gives
    no entrywise term and the normwise term
    log2(n + 1) max(mu) |w|_2 / sqrt(min m), which the round-off floor's
    c eps = 2 eps = 4 u scales: c = 4 covers every measured case and sits
    7.5 times below the worst case.  M's eigenvalues are the m_k, so
    |e|_{M^-1} <= |e|_2 / sqrt(min m) carries the 2-norm into the floor's
    M^-1 norm.  shifted_inverse takes the same model with diag(1 / (c m +
    mu)) for diag(mu), whose three roundings the 3 u above allows.
    """

    def __init__(self, M, K, s: float, gap: float):
        import scipy.fft._pocketfft.pypocketfft   # see _dst
        n = M.band[0].size
        half_angle = np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1))
        self.m = _toeplitz_symbol(M, half_angle)
        self.kappa = _toeplitz_symbol(K, half_angle)
        self.mu = self.m * (self.kappa / self.m) ** s
        diag = (self.mu.sum() - scipy.fft.fft(np.r_[0.0, self.mu]).real[1:]) / (n + 1)
        self.band = (diag, np.zeros(n - 1))
        # a + 2 b, the means' symbol at theta = 0: M's entries are positive
        self.mass_gap = 2.0 * gap * _toeplitz_symbol(M, 0.0)
        self.m_min = float(self.m.min())
        self._shift = (None,)
        self._roundoff_scale = np.log2(n + 1) * self.mu.max() / np.sqrt(self.m_min)

    def __matmul__(self, x):
        mu = self.mu if np.ndim(x) == 1 else self.mu[:, None]
        return _dst(mu * _dst(x))

    def rest_apply(self, x):
        return self @ x - self.band[0] * x

    def _shifted(self, c):
        """(c, c m + mu, shifted_floor(c)) for the last c asked."""
        if self._shift[0] != c:
            symbol = c * self.m + self.mu
            floor = float(symbol.min()) * (1.0 - 2.0 * np.finfo(float).eps)
            self._shift = (c, symbol, floor - c * self.mass_gap)
        return self._shift

    def shifted_inverse(self, c, r):
        """(c M + A_s)^-1 r = S diag(1 / (c m + mu)) S r, two DSTs."""
        return _dst(_dst(r) / self._shifted(c)[1])

    def shifted_floor(self, c) -> float:
        """A lower bound on the eigenvalues of c M + A_s, c >= 0."""
        return self._shifted(c)[2]

    def roundoff(self, w):
        # |w|_2 as np.linalg.norm forms it, bit for bit, without its
        # argument handling
        return 0.0, self._roundoff_scale * math.sqrt(w @ w)

    @cached_property
    def lam(self):
        """The eigenvalues kappa / m in closed form, O(n), ascending with k:
        m_k falls and kappa_k rises."""
        return self.kappa / self.m

    def spectrum(self, M, K):
        """The eigenpairs in closed form, (lam, Phi), under
        spectral_decompose's sign rule.  S is built from sin(pi q / (n + 1))
        at the integer q = j k reduced to [0, (n + 1) / 2], so entries of
        equal magnitude are equal bits and the sign rule's tie-break is
        reproducible."""
        n = self.m.size
        j = np.arange(1, n + 1)
        r = np.outer(j, j) % (2 * (n + 1))
        q = r % (n + 1)
        phi = np.sin(np.pi * np.minimum(q, n + 1 - q) / (n + 1))
        phi[r > n + 1] *= -1.0
        phi *= np.sqrt(2.0 / (n + 1)) / np.sqrt(self.m)
        _fix_signs(phi)
        return self.lam, phi


@dataclass(frozen=True)
class OperatorSet:
    """Assembled forms and order-s stiffness for one mesh.

    Immutable after construction; shared freely across runs.  M and K are
    Tridiagonal: M x is ops.M @ x, and M.band holds M's diagonals (d, e).
    A_s is the order-s stiffness: the object K at s = 1 and M at s = 0, a
    SineStiffness at fractional s on a uniform line with both ends fixed
    and a SpectralStiffness otherwise; each provides products (@), the
    (d, e) diagonals of a tridiagonal band part B, rest_apply for
    R = A_s - B (None where R = 0), shifted_inverse(c, r) for
    (c M + A_s)^-1 r in closed form (None but on the sine backend, which
    also gives shifted_floor(c), a lower bound on its eigenvalues),
    roundoff(w), the entrywise and normwise terms of its round-off model
    for the product with w (see each class), and spectrum(M, K) for the
    eigenpairs.  mass_chol holds the
    factors (d, e) of M's tridiagonal LDL^T factorization (LAPACK dpttrf:
    D = diag(d), L unit lower bidiagonal with subdiagonal e).  The spectrum (lam, Phi) is
    computed on first use, and kept.  lift_load and lift_const carry the
    coupling of free nodes to fixed endpoint values through the order-1
    stiffness, so build_operators admits nonzero Dirichlet data only at
    s = 1; both are zero when the data vanish, and lifted is then False.
    """

    mesh: Mesh1D
    M: Tridiagonal
    K: Tridiagonal
    s: float
    A_s: Tridiagonal | SineStiffness | SpectralStiffness
    lumps: np.ndarray
    lift_load: np.ndarray
    lift_const: float
    mass_chol: tuple

    @property
    def n_free(self) -> int:
        return self.M.band[0].size

    @cached_property
    def _spectrum(self):
        return self.A_s.spectrum(self.M, self.K)

    @property
    def lam(self) -> np.ndarray:
        """Generalized eigenvalues of (K, M), ascending.  On the sine
        backend they are the closed form SineStiffness.lam, and no
        eigenvector is formed."""
        if isinstance(self.A_s, SineStiffness):
            return self.A_s.lam
        return self._spectrum[0]

    @cached_property
    def lifted(self) -> bool:
        """Whether nonzero Dirichlet data enter the free nodes' equations:
        where they do not (always at fractional s), lift_load and
        lift_const are zero and the time step skips them."""
        return bool(self.lift_load.any() or self.lift_const)

    @property
    def Phi(self) -> np.ndarray:
        """M-orthonormal eigenvectors, one per column of lam's order."""
        return self._spectrum[1]

    def solve_mass(self, r: np.ndarray) -> np.ndarray:
        """M^{-1} r via the cached tridiagonal LDL^T factors of M.

        Calls LAPACK's pttrs directly, with no finiteness check: blowup
        detection is the caller's job, and this sits on the solver's hot
        path, where a wrapper's argument handling costs more than the O(n)
        solve at a few hundred nodes.  For a symmetric positive definite
        tridiagonal M this factorization is backward stable (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 9.5).
        """
        x, info = scipy.linalg.lapack.dpttrs(*self.mass_chol, r)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpttrs")
        return x

    def dual_norm(self, r: np.ndarray) -> float:
        """|r|_{M^-1} = sqrt(r . M^-1 r), the norm of a residual (a
        functional on the free nodes) dual to the M-norm; round-off that
        takes r . M^-1 r below 0 reads 0."""
        return math.sqrt(max(float(r @ self.solve_mass(r)), 0.0))


def _toeplitz_tol(mesh: Mesh1D) -> float:
    """The relative spread _is_toeplitz admits in a diagonal."""
    nodes = mesh.nodes
    return 16 * np.finfo(float).eps * np.abs(nodes).max() / np.diff(nodes).min()


def _is_toeplitz(mesh: Mesh1D, *forms) -> bool:
    """Whether each diagonal of each form is constant to within the
    rounding of the node coordinates (_toeplitz_tol).  A node rounds by up
    to u |x_j|, so
    a width h_j by up to about 2 u max|x|, and an entry formed from the
    widths varies by that over min h, relatively: meshes built by
    build_mesh vary by at most 2.5 eps max|x| / min h (measured on
    [0, 1e-3] to [1000, 1001], 2 to 25,600 cells).  The tolerance,
    16 eps max|x| / min h, admits them with room to spare; the Toeplitz
    pair of SineStiffness then differs from the assembled one by a few
    times the round-off the nodes carry into it."""
    tol = _toeplitz_tol(mesh)
    for A in forms:
        for diag in A.band:
            if diag.size and np.abs(diag - diag.mean()).max() > tol * abs(diag.mean()):
                return False
    return True


def build_operators(mesh: Mesh1D, s: float) -> OperatorSet:
    """Forms, lift and A_s for order s.  Nonzero Dirichlet data need s = 1,
    the only order whose lift the order-1 stiffness gives.

    M and K are assembled as their three diagonals on the free nodes, the
    one contiguous range Mesh1D.free, so setup costs O(n) time and memory at
    s in {0, 1}.  A fractional s adds O(n log n) on a uniform line with both
    ends fixed (SineStiffness), and the dense eigensolve and A_s elsewhere.
    """
    if s < 0:
        raise ConfigurationError("fractional order s must be >= 0")
    if s != 1 and any(g not in (None, 0.0) for g in mesh.dirichlet):
        raise ConfigurationError(
            f"Dirichlet data {mesh.dirichlet} need s = 1, got s = {s}: the "
            "lift of nonzero boundary values uses the order-1 stiffness")
    (left, cross, right), k = _assemble_all_nodes(mesh)
    free = mesh.free
    M = _tridiagonal(left, cross, right, free)
    K = _tridiagonal(k, -k, k, free)
    # an end node's data couple to its one free neighbour through the end
    # cell, and to nothing else: a mesh has at least two cells
    lift_load = np.zeros(mesh.n_free)
    lift_const = 0.0
    for g, end in ((mesh.dirichlet[0], 0), (mesh.dirichlet[1], -1)):
        if g is not None:
            lift_load[end] -= k[end] * g
            lift_const += 0.5 * k[end] * g * g
    # nodal quadrature weights: the full hat integrals int phi_j w dx (row
    # sums over all nodes), so the lumped measure equals the domain measure
    # minus the constrained-node lumps
    lumps = (np.r_[left + cross, 0.0] + np.r_[0.0, right + cross])[free]
    d, e, info = scipy.linalg.lapack.dpttrf(*pt_args(*M.band))
    if info:
        raise NumericError(f"the mass matrix does not factor: LAPACK dpttrf "
                           f"returned info {info}")
    if s in (0.0, 1.0):
        A_s = K if s else M
    elif (mesh.geometry == "line" and None not in mesh.dirichlet
          and _is_toeplitz(mesh, M, K)):
        A_s = SineStiffness(M, K, s, _toeplitz_tol(mesh))
    else:
        A_s = SpectralStiffness(M, K, s)
    return OperatorSet(
        mesh=mesh, M=M, K=K, s=float(s), A_s=A_s, lumps=lumps,
        lift_load=lift_load, lift_const=float(lift_const), mass_chol=(d, e),
    )


def fractional_apply(ops: OperatorSet, u: np.ndarray) -> np.ndarray:
    """A_s u, the order-s stiffness applied to a free-node vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.n_free,):
        raise ConfigurationError("vector length does not match free nodes")
    return ops.A_s @ u


def seminorm_s(ops: OperatorSet, u: np.ndarray) -> float:
    """Order-s seminorm sqrt(u^T A_s u).

    A_s as held is positive semidefinite, so the computed form q = u . y,
    y = fl(A_s u), falls below 0 by round-off alone, and by at most

        2 eps (|u| . t_A + |u|_M a) + gamma_n |u| . |y|

    with (t_A, a) = A_s.roundoff(u) and |u|_M = sqrt(u . M u).  The
    product errs by at most 2 eps t_A entrywise or 2 eps a in the M^-1
    norm, the model each class of A_s states for the round-off floor
    (c = 2); u . e <= |u|_M |e|_M^-1 carries the normwise term.  The dot
    product of n terms, in any order, errs by at most gamma_n |u| . |y|,
    gamma_n = n eps/2 / (1 - n eps/2) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.1).  A q below minus this bound
    (_form_roundoff) raises NumericError.
    """
    u = np.asarray(u, dtype=float)
    y = fractional_apply(ops, u)
    q = float(u @ y)
    if q < 0.0:
        bound = _form_roundoff(ops, u, y)
        if q < -bound:
            raise NumericError(f"quadratic form returned {q:.3e} < 0, below its "
                               f"round-off bound -{bound:.3e}")
    return np.sqrt(max(q, 0.0))


def _form_roundoff(ops: OperatorSet, u, y) -> float:
    """seminorm_s's bound on the round-off of u . y, y = fl(A_s u)."""
    eps = np.finfo(float).eps
    gamma_n = u.size * eps / 2.0 / (1.0 - u.size * eps / 2.0)
    abs_u = np.abs(u)
    t_a, a = ops.A_s.roundoff(u)
    norm_m = np.sqrt(max(float(u @ (ops.M @ u)), 0.0))
    return (2.0 * eps * (float(np.sum(abs_u * t_a)) + norm_m * a)
            + gamma_n * float(abs_u @ np.abs(y)))


def poincare_constant(ops: OperatorSet) -> float:
    """Sharp discrete constant C_s with ||u||_M <= C_s sqrt(u^T A_s u).

    Requires a constrained endpoint so the smallest eigenvalue is positive.
    """
    if ops.mesh.dirichlet[0] is None and ops.mesh.dirichlet[1] is None:
        raise ConfigurationError("Poincare constant needs a Dirichlet constraint")
    lam1 = float(ops.lam[0])
    if lam1 <= 0.0:
        raise ConfigurationError(f"smallest eigenvalue {lam1:.3e} is not positive")
    return lam1 ** (-ops.s / 2.0)
