"""1d finite element operators with fractional spectral calculus.

Piecewise-linear elements on an interval, optionally carrying the radial
volume weight r**(d-1) so that radially symmetric problems in d ambient
dimensions reduce to one dimension.  Mass and stiffness forms are assembled
over the unconstrained ("free") nodes as sparse tridiagonal arrays; fixed
endpoint values enter through a precomputed load offset.  The order-s
stiffness A_s is the assembled form itself at the endpoints, A_0 = M and
A_1 = K.  Between them it is spectral, and dense:
with the generalized eigenpairs K phi = lambda M phi (M-orthonormal),
A_s = (M Phi) Lambda**s (M Phi)^T, which reproduces both endpoints up to
round-off.  The eigenpairs are computed only where something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigurationError, NumericError


@dataclass(frozen=True)
class Mesh1D:
    """Nodes of a 1d interval mesh plus geometry weight and endpoint data.

    nodes: strictly increasing coordinates, length n_cells + 1.
    geometry: "line" (unit weight) or "radial" (weight r**(dim - 1)).
    dim: ambient dimension; only meaningful for radial geometry.
    dirichlet: (left, right) fixed endpoint values; None marks a free endpoint.
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
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def free(self) -> np.ndarray:
        """Indices of unconstrained nodes."""
        idx = np.arange(self.nodes.size)
        keep = np.ones(self.nodes.size, dtype=bool)
        if self.dirichlet[0] is not None:
            keep[0] = False
        if self.dirichlet[1] is not None:
            keep[-1] = False
        return idx[keep]

    @property
    def n_free(self) -> int:
        return self.free.size

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


def _tridiagonal(left, cross, right, lo, hi):
    """Sum of the cell blocks [[left, cross], [cross, right]] at nodes c, c+1,
    restricted to the node range lo:hi, as a sparse tridiagonal array."""
    main = (np.r_[left, 0.0] + np.r_[0.0, right])[lo:hi]
    off = cross[lo:hi - 1]
    return scipy.sparse.diags_array([off, main, off], offsets=[-1, 0, 1],
                                    format="csr")


def _upper_band(a, kd: int) -> np.ndarray:
    """LAPACK upper band storage of symmetric a (dense or sparse): row
    kd - k holds diagonal k."""
    ab = np.zeros((kd + 1, a.shape[0]), order="F")
    for k in range(kd + 1):
        ab[kd - k, k:] = a.diagonal(k)
    return ab


def spectral_decompose(M, K):
    """Generalized symmetric eigenpairs K phi = lambda M phi.

    M and K may be dense or sparse; only eigh's arguments are dense copies,
    and the residual check below uses the sparse forms.  Returns (lam, Phi)
    with lam ascending and Phi^T M Phi = identity.  Eigenvector signs are
    fixed so the largest-magnitude entry is positive, which keeps runs
    reproducible across invocations.

    Every pair must satisfy the backward-error bound

        |K phi_k - lam_k M phi_k| <= n u (|K|_1 + |lam_k| |M|_1) |phi_k|,

    with u the unit round-off and n the order.  eigh reduces the pencil by
    the Cholesky factor of M and solves the reduced symmetric problem by
    orthogonal transformations, both backward stable: each computed pair is
    an exact pair of a nearby pencil (K + E, M + F) with |E| <= p(n) u |K|
    and |F| <= p(n) u |M|, p a modest function of n (LAPACK Users' Guide,
    sec. 4.10).  The residual then equals -E phi + lam F phi, at most
    p(n) u (|K| + |lam| |M|) |phi|; the 2-norm of a symmetric matrix is at
    most its 1-norm, and the rounding of the tridiagonal products that form
    the residual is of the same order.  The check takes p(n) = n and
    u = 2**-53; measured worst residuals sit 8x (line, 100 cells) to 300x
    (radial, 2,400 cells) below it, while a corrupted pair exceeds it by
    orders of magnitude.
    """
    M, K = scipy.sparse.csr_array(M), scipy.sparse.csr_array(K)
    try:
        lam, phi = scipy.linalg.eigh(K.toarray(), M.toarray())
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"generalized eigendecomposition failed: {exc}") from exc
    j = np.argmax(np.abs(phi), axis=0)
    phi *= np.where(phi[j, np.arange(phi.shape[1])] < 0, -1.0, 1.0)
    resid = np.linalg.norm(K @ phi - (M @ phi) * lam, axis=0)
    bound = (lam.size * np.finfo(float).eps / 2.0
             * (abs(K).sum(axis=0).max() + np.abs(lam) * abs(M).sum(axis=0).max())
             * np.linalg.norm(phi, axis=0))
    worst = float(np.max(resid / bound))
    if worst > 1.0:
        raise NumericError(
            f"eigenpair residual is {worst:.3e} times its backward-error bound")
    return lam, phi


@dataclass(frozen=True)
class OperatorSet:
    """Assembled forms and order-s stiffness for one mesh.

    Immutable after construction; shared freely across runs.  M and K are
    sparse tridiagonal arrays (scipy.sparse, csr format), so products with
    them cost O(n).  A_s is the same sparse object as K at s = 1 and as M at
    s = 0, with no eigensolve; at fractional s, build_operators forms it
    from the spectrum as a dense n x n array.  A_band holds the tridiagonal
    part of A_s that the Newton preconditioner uses (all of A_s at
    s in {0, 1}, its diagonal otherwise), rest_apply the remainder, M_band
    the same kd = 1 upper band storage of M, and mass_chol the banded
    Cholesky factor of M.  The spectrum (lam, Phi) is computed on first
    use, and kept.  lift_load and lift_const carry the coupling of free
    nodes to fixed endpoint values through the order-1 stiffness, so
    build_operators admits nonzero Dirichlet data only at s = 1; both are
    zero when the data vanish.
    """

    mesh: Mesh1D
    M: scipy.sparse.csr_array
    K: scipy.sparse.csr_array
    s: float
    lumps: np.ndarray
    lift_load: np.ndarray
    lift_const: float
    M_band: np.ndarray
    mass_chol: tuple

    @property
    def n_free(self) -> int:
        return self.M.shape[0]

    @property
    def tridiagonal(self) -> bool:
        """Whether A_s is the sparse K or M (s in {0, 1})."""
        return self.s in (0.0, 1.0)

    @cached_property
    def _spectrum(self):
        return spectral_decompose(self.M, self.K)

    @property
    def lam(self) -> np.ndarray:
        """Generalized eigenvalues of (K, M), ascending."""
        return self._spectrum[0]

    @property
    def Phi(self) -> np.ndarray:
        """M-orthonormal eigenvectors, one per column of lam's order."""
        return self._spectrum[1]

    @cached_property
    def A_s(self):
        """Order-s stiffness: K at s = 1, M at s = 0 (both sparse), else the
        dense spectral power y y^T, y = (M Phi) Lambda^(s/2).  NumPy forms
        y @ y.T by BLAS syrk, so the result is exactly symmetric."""
        if self.tridiagonal:
            return self.K if self.s else self.M
        y = self.M @ self.Phi
        y *= np.maximum(self.lam, 0.0) ** (self.s / 2.0)
        return y @ y.T

    @cached_property
    def A_band(self) -> np.ndarray:
        """The band part B of A_s = B + R, in LAPACK upper band storage with
        one superdiagonal (kd = 1) at every s: A_s itself at s in {0, 1},
        where R = 0, and the diagonal of A_s with a zero superdiagonal at
        fractional s."""
        if self.tridiagonal:
            return _upper_band(self.A_s, 1)
        band = np.zeros((2, self.n_free), order="F")
        band[1] = np.diagonal(self.A_s)
        return band

    def rest_apply(self, x: np.ndarray) -> np.ndarray:
        """R x = A_s x - B x, the part of A_s outside its band part B
        (A_band): zero at s in {0, 1}, and at fractional s one product with
        the dense A_s, O(n^2), with no n x n temporary."""
        if self.tridiagonal:
            return np.zeros_like(x)
        return self.A_s @ x - self.A_band[1] * x

    @cached_property
    def _abs_A_s(self):
        """Sparse csr form used by abs_apply: the entrywise |A_s| at
        s in {0, 1} (|K|, or M itself), and A_s^+ = max(A_s, 0) at fractional
        s.  Its n x n temporary stays below the peak of the eigensolve."""
        if self.tridiagonal:
            return abs(self.A_s)
        return scipy.sparse.csr_array(np.maximum(self.A_s, 0.0))

    def abs_apply(self, w: np.ndarray) -> np.ndarray:
        """|A_s| w, with |A_s| the entrywise absolute value.  At s in {0, 1}
        it uses the cached sparse |K| or M, in O(n).  At fractional s it uses
        |a| = 2 max(a, 0) - a: |A_s| w = 2 A_s^+ w - A_s w, one product with
        the dense A_s, O(n^2), and one with the sparse A_s^+.  Every entry of
        A_s^+ lies on the diagonal or the first off-diagonals on the meshes
        checked (line and radial, 200 cells, s from 0.1 to 0.9): nnz(A_s^+)/n
        is 1 for s >= 0.5, 1.04 at s = 0.25 and 2.99 at s = 0.1, so A_s^+
        holds O(n)."""
        if self.tridiagonal:
            return self._abs_A_s @ w
        return 2.0 * (self._abs_A_s @ w) - self.A_s @ w

    def solve_mass(self, r: np.ndarray) -> np.ndarray:
        """M^{-1} r via the cached banded Cholesky factor.

        Calls LAPACK's pbtrs directly, with no finiteness check: blowup
        detection is the caller's job, and this sits on the solver's hot
        path, where cho_solve_banded's argument handling costs twice the
        solve at a few hundred nodes.
        """
        factor, lower = self.mass_chol
        x, info = scipy.linalg.lapack.dpbtrs(factor, r, lower=lower)
        if info:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
        return x


def build_operators(mesh: Mesh1D, s: float) -> OperatorSet:
    """Forms, lift and A_s for order s.  Nonzero Dirichlet data need s = 1,
    the only order whose lift the order-1 stiffness gives.

    M and K are assembled as their three diagonals on the free nodes, which
    form one contiguous range, so setup costs O(n) time and memory at
    s in {0, 1}; a fractional s adds the dense eigensolve and A_s.
    """
    if s < 0:
        raise ConfigurationError("fractional order s must be >= 0")
    if s != 1 and any(g not in (None, 0.0) for g in mesh.dirichlet):
        raise ConfigurationError(
            f"Dirichlet data {mesh.dirichlet} need s = 1, got s = {s}: the "
            "lift of nonzero boundary values uses the order-1 stiffness")
    (left, cross, right), k = _assemble_all_nodes(mesh)
    free = mesh.free
    lo, hi = int(free[0]), int(free[-1]) + 1
    M = _tridiagonal(left, cross, right, lo, hi)
    K = _tridiagonal(k, -k, k, lo, hi)
    # an end node's data couple to its one free neighbour through the end
    # cell, and to nothing else: a mesh has at least two cells
    lift_load = np.zeros(free.size)
    lift_const = 0.0
    for g, end in ((mesh.dirichlet[0], 0), (mesh.dirichlet[1], -1)):
        if g is not None:
            lift_load[end] -= k[end] * g
            lift_const += 0.5 * k[end] * g * g
    # nodal quadrature weights: the full hat integrals int phi_j w dx (row
    # sums over all nodes), so the lumped measure equals the domain measure
    # minus the constrained-node lumps
    lumps = (np.r_[left + cross, 0.0] + np.r_[0.0, right + cross])[lo:hi]
    M_band = _upper_band(M, 1)
    ops = OperatorSet(
        mesh=mesh, M=M, K=K, s=float(s), lumps=lumps, lift_load=lift_load,
        lift_const=float(lift_const), M_band=M_band,
        mass_chol=(scipy.linalg.cholesky_banded(M_band), False),
    )
    # fractional s: the eigensolve and A_s^+ belong to setup, not to the first step
    ops.A_band
    ops._abs_A_s
    return ops


def fractional_apply(ops: OperatorSet, u: np.ndarray) -> np.ndarray:
    """A_s u, the order-s stiffness applied to a free-node vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.n_free,):
        raise ConfigurationError("vector length does not match free nodes")
    return ops.A_s @ u


def seminorm_s(ops: OperatorSet, u: np.ndarray) -> float:
    """Order-s seminorm sqrt(u^T A_s u)."""
    u = np.asarray(u, dtype=float)
    q = float(u @ fractional_apply(ops, u))
    if q < -1e-12 * (1.0 + float(u @ u)):
        raise NumericError(f"quadratic form returned {q:.3e} < 0")
    return np.sqrt(max(q, 0.0))


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
