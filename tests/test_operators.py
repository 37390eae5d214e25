import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwave import (ConfigurationError, Mesh1D, NumericError, SchemeConfig,
                      build_mesh, build_operators, fractional_apply,
                      poincare_constant, run, seminorm_s, spectral_decompose)
from fracwave import cli, operators
from fracwave.operators import SineStiffness, SpectralStiffness, Tridiagonal
from fracwave.potentials import double_well, zero_potential

from conftest import (MU_ROUNDING, U, U_EXT, assert_tridiagonal_backward_error,
                      dense_A_s, eigen_residual_bound, endpoint_power_bound, gamma,
                      half_power_composition, make_line_ops, make_radial_ops,
                      meshes, norm_1, sine_against_dense_power, sine_identity_error,
                      sine_oracle, spectral_oracle, toeplitz_gap, uniform_lines)

ONE_FREE_NODE = Mesh1D(nodes=np.array([0.0, 0.5, 1.0]), dirichlet=(0.0, 0.0))


def forms(mesh):
    """Dense copies of M and K."""
    ops = build_operators(mesh, 1.0)
    return ops.M.toarray(), ops.K.toarray()


def cell_loop_forms(mesh):
    """Reference assembly, one cell at a time."""
    n = mesh.nodes.size
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    gx, gw = np.polynomial.legendre.leggauss(max(2, (mesh.dim + 3) // 2))
    for c in range(n - 1):
        xl, xr = mesh.nodes[c], mesh.nodes[c + 1]
        h = xr - xl
        x = 0.5 * (xl + xr) + 0.5 * h * gx
        w = 0.5 * h * gw * mesh.weight(x)
        phi0 = (xr - x) / h
        phi1 = (x - xl) / h
        block = np.array([[w @ (phi0 * phi0), w @ (phi0 * phi1)],
                          [w @ (phi0 * phi1), w @ (phi1 * phi1)]])
        mass[c:c + 2, c:c + 2] += block
        stiff[c:c + 2, c:c + 2] += w.sum() / h**2 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return mass, stiff


def same_bits(got, ref):
    """Equal shapes and equal bytes: signed zeros and NaN payloads too."""
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def csr(A):
    """SciPy's csr array of the Tridiagonal A: the reference for its
    products, whose summation order they keep."""
    return scipy.sparse.csr_array(A.toarray())


class TestBuildMesh:
    def test_uniform_line_nodes_and_free_count(self):
        mesh = build_mesh(0, 1, 4, dirichlet=(0.0, 0.0))
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.n_free == 3

    def test_radial_endpoint_constraint_count(self):
        mesh = build_mesh(0, 1, 4, geometry="radial", dim=2, dirichlet=(None, -1.0))
        assert mesh.n_free == 4  # r = 0 stays free

    def test_reversed_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mesh(1, 0, 4)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mesh(0, 1, 1)

    def test_radial_must_start_at_origin(self):
        with pytest.raises(ConfigurationError):
            build_mesh(0.5, 1, 4, geometry="radial", dim=2)

    def test_radial_rejects_constraint_at_origin(self):
        with pytest.raises(ConfigurationError):
            build_mesh(0, 1, 4, geometry="radial", dim=2, dirichlet=(1.0, None))

    def test_embed_fills_dirichlet_data(self):
        mesh = build_mesh(0, 1, 4, dirichlet=(0.5, -1.0))
        full = mesh.embed(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(full, [0.5, 1.0, 2.0, 3.0, -1.0])
        assert np.allclose(mesh.embed(np.array([1.0, 2.0, 3.0]), boundary="zero"),
                           [0.0, 1.0, 2.0, 3.0, 0.0])
        with pytest.raises(ConfigurationError):
            mesh.embed(np.zeros(5))

    def test_direct_construction_checks_ordering(self):
        from fracwave import Mesh1D
        with pytest.raises(ConfigurationError):
            Mesh1D(nodes=np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ConfigurationError):
            Mesh1D(nodes=np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ConfigurationError):
            Mesh1D(nodes=np.linspace(0, 1, 5), geometry="radial", dim=0)

    @pytest.mark.parametrize("dirichlet, free", [
        ((None, None), slice(0, 5)), ((0.0, None), slice(1, 5)),
        ((None, 0.0), slice(0, 4)), ((0.0, 0.0), slice(1, 4))])
    def test_free_is_one_contiguous_slice(self, dirichlet, free):
        mesh = build_mesh(0, 1, 4, dirichlet=dirichlet)
        assert mesh.free == free
        assert mesh.n_free == free.stop - free.start

    @pytest.mark.parametrize("build", [
        lambda: build_mesh(0, 1, 8, dirichlet=(np.inf, 0.0)),
        lambda: build_mesh(0, 1, 8, dirichlet=(0.0, np.nan)),
        lambda: Mesh1D(nodes=[0, 0.5, 1, np.inf], dirichlet=(0.0, 0.0)),
        lambda: Mesh1D(nodes=[np.nan, 0.5, 1]),
    ], ids=["inf_dirichlet", "nan_dirichlet", "inf_node", "nan_node"])
    def test_non_finite_data_rejected(self, build):
        # a configuration error when the mesh is made, not a blowup at the
        # first step of a run on it
        with pytest.raises(ConfigurationError, match="must be finite"):
            build()

    def test_negative_order_rejected(self):
        mesh = build_mesh(0, 1, 4, dirichlet=(0.0, 0.0))
        with pytest.raises(ConfigurationError):
            build_operators(mesh, -0.5)


class TestAssembleForms:
    def test_line_textbook_entries(self):
        # hand integration: K = (1/h) tridiag(-1, 2, -1), M = (h/6) tridiag(1, 4, 1)
        h = 0.25
        mesh = build_mesh(0, 1, 4, dirichlet=(0.0, 0.0))
        M, K = forms(mesh)
        assert np.allclose(np.diag(K), 2.0 / h)
        assert np.allclose(np.diag(K, 1), -1.0 / h)
        assert np.allclose(np.diag(M), 4.0 * h / 6.0)
        assert np.allclose(np.diag(M, 1), h / 6.0)

    def test_radial_mass_total_is_half_r_squared(self):
        # partition of unity: sum_ij M_ij = int_0^R r dr = R^2 / 2
        for rbar in (1.0, 2.5):
            mesh = build_mesh(0, rbar, 16, geometry="radial", dim=2)
            M, _ = forms(mesh)
            assert M.sum() == pytest.approx(rbar**2 / 2.0, rel=1e-13)

    def test_stiffness_annihilates_constants_without_constraints(self):
        mesh = build_mesh(0, 1, 8)
        _, K = forms(mesh)
        assert np.max(np.abs(K @ np.ones(9))) < 1e-13

    def test_forms_tridiagonal_and_symmetric(self):
        mesh = build_mesh(0, 1, 8, geometry="radial", dim=3)
        M, K = forms(mesh)
        for A in (M, K):
            assert np.allclose(A, A.T)
            assert np.max(np.abs(np.triu(A, 2))) == 0.0

    @pytest.mark.parametrize("geometry,dim", [("line", 1), ("radial", 2), ("radial", 3)])
    def test_matches_cell_loop(self, geometry, dim):
        # the vectorized pass sums each cell's quadrature points in another
        # order than the loop's dot products: a few ulps of the largest entry
        nodes = np.concatenate(([0.0], np.sort(np.random.default_rng(4).uniform(0, 2, 40)), [2.0]))
        mesh = Mesh1D(nodes=nodes, geometry=geometry, dim=dim)
        for got, ref in zip(forms(mesh), cell_loop_forms(mesh)):
            assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


class TestSparseFormsAgainstDenseReference:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
    @example(mesh=ONE_FREE_NODE, seed=0)
    def test_forms_lift_and_band(self, mesh, seed):
        mass, stiff = cell_loop_forms(mesh)
        free = np.arange(mesh.nodes.size)[mesh.free]
        fixed = np.setdiff1d(np.arange(mesh.nodes.size), free)
        g = np.array([mesh.dirichlet[0] if j == 0 else mesh.dirichlet[1]
                      for j in fixed])
        ref_M, ref_K = mass[np.ix_(free, free)], stiff[np.ix_(free, free)]

        def close(got, ref):
            # the reference sums each cell's quadrature points in another
            # order: a few ulps of the largest entry
            scale = max(np.max(np.abs(ref)), np.finfo(float).tiny)
            return np.max(np.abs(got - ref), initial=0.0) <= 4 * np.finfo(float).eps * scale

        ops1 = build_operators(mesh, 1.0)
        zero_data = tuple(None if d is None else 0.0 for d in mesh.dirichlet)
        ops0 = build_operators(dataclasses.replace(mesh, dirichlet=zero_data), 0.0)
        assert ops1.A_s is ops1.K and ops0.A_s is ops0.M
        assert close(ops1.M.toarray(), ref_M) and close(ops1.K.toarray(), ref_K)
        assert close(ops0.A_s.toarray(), ref_M)
        assert close(ops1.lumps, mass.sum(axis=1)[free])
        assert close(ops1.lift_load, stiff[np.ix_(free, fixed)] @ g)
        assert close(np.array([ops1.lift_const]),
                     np.array([0.5 * g @ stiff[np.ix_(fixed, fixed)] @ g]))
        u = np.random.default_rng(seed).standard_normal(ops1.n_free)
        for ops, ref in ((ops1, ref_K), (ops0, ref_M)):
            A = ops.A_s.toarray()
            assert np.array_equal(A, A.T)
            # nonnegative up to the round-off of the quadratic form's terms
            terms = np.abs(u) @ np.abs(A) @ np.abs(u)
            assert u @ (ops.A_s @ u) >= -8 * np.finfo(float).eps * terms
            assert close(np.concatenate(ops.A_s.band),
                         np.concatenate((np.diagonal(ref), np.diagonal(ref, 1))))


class TestSolveMass:
    @pytest.mark.parametrize("dirichlet, n_free", [((0.0, 0.0), 1), ((None, 0.0), 2)])
    def test_one_or_two_free_nodes(self, dirichlet, n_free):
        # SciPy's ?pttrs wrapper wants an off-diagonal of length >= 1
        ops = build_operators(build_mesh(0.0, 1.0, 2, dirichlet=dirichlet), 1.0)
        assert ops.n_free == n_free
        x = np.linspace(1.0, 2.0, n_free)
        b = ops.M @ x
        assert_tridiagonal_backward_error(ops.M.toarray(), ops.solve_mass(b), b)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
    @example(mesh=ONE_FREE_NODE, seed=0)
    def test_inverts_the_mass_matrix(self, mesh, seed):
        # solve_mass(M @ x) solves M y = M @ x to the backward error of the
        # LDL^T solve, on every mesh shape down to one free node
        ops = build_operators(mesh, 1.0)
        x = np.random.default_rng(seed).standard_normal(ops.n_free)
        b = ops.M @ x
        assert_tridiagonal_backward_error(ops.M.toarray(), ops.solve_mass(b), b)


class TestBandProducts:
    # Tridiagonal's @ and roundoff take M x, A_s x and |A_s| w at s in
    # {0, 1} on the held diagonals; each row sums its terms as a csr
    # product does, so the results are csr's bit for bit
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), seed=st.integers(0, 2**32 - 1),
           cols=st.sampled_from([None, 1, 3]))
    @example(mesh=ONE_FREE_NODE, seed=0, cols=None)
    @example(mesh=ONE_FREE_NODE, seed=0, cols=3)
    def test_equal_to_the_csr_products(self, mesh, seed, cols):
        zero_data = tuple(None if d is None else 0.0 for d in mesh.dirichlet)
        ops1 = build_operators(mesh, 1.0)
        ops0 = build_operators(dataclasses.replace(mesh, dirichlet=zero_data), 0.0)
        rng = np.random.default_rng(seed)
        shape = (ops1.n_free,) if cols is None else (ops1.n_free, cols)
        # a third of the entries are zeros of either sign
        x = np.where(rng.random(shape) < 1 / 3,
                     np.copysign(0.0, rng.standard_normal(shape)),
                     rng.standard_normal(shape))
        assert same_bits(ops1.M @ x, csr(ops1.M) @ x)
        for ops in (ops1, ops0):
            A = csr(ops.A_s)
            assert same_bits(ops.A_s @ x, A @ x)
            entrywise, normwise = ops.A_s.roundoff(np.abs(x))
            assert same_bits(entrywise, abs(A) @ np.abs(x)) and normwise == 0.0

    def test_rows_of_negative_zeros_give_positive_zeros(self):
        # a row whose terms are all -0.0 sums to +0.0 in csr's product, which
        # starts from +0.0: M (e > 0) at x = -0, K (e < 0) at x = (+0, -0, +0)
        ops = make_line_ops(6)
        x = np.copysign(np.zeros(ops.n_free), -1.0)
        alternating = np.where(np.arange(ops.n_free) % 2, -0.0, 0.0)
        assert same_bits(ops.M @ x, csr(ops.M) @ x)
        assert same_bits(ops.A_s @ alternating, csr(ops.K) @ alternating)
        assert not np.signbit(ops.M @ x).any()


class TestAbsApply:
    # the entrywise round-off term |A_s| w of the componentwise backends; a
    # uniform line at fractional s builds the sine backend, so the spectral
    # one is built explicitly there
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_matches_the_entrywise_product(self, s):
        ops = make_line_ops(32, s=s)
        A_s = ops.A_s if s in (0.0, 1.0) else spectral_oracle(ops)
        A = A_s.toarray() if s in (0.0, 1.0) else A_s.matrix
        w = np.abs(np.random.default_rng(9).standard_normal(ops.n_free))
        # sums of k nonnegative terms, in either order, agree to k eps; a
        # row of A_s has 3 nonzero terms at s in {0, 1}, n otherwise
        terms = 3 if A_s.rest_apply is None else ops.n_free
        entrywise, normwise = A_s.roundoff(w)
        assert normwise == 0.0
        assert np.allclose(entrywise, np.abs(A) @ w,
                           rtol=terms * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("geometry", ["line", "radial"])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
    def test_fractional_split_matches_the_dense_absolute_value(self, geometry, s):
        # |A_s| w = 2 A_s^+ w - A_s w with A_s^+ = max(A_s, 0) held as the
        # coordinates of its O(n) entries (measured: at most 3n), whose
        # product sums each row as the csr product of A_s^+ does
        ops = (make_line_ops(200, s=s) if geometry == "line"
               else make_radial_ops(200, s=s, right=0.0))
        A_s = spectral_oracle(ops)
        w = np.abs(np.random.default_rng(3).standard_normal(ops.n_free))
        assert np.allclose(A_s.roundoff(w)[0], np.abs(A_s.matrix) @ w,
                           rtol=1e-14, atol=0.0)
        plus = scipy.sparse.csr_array(np.maximum(A_s.matrix, 0.0))
        assert same_bits(A_s.roundoff(w)[0], 2.0 * (plus @ w) - A_s.matrix @ w)
        assert A_s.plus[2].size <= 3 * ops.n_free


class TestStiffnessBackends:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=st.one_of(meshes(), uniform_lines()), seed=st.integers(0, 2**32 - 1),
           s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)))
    # one free node is a uniform line: the sine backend
    @example(mesh=ONE_FREE_NODE, seed=0, s=0.5)
    # a nonuniform line with both ends fixed: the spectral backend
    @example(mesh=Mesh1D(nodes=np.array([0.0, 0.3, 0.5, 1.0]), dirichlet=(0.0, 0.0)),
             seed=0, s=0.5)
    def test_against_the_dense_oracle(self, mesh, seed, s):
        # each backend's product, band split, round-off term and quadratic
        # form against its storage as a dense matrix A, or, for the sine
        # backend, against S diag(mu) S in extended precision.  A product
        # whose rows have k nonzero terms errs by at most gamma_k |A||x|;
        # the oracle's own products are formed in extended precision
        if s != 1.0:
            mesh = dataclasses.replace(
                mesh, dirichlet=tuple(None if d is None else 0.0 for d in mesh.dirichlet))
        ops = build_operators(mesh, s)
        widths = np.diff(mesh.nodes)
        uniform = np.ptp(widths) <= 1e-9 * widths.min()
        if s in (0.0, 1.0):
            assert ops.A_s is (ops.K if s else ops.M)
        elif mesh.geometry == "line" and None not in mesh.dirichlet and uniform:
            assert isinstance(ops.A_s, SineStiffness)
            self.check_sine(ops, seed)
            return
        else:
            assert isinstance(ops.A_s, SpectralStiffness)
        A, n = dense_A_s(ops), ops.n_free
        terms = int(np.count_nonzero(A, axis=1).max())
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        ext = np.longdouble
        ref = A.astype(ext) @ x.astype(ext)
        scale = np.abs(A).astype(ext) @ np.abs(x).astype(ext)
        oracle_error = gamma(n, U_EXT) * scale
        assert np.all(np.abs(ops.A_s @ x - ref) <= gamma(terms) * scale + oracle_error)
        # B x: three terms per row; R x = A x - d x: n terms, a product and
        # a subtraction; B x + R x: one more rounding
        d, e = ops.A_s.band
        bx = d * x
        bx[1:] += e * x[:-1]
        bx[:-1] += e * x[1:]
        if ops.A_s.rest_apply is not None:
            bx = bx + ops.A_s.rest_apply(x)
        assert np.all(np.abs(bx - ref) <= gamma(n + 3) * scale + oracle_error)
        # sums of k nonnegative terms, in either order, agree to k eps
        w = np.abs(rng.standard_normal(n))
        entrywise, normwise = ops.A_s.roundoff(w)
        assert normwise == 0.0
        assert np.allclose(entrywise, np.abs(A) @ w,
                           rtol=terms * np.finfo(float).eps, atol=0.0)
        assert np.array_equal(A, A.T)
        # the quadratic form sums n^2 terms a_ij x_i x_j
        form = np.abs(x) @ np.abs(A) @ np.abs(x)
        assert x @ (ops.A_s @ x) >= -gamma(n + 3) * form
        assert np.count_nonzero(np.maximum(A, 0.0)) <= 3 * n

    @staticmethod
    def check_sine(ops, seed):
        # the product errs normwise, by at most 4 log2(n + 1) u max(mu)
        # |x|_2 (SineStiffness's model); the extended-precision oracle errs
        # by about 4 n U_EXT max(mu) |x|_2
        n, mu = ops.n_free, ops.A_s.mu
        log_n = np.log2(n + 1)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, n))
        unit = mu.max() * np.linalg.norm(x)
        oracle_error = 4 * n * U_EXT * unit
        ref = sine_oracle(ops, x)
        assert np.linalg.norm((ops.A_s @ x - ref).astype(float)) <= (
            4 * log_n * U * unit + oracle_error)
        # d_j = sum_k mu_k s_jk^2 by one FFT of length n + 1: at most
        # 30 log2(n + 1) u max(mu), the worst case of SineStiffness's model
        d, e = ops.A_s.band
        assert np.array_equal(e, np.zeros(n - 1))
        diag = np.diagonal(sine_oracle(ops, np.eye(n)))
        assert np.all(np.abs(d - diag) <= 30 * log_n * U * mu.max()
                      + 4 * n * U_EXT * mu.max())
        # B x + R x: d x, the subtraction in R x and the sum add at most
        # 6 u max(mu) |x|_2, since every d_j <= max(mu)
        bx = d * x + ops.A_s.rest_apply(x)
        assert np.linalg.norm((bx - ref).astype(float)) <= (
            (4 * log_n + 6) * U * unit + oracle_error)
        # no entrywise term; the normwise one carries the 2-norm model into
        # the M^-1 norm
        entrywise, normwise = ops.A_s.roundoff(-x)
        assert entrywise == 0.0
        assert normwise == pytest.approx(
            log_n * mu.max() * np.linalg.norm(x) / np.sqrt(ops.A_s.m.min()), rel=1e-14)
        # symmetric and nonnegative up to the products' round-off
        bound = 4 * log_n * U * mu.max() * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(y @ (ops.A_s @ x) - x @ (ops.A_s @ y)) <= 2 * bound + 2 * n * U * (
            np.abs(y) @ np.abs(ops.A_s @ x) + np.abs(x) @ np.abs(ops.A_s @ y))
        assert x @ (ops.A_s @ x) >= -(4 * log_n + n) * U * unit * np.linalg.norm(x)
        # the same operator as the dense spectral power of (K, M), within
        # the bound derived from both backends' models where it is the
        # tighter one: at one free node only, 0.2-0.3x the measured constant
        # 32 (n + 4) eps max|A_s|.  From two nodes on it exceeds the
        # constant, 1.2-2.2x at two and up to 2,000x at 39 (the eigensolve's
        # backward error is worst case over every mode, and the low modes'
        # gaps are small against max(lam)), so the constant stays there.
        # Measured on uniform lines of 2-40 cells, the error reaches
        # 11.4 (n + 4) eps max|A_s| (s = 0.01, 26 free nodes on [0.7, 0.8])
        D, derived = sine_against_dense_power(ops)
        assert np.all(np.abs(ops.A_s @ np.eye(n) - D) <= np.minimum(
            derived, 32 * (n + 4) * np.finfo(float).eps * np.abs(D).max()))


class TestSpectralDecompose:
    def test_uniform_dispersion_closed_form(self):
        # closed-form eigenvalues of the uniform pair on [0, 1], both ends fixed
        n = 8
        h = 1.0 / n
        ops = make_line_ops(n)
        k = np.arange(1, n)
        lam = (6.0 / h**2) * (1 - np.cos(k * np.pi * h)) / (2 + np.cos(k * np.pi * h))
        assert np.allclose(ops.lam, lam, rtol=1e-12)

    def test_refinement_toward_continuum_eigenvalue(self):
        ops = make_line_ops(64)
        assert abs(ops.lam[0] - np.pi**2) / np.pi**2 < 0.01

    def test_eigen_residuals(self):
        ops = make_line_ops(32)
        for k, bound in enumerate(eigen_residual_bound(ops)):
            r = ops.K @ ops.Phi[:, k] - ops.lam[k] * (ops.M @ ops.Phi[:, k])
            assert np.linalg.norm(r) <= bound

    def test_mass_orthonormality(self):
        ops = make_radial_ops(24)
        gram = ops.Phi.T @ (ops.M @ ops.Phi)
        assert np.max(np.abs(gram - np.eye(ops.n_free))) < 1e-10

    def test_eigenvalues_ascending_and_positive_with_constraint(self):
        ops = make_line_ops(16)
        assert np.all(np.diff(ops.lam) > 0)
        assert ops.lam[0] > 0

    def test_standalone_call_on_assembled_forms(self):
        ops = build_operators(build_mesh(0, 1, 12, dirichlet=(0.0, 0.0)), 1.0)
        lam, phi = spectral_decompose(ops.M, ops.K)
        M = ops.M.toarray()
        assert lam.shape == (11,)
        assert np.allclose(phi.T @ M @ phi, np.eye(11), atol=1e-12)
        # deterministic sign convention: dominant entry positive
        for k in range(11):
            assert phi[np.argmax(np.abs(phi[:, k])), k] > 0

    @pytest.mark.parametrize("geometry", ["line", "radial"])
    @pytest.mark.parametrize("s", [0.1, 0.5])
    def test_fractional_setup_peak_memory(self, geometry, s):
        # the dense copies of M and K exist only as eigh's input; with the
        # eigensolve, A_s and A_s^+, setup peaks near 6 n x n arrays.  The
        # line has a free end, which keeps it on the spectral backend
        mesh = (build_mesh(0, 1, 1000, dirichlet=(0.0, None)) if geometry == "line"
                else build_mesh(0, 1, 1000, geometry="radial", dim=2,
                                dirichlet=(None, 0.0)))
        tracemalloc.start()
        try:
            ops = build_operators(mesh, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 8 * ops.n_free**2

    def test_large_line_mesh_passes_the_backward_error_bound(self):
        # a fixed 1e-10 relative bound rejected this mesh (residual 3.13e-10)
        ops = make_line_ops(1000, s=0.5)
        A_s = spectral_oracle(ops)
        assert A_s.spectrum(ops.M, ops.K)[0].size == 999
        assert np.allclose(A_s.matrix, A_s.matrix.T)

    def test_corrupted_eigenpair_rejected(self, monkeypatch):
        eigh = scipy.linalg.eigh

        def corrupted(K, M):
            lam, phi = eigh(K, M)
            phi[:, 3] += 1e-9 * phi[:, 4]
            return lam, phi

        monkeypatch.setattr(scipy.linalg, "eigh", corrupted)
        # a free end keeps the line on the spectral backend
        mesh = build_mesh(0, 1, 32, dirichlet=(0.0, None))
        with pytest.raises(NumericError, match="backward-error bound"):
            build_operators(mesh, 0.5)

    def test_spectrum_is_the_decomposition_computed_once(self, monkeypatch):
        calls = []

        def counted(M, K):
            calls.append(1)
            return spectral_decompose(M, K)

        monkeypatch.setattr(operators, "spectral_decompose", counted)
        for s, builds in ((1.0, 0), (0.0, 0), (0.5, 1)):
            calls.clear()
            # a free end keeps the line on the spectral backend at s = 1/2
            ops = make_line_ops(16, s=s, dirichlet=(0.0, None))
            assert len(calls) == builds
            lam, phi = spectral_decompose(ops.M, ops.K)
            assert np.array_equal(ops.lam, lam) and np.array_equal(ops.Phi, phi)
            assert len(calls) == 1

    def test_no_eigensolve_at_s_one(self, monkeypatch):
        # this mesh is past the size where a fixed 1e-10 eigen-residual bound
        # failed; at s = 1 nothing reads the spectrum, so none is computed
        def refuse(M, K):
            raise AssertionError("spectral_decompose called at s = 1")

        monkeypatch.setattr(operators, "spectral_decompose", refuse)
        ops = make_radial_ops(2000, s=1.0)
        assert ops.A_s is ops.K
        r = ops.mesh.nodes[ops.mesh.free]
        cfg = SchemeConfig(T=0.003, n_steps=3, ops=ops, potential=zero_potential(),
                           u0=np.tanh((0.4 - r) / 0.1), v0=np.zeros(ops.n_free))
        traj = run(cfg)
        assert np.all(np.isfinite(traj.states))


class TestFractionalOperator:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), dim=st.integers(1, 4))
    @example(mesh=ONE_FREE_NODE, dim=1)
    def test_endpoint_identities(self, mesh, dim):
        # A_s is the object K at s = 1 and M at s = 0, and the dense spectral
        # power reproduces it within endpoint_power_bound.  Measured: at most
        # 0.57 of the bound on 20,000 random meshes of 2-40 cells, radial
        # dimension 1-4
        mesh = dataclasses.replace(
            mesh, dim=dim if mesh.geometry == "radial" else mesh.dim,
            dirichlet=tuple(None if d is None else 0.0 for d in mesh.dirichlet))
        for s in (0.0, 1.0):
            ops = build_operators(mesh, s)
            assert ops.A_s is (ops.K if s else ops.M)
            power, bound = endpoint_power_bound(ops, s)
            assert np.all(np.abs(power - ops.A_s.toarray()) <= bound)

    def test_endpoint_apply(self):
        ops1 = make_line_ops(16, s=1.0)
        ops0 = make_line_ops(16, s=0.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(ops1.n_free)
        assert np.allclose(fractional_apply(ops1, u), ops1.K @ u)
        assert np.allclose(fractional_apply(ops0, u), ops0.M @ u)

    def test_semigroup_half_powers(self):
        ops = make_line_ops(8, s=0.5)
        assert isinstance(ops.A_s, SineStiffness)
        comp, bound = half_power_composition(ops)
        assert np.all(np.abs(comp - ops.K.toarray()) <= bound)

    def test_brute_force_small_matrix(self):
        # independent route: eigenpairs of M^{-1/2} K M^{-1/2}, entrywise
        # build.  Both routes give the power M #_s K = M^1/2 (M^-1/2 K
        # M^-1/2)^s M^1/2 of a pencil (K', M') near (K, M).  That weighted
        # geometric mean is monotone in each argument and homogeneous
        # (Kubo-Ando), so |K' - K|_2 <= eta lambda_min(K) and |M' - M|_2 <=
        # eta lambda_min(M), which give (1 - eta) (K, M) <= (K', M') <= (1 +
        # eta) (K, M) in the Loewner order, put it within eta |M #_s K|_2 of
        # M #_s K.  The sine backend's S diag(mu) S is exactly the power of
        # M' = S diag(m) S and K' = S diag(m (mu / m)^(1/s)) S (toeplitz_gap),
        # and its products add sine_identity_error.  spectral_decompose's
        # model makes this route's pairs exact for (K + L E L^T, M) with
        # |L E L^T|_2 <= beta, the bound their residuals are checked
        # against, and forming the sum adds gamma_(n+3) |Y| mu^s |Y|^T
        s, ops = 0.7, make_line_ops(8, s=0.7)
        assert isinstance(ops.A_s, SineStiffness)
        n, sym, M, K = ops.n_free, ops.A_s, ops.M.toarray(), ops.K.toarray()
        w, V = np.linalg.eigh(M)
        m_half_inv = V @ np.diag(w**-0.5) @ V.T
        mu, Q = np.linalg.eigh(m_half_inv @ K @ m_half_inv)
        phi = m_half_inv @ Q
        A = ops.A_s @ np.eye(n)
        a_ref = np.zeros_like(A)
        for k in range(n):
            mphi = ops.M @ phi[:, k]
            a_ref += mu[k]**s * np.outer(mphi, mphi)

        beta = (n + 4) * U * (norm_1(K) + np.abs(mu).max() * norm_1(M))
        residuals = np.linalg.norm(ops.K @ phi - (ops.M @ phi) * mu, axis=0)
        assert np.all(residuals <= beta * np.linalg.norm(phi, axis=0))
        eps_M, eps_K = toeplitz_gap(ops.M), toeplitz_gap(ops.K)
        lam_min_M, lam_min_K = sym.m.min() - eps_M, sym.kappa.min() - eps_K
        # m (mu / m)^(1/s) = kappa (1 + MU_ROUNDING)^(1/s) at worst
        eps_K += ((1 + MU_ROUNDING) ** (1 / s) - 1) * sym.kappa.max()
        eta_sine = max(eps_K / lam_min_K, eps_M / lam_min_M)
        eta_ref = beta / lam_min_K
        Y = np.abs(ops.M @ phi)
        bound = (sine_identity_error(ops)
                 + (eta_sine + eta_ref) * sym.mu.max() / (1 - eta_sine)
                 + gamma(n + 3) * (Y * mu**s) @ Y.T)
        assert np.all(np.abs(a_ref - A) <= bound)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for s in (0.0, 0.3, 0.5, 1.0):
            ops = make_line_ops(16, s=s)
            # the spectral power is exactly symmetric (BLAS syrk); the sine
            # backend's symmetry is checked to its round-off in
            # TestStiffnessBackends
            A = dense_A_s(ops) if s in (0.0, 1.0) else spectral_oracle(ops).matrix
            assert np.array_equal(A, A.T)
            for _ in range(20):
                u = rng.standard_normal(ops.n_free)
                assert u @ (ops.A_s @ u) >= -1e-12

    def test_quadratic_form_matches_eigenbasis_sum(self):
        rng = np.random.default_rng(7)
        for s in (0.25, 0.5, 0.75, 1.0):
            ops = make_line_ops(16, s=s)
            u = rng.standard_normal(ops.n_free)
            coeff = ops.Phi.T @ (ops.M @ u)
            direct = float(np.sum(ops.lam**s * coeff**2))
            assert abs(u @ (ops.A_s @ u) - direct) <= 1e-12 * (1 + abs(direct))

    def test_dimension_mismatch_rejected(self):
        ops = make_line_ops(8)
        with pytest.raises(ConfigurationError):
            fractional_apply(ops, np.zeros(3))


class TestSineStiffness:
    @pytest.mark.parametrize("mesh, backend", [
        (build_mesh(0, 1, 384, dirichlet=(0.0, 0.0)), SineStiffness),
        (build_mesh(1000, 1001, 64, dirichlet=(0.0, 0.0)), SineStiffness),
        (ONE_FREE_NODE, SineStiffness),
        (build_mesh(0, 1, 32, dirichlet=(0.0, None)), SpectralStiffness),
        (build_mesh(0, 1, 32, geometry="radial", dim=1, dirichlet=(None, 0.0)),
         SpectralStiffness),
        # one node moved by 1e-9 of a width: not Toeplitz to round-off
        (Mesh1D(nodes=np.r_[0.0, 1 / 32 + 1e-9 / 32, np.arange(2, 33) / 32],
                dirichlet=(0.0, 0.0)), SpectralStiffness),
    ])
    def test_choice_rule(self, mesh, backend):
        assert type(build_operators(mesh, 0.5).A_s) is backend

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n_cells", [2, 3, 64, 65, 257, 509])
    def test_roundoff_model_against_extended_precision(self, n_cells, s):
        # 1 to 508 free nodes: transform lengths 2(n + 1) that are powers of
        # two, and 2 x 257 and 2 x 509, which SciPy transforms by Bluestein's
        # algorithm.  The error of A_s w against the extended-precision
        # product stays within the model 4 log2(n + 1) u max(mu) |w|_2, and
        # its M^-1 norm within the floor's term 2 eps roundoff(w)[1]
        ops = make_line_ops(n_cells, s=s)
        n, mu = ops.n_free, ops.A_s.mu
        j = np.arange(1, n + 1)
        rng = np.random.default_rng(n_cells)
        for w in (rng.standard_normal(n), np.abs(rng.standard_normal(n)),
                  np.eye(n)[0], np.sin(np.pi * j / (n + 1)),
                  np.sin(np.pi * j * n / (n + 1))):
            err = (ops.A_s @ w - sine_oracle(ops, w)).astype(float)
            oracle_error = 4 * n * U_EXT * mu.max() * np.linalg.norm(w)
            assert np.linalg.norm(err) <= (4 * np.log2(n + 1) * U * mu.max()
                                           * np.linalg.norm(w) + oracle_error)
            assert np.sqrt(err @ ops.solve_mass(err)) <= (
                2 * np.finfo(float).eps * ops.A_s.roundoff(w)[1]
                + oracle_error / np.sqrt(ops.A_s.m.min()))

    @pytest.mark.parametrize("c", [0.0, (768 / 0.75) ** 2])
    @pytest.mark.parametrize("n", [1, 2, 382, 2002])
    def test_shifted_inverse_against_extended_precision_solve(self, n, c):
        # x = shifted_inverse(c, r) against x* = (c M + A_s)^-1 r, with the
        # assembled M and A_s = S diag(mu) S.  n + 1 = 383 is prime, which
        # SciPy transforms by Bluestein's algorithm; c is frac_line's
        # 1 / tau^2.  x is S D S r in SineStiffness's normwise model, with
        # D = diag(1 / (c m + mu)) in place of diag(mu): its scaling takes
        # three roundings, as the model allows, so x errs from S D S r by at
        # most 30 log2(n + 1) u max(D) |r|_2.  S D S = (c M' + A_s)^-1 with
        # M' = S diag(m) S, within e_M = toeplitz_gap(M) of M, so S D S r
        # lies within c e_M |r|_2 / (sigma (sigma - c e_M)) of x*, sigma =
        # min(c m + mu) and sigma - c e_M <= lambda_min(c M + A_s).  The
        # reference is refined until its residual, formed in extended
        # precision by sine_oracle, carries its own error bound
        ops = make_line_ops(n + 1, s=0.5)
        assert isinstance(ops.A_s, SineStiffness) and ops.n_free == n
        ext = np.longdouble
        sym = ops.A_s
        sigma = float((c * sym.m + sym.mu).min())
        e_M = toeplitz_gap(ops.M)
        lam_min = sigma - c * e_M
        band = tuple(v.astype(ext) for v in ops.M.band)
        lu = scipy.linalg.lu_factor(c * ops.M.toarray() + ops.A_s @ np.eye(n))

        def residual(r, ref):
            """r - (c M + A_s) ref in extended precision, and a bound on
            its error: sine_oracle's, and gamma_8 of the terms' magnitudes
            for the band product, its scaling and the two differences."""
            a_ref = sine_oracle(ops, ref)
            terms = c * operators.band_apply(band, np.abs(ref)) + np.abs(r) + np.abs(a_ref)
            return (r - c * operators.band_apply(band, ref) - a_ref,
                    4 * n * U_EXT * sym.mu.max() * float(np.linalg.norm(ref.astype(float)))
                    + gamma(8, U_EXT) * float(np.linalg.norm(terms.astype(float))))

        rng = np.random.default_rng(n)
        for r in (rng.standard_normal(n), np.eye(n)[0]):
            x = ops.A_s.shifted_inverse(c, r)
            ref = np.zeros(n, dtype=ext)
            for _ in range(4):
                ref += scipy.linalg.lu_solve(lu, residual(r, ref)[0].astype(float))
            resid, resid_error = residual(r, ref)
            ref_error = (np.linalg.norm(resid.astype(float)) + resid_error) / lam_min
            bound = (30 * np.log2(n + 1) * U / sigma
                     + c * e_M / (sigma * lam_min)) * np.linalg.norm(r) + ref_error
            assert np.linalg.norm((x - ref).astype(float)) <= bound

    @pytest.mark.parametrize("cols", [None, 3])
    @pytest.mark.parametrize("n", [1, 2, 382, 383, 1000, 1018])
    def test_product_equals_scipy_fft_dst_bit_for_bit(self, n, cols):
        # the backend takes its DST-I through scipy.fftpack, which runs
        # scipy.fft's pocketfft kernel without its backend dispatch; a SciPy
        # release that splits the two kernels fails here.  n + 1 = 383 and
        # 1019 are prime, which SciPy transforms by Bluestein's algorithm
        ops = make_line_ops(n + 1, s=0.5)
        assert isinstance(ops.A_s, SineStiffness) and ops.n_free == n
        x = np.random.default_rng(n).standard_normal((n,) if cols is None else (n, cols))
        mu = ops.A_s.mu if cols is None else ops.A_s.mu[:, None]

        def dst(y):
            return scipy.fft.dst(y, type=1, norm="ortho", axis=0)

        assert same_bits(operators._dst(x), dst(x))
        assert same_bits(ops.A_s @ x, dst(mu * dst(x)))

    @pytest.mark.parametrize("n_cells", [2, 17, 48])
    def test_spectrum_matches_the_eigensolve(self, n_cells):
        # the closed form against eigh: the same eigenvalues, and the same
        # M-orthonormal eigenvectors up to sign.  A sine vector takes its
        # largest magnitude at several entries, of either sign; eigh breaks
        # the sign rule's tie by its round-off, the closed form by taking
        # the first entry
        ops = make_line_ops(n_cells, s=0.5)
        lam, phi = spectral_decompose(ops.M, ops.K)
        assert np.all(np.diff(ops.lam) > 0)
        assert np.allclose(ops.lam, lam, rtol=1e-12, atol=0.0)
        signs = np.sign(np.sum(ops.Phi * phi, axis=0))
        assert np.max(np.abs(ops.Phi - phi * signs)) <= 1e-12 * np.abs(phi).max()
        gram = ops.Phi.T @ (ops.M @ ops.Phi)
        assert np.max(np.abs(gram - np.eye(ops.n_free))) <= 1e-13
        first = np.argmax(np.abs(ops.Phi), axis=0)
        assert np.all(ops.Phi[first, np.arange(ops.n_free)] > 0)
        assert signs[0] > 0

    def test_a_fractional_line_run_needs_no_eigensolve(self, monkeypatch):
        # a 384-cell s = 1/2 line with sine data and a double well is built
        # and run with the eigensolve disabled; the spectrum is read in
        # closed form
        def refuse(M, K):
            raise AssertionError("spectral_decompose called on a uniform line")

        monkeypatch.setattr(operators, "spectral_decompose", refuse)
        cfg = cli.RunConfigFile(n_cells=384, s=0.5, T=0.02, n_steps=20,
                                potential="double_well", u0_kind="sine",
                                u0_amp=0.5, v0_kind="sine")
        traj = run(cli.build_problem(cfg))
        assert np.all(np.isfinite(traj.states))
        assert traj.iterations.sum() == 20
        ops = traj.config.ops
        assert poincare_constant(ops) == pytest.approx(ops.lam[0] ** -0.25, rel=1e-15)

    def test_setup_and_loop_memory_is_linear(self):
        # 25,600 cells at s = 1/2: one n x n array would take 5.2 GB.  Build
        # and run stay within 64 doubles per node (measured: 29 for the
        # build, 46 with three steps)
        tracemalloc.start()
        try:
            ops = make_line_ops(25600, s=0.5)
            x = ops.mesh.nodes[ops.mesh.free]
            cfg = SchemeConfig(T=0.003, n_steps=3, ops=ops, potential=double_well(),
                               u0=0.5 * np.sin(np.pi * x), v0=np.sin(np.pi * x))
            traj = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(ops.A_s, SineStiffness)
        assert np.all(np.isfinite(traj.states))
        assert peak <= 64 * 8 * ops.n_free


class TestSeminorm:
    def test_eigenvector_value(self):
        ops = make_line_ops(16, s=0.5)
        for k in (0, 3):
            assert seminorm_s(ops, ops.Phi[:, k]) == pytest.approx(
                ops.lam[k]**0.25, rel=1e-12)

    def test_zero_vector(self):
        ops = make_line_ops(8)
        assert seminorm_s(ops, np.zeros(ops.n_free)) == 0.0

    def test_s_one_matches_stiffness_form(self):
        ops = make_line_ops(32, s=1.0)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(ops.n_free)
        assert seminorm_s(ops, u) == pytest.approx(np.sqrt(u @ (ops.K @ u)), rel=1e-12)

    def test_null_vector_of_a_long_free_line(self):
        # with both ends free the constant vector is K's null vector; on
        # 100,000 cells the computed form is -1.3e-7, inside its round-off
        # bound (about 1.8e-5), where a fixed 1e-12 (1 + u.u) raised
        ops = build_operators(build_mesh(0, 1, 100_000), 1.0)
        u = np.ones(ops.n_free)
        assert u @ (ops.K @ u) < -1e-12 * (1.0 + u @ u)
        assert seminorm_s(ops, u) == 0.0

    @pytest.mark.parametrize("n_cells", [50, 200, 800])
    def test_constant_on_a_free_line_has_no_fractional_energy(self, n_cells):
        # with both ends free the constant vector is K's null vector.  eigh
        # returns its eigenvalue as round-off of either sign (2.4e-12,
        # -2.3e-11 and 4.9e-11 at 50, 200 and 800 cells); taken as
        # lam_1^(s/2), it gave the constant an order-s energy of 0.035, 0.0
        # and 0.051.  SpectralStiffness counts it as 0, and the form is left
        # within seminorm_s's own round-off bound
        ops = build_operators(build_mesh(0, 1, n_cells), 0.25)
        assert isinstance(ops.A_s, SpectralStiffness)
        u = np.ones(ops.n_free)
        assert seminorm_s(ops, u) ** 2 <= operators._form_roundoff(ops, u, ops.A_s @ u)

    @pytest.mark.parametrize("dirichlet", [(0.0, None), (None, 0.0)])
    def test_a_fixed_end_keeps_its_lowest_eigenvalue(self, dirichlet):
        # lam_1 of a line with a fixed end, near (pi/2)^2, lies far above the
        # threshold: A_s is the plain spectral power, bit for bit
        ops = build_operators(build_mesh(0, 1, 200, dirichlet=dirichlet), 0.25)
        assert isinstance(ops.A_s, SpectralStiffness)
        lam, phi = ops.lam, ops.Phi
        y = ops.M @ phi
        y *= np.maximum(lam, 0.0) ** 0.125
        assert np.array_equal(ops.A_s.matrix, y @ y.T)
        assert lam[0] == pytest.approx((np.pi / 2) ** 2, rel=1e-4)
        assert seminorm_s(ops, phi[:, 0]) == pytest.approx(lam[0] ** 0.125, rel=1e-12)

    @pytest.mark.parametrize("backend, make_ops", [
        (Tridiagonal, lambda: make_line_ops(32, s=1.0)),
        (SineStiffness, lambda: make_line_ops(32, s=0.5)),
        (SpectralStiffness, lambda: build_operators(
            build_mesh(0, 1, 32, geometry="radial", dim=2, dirichlet=(None, 0.0)), 0.5)),
    ], ids=["Tridiagonal", "SineStiffness", "SpectralStiffness"])
    def test_negative_form_raises(self, monkeypatch, backend, make_ops):
        # a product that returns -A_s u makes the form negative far beyond
        # round-off, whether the backend's model is entrywise or normwise
        ops = make_ops()
        assert isinstance(ops.A_s, backend)
        u = np.random.default_rng(5).standard_normal(ops.n_free)
        monkeypatch.setattr(operators, "fractional_apply",
                            lambda ops, u: -(ops.A_s @ u))
        with pytest.raises(NumericError, match="quadratic form returned"):
            seminorm_s(ops, u)


class TestPoincare:
    def test_s_zero_constant_is_one(self):
        ops = make_line_ops(16, s=0.0)
        assert poincare_constant(ops) == 1.0
        rng = np.random.default_rng(2)
        u = rng.standard_normal(ops.n_free)
        assert np.sqrt(u @ (ops.M @ u)) == pytest.approx(seminorm_s(ops, u), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_inequality_random_vectors(self, s):
        ops = make_line_ops(32, s=s)
        c = poincare_constant(ops)
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = rng.standard_normal(ops.n_free)
            assert np.sqrt(u @ (ops.M @ u)) <= c * seminorm_s(ops, u) + 1e-12

    def test_equality_at_ground_mode(self):
        ops = make_line_ops(16, s=0.5)
        u = ops.Phi[:, 0]
        assert np.sqrt(u @ (ops.M @ u)) == pytest.approx(
            poincare_constant(ops) * seminorm_s(ops, u), rel=1e-12)

    def test_requires_constraint(self):
        mesh = build_mesh(0, 1, 8)
        ops = build_operators(mesh, 0.5)
        with pytest.raises(ConfigurationError):
            poincare_constant(ops)


class TestLift:
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_nonzero_data_rejected_off_order_one(self, s):
        # the lift uses the order-1 stiffness, which models no other order
        for data in ((None, -1.0), (0.5, 0.0)):
            geometry = "radial" if data[0] is None else "line"
            mesh = build_mesh(0, 1, 8, geometry=geometry, dim=2, dirichlet=data)
            with pytest.raises(ConfigurationError, match=f"s = {s}"):
                build_operators(mesh, s)
        assert build_operators(build_mesh(0, 1, 8, dirichlet=(0.0, None)), s).s == s

    def test_zero_for_homogeneous_data(self):
        ops = make_line_ops(8)
        assert np.all(ops.lift_load == 0)
        assert ops.lift_const == 0.0

    def test_linear_profile_is_discrete_harmonic(self):
        # u(x) = 1 - 2x matches data (1, -1); the full gradient must vanish
        mesh = build_mesh(0, 1, 8, dirichlet=(1.0, -1.0))
        ops = build_operators(mesh, 1.0)
        x = mesh.nodes[mesh.free]
        u = 1.0 - 2.0 * x
        assert np.max(np.abs(ops.K @ u + ops.lift_load)) < 1e-12
        # full-domain energy of the linear profile: (1/2) int (u')^2 = 2
        energy = 0.5 * u @ (ops.K @ u) + u @ ops.lift_load + ops.lift_const
        assert energy == pytest.approx(2.0, rel=1e-12)

    def test_lumps_measure_domain_minus_constrained_hats(self):
        # direct summation: every free hat integrates to h on a uniform line
        ops = make_line_ops(64)
        assert np.allclose(ops.lumps, 1.0 / 64)
        assert ops.lumps.sum() == pytest.approx(1.0 - 1.0 / 64, rel=1e-13)
        # radial: lumps add up to the weighted measure minus the boundary lump
        mesh_r = build_mesh(0, 1, 16, geometry="radial", dim=2, dirichlet=(None, -1.0))
        ops_r = build_operators(mesh_r, 1.0)
        h = 1.0 / 16
        boundary_hat = h / 2.0 - h**2 / 6.0  # int_{1-h}^{1} r (r-(1-h))/h dr
        assert ops_r.lumps.sum() == pytest.approx(0.5 - boundary_hat, rel=1e-12)
