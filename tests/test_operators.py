import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave import (ConfigurationError, Mesh1D, NumericError, SchemeConfig,
                      build_mesh, build_operators, fractional_apply,
                      poincare_constant, run, seminorm_s, spectral_decompose)
from fracwave import operators
from fracwave.potentials import zero_potential

from conftest import (assert_tridiagonal_backward_error, make_line_ops,
                      make_radial_ops, meshes)


def forms(mesh):
    """Dense copies of the sparse M and K."""
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


def spectral_power(ops, s):
    """(M Phi) Lambda^s (M Phi)^T from the operator set's own spectrum."""
    mphi = ops.M @ ops.Phi
    return (mphi * np.maximum(ops.lam, 0.0) ** s) @ mphi.T


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
    def test_forms_lift_and_band(self, mesh, seed):
        mass, stiff = cell_loop_forms(mesh)
        free = mesh.free
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
            kd = ops.A_band.shape[0] - 1
            assert close(ops.A_band, operators._upper_band(ref, kd))


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
    def test_inverts_the_mass_matrix(self, mesh, seed):
        # solve_mass(M @ x) solves M y = M @ x to the backward error of the
        # LDL^T solve, on every mesh shape down to one free node
        ops = build_operators(mesh, 1.0)
        x = np.random.default_rng(seed).standard_normal(ops.n_free)
        b = ops.M @ x
        assert_tridiagonal_backward_error(ops.M.toarray(), ops.solve_mass(b), b)


class TestAbsApply:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_matches_the_entrywise_product(self, s):
        ops = make_line_ops(32, s=s)
        A = ops.A_s.toarray() if ops.tridiagonal else ops.A_s
        w = np.abs(np.random.default_rng(9).standard_normal(ops.n_free))
        # sums of k nonnegative terms, in either order, agree to k eps; a
        # row of A_s has 3 nonzero terms at s in {0, 1}, n otherwise
        terms = 3 if ops.tridiagonal else ops.n_free
        assert np.allclose(ops.abs_apply(w), np.abs(A) @ w,
                           rtol=terms * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("geometry", ["line", "radial"])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
    def test_fractional_split_matches_the_dense_absolute_value(self, geometry, s):
        # |A_s| w = 2 A_s^+ w - A_s w with the sparse A_s^+ = max(A_s, 0),
        # which holds O(n) entries (measured: at most 3n)
        ops = (make_line_ops(200, s=s) if geometry == "line"
               else make_radial_ops(200, s=s, right=0.0))
        w = np.abs(np.random.default_rng(3).standard_normal(ops.n_free))
        assert np.allclose(ops.abs_apply(w), np.abs(ops.A_s) @ w,
                           rtol=1e-14, atol=0.0)
        assert ops._abs_A_s.nnz <= 3 * ops.n_free


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
        for k in range(ops.n_free):
            r = ops.K @ ops.Phi[:, k] - ops.lam[k] * (ops.M @ ops.Phi[:, k])
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(ops.K @ ops.Phi[:, k])

    def test_mass_orthonormality(self):
        ops = make_radial_ops(24)
        gram = ops.Phi.T @ ops.M @ ops.Phi
        assert np.max(np.abs(gram - np.eye(ops.n_free))) < 1e-10

    def test_eigenvalues_ascending_and_positive_with_constraint(self):
        ops = make_line_ops(16)
        assert np.all(np.diff(ops.lam) > 0)
        assert ops.lam[0] > 0

    def test_standalone_call_on_assembled_forms(self):
        mesh = build_mesh(0, 1, 12, dirichlet=(0.0, 0.0))
        M, K = forms(mesh)
        lam, phi = spectral_decompose(M, K)
        assert lam.shape == (11,)
        assert np.allclose(phi.T @ M @ phi, np.eye(11), atol=1e-12)
        # deterministic sign convention: dominant entry positive
        for k in range(11):
            assert phi[np.argmax(np.abs(phi[:, k])), k] > 0

    @pytest.mark.parametrize("geometry", ["line", "radial"])
    def test_sparse_forms_give_the_dense_result(self, geometry):
        # only eigh's arguments are densified, so the eigenpairs are the same
        # bits whichever form is passed
        ops = make_line_ops(48) if geometry == "line" else make_radial_ops(48)
        lam, phi = spectral_decompose(ops.M, ops.K)
        lam_d, phi_d = spectral_decompose(ops.M.toarray(), ops.K.toarray())
        assert np.array_equal(lam, lam_d) and np.array_equal(phi, phi_d)

    @pytest.mark.parametrize("geometry", ["line", "radial"])
    @pytest.mark.parametrize("s", [0.1, 0.5])
    def test_fractional_setup_peak_memory(self, geometry, s):
        # the dense copies of M and K exist only as eigh's input; with the
        # eigensolve, A_s and A_s^+, setup peaks near 6 n x n arrays
        mesh = (build_mesh(0, 1, 1000, dirichlet=(0.0, 0.0)) if geometry == "line"
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
        assert ops.lam.size == 999
        assert np.allclose(ops.A_s, ops.A_s.T)

    def test_corrupted_eigenpair_rejected(self, monkeypatch):
        eigh = scipy.linalg.eigh

        def corrupted(K, M):
            lam, phi = eigh(K, M)
            phi[:, 3] += 1e-9 * phi[:, 4]
            return lam, phi

        monkeypatch.setattr(scipy.linalg, "eigh", corrupted)
        mesh = build_mesh(0, 1, 32, dirichlet=(0.0, 0.0))
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
            ops = make_line_ops(16, s=s)
            assert len(calls) == builds
            lam, phi = spectral_decompose(ops.M.toarray(), ops.K.toarray())
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
    def test_endpoint_identities(self):
        # A_s is the assembled form at s in {0, 1}; the spectral power must
        # reproduce it
        for maker in (make_line_ops, lambda n, s: make_radial_ops(n, s=s, right=0.0)):
            ops1 = maker(16, s=1.0)
            assert ops1.A_s is ops1.K
            K = ops1.K.toarray()
            assert np.allclose(spectral_power(ops1, 1.0), K, rtol=1e-10,
                               atol=1e-10 * np.abs(K).max())
            ops0 = maker(16, s=0.0)
            assert ops0.A_s is ops0.M
            M = ops0.M.toarray()
            assert np.allclose(spectral_power(ops0, 0.0), M, rtol=1e-10,
                               atol=1e-10 * np.abs(M).max())

    def test_endpoint_apply(self):
        ops1 = make_line_ops(16, s=1.0)
        ops0 = make_line_ops(16, s=0.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(ops1.n_free)
        assert np.allclose(fractional_apply(ops1, u), ops1.K @ u)
        assert np.allclose(fractional_apply(ops0, u), ops0.M @ u)

    def test_semigroup_half_powers(self):
        ops = make_line_ops(8, s=0.5)
        comp = ops.A_s @ np.linalg.solve(ops.M.toarray(), ops.A_s)
        K = ops.K.toarray()
        assert np.max(np.abs(comp - K)) <= 1e-10 * np.max(np.abs(K))

    def test_brute_force_small_matrix(self):
        # independent route: eigenpairs of M^{-1/2} K M^{-1/2}, entrywise build
        ops = make_line_ops(8, s=0.7)
        w, V = np.linalg.eigh(ops.M.toarray())
        m_half_inv = V @ np.diag(w**-0.5) @ V.T
        mu, Q = np.linalg.eigh(m_half_inv @ ops.K.toarray() @ m_half_inv)
        phi = m_half_inv @ Q
        a_ref = np.zeros_like(ops.A_s)
        for k in range(ops.n_free):
            mphi = ops.M @ phi[:, k]
            a_ref += mu[k]**0.7 * np.outer(mphi, mphi)
        assert np.max(np.abs(a_ref - ops.A_s)) <= 1e-10 * np.max(np.abs(ops.A_s))

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for s in (0.0, 0.3, 0.5, 1.0):
            ops = make_line_ops(16, s=s)
            A = ops.A_s.toarray() if ops.tridiagonal else ops.A_s
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
        assert seminorm_s(ops, u) == pytest.approx(np.sqrt(u @ ops.K @ u), rel=1e-12)


class TestPoincare:
    def test_s_zero_constant_is_one(self):
        ops = make_line_ops(16, s=0.0)
        assert poincare_constant(ops) == 1.0
        rng = np.random.default_rng(2)
        u = rng.standard_normal(ops.n_free)
        assert np.sqrt(u @ ops.M @ u) == pytest.approx(seminorm_s(ops, u), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_inequality_random_vectors(self, s):
        ops = make_line_ops(32, s=s)
        c = poincare_constant(ops)
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = rng.standard_normal(ops.n_free)
            assert np.sqrt(u @ ops.M @ u) <= c * seminorm_s(ops, u) + 1e-12

    def test_equality_at_ground_mode(self):
        ops = make_line_ops(16, s=0.5)
        u = ops.Phi[:, 0]
        assert np.sqrt(u @ ops.M @ u) == pytest.approx(
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
        energy = 0.5 * u @ ops.K @ u + u @ ops.lift_load + ops.lift_const
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
