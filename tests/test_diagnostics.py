import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwave import (ConfigurationError, Mesh1D, SchemeConfig, SolverParams,
                      build_mesh, build_operators, run)
from fracwave.diagnostics import (check_gronwall_sequence, convergence_study,
                                  cosine_reference, discrete_gronwall_bound,
                                  energy_drift, gl_energy_accounting,
                                  interface_radius, lagrangian_density,
                                  no_contact_check, oracle_mol,
                                  oracle_recurrence, track_interface)
from fracwave.potentials import double_well, gl_scaled, zero_potential

from conftest import eigenmode_config, make_line_ops


class TestGronwall:
    def test_zero_growth_keeps_initial_bound(self):
        assert discrete_gronwall_bound(3.0, 0.0, 10) == 3.0
        y = np.concatenate(([0.0], np.full(10, 2.9)))
        assert check_gronwall_sequence(y, 3.0, 0.0) == 3.0

    def test_unit_constants_give_e(self):
        assert discrete_gronwall_bound(1.0, 1.0, 7) == pytest.approx(
            2.718281828459045, rel=1e-15)

    def test_violation_reports_first_index(self):
        y = np.array([0.0, 0.5, 10.0])
        with pytest.raises(ConfigurationError, match="index 2"):
            check_gronwall_sequence(y, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="index 0"):
            check_gronwall_sequence(np.array([1.0, 0.5]), 1.0, 1.0)

    def test_randomized_envelope_sequences(self):
        # greedy upper envelope y_n = A + (B/N) sum_{j<n} y_j solves to
        # y_n = A (1 + B/N)^(n-1) <= A e^B; random damping stays below
        rng = np.random.default_rng(123)
        for _ in range(1000):
            A = rng.uniform(0.0, 10.0)
            B = rng.uniform(0.0, 10.0)
            N = int(rng.integers(1, 101))
            damp = rng.uniform(0.0, 1.0, N)
            y = np.zeros(N + 1)
            acc = 0.0
            for n in range(1, N + 1):
                y[n] = damp[n - 1] * (A + (B / N) * acc)
                acc += y[n]
            bound = check_gronwall_sequence(y, A, B)
            assert np.all(y <= bound + 1e-12 * (1 + bound))

    def test_degenerate_zero_bound(self):
        # A = 0 forces the whole sequence to zero (continuous-limit analogue)
        assert discrete_gronwall_bound(0.0, 5.0, 10) == 0.0
        assert check_gronwall_sequence(np.zeros(11), 0.0, 5.0) == 0.0
        with pytest.raises(ConfigurationError):
            check_gronwall_sequence(np.array([0.0, 0.1, 0.0]), 0.0, 5.0)

    def test_greedy_envelope_matches_closed_form(self):
        A, B, N = 2.0, 3.0, 40
        y = np.zeros(N + 1)
        acc = 0.0
        for n in range(1, N + 1):
            y[n] = A + (B / N) * acc
            acc += y[n]
        closed = A * (1 + B / N) ** (np.arange(N + 1) - 1.0)
        assert np.allclose(y[1:], closed[1:], rtol=1e-12)
        assert check_gronwall_sequence(y, A, B) >= y.max()


class TestEnergyDrift:
    def test_stationary_zero(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=0.5, n_steps=4, ops=ops64, potential=zero_potential(),
                           u0=z.copy(), v0=z.copy())
        max_drift, series = energy_drift(run(cfg))
        assert max_drift == 0.0
        assert np.all(series == 0.0)

    def test_linear_eigenmode_band_shrinks_linearly(self, ops64):
        # the scheme never lifts the energy above its start (max drift 0);
        # the dissipation band |E - E_0| is the O(tau) signal and must halve
        bands = []
        for n in (64, 128):
            traj = run(eigenmode_config(ops64, k=1, n_steps=n))
            max_drift, series = energy_drift(traj)
            assert max_drift == 0.0
            bands.append(np.max(np.abs(series)))
        assert bands[0] / bands[1] >= 1.5


class TestOracleRecurrence:
    def test_free_motion_is_linear(self):
        series = oracle_recurrence(0.0, 1.0, 1.5, 0.1, 6)
        assert np.allclose(series, 1.0 + 0.5 * np.arange(7))

    def test_zero_start_stays_zero(self):
        assert np.all(oracle_recurrence(2.0, 0.0, 0.0, 0.1, 9) == 0.0)

    def test_direct_evaluation(self):
        series = oracle_recurrence(1.0, 1.0, 1.0, 0.1, 2)
        assert series[2] == pytest.approx(0.9900990099009901, rel=1e-15)


class TestOracleMol:
    def test_eigenmode_cosine(self):
        # semidiscrete per-mode solution is exactly cos(sqrt(lam^s) t)
        ops = make_line_ops(64, s=1.0)
        cfg = eigenmode_config(ops, k=1, n_steps=128, T=1.0)
        ref = oracle_mol(cfg)
        lam = ops.lam[0]  # about pi^2, so sqrt is about pi
        coeff = ref.states @ (ops.M @ ops.Phi[:, 0])
        exact = np.cos(np.sqrt(lam) * ref.times)
        assert np.max(np.abs(coeff - exact)) < 1e-8

    def test_zero_data(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=1.0, n_steps=16, ops=ops64, potential=zero_potential(),
                           u0=z.copy(), v0=z.copy())
        ref = oracle_mol(cfg)
        assert np.all(ref.states == 0.0)

    def test_double_well_origin_is_stationary(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=1.0, n_steps=16, ops=ops64, potential=double_well(),
                           u0=z.copy(), v0=z.copy())
        ref = oracle_mol(cfg)
        assert np.max(np.abs(ref.states)) < 1e-12

    def test_rejects_obstacle(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=1.0, n_steps=16, ops=ops64, potential=zero_potential(),
                           u0=z.copy(), v0=z.copy(), obstacle=z - 1.0)
        with pytest.raises(ConfigurationError):
            oracle_mol(cfg)

    def test_blowup_reported(self, ops64):
        from fracwave import NumericError
        huge = np.full(ops64.n_free, 1e200)
        cfg = SchemeConfig(T=1.0, n_steps=4, ops=ops64, potential=double_well(),
                           u0=huge, v0=np.zeros(ops64.n_free))
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            oracle_mol(cfg)


class TestConvergenceStudy:
    def test_linear_eigenmode_slope(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=64)
        report = convergence_study(cfg, [64, 128, 256])
        assert report.error_slope >= 0.8
        assert np.all(np.diff(report.errors()) < 0)

    def test_zero_data_zero_rows(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=1.0, n_steps=16, ops=ops64, potential=zero_potential(),
                           u0=z.copy(), v0=z.copy())
        report = convergence_study(cfg, [16, 32, 64])
        assert np.all(report.errors() == 0.0)
        assert np.isfinite(report.error_slope)

    def test_needs_three_ascending_levels(self, ops64):
        cfg = eigenmode_config(ops64)
        with pytest.raises(ConfigurationError):
            convergence_study(cfg, [64, 128])
        with pytest.raises(ConfigurationError):
            convergence_study(cfg, [128, 64, 256])

    def test_failed_refinement_carries_partial_rows(self, ops64):
        from fracwave import SolverFailure, SolverParams
        cfg = eigenmode_config(ops64, k=1, n_steps=8, potential=double_well(),
                               solver=SolverParams(max_iter=1))
        with pytest.raises(SolverFailure) as exc_info:
            convergence_study(cfg, [8, 16, 32])
        assert exc_info.value.partial_rows == ()

    def test_obstacle_rows_report_drift_only(self, ops64):
        g = np.full(ops64.n_free, -0.25)
        x = ops64.mesh.nodes[ops64.mesh.free]
        cfg = SchemeConfig(T=0.5, n_steps=16, ops=ops64, potential=zero_potential(),
                           u0=np.zeros(ops64.n_free), v0=-2.0 * np.sin(np.pi * x),
                           obstacle=g)
        report = convergence_study(cfg, [16, 32, 64])
        assert np.all(np.isnan(report.errors()))
        assert np.isfinite(report.error_slope)
        assert np.all(report.drifts() <= 0.0 + 1e-12)


def loop_crossings(mesh, u):
    """Every crossing of u in node order, one node at a time: at a zero node,
    and by linear interpolation in a cell whose ends differ in sign."""
    crossings = []
    for j in range(u.size - 1):
        if u[j] == 0.0:
            crossings.append(float(mesh.nodes[j]))
        elif u[j] * u[j + 1] < 0.0:
            h = mesh.nodes[j + 1] - mesh.nodes[j]
            crossings.append(float(mesh.nodes[j] + h * u[j] / (u[j] - u[j + 1])))
    if u[-1] == 0.0:
        crossings.append(float(mesh.nodes[-1]))
    return crossings


@st.composite
def profiles(draw):
    """A strictly increasing mesh of 2-30 cells and nodal values of either
    sign, a third of them exact zeros of either sign."""
    widths = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=30))
    nodes = draw(st.floats(-1.0, 1.0)) + np.concatenate(([0.0], np.cumsum(widths)))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0),
                      st.floats(-2.0, 2.0))
    u = draw(st.lists(value, min_size=nodes.size, max_size=nodes.size))
    return Mesh1D(nodes=nodes), np.array(u)


class TestInterfaceRadius:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=profiles())
    @example(case=(Mesh1D(nodes=np.arange(4.0)), np.array([1.0, 2.0, 3.0, 0.0])))
    @example(case=(Mesh1D(nodes=np.arange(5.0)), np.array([1.0, -1.0, 0.0, 2.0, -0.0])))
    def test_equals_the_per_node_loop(self, case):
        # the innermost crossing to the bit, None without one, and the
        # warning with the number of crossings when there are several
        mesh, u = case
        ref = loop_crossings(mesh, u)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = interface_radius(mesh, u)
        if not ref:
            assert r is None
        else:
            assert np.float64(r).tobytes() == np.float64(ref[0]).tobytes()
        assert [str(w.message) for w in caught] == (
            [f"{len(ref)} sign changes; reporting the innermost"] if len(ref) > 1 else [])
        assert all(w.category is RuntimeWarning for w in caught)

    def test_tanh_front_located_within_a_cell(self):
        mesh = build_mesh(0, 1, 50, geometry="radial", dim=2)
        u = np.tanh((0.4 - mesh.nodes) / 0.05)
        r = interface_radius(mesh, u)
        assert abs(r - 0.4) <= 1.0 / 50

    def test_no_crossing_returns_none(self):
        mesh = build_mesh(0, 1, 10)
        assert interface_radius(mesh, np.ones(11)) is None

    def test_linear_interpolation_of_bracket(self):
        mesh = build_mesh(0, 1, 10)
        u = np.ones(11)
        u[6:] = -0.5
        u[5] = 0.5
        # bracket (0.5, +0.5) -> (0.6, -0.5) crosses at 0.55
        assert interface_radius(mesh, u) == pytest.approx(0.55, rel=1e-14)

    def test_multiple_crossings_warn_and_report_innermost(self):
        mesh = build_mesh(0, 1, 4)
        u = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.warns(RuntimeWarning):
            r = interface_radius(mesh, u)
        assert r == pytest.approx(0.125)

    def test_exact_on_piecewise_linear_single_crossing(self):
        rng = np.random.default_rng(21)
        mesh = build_mesh(0, 1, 20)
        for _ in range(50):
            r_true = rng.uniform(0.05, 0.95)
            u = r_true - mesh.nodes  # linear profile, single zero
            assert interface_radius(mesh, u) == pytest.approx(r_true, abs=1e-13)


class TestCosineReference:
    def test_initial_radius(self):
        assert cosine_reference(0.4, 0.0) == 0.4

    def test_collapse_limit(self):
        t = 0.4 * np.pi / 2 * (1 - 1e-9)
        assert cosine_reference(0.4, t) == pytest.approx(0.0, abs=1e-8)

    def test_direct_evaluation(self):
        # 0.4 * cos(0.5)
        assert cosine_reference(0.4, 0.2) == pytest.approx(
            0.3510330247561491, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cosine_reference(0.4, 0.4 * np.pi / 2)
        with pytest.raises(ValueError):
            cosine_reference(0.4, -0.1)


def small_front_run(eps=0.1, n_cells=40, n_steps=60, T=0.12, r0=0.4):
    mesh = build_mesh(0, 1, n_cells, geometry="radial", dim=2, dirichlet=(None, -1.0))
    ops = build_operators(mesh, 1.0)
    r = mesh.nodes[mesh.free]
    cfg = SchemeConfig(T=T, n_steps=n_steps, ops=ops,
                       potential=gl_scaled(double_well(), eps),
                       u0=np.tanh((r0 - r) / (2 * eps)), v0=np.zeros(ops.n_free))
    return cfg, run(cfg)


class TestGlAccounting:
    def test_uniform_zero_state_scaling(self):
        # u = 0 has W = 1/eps^2 pointwise: eps * E = lumped measure / eps
        mesh = build_mesh(0, 1, 16, dirichlet=(0.0, 0.0))
        ops = build_operators(mesh, 1.0)
        eps = 0.2
        z = np.zeros(ops.n_free)
        cfg = SchemeConfig(T=0.1, n_steps=2, ops=ops,
                           potential=gl_scaled(double_well(), eps),
                           u0=z.copy(), v0=z.copy())
        traj = run(cfg)
        scaled, mm = gl_energy_accounting(traj, eps, ops)
        assert scaled[0] == pytest.approx(float(ops.lumps.sum()) / eps, rel=1e-12)

    def test_well_state_has_no_potential_energy(self):
        mesh = build_mesh(0, 1, 16, dirichlet=(1.0, 1.0))
        ops = build_operators(mesh, 1.0)
        ones = np.ones(ops.n_free)
        cfg = SchemeConfig(T=0.1, n_steps=2, ops=ops,
                           potential=gl_scaled(double_well(), 0.2),
                           u0=ones, v0=np.zeros(ops.n_free))
        traj = run(cfg)
        assert traj.energies[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_front_scaled_energy_bounded_across_eps(self):
        values = []
        for eps in (0.1, 0.05):
            cfg, traj = small_front_run(eps=eps, n_cells=int(np.ceil(2 / eps)),
                                        n_steps=20, T=0.02)
            scaled, _ = gl_energy_accounting(traj, eps, cfg.ops)
            values.append(scaled[0])
        ratio = values[0] / values[1]
        assert 0.5 <= ratio <= 2.0

    def test_requires_scaled_potential(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=4, T=0.1,
                               potential=double_well())
        traj = run(cfg)
        with pytest.raises(ConfigurationError):
            gl_energy_accounting(traj, 0.1, ops64)


class TestLagrangianDensity:
    def test_uniform_well_state_vanishes(self):
        mesh = build_mesh(0, 1, 16, dirichlet=(1.0, 1.0))
        ops = build_operators(mesh, 1.0)
        cfg = SchemeConfig(T=0.1, n_steps=2, ops=ops,
                           potential=gl_scaled(double_well(), 0.2),
                           u0=np.ones(ops.n_free), v0=np.zeros(ops.n_free))
        traj = run(cfg)
        dens = lagrangian_density(traj, 1, 0.2, ops)
        assert np.max(np.abs(dens)) < 1e-10

    def test_static_linear_profile_gradient_term(self):
        # zero inner potential isolates the |grad u|^2 / 2 part
        mesh = build_mesh(0, 1, 8, dirichlet=(1.0, -1.0))
        ops = build_operators(mesh, 1.0)
        x = mesh.nodes[mesh.free]
        eps = 0.5
        cfg = SchemeConfig(T=0.05, n_steps=2, ops=ops,
                           potential=gl_scaled(zero_potential(), eps),
                           u0=1.0 - 2.0 * x, v0=np.zeros(ops.n_free))
        traj = run(cfg)
        dens = lagrangian_density(traj, 2, eps, ops)
        assert np.allclose(dens, eps * 0.5 * 4.0, rtol=1e-10)

    def test_front_density_concentrates_near_interface(self):
        eps = 0.1
        cfg, traj = small_front_run(eps=eps, n_cells=60, n_steps=40, T=0.08)
        mesh = cfg.ops.mesh
        dens = np.abs(lagrangian_density(traj, traj.n_steps, eps, cfg.ops))
        radius = interface_radius(mesh, mesh.embed(traj.u(traj.n_steps)))
        hat = np.zeros(mesh.nodes.size)
        widths = np.diff(mesh.nodes)
        hat[:-1] += 0.5 * widths
        hat[1:] += 0.5 * widths
        weights = dens * hat * mesh.weight(mesh.nodes)
        near = np.abs(mesh.nodes - radius) <= 5 * eps
        assert weights[near].sum() >= 0.8 * weights.sum()


class TestRadialFrontAgainstReference:
    def test_scheme_tracks_reference_at_first_order(self):
        # independent integration of the radial interface problem: the
        # terminal gap halves when the step count doubles
        eps, r0 = 0.1, 0.4
        mesh = build_mesh(0, 1, 100, geometry="radial", dim=2,
                          dirichlet=(None, -1.0))
        ops = build_operators(mesh, 1.0)
        r = mesh.nodes[mesh.free]
        gaps = []
        for n in (50, 100, 200):
            cfg = SchemeConfig(T=0.05, n_steps=n, ops=ops,
                               potential=gl_scaled(double_well(), eps),
                               u0=np.tanh((r0 - r) / (2 * eps)),
                               v0=np.zeros(ops.n_free))
            traj = run(cfg)
            ref = oracle_mol(cfg)
            gap = traj.u(n) - ref.terminal()
            gaps.append(float(np.sqrt(gap @ (ops.M @ gap))))
        assert all(g <= 2e-3 for g in gaps)
        assert gaps[0] / gaps[1] >= 1.5
        assert gaps[1] / gaps[2] >= 1.5


class TestTrackInterface:
    def test_reference_and_errors(self):
        cfg, traj = small_front_run(n_steps=20, T=0.02)
        trace = track_interface(traj, 0.4, stride=5)
        assert trace.times[0] == 0.0
        assert trace.reference[0] == pytest.approx(0.4)
        assert np.all(trace.measured >= 0.0)
        assert np.all(trace.measured <= 1.0)
        assert np.all(np.isfinite(trace.rel_errors))
        assert np.max(trace.rel_errors) < 0.5


@pytest.fixture(scope="module")
def obstacle_run():
    mesh = build_mesh(0, 1, 64, dirichlet=(0.0, 0.0))
    ops = build_operators(mesh, 1.0)
    x = mesh.nodes[mesh.free]
    g = np.full(ops.n_free, -0.5)
    cfg = SchemeConfig(T=0.75, n_steps=96, ops=ops, potential=zero_potential(),
                       u0=np.zeros(ops.n_free), v0=-4.0 * np.sin(np.pi * x),
                       obstacle=g)
    return cfg, run(cfg), g


class TestNoContact:

    def test_untouched_obstacle_reduces_to_el(self, ops64):
        g = np.full(ops64.n_free, -100.0)
        cfg = eigenmode_config(ops64, k=1, n_steps=16, obstacle=g,
                               solver=SolverParams())
        traj = run(cfg)
        mask, resid = no_contact_check(traj, g, 1.0)
        assert mask.all()
        assert resid <= traj.tols.max()

    def test_contact_region_masked_out(self, obstacle_run):
        cfg, traj, g = obstacle_run
        mask, resid = no_contact_check(traj, g, 0.1)
        assert 0 < mask.sum() < mask.size
        # ends of the string never reach the obstacle
        assert mask[0] and mask[-1]
        assert resid <= traj.tols.max()

    def test_oversized_clearance_empties_mask(self, obstacle_run):
        cfg, traj, g = obstacle_run
        mask, resid = no_contact_check(traj, g, 100.0)
        assert not mask.any()
        assert resid == 0.0
