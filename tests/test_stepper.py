import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.fftpack
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwave import (BlowupError, ConfigurationError, Mesh1D, SchemeConfig,
                      SolverFailure, SolverParams, build_mesh, build_operators,
                      el_residual, energy, eval_interpolants, minimize_step, operators,
                      potentials, run, step_functional, step_gradient, stepper,
                      vi_residuals)
from fracwave.operators import OperatorSet, SineStiffness, SpectralStiffness, Tridiagonal
from fracwave.potentials import Potential, double_well, gl_scaled, quadratic, zero_potential
from fracwave.stepper import effective_v0

from conftest import (RESIDUAL_ROUNDING, U, U_EXT, assert_tridiagonal_backward_error,
                      dense_A_s, eigenmode_config, gamma, make_line_ops, make_radial_ops,
                      meshes, sine_oracle, toeplitz_gap)


ONE_FREE_NODE = Mesh1D(nodes=np.array([0.0, 0.5, 1.0]), dirichlet=(0.0, 0.0))


class TestSolverParams:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverParams(tol=0.0)
        with pytest.raises(ConfigurationError):
            SolverParams(max_iter=0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_tol_rejected(self, tol):
        # an infinite tol would stop every Newton loop at iteration 0
        with pytest.raises(ConfigurationError, match="finite"):
            SolverParams(tol=tol)


class TestStepFunctional:
    def test_zero_everything(self, ops64):
        z = np.zeros(ops64.n_free)
        assert step_functional(ops64, zero_potential(), z, z, z, 0.1) == 0.0

    def test_eigenmode_quadratic_value(self):
        for s in (0.5, 1.0):
            ops = make_line_ops(16, s=s)
            tau = 0.05
            z = np.zeros(ops.n_free)
            got = step_functional(ops, zero_potential(), ops.Phi[:, 0], z, z, tau)
            assert got == pytest.approx(0.5 / tau**2 + 0.5 * ops.lam[0]**s, rel=1e-12)

    def test_lumped_potential_measure(self, ops64):
        # state 0 with the double well integrates W(0) = 1 against the free
        # lumps: 63 interior nodes of width h = 1/64
        z = np.zeros(ops64.n_free)
        got = step_functional(ops64, double_well(), z, z, z, 0.1)
        assert got == pytest.approx(63.0 / 64.0, rel=1e-13)
        assert got == pytest.approx(float(ops64.lumps.sum()), rel=1e-13)


class TestMinimizeStep:
    def test_zero_data_returns_zero(self, ops64):
        z = np.zeros(ops64.n_free)
        res = minimize_step(ops64, zero_potential(), z, z, 0.1)
        assert np.all(res.u == 0.0)
        assert res.residual == 0.0
        assert res.iterations == 0

    def test_double_well_stationary_origin(self, ops64):
        # W'(0) = 0, so the origin is a critical point and the warm start stays
        z = np.zeros(ops64.n_free)
        res = minimize_step(ops64, double_well(), z, z, 0.1)
        assert np.all(res.u == 0.0)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_eigenmode_closed_form(self, s, k):
        # minimizer of the per-mode quadratic: (2 a1 - a0) / (1 + tau^2 lam^s)
        ops = make_line_ops(32, s=s)
        tau = 1.0 / 64
        a0, a1 = 0.4, 0.9
        u2 = a0 * ops.Phi[:, k - 1]
        u1 = a1 * ops.Phi[:, k - 1]
        res = minimize_step(ops, zero_potential(), u1, u2, tau)
        expected = (2 * a1 - a0) / (1 + tau**2 * ops.lam[k - 1]**s)
        coeff = ops.Phi[:, k - 1] @ (ops.M @ res.u)
        assert abs(coeff - expected) <= 10 * res.tol

    def test_descent_is_monotone_and_dominates_warm_start(self, ops64):
        rng = np.random.default_rng(0)
        u1 = rng.standard_normal(ops64.n_free) * 0.1
        u2 = rng.standard_normal(ops64.n_free) * 0.1
        res = minimize_step(ops64, double_well(), u1, u2, 0.05)
        path = np.asarray(res.j_path)
        slack = 1e-13 * (1.0 + np.abs(path[:-1]))
        assert np.all(np.diff(path) <= slack)
        assert path[-1] <= path[0] + slack[0]
        j_warm = step_functional(ops64, double_well(), u1, u1, u2, 0.05)
        assert path[0] == pytest.approx(j_warm, rel=1e-13)

    def test_max_iter_failure_carries_best_iterate(self, ops64):
        z = np.zeros(ops64.n_free)
        u1 = ops64.Phi[:, 0]
        with pytest.raises(SolverFailure) as exc_info:
            minimize_step(ops64, double_well(), u1, z, 0.01,
                          solver=SolverParams(max_iter=1))
        failure = exc_info.value
        assert failure.best is not None
        assert failure.residual > 0

    def test_tolerance_does_not_depend_on_the_warm_start(self, ops64):
        # the automatic tolerance follows the problem (u1, u2, tau), not the
        # residual of wherever the iteration starts
        u1 = 0.5 * ops64.Phi[:, 0]
        u2 = 0.4 * ops64.Phi[:, 0]
        g = np.full(ops64.n_free, -0.2)
        tols = [minimize_step(ops64, double_well(), u1, u2, 0.05, obstacle=g,
                              warm_start=start).tol
                for start in (u1, 2.0 * u1 - u2, np.maximum(-u1, g))]
        assert tols[0] == tols[1] == tols[2]

    def test_infeasible_warm_start_rejected(self, ops64):
        z = np.zeros(ops64.n_free)
        g = np.full(ops64.n_free, 0.5)
        with pytest.raises(ConfigurationError):
            minimize_step(ops64, zero_potential(), np.ones_like(z), np.ones_like(z),
                          0.1, obstacle=g, warm_start=z)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_single_free_node(self, s):
        # two cells with both ends fixed leave one free node, where the step
        # is the scalar minimizer (2 u1 - u2) m / (m + tau^2 a)
        ops = make_line_ops(2, s=s)
        m, a = ops.M.band[0][0], dense_A_s(ops)[0, 0]
        res = minimize_step(ops, zero_potential(), np.array([0.3]),
                            np.array([0.1]), 0.1)
        assert res.u[0] == pytest.approx(0.5 * m / (m + 0.01 * a), rel=1e-12)

    @pytest.mark.parametrize("contact", [False, True])
    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_pcg_matches_dense_newton(self, s, contact):
        # the same active-set Newton iteration with each restricted system
        # solved by np.linalg.solve: CG, stopped at a tenth of tol, takes the
        # same iterations, with the same functional values, to the same state
        # (measured: 1e-13 relative; 15 of 63 nodes in contact)
        ops = make_line_ops(64, s=s)
        x = ops.mesh.nodes[ops.mesh.free]
        tau = 0.02
        u1 = 0.5 * np.sin(np.pi * x)
        u2 = u1 + 0.4 * np.sin(np.pi * x)
        g = 0.2 * np.exp(-((x - 0.5) / 0.2) ** 2) - 0.05 if contact else None
        u = np.random.default_rng(7).uniform(-0.5, 0.5, ops.n_free)
        if contact:
            u = np.maximum(u, g)
        res = minimize_step(ops, double_well(), u1, u2, tau, obstacle=g, warm_start=u)

        hess0 = ops.M.toarray() / tau**2 + dense_A_s(ops)
        ctx, w = stepper._StepContext(ops, double_well(), tau), 2.0 * u1 - u2

        def evaluate(u):
            j, grad = stepper._evaluate(ctx, u, w)[:2]
            obstacle = (u - g, grad / ops.lumps) if contact else ()
            return j, grad, stepper._stationarity(ops, grad, *obstacle)

        j, grad, res_u = evaluate(u)
        j_path = [j]
        while res_u > res.tol:
            hess = hess0 + np.diag(ops.lumps * double_well().curvature(u))
            step = np.zeros(ops.n_free)
            active = np.zeros(ops.n_free, dtype=bool)
            if contact:
                active = tau**2 * grad / ops.lumps > u - g
                step[active] = (g - u)[active]
            free = ~active
            step[free] = np.linalg.solve(hess[np.ix_(free, free)],
                                         -grad[free] - hess[np.ix_(free, active)] @ step[active])
            u = u + step if g is None else np.maximum(u + step, g)
            j, grad, res_u = evaluate(u)
            j_path.append(j)
        assert res.iterations == len(j_path) - 1 >= 2
        assert np.allclose(res.j_path, j_path, rtol=1e-10, atol=0.0)
        assert np.linalg.norm(res.u - u) <= 1e-10 * np.linalg.norm(u)
        if contact:
            assert 0 < np.count_nonzero(res.u == g) < ops.n_free

    def test_indefinite_hessian_with_definite_preconditioner(self):
        # m W'' = -7.2 m nearly cancels M/tau^2 + A_s: the tridiagonal
        # preconditioner P = M/tau^2 + diag(A_s) + diag(m W'') factors, and
        # CG meets the negative curvature of H instead
        ops = make_line_ops(16, s=0.5)
        tau = 0.5
        potential = gl_scaled(double_well(), np.sqrt(6.0 / 7.2))   # W''(0) = -6
        u1 = 0.01 * np.sin(np.pi * ops.mesh.nodes[ops.mesh.free])
        curv = np.diag(ops.lumps * potential.curvature(u1))
        mass = ops.M.toarray() / tau**2
        A = dense_A_s(ops)
        assert np.linalg.eigvalsh(mass + A + curv)[0] < -5e-3
        assert np.linalg.eigvalsh(mass + np.diag(np.diag(A)) + curv)[0] > 0.5
        with pytest.raises(SolverFailure, match="more time steps") as exc_info:
            minimize_step(ops, potential, u1, u1, tau)
        assert exc_info.value.best is not None

    @pytest.mark.parametrize("tol, below", [(1e-15, True), (1e-6, False)])
    def test_explicit_tol_failure_names_the_roundoff_floor(self, ops64, tol, below):
        # this step's round-off floor is 2.3e-11: Newton stalls near 2e-12,
        # far above tol = 1e-15, while one iteration leaves 0.86 > 1e-6
        u1 = ops64.Phi[:, 0]
        with pytest.raises(SolverFailure) as exc_info:
            minimize_step(ops64, double_well(), u1, np.zeros(ops64.n_free), 0.01,
                          solver=SolverParams(tol=tol, max_iter=100 if below else 1))
        message = str(exc_info.value)
        assert "round-off floor is" in message
        assert ("above the explicit tol" in message) == below

    def test_obstacle_projection_exact(self, ops64):
        # pull toward a deep negative state; iterates must respect the bound
        g = np.full(ops64.n_free, -0.1)
        u1 = np.zeros(ops64.n_free)
        u2 = 0.5 * ops64.Phi[:, 0]  # inertia pushes downward
        res = minimize_step(ops64, zero_potential(), u1, u2, 0.05, obstacle=g)
        assert np.all(res.u >= g)
        assert np.any(res.u == g)  # contact actually happens


class TestPinnedNewtonSolve:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), seed=st.integers(0, 2**32 - 1), s=st.sampled_from([0.0, 1.0]),
           contact=st.booleans())
    def test_matches_the_dense_pinned_system(self, mesh, seed, s, contact):
        # at s in {0, 1} the step is x = g - u on the active nodes A and
        # H_FF x_F = -grad_F - H_FA x_A on the rest F, with
        # H = M/tau^2 + A_s + diag(curv) formed densely here.  The right-hand
        # side of the band code carries at most four roundings of
        # |grad| + |H_FA||x_A| per row (three band products, one
        # subtraction), and the solve adds the LDL^T backward error.
        if s == 0.0:
            zero_data = tuple(None if d is None else 0.0 for d in mesh.dirichlet)
            mesh = dataclasses.replace(mesh, dirichlet=zero_data)
        ops = build_operators(mesh, s)
        rng = np.random.default_rng(seed)
        n = ops.n_free
        tau = rng.uniform(0.01, 1.0)
        curv = ops.lumps * rng.uniform(0.0, 50.0, n)
        u = rng.standard_normal(n)
        grad = ops.lumps / tau**2 * rng.standard_normal(n)
        g = None
        active = np.zeros(n, dtype=bool)
        if contact:
            g = u - np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n))
            active = tau**2 * grad / ops.lumps > u - g
        step = stepper._newton_step(stepper._StepContext(ops, zero_potential(), tau),
                                    curv, grad, 0.0,
                                    *((u - g, active) if contact else ()))

        H = ops.M.toarray() / tau**2
        H[np.diag_indices(n)] += curv
        H += ops.A_s.toarray()
        free = ~active
        pinned = (g - u)[active] if contact else np.zeros(0)
        assert np.array_equal(step[active], pinned)
        ext = np.longdouble
        h_fa = H[np.ix_(free, active)]
        rhs = -grad[free].astype(ext) - h_fa.astype(ext) @ pinned.astype(ext)
        terms = np.abs(grad[free]) + np.abs(h_fa) @ np.abs(pinned)
        assert_tridiagonal_backward_error(
            H[np.ix_(free, free)], step[free], rhs,
            rhs_error=(4 * U / (1 - 4 * U) + RESIDUAL_ROUNDING) * terms.astype(ext))


    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=meshes(), seed=st.integers(0, 2**32 - 1), s=st.floats(0.01, 0.99),
           contact=st.booleans())
    # one free node, free (seed 0) and active (seed 4): the single-node
    # padding of e on the dptsv call and the CG path
    @example(mesh=ONE_FREE_NODE, seed=0, s=0.5, contact=True)
    @example(mesh=ONE_FREE_NODE, seed=4, s=0.5, contact=True)
    def test_pcg_meets_its_stop_on_the_dense_pinned_system(self, mesh, seed, s, contact):
        # at fractional s, _pcg stops once the M^-1 norm of its updated
        # residual is at most stop.  The true residual of the dense pinned
        # system H_FF x_F = -grad_F - H_FA x_A differs from it by the
        # round-off of the right-hand side, of the preconditioner solve and
        # of the CG updates: at most gamma_(n+4) (|grad| + |H||x|) per row
        # and update, over at most |F| + 2 of them.  Its M^-1 norm is at
        # most its 2-norm over sqrt(lambda_min(M)).
        mesh = dataclasses.replace(
            mesh, dirichlet=tuple(None if d is None else 0.0 for d in mesh.dirichlet))
        ops = build_operators(mesh, s)
        rng = np.random.default_rng(seed)
        n = ops.n_free
        tau = rng.uniform(0.01, 1.0)
        curv = ops.lumps * rng.uniform(0.0, 50.0, n)
        u = rng.standard_normal(n)
        grad = ops.lumps / tau**2 * rng.standard_normal(n)
        g = None
        active = np.zeros(n, dtype=bool)
        if contact:
            g = u - np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n))
            active = tau**2 * grad / ops.lumps > u - g
        free = ~active
        M = ops.M.toarray()
        H = M / tau**2 + dense_A_s(ops)
        H[np.diag_indices(n)] += curv
        pinned = np.where(active, (g - u) if contact else 0.0, 0.0)
        rhs = np.where(free, -grad - H @ pinned, 0.0)
        stop = 1e-8 * np.sqrt(rhs @ np.linalg.solve(M, rhs))
        step = stepper._newton_step(stepper._StepContext(ops, zero_potential(), tau),
                                    curv, grad, stop,
                                    *((u - g, active) if contact else ()))

        assert np.array_equal(step[active], pinned[active])
        ext = np.longdouble
        resid = np.where(free, -grad.astype(ext) - H.astype(ext) @ step.astype(ext), 0.0)
        resid = resid.astype(float)
        gamma = (n + 4) * U / (1 - (n + 4) * U)
        rows = np.where(free, np.abs(grad) + np.abs(H) @ np.abs(step), 0.0)
        allowance = ((free.sum() + 2) * gamma * np.linalg.norm(rows)
                     / np.sqrt(np.linalg.eigvalsh(M)[0]))
        assert np.sqrt(resid @ np.linalg.solve(M, resid)) <= stop + allowance


class TestSineNewtonStep:
    # a certified free step on the sine backend starts from the exact
    # x0 = (M/tau^2 + A_s)^-1 (-grad J); where the remainder -m W'' x0
    # misses the stop, CG goes on from x0 preconditioned by the same
    # inverse, and no such step factors the band part

    @staticmethod
    def record_newton_steps(monkeypatch):
        """The arguments of each _newton_step call, and its shifted_inverse
        and dptsv calls, as a list that fills while a run runs."""
        calls, steps = [], []
        real_inverse, real_dptsv = SineStiffness.shifted_inverse, scipy.linalg.lapack.dptsv
        real_step = stepper._newton_step

        def inverse(*args):
            calls.append("inverse")
            return real_inverse(*args)

        def dptsv(*args, **kwargs):
            calls.append("dptsv")
            return real_dptsv(*args, **kwargs)

        def step(*args):
            calls.clear()
            out = real_step(*args)
            steps.append((args, tuple(calls)))
            return out

        monkeypatch.setattr(SineStiffness, "shifted_inverse", inverse)
        monkeypatch.setattr(scipy.linalg.lapack, "dptsv", dptsv)
        monkeypatch.setattr(stepper, "_newton_step", step)
        return steps

    @pytest.mark.parametrize("n_cells", [128, 1000])
    def test_no_step_solves_twice_on_the_obstacle_scenario(self, monkeypatch, n_cells):
        # test_obstacle_scenario_takes_fewer_iterations' s = 1/2 run: 31
        # of its Newton steps have no node pinned, and their remainder
        # misses the stop.  They once took the inverse, discarded it and
        # solved again by dptsv; now each step takes one path
        steps = self.record_newton_steps(monkeypatch)
        ops = make_line_ops(n_cells, s=0.5)
        assert isinstance(ops.A_s, SineStiffness)
        x = ops.mesh.nodes[ops.mesh.free]
        run(SchemeConfig(T=1.0, n_steps=256, ops=ops, potential=double_well(),
                         u0=np.zeros(ops.n_free), v0=-4.0 * np.sin(np.pi * x),
                         obstacle=np.full(ops.n_free, -0.5)))
        paths = {frozenset(calls) for _, calls in steps}
        assert paths == {frozenset({"inverse"}), frozenset({"dptsv"})}

    def test_remainder_above_the_stop_is_met_by_cg_on_the_inverse(self, monkeypatch):
        # frac_line's s = 1/2 line and time step at 64 cells: the two
        # linear-start steps leave a remainder above the stop.  The step
        # returned meets it: its residual, taken in extended precision with
        # the assembled M and the sine oracle's A_s, is at most the stop
        # plus what separates it from CG's updated residual.  That is the
        # start's: x0's residual is -m W'' x0 for the Toeplitz M' that
        # shifted_inverse inverts, and |c (M - M') x0|_2 <= c
        # toeplitz_gap(M) |x0|_2; and the rounding of each update, as in
        # test_pcg_meets_its_stop_on_the_dense_pinned_system (one CG
        # iteration, so 1 + 2 of them), with the sine product's normwise
        # 30 log2(n + 1) u max(mu) |x|_2 (its class's worst case) for A_s's
        # rows.  M^-1 norms are at most 2-norms over sqrt(lambda_min(M))
        steps = self.record_newton_steps(monkeypatch)
        ops = make_line_ops(64, s=0.5)
        x = ops.mesh.nodes[ops.mesh.free]
        traj = run(SchemeConfig(T=2 * 0.75 / 768, n_steps=2, ops=ops, potential=double_well(),
                                u0=0.5 * np.sin(np.pi * x), v0=np.sin(np.pi * x)))
        assert list(traj.iterations) == [1, 1]
        assert [calls for _, calls in steps] == [("inverse", "inverse")] * 2
        monkeypatch.undo()
        ext = np.longdouble
        n = ops.n_free
        A = sine_oracle(ops, np.eye(n))
        M = ops.M.toarray()
        for (ctx, curv, grad, stop, *_), _ in steps:
            c = ctx.c
            x0 = ops.A_s.shifted_inverse(c, -grad)
            remainder = curv * x0
            assert remainder @ ops.solve_mass(remainder) > stop**2
            step = stepper._newton_step(ctx, curv, grad, stop)
            H = c * M.astype(ext) + A + np.diag(curv.astype(ext))
            resid = (-grad.astype(ext) - H @ step.astype(ext)).astype(float)
            rows = np.abs(grad) + (c * M + np.diag(np.abs(curv))) @ np.abs(step)
            sine = 30 * np.log2(n + 1) * U * ops.A_s.mu.max() * np.linalg.norm(step)
            allowance = ((c * toeplitz_gap(ops.M) * np.linalg.norm(x0)
                          + (1 + 2) * (gamma(n + 4) * np.linalg.norm(rows) + sine))
                         / np.sqrt(np.linalg.eigvalsh(M)[0]))
            assert np.sqrt(resid @ ops.solve_mass(resid)) <= stop + allowance


class TestRun:
    def test_stationary_zero_run(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=0.5, n_steps=8, ops=ops64, potential=double_well(),
                           u0=z.copy(), v0=z.copy())
        traj = run(cfg)
        for i in range(-1, 9):
            assert np.all(traj.u(i) == 0.0)
        totals = traj.energies[:, 3]
        assert np.allclose(totals, 63.0 / 64.0, rtol=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_eigenmode_matches_recurrence(self, s):
        from fracwave.diagnostics import oracle_recurrence
        ops = make_line_ops(64, s=s)
        cfg = eigenmode_config(ops, k=2, n_steps=128)
        traj = run(cfg)
        lam_s = ops.lam[1]**s
        coeff = np.array([ops.Phi[:, 1] @ (ops.M @ traj.u(i)) for i in range(-1, 129)])
        oracle = oracle_recurrence(lam_s, 1.0, 1.0, traj.tau, 129)
        assert np.max(np.abs(coeff - oracle)) <= 10 * traj.tols.max()

    def test_determinism_bitwise(self, ops64):
        def one():
            cfg = eigenmode_config(ops64, k=1, n_steps=32,
                                   potential=double_well())
            return run(cfg)
        a, b = one(), one()
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.residuals, b.residuals)

    def test_velocities_recoverable(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=16)
        traj = run(cfg)
        for i in range(0, 17):
            v = (traj.u(i) - traj.u(i - 1)) / traj.tau
            assert np.max(np.abs(v - traj.v(i))) <= 1e-14 * (1 + np.max(np.abs(v)))

    def test_warm_start_dominance(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=16, potential=double_well())
        traj = run(cfg)
        for i in range(1, 17):
            j_i = step_functional(ops64, cfg.potential, traj.u(i), traj.u(i - 1),
                                  traj.u(i - 2), traj.tau)
            j_warm = step_functional(ops64, cfg.potential, traj.u(i - 1),
                                     traj.u(i - 1), traj.u(i - 2), traj.tau)
            assert j_i <= j_warm + 1e-10 * (1 + abs(j_warm))

    def test_standard_init_history(self, ops64):
        rng = np.random.default_rng(4)
        u0 = 0.1 * rng.standard_normal(ops64.n_free)
        v0 = 0.1 * rng.standard_normal(ops64.n_free)
        cfg = SchemeConfig(T=0.25, n_steps=4, ops=ops64, potential=zero_potential(),
                           u0=u0, v0=v0)
        traj = run(cfg)
        assert np.allclose(traj.u(-1), u0 - traj.tau * v0)
        assert np.allclose(traj.v(0), v0)

    def test_invariant_violations_rejected(self, ops64):
        z = np.zeros(ops64.n_free)
        with pytest.raises(ConfigurationError):
            run(SchemeConfig(T=-1.0, n_steps=8, ops=ops64,
                             potential=zero_potential(), u0=z, v0=z))
        with pytest.raises(ConfigurationError):
            run(SchemeConfig(T=1.0, n_steps=1, ops=ops64,
                             potential=zero_potential(), u0=z, v0=z))
        g = np.zeros(ops64.n_free)
        with pytest.raises(ConfigurationError):
            run(SchemeConfig(T=1.0, n_steps=8, ops=ops64, potential=zero_potential(),
                             u0=-np.ones(ops64.n_free), v0=z, obstacle=g))
        with pytest.raises(ConfigurationError, match="k_max"):
            SchemeConfig(T=1.0, n_steps=8, ops=ops64, potential=zero_potential(),
                         u0=z, v0=z, k_max=0).validate()

    @pytest.mark.parametrize("field, named", [("T", "horizon T"), ("u0", "u0"),
                                              ("v0", "v0"), ("obstacle", "obstacle")])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, ops64, field, named, bad):
        # a configuration error before the first step, not a blowup in it
        z = np.zeros(ops64.n_free)
        kwargs = dict(T=1.0, u0=z, v0=z, obstacle=z - 1.0)
        if field == "T":
            kwargs["T"] = bad
        else:
            kwargs[field] = np.where(np.arange(ops64.n_free) == 5, bad, kwargs[field])
        with pytest.raises(ConfigurationError, match=f"{named} must be .*finite"):
            run(SchemeConfig(n_steps=8, ops=ops64, potential=zero_potential(), **kwargs))

    def test_solver_failure_reports_step(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=8, potential=double_well(),
                               solver=SolverParams(max_iter=1))
        with pytest.raises(SolverFailure) as exc_info:
            run(cfg)
        assert exc_info.value.step == 1
        assert str(exc_info.value).startswith("step 1: no convergence in 1 iterations")
        # the minimization's own fields travel with the error run re-raises
        assert exc_info.value.iterations == 1
        assert exc_info.value.residual > 0

    def test_overflowing_state_raises_blowup(self, ops64):
        # the rational well overflows to nan at astronomic arguments
        huge = np.full(ops64.n_free, 1e200)
        cfg = SchemeConfig(T=1.0, n_steps=8, ops=ops64, potential=double_well(),
                           u0=huge, v0=np.zeros(ops64.n_free))
        with np.errstate(all="ignore"), pytest.raises(BlowupError) as exc_info:
            run(cfg)
        assert exc_info.value.step == 1

    @pytest.mark.parametrize("first", [0, 1, 2], ids=["floor", "warm_start", "newton"])
    @pytest.mark.parametrize("contact", [False, True], ids=["free", "contact"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("s, right", [(1.0, 0.0), (0.5, 0.0), (0.5, None)],
                             ids=["tridiagonal", "sine", "spectral"])
    def test_non_finite_slope_raises_blowup(self, s, right, bad, contact, first):
        # one NaN or infinite entry of W' raises: in the round-off floor's
        # m W'(u1) (first = 0), where an infinite floor would accept any
        # residual, at the warm start (first = 1) or after a Newton step
        # (first = 2).  Under an obstacle the node is held at g (g = u1
        # there), where the stationarity measure's projection drops grad's
        # positive part, so the measure alone would not show it
        class BadSlope(Potential):
            def __init__(self):
                self.calls = 0

            def evaluate(self, u, curvature=False):
                value, slope, curv = double_well().evaluate(u, curvature)
                if self.calls >= first:
                    slope[slope.size // 2] = bad
                self.calls += 1
                return value, slope, curv

        ops = make_line_ops(64, s=s, dirichlet=(0.0, right))
        assert type(ops.A_s) is {1.0: Tridiagonal, 0.0: SineStiffness,
                                 None: SpectralStiffness}[right if s < 1 else 1.0]
        x = ops.mesh.nodes[ops.mesh.free]
        u1, u2 = -0.1 * np.sin(np.pi * x), -0.05 * np.sin(np.pi * x)
        g = np.minimum(u1, -0.09) if contact else None
        where = ("round-off floor", "at warm start", "during Newton iteration")[first]
        # the floor's mass solve meets inf - inf, which NumPy reports
        with np.errstate(invalid="ignore"), pytest.raises(BlowupError, match=where):
            minimize_step(ops, BadSlope(), u1, u2, 0.01, obstacle=g)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_non_convex_step_reports_step_and_best_iterate(self, s):
        # tau = 1/2 against eps = 0.05: M/tau^2 cannot outweigh W''(0)/eps^2;
        # the tridiagonal factorization of the Newton system (s = 1) or of its
        # preconditioner (s = 0.5) fails
        ops = make_line_ops(8, s=s)
        x = ops.mesh.nodes[ops.mesh.free]
        cfg = SchemeConfig(T=1.0, n_steps=2, ops=ops,
                           potential=gl_scaled(double_well(), 0.05),
                           u0=0.01 * np.sin(np.pi * x), v0=np.zeros(ops.n_free))
        with pytest.raises(SolverFailure, match="more time steps") as exc_info:
            run(cfg)
        failure = exc_info.value
        assert failure.step == 1
        assert "step 1" in str(failure)
        assert failure.best is not None
        assert failure.best.shape == (ops.n_free,)

    def test_loop_holds_no_dense_matrix_at_order_one(self):
        # M and A_s = K are held as their diagonals and every Newton system is
        # banded: building the operators and the time loop, obstacle contact
        # included, allocate O(n), never n x n
        tracemalloc.start()
        try:
            ops = make_line_ops(2000)
            x = ops.mesh.nodes[ops.mesh.free]
            g = np.full(ops.n_free, -0.05)
            cfg = SchemeConfig(T=0.03, n_steps=3, ops=ops, potential=double_well(),
                               u0=np.zeros(ops.n_free), v0=-10.0 * np.sin(np.pi * x),
                               obstacle=g)
            traj = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(traj.u(3) == g)
        assert peak < ops.n_free**2 * 8 / 8   # an eighth of one n x n array

    @pytest.mark.parametrize("contact", [False, True])
    def test_fractional_loop_holds_no_dense_matrix(self, ops1000_half, contact):
        # at s = 1/2 the Newton systems are solved by CG on the dense A_s with
        # a tridiagonal preconditioner: past the operators built outside the
        # trace, the loop allocates O(n), never an n x n array (the sine
        # backend's loop: TestSineStiffness in test_operators.py)
        ops = ops1000_half
        x = ops.mesh.nodes[ops.mesh.free]
        g = np.full(ops.n_free, -0.05) if contact else None
        cfg = SchemeConfig(T=0.03, n_steps=3, ops=ops, potential=double_well(),
                           u0=np.zeros(ops.n_free), v0=-10.0 * np.sin(np.pi * x),
                           obstacle=g)
        tracemalloc.start()
        try:
            traj = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not contact or np.any(traj.u(3) == g)
        assert peak < ops.n_free**2 * 8 / 4   # a quarter of one n x n array

    def test_large_line_run_memory_is_linear(self):
        # 102,400 cells at s = 1: one n x n array would take 84 GB.  Build and
        # run stay within 64 doubles per node (measured: 55; the trajectory
        # alone holds 5 states, and the run's context 4 for each of the
        # block bands diag(M/tau^2, A_s) and diag(M/tau^2, |A_s|))
        tracemalloc.start()
        try:
            ops = make_line_ops(102400)
            x = ops.mesh.nodes[ops.mesh.free]
            cfg = SchemeConfig(T=0.003, n_steps=3, ops=ops, potential=double_well(),
                               u0=0.5 * np.sin(np.pi * x), v0=np.zeros(ops.n_free))
            traj = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(traj.states))
        assert peak <= 64 * 8 * ops.n_free


class TestNoDispatchOnTheHotPath:
    # minimize_step takes the sine backend's DSTs from pocketfft's kernel
    # (operators._dst): with the public wrappers scipy.fft.dst and
    # scipy.fftpack.dst made to raise, a step still runs, with and without
    # nodes pinned to the obstacle.  No product goes through scipy.sparse,
    # which no module imports (test_scipy_sparse_is_never_imported)
    @pytest.mark.parametrize("contact", [False, True])
    @pytest.mark.parametrize("s, backend", [(1.0, Tridiagonal),
                                            (0.5, SineStiffness)])
    def test_step_runs_without_csr_products_or_scipy_fft_dst(
            self, monkeypatch, s, backend, contact):
        ops = make_line_ops(64, s=s)
        assert type(ops.A_s) is backend
        x = ops.mesh.nodes[ops.mesh.free]
        # moving down onto g = -0.1: the inertial extrapolation reaches -0.15
        u1, u2 = -0.1 * np.sin(np.pi * x), -0.05 * np.sin(np.pi * x)
        g = np.full(ops.n_free, -0.1) if contact else None

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.fft dispatch on the hot path")

        for wrapper in (scipy.fft, scipy.fftpack):
            monkeypatch.setattr(wrapper, "dst", refuse)
            with pytest.raises(AssertionError, match="hot path"):
                wrapper.dst(x, type=1)
        result = minimize_step(ops, double_well(), u1, u2, 0.01, obstacle=g)
        assert result.iterations >= 1 and result.residual <= result.tol
        assert contact == (g is not None and np.any(result.u == g))

    def test_work_per_newton_iterate(self, monkeypatch):
        # at s = 1, per step: the round-off floor takes one band product
        # (M/tau^2 (2|u1| + |u2|) and |A_s| |w| as the two blocks of one
        # band) and one mass solve; each evaluation one band product
        # (M/tau^2 (u - w) and A_s u as the two blocks of one band) and one
        # mass solve (the stationarity norm); each Newton iterate one dptsv,
        # plus one product of the pinned values where a node is active.  So
        # a step of k iterates makes 1 + (k + 1) + (active iterates)
        # products, 2 + k mass solves and k dptsv calls
        ops = make_line_ops(64, s=1.0)
        x = ops.mesh.nodes[ops.mesh.free]
        u1, u2 = -0.1 * np.sin(np.pi * x), -0.05 * np.sin(np.pi * x)
        counts = {}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        band = counted("band", operators.band_apply)
        monkeypatch.setattr(operators, "band_apply", band)
        monkeypatch.setattr(stepper, "band_apply", band)
        monkeypatch.setattr(OperatorSet, "solve_mass",
                            counted("solve", OperatorSet.solve_mass))
        monkeypatch.setattr(scipy.linalg.lapack, "dptsv",
                            counted("dptsv", scipy.linalg.lapack.dptsv))
        work = {}
        # an obstacle far below the path, and one the step meets (g = -0.1,
        # which the extrapolation -0.15 sin(pi x) crosses)
        for case, g in (("free", None), ("no_contact", np.full(ops.n_free, -1.0)),
                        ("contact", np.full(ops.n_free, -0.1))):
            counts.update(band=0, solve=0, dptsv=0)
            result = minimize_step(ops, double_well(), u1, u2, 0.01, obstacle=g)
            work[case] = (result.iterations, dict(counts))
        assert work == {"free": (2, {"band": 4, "solve": 4, "dptsv": 2}),
                        "no_contact": (2, {"band": 4, "solve": 4, "dptsv": 2}),
                        "contact": (3, {"band": 8, "solve": 5, "dptsv": 3})}
        # an obstacle the step does not touch costs no product
        assert work["no_contact"][1]["band"] <= work["free"][1]["band"]

    @pytest.mark.parametrize("potential", [zero_potential(),
                                           gl_scaled(zero_potential(), 0.1)],
                             ids=["zero", "scaled_zero"])
    def test_vanishing_potential_is_never_evaluated(self, monkeypatch, potential):
        # W = 0, bare or eps-scaled, is decided once per run: no evaluation,
        # energy row or round-off floor calls the potential, with or
        # without contact
        calls = []

        def counted(fn):
            def evaluate(self, *args, **kwargs):
                calls.append(type(self).__name__)
                return fn(self, *args, **kwargs)
            return evaluate

        for cls in vars(potentials).values():
            if isinstance(cls, type) and "evaluate" in vars(cls):
                monkeypatch.setattr(cls, "evaluate", counted(vars(cls)["evaluate"]))
        ops = make_line_ops(64, s=1.0)
        x = ops.mesh.nodes[ops.mesh.free]
        for g in (None, np.full(ops.n_free, -0.1)):
            traj = run(SchemeConfig(T=0.2, n_steps=20, ops=ops, potential=potential,
                                    u0=np.zeros(ops.n_free), v0=-np.sin(np.pi * x),
                                    obstacle=g))
            assert g is None or np.any(traj.states[2:] == g)
        energy(traj, 3)
        assert calls == []
        potential.value(x)   # the count is live
        assert calls

    def test_work_per_sine_newton_step(self, monkeypatch):
        # on the sine backend a Newton step with no node pinned, whose
        # Hessian the symbol bound certifies, is (M/tau^2 + A_s)^-1 (-grad J)
        # where its remainder meets the stop: one shifted_inverse call, two
        # DSTs and no tridiagonal solve.  On frac_line's s = 1/2 line and time step at 64 cells that
        # holds from step 3, whose cubic warm start leaves a small Newton
        # step; the first two steps start linear, and their remainder takes
        # one CG iteration preconditioned by shifted_inverse: a second
        # inverse call and one product, six DSTs, two mass solves (dpttrs)
        # for CG's stop, and still no tridiagonal solve.  A step with a node pinned and one whose Hessian is not
        # certified (the non-convex configs of
        # test_indefinite_hessian_with_definite_preconditioner and
        # test_non_convex_step_reports_step_and_best_iterate) take the
        # banded path: each factors P by one dptsv, whose failure or CG's
        # the SolverFailure is, and the last two never reach shifted_inverse
        counts = dict(inverse=0, dst=0, dptsv=0, dpttrs=0)

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(operators, "_dst", counted("dst", operators._dst))
        monkeypatch.setattr(SineStiffness, "shifted_inverse",
                            counted("inverse", SineStiffness.shifted_inverse))
        for name in ("dptsv", "dpttrs"):
            monkeypatch.setattr(scipy.linalg.lapack, name,
                                counted(name, getattr(scipy.linalg.lapack, name)))
        solves = []
        newton_step = stepper._newton_step

        def step(*args):
            counts.update(inverse=0, dst=0, dptsv=0, dpttrs=0)
            out = newton_step(*args)
            solves.append((len(args) == 6 and args[5] is not None, dict(counts)))
            return out

        monkeypatch.setattr(stepper, "_newton_step", step)
        ops = make_line_ops(64, s=0.5)
        x = ops.mesh.nodes[ops.mesh.free]
        traj = run(SchemeConfig(T=6 * 0.75 / 768, n_steps=6, ops=ops, potential=double_well(),
                                u0=0.5 * np.sin(np.pi * x), v0=np.sin(np.pi * x)))
        assert list(traj.iterations) == [1] * 6
        assert solves[:2] == [(False, {"inverse": 2, "dst": 6, "dptsv": 0, "dpttrs": 2})] * 2
        assert solves[2:] == [(False, {"inverse": 1, "dst": 2, "dptsv": 0, "dpttrs": 0})] * 4

        solves.clear()
        u1, u2 = -0.1 * np.sin(np.pi * x), -0.05 * np.sin(np.pi * x)
        minimize_step(ops, double_well(), u1, u2, 0.01, obstacle=np.full(ops.n_free, -0.1))
        pinned = [work for is_pinned, work in solves if is_pinned]
        assert pinned and all((work["inverse"], work["dptsv"]) == (0, 1) for work in pinned)

        solves.clear()
        ops = make_line_ops(16, s=0.5)
        u1 = 0.01 * np.sin(np.pi * ops.mesh.nodes[ops.mesh.free])
        with pytest.raises(SolverFailure, match="more time steps"):
            minimize_step(ops, gl_scaled(double_well(), np.sqrt(6.0 / 7.2)), u1, u1, 0.5)
        ops = make_line_ops(8, s=0.5)
        x = ops.mesh.nodes[ops.mesh.free]
        with pytest.raises(SolverFailure, match="more time steps"):
            run(SchemeConfig(T=1.0, n_steps=2, ops=ops, potential=gl_scaled(double_well(), 0.05),
                             u0=0.01 * np.sin(np.pi * x), v0=np.zeros(ops.n_free)))
        assert [(work["inverse"], work["dptsv"]) for _, work in solves] == [(0, 1)] * 2

    def test_scipy_sparse_is_never_imported(self):
        # in a fresh interpreter, since the tests import scipy.sparse for
        # their csr references: import fracwave, build each backend's
        # operators and take a step on each, with and without contact
        child = """
import sys
import numpy as np
from fracwave import build_mesh, build_operators, minimize_step
from fracwave.operators import SineStiffness, SpectralStiffness, Tridiagonal
from fracwave.potentials import double_well
for s, right, backend in ((1.0, 0.0, Tridiagonal), (0.5, 0.0, SineStiffness),
                          (0.5, None, SpectralStiffness)):
    ops = build_operators(build_mesh(0.0, 1.0, 64, dirichlet=(0.0, right)), s)
    assert type(ops.A_s) is backend
    x = ops.mesh.nodes[ops.mesh.free]
    u1, u2 = -0.1 * np.sin(np.pi * x), -0.05 * np.sin(np.pi * x)
    for g in (None, np.full(ops.n_free, -0.1)):
        result = minimize_step(ops, double_well(), u1, u2, 0.01, obstacle=g)
        assert result.residual <= result.tol
        assert g is None or np.any(result.u == g)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "sparse"])))
"""
        src = str(Path(stepper.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []


class FreshZero(Potential):
    """W = 0 through the general path: fresh arrays of zeros, like any
    potential's evaluation."""

    def evaluate(self, u, curvature=False):
        return (np.zeros_like(u), np.zeros_like(u),
                np.zeros_like(u) if curvature else None)


class TestVanishingPotential:
    @pytest.mark.parametrize("contact", [False, True], ids=["free", "contact"])
    @pytest.mark.parametrize("s, right, backend", [(1.0, 0.0, Tridiagonal),
                                                   (0.5, 0.0, SineStiffness),
                                                   (0.5, None, SpectralStiffness)],
                             ids=["tridiagonal", "sine", "spectral"])
    def test_zero_potential_equals_the_general_path_bit_for_bit(
            self, s, right, backend, contact):
        # zero_potential() skips every potential term: no evaluation, a
        # potential energy of 0.0, no m W' in grad J or in the round-off
        # floor, shared zeros for m W''.  The general path adds fresh zeros
        # to each; the two runs agree in every bit, with the obstacle met
        # and without it
        ops = make_line_ops(64, s=s, dirichlet=(0.0, right))
        assert type(ops.A_s) is backend
        x = ops.mesh.nodes[ops.mesh.free]
        g = np.full(ops.n_free, -0.05) if contact else None
        trajs = [run(SchemeConfig(T=0.2, n_steps=20, ops=ops, potential=potential,
                                  u0=0.02 * np.sin(np.pi * x), v0=-np.sin(np.pi * x),
                                  obstacle=g))
                 for potential in (zero_potential(), FreshZero())]
        assert not contact or np.any(trajs[0].states[2:] == g)
        for name in ("states", "energies", "iterations", "residuals", "tols"):
            a, b = (getattr(t, name) for t in trajs)
            assert a.tobytes() == b.tobytes(), name


def gl_front_config(n_cells, n_steps):
    """The gl_interface preset (radial, d = 2, eps = 0.05, tanh front at
    0.4) at n_cells and the preset's time step tau = 5e-4."""
    ops = make_radial_ops(n_cells)
    r = ops.mesh.nodes[ops.mesh.free]
    return SchemeConfig(T=5e-4 * n_steps, n_steps=n_steps, ops=ops,
                        potential=gl_scaled(double_well(), 0.05),
                        u0=np.tanh((0.4 - r) / 0.1), v0=np.zeros(ops.n_free))


class TestAutoTolerance:
    # the round-off of A_s u and of the stiff well grows with the mesh; a
    # tolerance below it leaves Newton wandering at the floor until max_iter
    # (a floor of the inertial term alone, 2.2e-9 here, did: 100 iterations
    # at 4,800 cells, 5.9 per step and up to 17 at 3,200)

    def test_fine_mesh_first_step_converges(self):
        traj = run(gl_front_config(4800, 2))
        assert traj.iterations[0] <= 3

    def test_iterations_per_step_do_not_grow_with_the_mesh(self):
        traj = run(gl_front_config(3200, 40))
        assert traj.iterations.mean() <= 2.2

    @pytest.mark.parametrize("contact", [False, True], ids=["free", "contact"])
    @pytest.mark.parametrize("backend", ["tridiagonal", "sine", "spectral", "radial_lifted"])
    def test_run_tols_equal_direct_calls_bit_for_bit(self, backend, contact):
        # run takes the floor's potential term m W'(u_{i-1}) from the last
        # evaluation of step i - 1 (row 0's at step 1) and its other terms
        # from one context for the loop; a call on its own forms them from
        # (u_{i-1}, u_{i-2}, tau), and from u_i it accepts at once, with
        # run's residual.  The radial case runs the eps-scaled well, whose
        # lumped weights are m / eps^2, with nonzero Dirichlet data
        if backend == "radial_lifted":
            cfg = gl_front_config(40, 12)
            g = np.full(cfg.ops.n_free, -1.0) if contact else None
        else:
            ops = make_line_ops(32, s=1.0 if backend == "tridiagonal" else 0.5,
                                dirichlet=(0.0, None if backend == "spectral" else 0.0))
            x = ops.mesh.nodes[ops.mesh.free]
            g = np.full(ops.n_free, -0.3) if contact else None
            cfg = SchemeConfig(T=0.25, n_steps=16, ops=ops, potential=double_well(),
                               u0=0.2 * np.sin(np.pi * x), v0=-4.0 * np.sin(np.pi * x))
        cfg.obstacle = g
        assert type(cfg.ops.A_s) is {"sine": SineStiffness, "spectral": SpectralStiffness}.get(
            backend, Tridiagonal)
        assert cfg.ops.lifted == (backend == "radial_lifted")
        traj = run(cfg)
        for i in range(1, traj.n_steps + 1):
            direct = minimize_step(cfg.ops, cfg.potential, traj.u(i - 1), traj.u(i - 2),
                                   traj.tau, obstacle=g, warm_start=traj.u(i))
            assert direct.tol == traj.tols[i - 1], i
            assert (direct.iterations, direct.residual) == (0, traj.residuals[i - 1]), i
        if contact and backend != "radial_lifted":
            assert np.any(traj.states[2:] == g)


class TestCubicWarmStart:
    # from step 3 the loop starts at the cubic through the last four states,
    # O(tau^4) from the step's minimizer where the linear 2 u_{i-1} - u_{i-2}
    # is O(tau^2) away

    def test_start_is_linear_then_cubic(self, ops64, monkeypatch):
        starts = []
        real = stepper.minimize_step

        def record(*args, warm_start, **kwargs):
            starts.append(warm_start.copy())
            return real(*args, warm_start=warm_start, **kwargs)

        monkeypatch.setattr(stepper, "minimize_step", record)
        traj = run(eigenmode_config(ops64, n_steps=6, potential=double_well()))
        # the start is one gemv of at most four terms, which errs by at most
        # gamma_4 sum |c_k| |u_k|; the extrapolation here is taken in
        # extended precision, and errs by at most that at its own u
        ext = np.longdouble
        for i in range(1, 7):
            coef = (-1.0, 4.0, -6.0, 4.0) if i >= 3 else (-1.0, 2.0)
            rows = [traj.u(i - len(coef) + k).astype(ext) for k in range(len(coef))]
            exact = sum(c * row for c, row in zip(coef, rows))
            terms = sum(abs(c) * np.abs(row) for c, row in zip(coef, rows))
            gap = np.abs(starts[i - 1].astype(ext) - exact)
            assert np.all(gap <= (gamma(4) + gamma(4, U_EXT)) * terms)

    def test_one_newton_iteration_per_step_on_the_interface(self):
        # the stiff eps-scaled well took 2.0 iterations per step from the
        # linear start; from the cubic 899 of 900 steps take one
        traj = run(gl_front_config(100, 900))
        assert traj.iterations.mean() <= 1.05

    @pytest.mark.parametrize("s, linear", [(0.5, 483), (1.0, 501)])
    def test_obstacle_scenario_takes_fewer_iterations(self, s, linear):
        # criteria 06/07's string swung onto a flat obstacle, with the double
        # well, at n = 256: the linear start took `linear` iterations, the
        # cubic takes 371 (s = 1/2) and 345 (s = 1)
        ops = make_line_ops(128, s=s)
        x = ops.mesh.nodes[ops.mesh.free]
        cfg = SchemeConfig(T=1.0, n_steps=256, ops=ops, potential=double_well(),
                           u0=np.zeros(ops.n_free), v0=-4.0 * np.sin(np.pi * x),
                           obstacle=np.full(ops.n_free, -0.5))
        assert run(cfg).iterations.sum() < 0.8 * linear

    @pytest.mark.xfail(strict=True, raises=SolverFailure,
                       reason="step 3 needs 139 active-set iterations, above "
                              "the cap of 100: each moves the contact boundary "
                              "by a node or two")
    def test_uniform_impact_on_the_obstacle_converges(self):
        # a string thrown flat onto the obstacle: the start of step 3 puts
        # nearly every node on it, and the active set releases few per
        # iteration
        ops = make_line_ops(2000)
        cfg = SchemeConfig(T=0.03, n_steps=3, ops=ops, potential=double_well(),
                           u0=np.zeros(ops.n_free), v0=np.full(ops.n_free, -10.0),
                           obstacle=np.full(ops.n_free, -0.05))
        run(cfg)


class TestWarmProduct:
    # run passes each step's start its A_s product as the same combination
    # of the last states' products (2, -1, then 4, -6, 4, -1), which those
    # steps' last evaluations formed; a start clipped by the obstacle takes
    # a direct product, and a start that meets tol on the combination is
    # evaluated again on a direct one (TestStepEnergies' loose_tol case)

    @staticmethod
    def record_warm_starts(monkeypatch):
        """The (warm_start, warm_product) run passes each step, as a list
        that fills while run runs."""
        given = []
        real = stepper.minimize_step

        def record(*args, warm_start, warm_product, **kwargs):
            given.append((warm_start, warm_product))
            return real(*args, warm_start=warm_start, warm_product=warm_product, **kwargs)

        monkeypatch.setattr(stepper, "minimize_step", record)
        return given

    @pytest.mark.parametrize("s, right, backend", [(1.0, 0.0, Tridiagonal),
                                                   (0.5, 0.0, SineStiffness),
                                                   (0.5, None, SpectralStiffness)])
    def test_combined_product_agrees_with_the_direct_one(self, monkeypatch, s, right,
                                                         backend):
        # with E(x) = fl(A_s x) - A_s x, the combination sum c_k fl(A_s u_k)
        # differs from fl(A_s start) by sum c_k E(u_k) - E(start), less
        # A_s times the rounding of start and plus that of the combination,
        # each at most gamma_4 sum |c_k| |x_k|.  Each class's round-off
        # model bounds E: componentwise, |E(x)| <= gamma_t |A_s| |x| for t
        # terms per row; normwise on the sine backend, |E(x)|_2 <= 30
        # log2(n + 1) u max(mu) |x|_2, its worst case.  The sum over the
        # states is at most sum |c_k| = 15 times the largest of their bounds
        given = self.record_warm_starts(monkeypatch)
        ops = build_operators(build_mesh(0.0, 1.0, 64, dirichlet=(0.0, right)), s)
        assert type(ops.A_s) is backend
        x = ops.mesh.nodes[ops.mesh.free]
        traj = run(SchemeConfig(T=0.05, n_steps=8, ops=ops, potential=double_well(),
                                u0=0.5 * np.sin(np.pi * x), v0=np.sin(np.pi * x)))
        ext = np.longdouble
        n = ops.n_free
        abs_A = np.abs(dense_A_s(ops)).astype(ext)
        terms = int(np.count_nonzero(abs_A, axis=1).max())
        mu_max = ops.A_s.mu.max() if backend is SineStiffness else None
        for i, (start, combined) in enumerate(given, start=1):
            coef = (4.0, 6.0, 4.0, 1.0) if i >= 3 else (2.0, 1.0)
            rows = [traj.states[i - j] for j in range(len(coef))]
            prods = [ops.A_s @ row for row in rows]
            gap = combined.astype(ext) - (ops.A_s @ start).astype(ext)
            rows_mag = sum(c * np.abs(row.astype(ext)) for c, row in zip(coef, rows))
            prods_mag = sum(c * np.abs(p.astype(ext)) for c, p in zip(coef, prods))
            if mu_max is None:
                bound = (gamma(terms) * abs_A @ (rows_mag + np.abs(start))
                         + gamma(4) * (prods_mag + abs_A @ rows_mag))
                assert np.all(np.abs(gap) <= bound)
            else:
                def norm(v):
                    return float(np.linalg.norm(np.asarray(v, dtype=float)))
                model = 30 * np.log2(n + 1) * U * mu_max
                bound = (model * (sum(c * norm(row) for c, row in zip(coef, rows))
                                  + norm(start))
                         + gamma(4) * (norm(prods_mag) + mu_max * norm(rows_mag)))
                assert norm(gap) <= bound

    def test_sine_run_makes_four_dsts_per_step(self, monkeypatch):
        # frac_line's s = 1/2 line and time step at 64 cells: from step 3
        # each step takes one Newton iterate (test_work_per_sine_newton_step).
        # Its warm start is evaluated on the combined product, with no DST;
        # its Newton step is one shifted_inverse, two DSTs; its last
        # evaluation one product, two DSTs; the round-off floor's normwise
        # term takes none.  Past the steps, the run makes the products of
        # u_{-1} and u_0 before step 1, which row 0's energy reads
        dst = [0]
        real_dst, real_evaluate, real_minimize = (
            operators._dst, stepper._evaluate, stepper.minimize_step)

        def counted(x):
            dst[0] += 1
            return real_dst(x)

        evaluations, steps = [], []

        def evaluate(*args, **kwargs):
            before = dst[0]
            out = real_evaluate(*args, **kwargs)
            evaluations.append((kwargs.get("product") is not None, dst[0] - before))
            return out

        def minimize(*args, **kwargs):
            before, first = dst[0], len(evaluations)
            result = real_minimize(*args, **kwargs)
            steps.append((dst[0] - before, evaluations[first:]))
            return result

        monkeypatch.setattr(operators, "_dst", counted)
        monkeypatch.setattr(stepper, "_evaluate", evaluate)
        monkeypatch.setattr(stepper, "minimize_step", minimize)
        ops = make_line_ops(64, s=0.5)
        x = ops.mesh.nodes[ops.mesh.free]
        traj = run(SchemeConfig(T=6 * 0.75 / 768, n_steps=6, ops=ops, potential=double_well(),
                                u0=0.5 * np.sin(np.pi * x), v0=np.sin(np.pi * x)))
        assert list(traj.iterations) == [1] * 6
        assert steps[2:] == [(4, [(True, 0), (False, 2)])] * 4
        assert dst[0] == 4 + sum(count for count, _ in steps)

    def test_clipped_warm_start_takes_its_product_directly(self, monkeypatch):
        # TestStepEnergies' obstacle run on the sine backend: a step whose
        # extrapolation crosses g gets no warm product, every other step its
        # combination
        given = self.record_warm_starts(monkeypatch)
        ops = make_line_ops(32, s=0.5)
        assert isinstance(ops.A_s, SineStiffness)
        x = ops.mesh.nodes[ops.mesh.free]
        g = np.full(ops.n_free, -0.3)
        traj = run(SchemeConfig(T=0.5, n_steps=32, ops=ops, potential=double_well(),
                                u0=0.2 * np.sin(np.pi * x), v0=-4.0 * np.sin(np.pi * x),
                                obstacle=g))
        u = traj.states
        clipped = []
        for i, (start, _) in enumerate(given, start=1):
            # run's own combination, by the same table and gemv
            coef = stepper._CUBIC if i >= 3 else stepper._LINEAR
            combination = coef @ u[i + 1 - coef.size:i + 1]
            assert np.array_equal(start, np.maximum(combination, g))
            clipped.append(bool(np.any(combination < g)))
        assert [product is None for _, product in given] == clipped
        assert any(clipped) and not all(clipped)


class TestSmoothedInit:
    def test_band_limited_velocity_unchanged(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=8, init_mode="smoothed")
        cfg.v0 = ops64.Phi[:, 1].copy()
        v0n = effective_v0(cfg)
        assert np.allclose(v0n, cfg.v0, atol=1e-12)

    def test_cutoff_captures_999_per_mille(self, ops64):
        # decaying spectrum: the band criterion truncates the tail but keeps
        # at least 99.9% of the M-norm
        weights = 2.0 ** -np.arange(ops64.n_free)
        cfg = eigenmode_config(ops64, k=1, n_steps=8, init_mode="smoothed")
        cfg.v0 = ops64.Phi @ weights
        v0n = effective_v0(cfg)
        norm = lambda w: np.sqrt(w @ (ops64.M @ w))
        assert norm(v0n) >= 0.999 * norm(cfg.v0) - 1e-12
        coeff = ops64.Phi.T @ (ops64.M @ v0n)
        assert np.count_nonzero(np.abs(coeff) > 1e-15) < ops64.n_free
        # flat random data is not band-limited: nothing should be cut
        rng = np.random.default_rng(12)
        cfg.v0 = rng.standard_normal(ops64.n_free)
        assert np.allclose(effective_v0(cfg), cfg.v0, atol=1e-12)

    def test_explicit_cutoff(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=8, init_mode="smoothed", k_max=2)
        cfg.v0 = ops64.Phi[:, 0] + ops64.Phi[:, 4]
        v0n = effective_v0(cfg)
        assert np.allclose(v0n, ops64.Phi[:, 0], atol=1e-12)

    def test_history_uses_smoothed_velocity(self, ops64):
        rng = np.random.default_rng(13)
        v0 = rng.standard_normal(ops64.n_free)
        cfg = SchemeConfig(T=0.25, n_steps=4, ops=ops64, potential=zero_potential(),
                           u0=np.zeros(ops64.n_free), v0=v0, init_mode="smoothed")
        traj = run(cfg)
        assert np.allclose(traj.u(-1), -traj.tau * effective_v0(cfg))


@pytest.fixture(scope="module")
def interp_traj():
    ops = make_line_ops(16)
    return run(eigenmode_config(ops, k=1, n_steps=8, T=0.8))


class TestInterpolants:
    @pytest.fixture
    def traj(self, interp_traj):
        return interp_traj

    def test_grid_point_agreement(self, traj):
        for i in (1, 4, 8):
            u_bar, u_lin, u_t = eval_interpolants(traj, i * traj.tau)
            assert np.allclose(u_bar, traj.u(i))
            assert np.allclose(u_lin, traj.u(i), atol=1e-12)
            assert np.allclose(u_t, traj.v(i))

    def test_midpoint_blend(self, traj):
        t = 2.5 * traj.tau
        _, u_lin, _ = eval_interpolants(traj, t)
        assert np.allclose(u_lin, 0.5 * (traj.u(2) + traj.u(3)), atol=1e-12)

    def test_left_endpoint_state(self, traj):
        u_bar, u_lin, _ = eval_interpolants(traj, -traj.tau)
        assert np.allclose(u_bar, traj.u(-1))
        assert np.allclose(u_lin, traj.u(-1))

    def test_domain_errors(self, traj):
        with pytest.raises(ValueError):
            eval_interpolants(traj, -2 * traj.tau)
        with pytest.raises(ValueError):
            eval_interpolants(traj, traj.config.T + traj.tau)


class TestEnergy:
    def test_zero_state(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=0.5, n_steps=4, ops=ops64, potential=zero_potential(),
                           u0=z.copy(), v0=z.copy())
        traj = run(cfg)
        assert energy(traj, 0) == (0.0, 0.0, 0.0, 0.0)

    def test_stationary_double_well_measure(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=0.5, n_steps=4, ops=ops64, potential=double_well(),
                           u0=z.copy(), v0=z.copy())
        traj = run(cfg)
        kin, frac, pot, total = energy(traj, 2)
        assert (kin, frac) == (0.0, 0.0)
        assert pot == pytest.approx(63.0 / 64.0, rel=1e-13)

    def test_eigenmode_energy_tracks_oracle(self):
        # per-mode energies reconstructed from the recurrence series
        # (entry i+1 of the series corresponds to the state at step i)
        from fracwave.diagnostics import oracle_recurrence
        ops = make_line_ops(64, s=1.0)
        n = 128
        cfg = eigenmode_config(ops, k=1, n_steps=n)
        traj = run(cfg)
        lam = ops.lam[0]
        a = oracle_recurrence(lam, 1.0, 1.0, traj.tau, n + 1)
        e = np.array([0.5 * ((a[i + 1] - a[i]) / traj.tau)**2
                      + 0.5 * lam * a[i + 1]**2 for i in range(n + 1)])
        assert np.max(np.abs(traj.energies[:, 3] - e)) < 1e-8
        # stays within O(tau) of the initial elastic energy: the per-step decay
        # factor 1/(1 + tau^2 lam) gives |E - E_0| <= E_0 * lam * T * tau + h.o.t.
        assert np.max(np.abs(traj.energies[:, 3] - 0.5 * lam)) \
            <= 1.5 * (0.5 * lam) * lam * cfg.T * traj.tau


class TestStepEnergies:
    @pytest.mark.parametrize("case", ["free", "obstacle", "loose_tol"])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_table_equals_the_recomputation_bit_for_bit(self, s, case):
        # rows 1..n come from the functional's last evaluation in each step,
        # row 0 from energy() itself; a loose explicit tol accepts warm starts
        # with no Newton iteration
        ops = make_line_ops(32, s=s)
        x = ops.mesh.nodes[ops.mesh.free]
        g = np.full(ops.n_free, -0.3) if case == "obstacle" else None
        cfg = SchemeConfig(T=0.5, n_steps=32, ops=ops, potential=double_well(),
                           u0=0.2 * np.sin(np.pi * x), v0=-4.0 * np.sin(np.pi * x),
                           obstacle=g,
                           solver=SolverParams(tol=1e-2 if case == "loose_tol" else None))
        traj = run(cfg)
        for i in range(traj.n_steps + 1):
            again = np.array(energy(traj, i))
            assert np.array_equal(traj.energies[i].view(np.int64), again.view(np.int64)), i
        if case == "obstacle":
            assert np.any(traj.states[2:] == g)
        if case == "loose_tol":
            assert np.any(traj.iterations == 0) and np.any(traj.iterations > 0)
            # warm starts accepted at iterate 0 met tol on run's combined
            # product A_s start, and were evaluated again on a direct one,
            # from which the combination of rounded products differs in the
            # last bits
            assert isinstance(ops.A_s, SineStiffness if s == 0.5 else Tridiagonal)
            assert np.any(traj.iterations[2:] == 0)


class TestResiduals:
    def test_converged_step_below_tolerance(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=16, potential=double_well())
        traj = run(cfg)
        for i in (1, 8, 16):
            assert el_residual(ops64, cfg.potential, traj, i) <= traj.tols[i - 1]

    def test_stationary_run_zero_residual(self, ops64):
        z = np.zeros(ops64.n_free)
        cfg = SchemeConfig(T=0.5, n_steps=4, ops=ops64, potential=double_well(),
                           u0=z.copy(), v0=z.copy())
        traj = run(cfg)
        assert el_residual(ops64, cfg.potential, traj, 2) <= 1e-14

    def test_unconverged_step_flagged(self, ops64):
        z = np.zeros(ops64.n_free)
        u1 = ops64.Phi[:, 0]
        try:
            minimize_step(ops64, double_well(), u1, z, 0.01,
                          solver=SolverParams(max_iter=1), warm_start=z)
        except SolverFailure as failure:
            assert failure.residual > 1e-9 * (1 + failure.residual)
        else:
            pytest.fail("expected SolverFailure")

    def test_vi_inactive_reduces_to_el(self, ops64):
        # obstacle far below: no contact, interior physics
        g = np.full(ops64.n_free, -100.0)
        cfg = eigenmode_config(ops64, k=1, n_steps=16, obstacle=g,
                               solver=SolverParams())
        traj = run(cfg)
        for i in (1, 8):
            min_dual, compl = vi_residuals(ops64, cfg.potential, traj, i, g)
            tol = traj.tols[i - 1]
            assert min_dual >= -tol
            assert el_residual(ops64, cfg.potential, traj, i) <= tol
            slack = traj.u(i) - g
            assert compl <= tol * (1 + np.sqrt(slack @ (ops64.M @ slack)))

    def test_explicit_tolerance_respected(self, ops64):
        cfg = eigenmode_config(ops64, k=1, n_steps=16,
                               solver=SolverParams(tol=1e-6))
        traj = run(cfg)
        assert np.all(traj.tols == 1e-6)
        assert np.all(traj.residuals <= 1e-6)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_vi_semilinear_fractional_contact(self, s):
        # the general constrained case: nonlinear potential, nonlocal order
        ops = make_line_ops(64, s=s)
        x = ops.mesh.nodes[ops.mesh.free]
        g = np.full(ops.n_free, -0.4)
        cfg = SchemeConfig(T=0.5, n_steps=64, ops=ops, potential=double_well(),
                           u0=np.zeros(ops.n_free), v0=-3.0 * np.sin(np.pi * x),
                           obstacle=g)
        traj = run(cfg)
        touched = False
        for i in range(1, 65):
            assert np.all(traj.u(i) >= g)
            touched = touched or bool(np.any(traj.u(i) == g))
            min_dual, compl = vi_residuals(ops, cfg.potential, traj, i, g)
            tol = traj.tols[i - 1]
            slack = traj.u(i) - g
            assert min_dual >= -tol
            assert compl <= tol * (1 + np.sqrt(slack @ (ops.M @ slack)))
        assert touched

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vi_random_obstacle_shapes(self, ops64, seed):
        # non-constant obstacles: feasibility stays exact and both residual
        # contracts hold at every step
        rng = np.random.default_rng(seed)
        x = ops64.mesh.nodes[ops64.mesh.free]
        g = -0.3 - 0.2 * rng.random(ops64.n_free)
        v0 = -rng.uniform(2.0, 4.0) * np.sin(np.pi * x)
        cfg = SchemeConfig(T=0.5, n_steps=48, ops=ops64, potential=double_well(),
                           u0=np.zeros(ops64.n_free), v0=v0, obstacle=g)
        traj = run(cfg)
        for i in range(1, 49):
            assert np.all(traj.u(i) >= g)
            min_dual, compl = vi_residuals(ops64, cfg.potential, traj, i, g)
            tol = traj.tols[i - 1]
            slack = traj.u(i) - g
            assert min_dual >= -tol
            assert compl <= tol * (1 + np.sqrt(slack @ (ops64.M @ slack)))

    def test_vi_contact_complementarity(self, ops64):
        x = ops64.mesh.nodes[ops64.mesh.free]
        g = np.full(ops64.n_free, -0.5)
        cfg = SchemeConfig(T=0.5, n_steps=64, ops=ops64, potential=zero_potential(),
                           u0=np.zeros(ops64.n_free), v0=-4.0 * np.sin(np.pi * x),
                           obstacle=g)
        traj = run(cfg)
        touched = False
        for i in range(1, 65):
            assert np.all(traj.u(i) >= g)
            touched = touched or np.any(traj.u(i) == g)
            min_dual, compl = vi_residuals(ops64, cfg.potential, traj, i, g)
            tol = traj.tols[i - 1]
            slack = traj.u(i) - g
            assert min_dual >= -tol
            assert compl <= tol * (1 + np.sqrt(slack @ (ops64.M @ slack)))
        assert touched

    def test_step_gradient_is_the_last_evaluation_of_the_step(self, ops64):
        # the gradient the step's stationarity test measured: its M^-1 norm
        # is the recorded residual, bit for bit, on an obstacle-free run
        cfg = eigenmode_config(ops64, k=1, n_steps=8, potential=double_well())
        traj = run(cfg)
        for i in range(1, 9):
            r = step_gradient(ops64, cfg.potential, traj, i)
            assert ops64.dual_norm(r) == traj.residuals[i - 1]
            assert el_residual(ops64, cfg.potential, traj, i) == traj.residuals[i - 1]
        for i in (0, 9):
            with pytest.raises(ConfigurationError, match="step index"):
                step_gradient(ops64, cfg.potential, traj, i)


@st.composite
def obstacle_runs(draw):
    """Obstacle configs on line meshes of 8-64 cells with both ends fixed at
    0, uniform or not, at s in {1/2, 1}, with the zero, quadratic or
    double-well potential, an obstacle at or below u0 (constant, or a random
    smooth profile) and tau with 1/tau^2 above max(-W'') = 6."""
    n_cells = draw(st.integers(8, 64))
    if draw(st.booleans()):
        mesh = build_mesh(0.0, 1.0, n_cells, dirichlet=(0.0, 0.0))
    else:
        widths = draw(st.lists(st.floats(0.5, 2.0), min_size=n_cells,
                               max_size=n_cells))
        mesh = Mesh1D(nodes=np.r_[0.0, np.cumsum(widths)] / sum(widths),
                      dirichlet=(0.0, 0.0))
    ops = build_operators(mesh, draw(st.sampled_from([0.5, 1.0])))
    potential = draw(st.sampled_from([zero_potential(), double_well(),
                                      quadratic(draw(st.floats(0.0, 10.0)))]))
    x = mesh.nodes[mesh.free] / mesh.nodes[-1]
    amp = st.floats(-1.0, 1.0)
    u0 = draw(amp) * np.sin(np.pi * x) + draw(amp) * np.sin(2 * np.pi * x)
    v0 = 5.0 * draw(amp) * np.sin(np.pi * x) + draw(amp) * np.sin(3 * np.pi * x)
    profile = (draw(amp) * np.sin(np.pi * x) + draw(amp) * np.cos(3 * np.pi * x)
               if draw(st.booleans()) else np.zeros_like(x))
    # the profile shifted to touch u0 from below; the minimum undoes the
    # shift's rounding
    g = (np.minimum(profile - np.max(profile - u0), u0)
         - draw(st.sampled_from([0.0, 0.01, 0.3])))
    n_steps = draw(st.integers(2, 12))
    tau = draw(st.floats(0.005, 0.4))
    return SchemeConfig(T=tau * n_steps, n_steps=n_steps, ops=ops,
                        potential=potential, u0=u0, v0=v0, obstacle=g)


class TestVariationalInequalityProperty:
    # every trajectory run returns is feasible and meets criterion 06's
    # budget at every step: min dual density >= -10 tol, complementarity
    # <= 10 tol (1 + |u_i - g|_M).  A SolverFailure is run's stated
    # contract for a step it cannot resolve; any other exception fails
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cfg=obstacle_runs())
    def test_every_returned_trajectory_meets_the_budget(self, cfg):
        try:
            traj = run(cfg)
        except SolverFailure:
            return
        ops, g = cfg.ops, cfg.obstacle
        assert np.all(traj.states[1:] >= g)
        for i in range(1, traj.n_steps + 1):
            min_dual, compl = vi_residuals(ops, cfg.potential, traj, i, g)
            tol = traj.tols[i - 1]
            slack = traj.u(i) - g
            assert min_dual >= -10 * tol
            assert compl <= 10 * tol * (1 + np.sqrt(slack @ (ops.M @ slack)))
