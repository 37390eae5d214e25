"""Acceptance gate: every shipped criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import json

import numpy as np
import pytest

from fracwave import (SchemeConfig, build_mesh, build_operators, run,
                      seminorm_s, vi_residuals)
from fracwave.cli import cmd_run, parse_config
from fracwave.diagnostics import (check_gronwall_sequence, convergence_study,
                                  energy_drift, gl_energy_accounting,
                                  no_contact_check, oracle_recurrence)
from fracwave.potentials import double_well, gl_scaled, zero_potential

from conftest import (eigenmode_config, endpoint_power_bound, half_power_composition,
                      make_line_ops, sine_eigen_residual_bound)

DRIFT_FLOOR = 1e-10
# criteria 06 and 07 hold the paper's fractional obstacle problem and the
# classical one to the same budgets
OBSTACLE_ORDERS = (0.5, 1.0)


def report(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def obstacle_trajectories():
    """Shared scenario for criteria 6 and 7: flat obstacle under a string
    swung downward, at the fractional order s = 1/2 and at s = 1."""
    mesh = build_mesh(0, 1, 128, dirichlet=(0.0, 0.0))
    x = mesh.nodes[mesh.free]
    out = {}
    for s in OBSTACLE_ORDERS:
        ops = build_operators(mesh, s)
        g = np.full(ops.n_free, -0.5)
        runs = {}
        for n in (128, 256, 512):
            cfg = SchemeConfig(T=1.0, n_steps=n, ops=ops, potential=zero_potential(),
                               u0=np.zeros(ops.n_free), v0=-4.0 * np.sin(np.pi * x),
                               obstacle=g)
            runs[n] = (cfg, run(cfg))
        out[s] = (ops, g, runs)
    return out


def test_criterion_01_cosine_law(tmp_path):
    cfg = parse_config(write_preset(tmp_path, {"preset": "gl_interface"}))
    assert (cfg.gl_eps, cfg.u0_r0, cfg.n_cells, cfg.n_steps, cfg.T) == \
        (0.05, 0.4, 400, 900, 0.45)
    written = cmd_run(cfg, tmp_path / "out")
    rows = [line.split(",") for line in
            written["interface"].read_text().strip().splitlines()[1:]]
    errs = np.array([float(err) for t, _, _, err in rows if float(t) <= 0.3 + 1e-12])
    # a sample without a crossing reads nan: the interface was lost there
    lost = int(np.count_nonzero(~np.isfinite(errs)))
    worst = float(np.max(errs))
    report("01 cosine-law", errs.size >= 30 and lost == 0 and worst <= 0.10,
           f"{errs.size} samples on [0, 0.3], {lost} without a crossing, "
           f"max |R - R0 cos(t/R0)|/R0 = {worst:.4f}")


def write_preset(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_criterion_02_key_estimate():
    # start on the ground mode with a swing through the concave well region
    ops = make_line_ops(64, s=1.0)
    drifts, bands, taus = {}, {}, {}
    e0 = None
    for n in (128, 256, 512):
        traj = run(eigenmode_config(ops, k=1, amp=0.8, n_steps=n,
                                    potential=double_well()))
        max_drift, series = energy_drift(traj)
        drifts[n] = max_drift
        bands[n] = float(np.max(np.abs(series)))
        taus[n] = traj.tau
        e0 = traj.energies[0, 3]
    floor = DRIFT_FLOOR * (1 + e0)
    # one-sided bound with C fitted at the finest level
    c_fit = 2.0 * max(drifts[512], floor) / taus[512]
    bound_ok = all(drifts[n] <= c_fit * taus[n] + floor for n in (128, 256))
    # the stated ratio check applies whenever positive excess is resolved;
    # this scheme dissipates, so the O(tau) decay band carries the signal
    ratio_checks = []
    for n in (128, 256):
        if drifts[n] > floor:
            ratio_checks.append(drifts[n] / max(drifts[2 * n], floor) >= 1.5)
        ratio_checks.append(bands[n] / bands[2 * n] >= 1.5)
    report("02 key-estimate",
           bound_ok and all(ratio_checks),
           f"max excess {max(drifts.values()):.2e} (<= C*tau with C={c_fit:.3e}), "
           f"band ratios {bands[128] / bands[256]:.2f}, {bands[256] / bands[512]:.2f}")


def test_criterion_03_energy_conservation():
    ops = make_line_ops(64, s=1.0)
    u0 = ops.Phi[:, 0] + 0.3 * ops.Phi[:, 2]
    v0 = ops.Phi[:, 1].copy()
    deviations = {}
    for n in (128, 256, 512):
        cfg = SchemeConfig(T=1.0, n_steps=n, ops=ops, potential=double_well(),
                           u0=u0.copy(), v0=v0.copy(), init_mode="smoothed")
        traj = run(cfg)
        deviations[n] = float(np.max(np.abs(traj.energies[:, 3]
                                            - traj.energies[0, 3])))
    r1 = deviations[128] / deviations[256]
    r2 = deviations[256] / deviations[512]
    report("03 energy-conservation", r1 >= 1.5 and r2 >= 1.5,
           f"max|E - E0| = {deviations[128]:.3e}/{deviations[256]:.3e}/"
           f"{deviations[512]:.3e}, ratios {r1:.2f}, {r2:.2f}")


def test_criterion_04_oracle_linear():
    worst = 0.0
    for s in (0.5, 1.0):
        ops = make_line_ops(64, s=s)
        for k in (1, 2, 5):
            cfg = eigenmode_config(ops, k=k, n_steps=256)
            traj = run(cfg)
            lam_s = ops.lam[k - 1] ** s
            coeff = np.array([ops.Phi[:, k - 1] @ (ops.M @ traj.u(i))
                              for i in range(-1, 257)])
            oracle = oracle_recurrence(lam_s, 1.0, 1.0, traj.tau, 257)
            dev = float(np.max(np.abs(coeff - oracle))) / (10 * traj.tols.max())
            worst = max(worst, dev)
    report("04 oracle-linear", worst <= 1.0,
           f"worst deviation = {worst:.2e} of the 10*tol budget")


def test_criterion_05_oracle_semilinear():
    ops = make_line_ops(64, s=1.0)
    u0 = ops.Phi[:, 0] + 0.3 * ops.Phi[:, 2]
    cfg = SchemeConfig(T=1.0, n_steps=128, ops=ops, potential=double_well(),
                       u0=u0, v0=np.zeros(ops.n_free))
    rep = convergence_study(cfg, [128, 256, 512])
    errs = rep.errors()
    report("05 oracle-semilinear",
           rep.error_slope >= 0.8 and np.all(np.diff(errs) < 0),
           f"errors {errs[0]:.3e} -> {errs[2]:.3e}, slope {rep.error_slope:.3f}")


def test_criterion_06_obstacle_contract(obstacle_trajectories):
    for s, (ops, g, runs) in obstacle_trajectories.items():
        feasible = True
        worst_dual = 0.0   # in units of 10*tol
        worst_compl = 0.0
        drifts, taus = {}, {}
        for n, (cfg, traj) in runs.items():
            for i in range(1, n + 1):
                if np.any(traj.u(i) < g):
                    feasible = False
                min_dual, compl = vi_residuals(ops, cfg.potential, traj, i, g)
                tol = traj.tols[i - 1]
                slack = traj.u(i) - g
                norm = np.sqrt(slack @ (ops.M @ slack))
                worst_dual = max(worst_dual, -min_dual / (10 * tol))
                worst_compl = max(worst_compl, compl / (10 * tol * (1 + norm)))
            max_drift, _ = energy_drift(traj)
            drifts[n], taus[n] = max_drift, traj.tau
        e0 = runs[128][1].energies[0, 3]
        floor = DRIFT_FLOOR * (1 + e0)
        c_fit = 2.0 * max(drifts[512], floor) / taus[512]
        energy_ok = all(drifts[n] <= c_fit * taus[n] + floor for n in (128, 256))
        report(f"06 obstacle-contract s={s:g}",
               feasible and worst_dual <= 1.0 and worst_compl <= 1.0 and energy_ok,
               f"feasible={feasible}, dual {worst_dual:.2f} and complementarity "
               f"{worst_compl:.2f} of the 10*tol budget, max excess "
               f"{max(drifts.values()):.2e} <= C*tau with C={c_fit:.3e}")


def test_criterion_07_no_contact(obstacle_trajectories):
    for s, (ops, g, runs) in obstacle_trajectories.items():
        worst = 0.0
        masked = None
        for n, (cfg, traj) in runs.items():
            mask, resid = no_contact_check(traj, g, 0.1)
            if n == 512:
                masked = int(mask.sum())
            worst = max(worst, resid / (10 * traj.tols.max()))
        report(f"07 no-contact s={s:g}", masked and masked > 0 and worst <= 1.0,
               f"mask {masked}/{ops.n_free} nodes at n=512, worst masked residual "
               f"{worst:.2e} of the 10*tol budget")


def test_criterion_08_appendix_suite():
    rng = np.random.default_rng(2024)
    gronwall_ok = True
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
        gronwall_ok &= bool(np.all(y <= bound + 1e-12 * (1 + bound)))

    poincare_ok = True
    worst_slack = -np.inf
    for s in (0.0, 0.5, 1.0):
        ops = make_line_ops(32, s=s)
        c = ops.lam[0] ** (-s / 2.0)
        for _ in range(1000):
            u = rng.standard_normal(ops.n_free)
            lhs = np.sqrt(u @ (ops.M @ u))
            rhs = c * seminorm_s(ops, u)
            worst_slack = max(worst_slack, lhs - rhs)
            poincare_ok &= lhs <= rhs + 1e-12
    report("08 appendix-suite", gronwall_ok and poincare_ok,
           f"1000 growth sequences bounded, 3x1000 norm checks with worst "
           f"slack {worst_slack:.2e} <= 1e-12")


def test_criterion_09_gl_energy_scaling():
    r0 = 0.4
    scaled0, mms = [], []
    for eps in (0.1, 0.05, 0.025):
        n_cells = int(np.ceil(2.0 / eps))  # h = eps/2
        mesh = build_mesh(0, 1, n_cells, geometry="radial", dim=2,
                          dirichlet=(None, -1.0))
        ops = build_operators(mesh, 1.0)
        r = mesh.nodes[mesh.free]
        cfg = SchemeConfig(T=0.45, n_steps=900, ops=ops,
                           potential=gl_scaled(double_well(), eps),
                           u0=np.tanh((r0 - r) / (2 * eps)),
                           v0=np.zeros(ops.n_free))
        traj = run(cfg)
        scaled, mm = gl_energy_accounting(traj)
        scaled0.append(float(scaled[0]))
        mms.append(mm)
    band_e = max(scaled0) / min(scaled0)
    band_mm = max(mms) / min(mms)
    report("09 gl-energy-scaling", band_e <= 4.0 and band_mm <= 4.0,
           f"scaled-energy band {band_e:.2f}, space-time band {band_mm:.2f} "
           f"(both <= 4)")


def test_criterion_10_operator_identities():
    # each identity against the bound its error model derives (conftest)
    checks = []
    for n in (8, 64):
        # A_s is the assembled form at s in {0, 1}; the spectral power of the
        # same pair must reproduce it
        for s, form in ((1.0, "K"), (0.0, "M")):
            ops = make_line_ops(n, s=s)
            target = getattr(ops, form)
            power, bound = endpoint_power_bound(ops, s)
            checks.append(ops.A_s is target)
            checks.append(np.all(np.abs(power - target.toarray()) <= bound))
        # the sine backend at s = 1/2: A M^-1 A = K, and its closed-form pairs
        oph = make_line_ops(n, s=0.5)
        comp, bound = half_power_composition(oph)
        checks.append(np.all(np.abs(comp - oph.K.toarray()) <= bound))
        for k, bound in enumerate(sine_eigen_residual_bound(oph)):
            r = oph.K @ oph.Phi[:, k] - oph.lam[k] * (oph.M @ oph.Phi[:, k])
            checks.append(np.linalg.norm(r) <= bound)
    report("10 operator-identities", all(checks),
           f"{len(checks)} identity checks against derived round-off bounds")
