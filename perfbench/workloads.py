"""Workload definitions: CLI configs, seed perturbation, output checks and
accuracy references.

Each workload is a flat config that goes through the public CLI path
(`parse_config` -> `build_problem` -> `run` -> `cmd_run`'s output).  The seed
moves one or two initial-data parameters by at most `PERTURB` (relative), so
that different seeds give different but equally hard inputs; seed 0 gives the
configs unchanged.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
from scipy.fft import dst

from fracwave import fractional_apply, vi_residuals
from fracwave.cli import PRESETS
from fracwave.diagnostics import oracle_mol

PERTURB = 0.02

# frac_line's relative M-norm gap at T against the method-of-lines reference
# is first order in tau: about 0.76 * tau both at 96 steps (smoke size) and at
# 768 steps (benchmark size).  The bound allows twice that constant, so a
# solver change that keeps first-order accuracy passes, while a wrong time
# step leaves an order-one gap and fails.  The reference integrates the
# program's own A_s, so the operator is checked on its own, below.
FRAC_LINE_GAP_PER_TAU = 1.5

# On frac_line's uniform mesh of the unit interval with both ends Dirichlet,
# M and K are tridiagonal Toeplitz and the orthonormal DST-I S diagonalises
# both: A_s = S diag(m_k lambda_k^s) S with m_k = h (2 + cos t_k) / 3,
# lambda_k = 2 (1 - cos t_k) / (h m_k), t_k = k pi h.  The dense eigensolve
# reproduces that to about 1e-14.
FRAC_LINE_APPLY_TOL = 1e-9

# Criterion 01 of the acceptance gate: the cosine law on t <= 0.3.
GL_T_CHECK = 0.3
GL_MIN_SAMPLES = 30
GL_ERR_MAX = 0.10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    tiny: dict            # overrides for the smoke test
    perturbed: tuple      # keys scaled by the seed


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "gl_interface",
            {"preset": "gl_interface"},
            {"n_cells": 100, "n_steps": 300, "snapshot_stride": 5},
            ("u0_r0",)),
        Workload(
            "obstacle_wave",
            {"preset": "obstacle_wave", "n_cells": 256, "n_steps": 512},
            {"n_cells": 32, "n_steps": 64},
            ("v0_amp",)),
        Workload(
            "frac_line",
            {"preset": "eigenmode", "n_cells": 384, "s": 0.5, "T": 0.75,
             "n_steps": 768, "potential": "double_well",
             "u0_kind": "sine", "u0_amp": 0.5, "v0_kind": "sine",
             "v0_amp": 1.0, "precondition": "spectral"},
            {"n_cells": 48, "n_steps": 96},
            ("u0_amp", "v0_amp")),
    )
}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The flat config of workload `name` for `seed`."""
    w = WORKLOADS[name]
    cfg = dict(w.config)
    if tiny:
        cfg.update(w.tiny)
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        for key in w.perturbed:
            base = cfg[key] if key in cfg else PRESETS[cfg["preset"]][key]
            cfg[key] = base * (1.0 + PERTURB * rng.uniform(-1.0, 1.0))
    return cfg


def _m_norm(ops, x) -> float:
    return float(np.sqrt(max(x @ (ops.M @ x), 0.0)))


def check_energy_csv(path, n_steps: int) -> list:
    rows = path.read_text().strip().splitlines()[1:]
    if len(rows) != n_steps + 1:
        return [f"energy.csv has {len(rows)} rows, expected {n_steps + 1}"]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    if not np.all(np.isfinite(values)):
        return ["energy.csv holds non-finite values"]
    return []


def check_interface_csv(path) -> tuple:
    """(worst relative radius error on t <= 0.3, problems).  A sample without
    a crossing reads NaN; it makes the worst error infinite, because `max`
    would skip it."""
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    errs = [float(err) for t, _, _, err in rows if float(t) <= GL_T_CHECK + 1e-12]
    worst = max(errs) if errs and all(map(math.isfinite, errs)) else math.inf
    problems = []
    if len(errs) < GL_MIN_SAMPLES:
        problems.append(f"{len(errs)} interface samples on [0, {GL_T_CHECK}], "
                        f"need {GL_MIN_SAMPLES}")
    if not worst <= GL_ERR_MAX:
        problems.append(f"interface error {worst:.4f} > {GL_ERR_MAX}")
    return worst, problems


def obstacle_stats(traj) -> dict:
    """Contact and variational-inequality figures of an obstacle run, the
    latter in units of criterion 06's 10*tol budget."""
    cfg = traj.config
    ops, g = cfg.ops, cfg.obstacle
    states = traj.states[2:]                     # u_1..u_n
    contact = np.sum(states <= g, axis=1)
    margin = 0.0
    for i in range(1, traj.n_steps + 1):
        min_dual, compl = vi_residuals(ops, cfg.potential, traj, i, g)
        tol = traj.tols[i - 1]
        norm = _m_norm(ops, traj.u(i) - g)
        margin = max(margin, -min_dual / (10 * tol),
                     compl / (10 * tol * (1 + norm)))
    return {"feasible": bool(np.all(states >= g)),
            "contact_steps": int(np.count_nonzero(contact)),
            "contact_max": int(contact.max()),
            "vi_margin": float(margin),
            "first_contact": int(np.argmax(contact > 0)) + 1 if contact.any() else None}


def check_obstacle(stats) -> list:
    problems = []
    if not stats["feasible"]:
        problems.append("a state falls below the obstacle")
    if not stats["vi_margin"] <= 1.0:
        problems.append(f"VI residual {stats['vi_margin']:.2f} of the 10*tol budget")
    if stats["contact_steps"] == 0:
        problems.append("no contact with the obstacle")
    return problems


def check_outputs(name: str, rep: dict, traj, written: dict) -> list:
    """Output checks of one repetition; the empty list means it passed.
    Stores gl_interface's radius error and obstacle_wave's contact figures
    in `rep`."""
    problems = check_energy_csv(written["energy"], traj.n_steps)
    if name == "gl_interface":
        if "interface" not in written:
            return problems + ["no interface.csv written"]
        rep["ref_err"], more = check_interface_csv(written["interface"])
        problems += more
    if name == "obstacle_wave":
        rep["obstacle"] = obstacle_stats(traj)
        problems += check_obstacle(rep["obstacle"])
    if name == "frac_line":
        err = fractional_apply_error(traj.config.ops, WORKLOADS[name].config["s"])
        if not err <= FRAC_LINE_APPLY_TOL:
            problems.append(f"A_s u is off the DST closed form by {err:.2e}")
    return problems


def fractional_apply_error(ops, s: float) -> float:
    """Relative error of `fractional_apply` on a fixed random vector against
    the closed form above."""
    n = ops.n_free
    h = 1.0 / (n + 1)
    t = np.pi * h * np.arange(1, n + 1)
    m = h * (2.0 + np.cos(t)) / 3.0
    lam = 2.0 * (1.0 - np.cos(t)) / (h * m)
    u = np.random.default_rng(0).standard_normal(n)
    ref = dst(m * lam**s * dst(u, type=1, norm="ortho"), type=1, norm="ortho")
    return float(np.linalg.norm(fractional_apply(ops, u) - ref) / np.linalg.norm(ref))


def check_reference(name: str, ref_err: float, tau: float) -> list:
    bound = FRAC_LINE_GAP_PER_TAU * tau
    if name == "frac_line" and not ref_err <= bound:
        return [f"ref_err {ref_err:.3e} > {bound:.3e}"]
    return []


def reference_error(name: str, traj, stats=None) -> float:
    """Relative M-norm gap against `oracle_mol`.

    frac_line compares at T.  obstacle_wave compares at the last step before
    first contact: up to there the constrained and the free evolution
    coincide, so the obstacle-free reference applies.
    """
    cfg = traj.config
    if name == "obstacle_wave":
        n = stats["first_contact"] - 1
        cfg = dataclasses.replace(cfg, obstacle=None, n_steps=n, T=traj.tau * n)
    else:
        n = traj.n_steps
    # RK4 substeps so that h * omega_max <= 0.1 for the fastest mode: the
    # reference's own error is then far below the scheme's O(tau) gap, at a
    # fraction of the cost of oracle_mol's default 50 substeps.
    omega_max = float(np.max(cfg.ops.lam)) ** (cfg.ops.s / 2.0)
    substeps = max(1, math.ceil(10.0 * traj.tau * omega_max))
    ref = oracle_mol(cfg, substeps=substeps).terminal()
    return _m_norm(cfg.ops, traj.u(n) - ref) / _m_norm(cfg.ops, ref)
