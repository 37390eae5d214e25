"""Verification instruments: discrete Gronwall bound, energy-drift and
convergence studies, independent reference integrators, interface tracking,
interface-energy accounting, and no-contact residual checks.

The rules of the eps-interface model live here, each stated once: when the
model has a sharp-interface limit (sharp_interface_fault), when a run's
front follows the cosine law (cosine_law_fault), when a mesh resolves the
front (resolves_interface), which steps are sampled (sampled_steps) and
where the front is at a step (front_radius).  The CLI asks them and states
none of them itself."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericError
from .operators import Mesh1D, rounding_gamma
from .potentials import DoubleWellPotential, Potential, ScaledPotential
from .stepper import SchemeConfig, Trajectory, effective_v0, run, step_gradient


def discrete_gronwall_bound(A: float, B: float, N: int) -> float:
    """Bound A * exp(B) for sequences with y_0 = 0 and
    y_n <= A + (B/N) * sum_{j<n} y_j."""
    if not (A >= 0 and B >= 0):
        raise ConfigurationError("Gronwall constants must be non-negative numbers")
    if N < 1:
        raise ConfigurationError("need N >= 1")
    return float(A) * float(np.exp(B))


def check_gronwall_sequence(y, A: float, B: float) -> float:
    """Validate the Gronwall hypothesis for y and assert the bound.

    Returns A * exp(B).  Raises with the index of the first violation if the
    hypothesis fails; raises NumericError if the bound itself were exceeded
    (impossible for a genuine hypothesis-satisfying sequence).

    Each test allows the rounding of its own arithmetic and nothing more
    (operators.rounding_gamma).  The right-hand side A + (B/N) sum_{j<n} y_j
    of y_n has nonnegative terms and takes at most N + 2 roundings (the
    cumulative sum's N - 1, B/N, the product and the sum), so its computed
    value lies within gamma_(N+2) of the exact one, and y_n breaks the
    hypothesis where it exceeds the computed value over 1 - gamma, with
    gamma = gamma_(N+4) for the two roundings of that quotient.  A
    sequence that passes meets the hypothesis with A and B/N scaled by
    1 + theta, theta = 2 gamma / (1 - gamma), so by induction
    y_n <= (1 + theta) A (1 + (1 + theta) B/N)^(n-1)
    <= (1 + theta) e^(theta B) A e^B.  The computed A e^B lies within
    gamma_3 of the exact one (exp within one ulp, the product), and that
    limit takes six roundings more, so y exceeds its bound where it
    exceeds the computed bound times (1 + theta) e^(theta B) / (1 - gamma_9).
    """
    y = np.asarray(y, dtype=float)
    N = y.size - 1
    bound = discrete_gronwall_bound(A, B, N)
    if y[0] != 0.0:
        raise ConfigurationError("hypothesis violated at index 0: y_0 must be 0")
    if not np.all(y >= 0):
        raise ConfigurationError(
            f"hypothesis violated at index {int(np.argmax(~(y >= 0)))}: "
            "negative or NaN term")
    partial = np.concatenate(([0.0], np.cumsum(y)[:-1]))
    rhs = A + (B / N) * partial
    gamma = rounding_gamma(N + 4)
    bad = y > rhs / (1.0 - gamma)
    if np.any(bad):
        raise ConfigurationError(f"hypothesis violated at index {int(np.argmax(bad))}")
    theta = 2.0 * gamma / (1.0 - gamma)
    if np.any(y > bound * (1.0 + theta) * np.exp(theta * B) / (1.0 - rounding_gamma(9))):
        raise NumericError("sequence exceeds its Gronwall bound")
    return bound


def energy_drift(traj: Trajectory):
    """(max_i E_i - E_0, full drift series).  Negative drifts are legitimate:
    obstacle contact dissipates energy."""
    totals = traj.energies[:, 3]
    series = totals - totals[0]
    return float(series.max()), series


def oracle_recurrence(lambda_s: float, a0: float, a1: float, tau: float,
                      n: int) -> np.ndarray:
    """Exact per-mode solution of the scheme: series of n + 1 coefficients
    starting from (a0, a1) with a_i = (2 a_{i-1} - a_{i-2}) / (1 + tau^2 * lambda_s).

    Bitwise independent of the minimization path, so it can serve as an
    oracle for eigenmode runs.
    """
    if lambda_s < 0:
        raise ConfigurationError("lambda_s must be >= 0")
    out = np.empty(n + 1)
    out[0] = a0
    if n >= 1:
        out[1] = a1
    denom = 1.0 + tau**2 * lambda_s
    for i in range(2, n + 1):
        out[i] = (2.0 * out[i - 1] - out[i - 2]) / denom
    return out


@dataclass(frozen=True)
class MolReference:
    """States of the semidiscrete system at the scheme's grid times."""

    times: np.ndarray
    states: np.ndarray      # (n + 1, n_free)

    def terminal(self) -> np.ndarray:
        return self.states[-1]


def oracle_mol(config: SchemeConfig, substeps: int = 50) -> MolReference:
    """Independent reference: classical fourth-order one-step integration of
    u'' = -M^{-1}(A_s u + load + lumped W'(u)) at substep tau/substeps.

    Uses the same effective initial velocity as the scheme so both
    discretizations target the same trajectory.
    """
    if config.obstacle is not None:
        raise ConfigurationError("reference integrator handles obstacle-free runs only")
    config.validate()
    ops = config.ops
    n = config.n_steps
    tau = config.T / n
    h = tau / substeps

    def accel(u):
        return -ops.solve_mass(ops.A_s @ u + ops.lift_load
                               + ops.lumps * config.potential.gradient(u))

    u = np.array(config.u0, dtype=float)
    v = effective_v0(config)
    states = np.empty((n + 1, ops.n_free))
    states[0] = u
    for i in range(1, n + 1):
        for _ in range(substeps):
            k1u, k1v = v, accel(u)
            k2u, k2v = v + 0.5 * h * k1v, accel(u + 0.5 * h * k1u)
            k3u, k3v = v + 0.5 * h * k2v, accel(u + 0.5 * h * k2u)
            k4u, k4v = v + h * k3v, accel(u + h * k3u)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NumericError(f"reference integration blew up before step {i}")
        states[i] = u
    return MolReference(times=tau * np.arange(n + 1), states=states)


@dataclass(frozen=True)
class RefinementRow:
    n: int
    tau: float
    error: float        # terminal M-norm gap against the reference
    max_drift: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    error_slope: float  # fitted exponent of error ~ tau^p
    drift_slope: float

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.rows])

    def drifts(self) -> np.ndarray:
        return np.array([r.max_drift for r in self.rows])


def _loglog_slope(taus, values) -> float:
    mask = np.asarray(values) > 0
    if mask.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(np.asarray(taus)[mask]),
                            np.log(np.asarray(values)[mask]), 1)[0])


def convergence_study(base_config: SchemeConfig, n_list) -> ConvergenceReport:
    """Rerun the scheme over a refinement ladder and compare terminal states
    to the reference integrator in the M-norm.

    The reference integrator cannot follow a constrained evolution, so for
    obstacle runs the error column is nan and only the drift column is
    meaningful.  On a failing refinement the original error is re-raised with
    the rows completed so far attached as `partial_rows`.
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigurationError("need at least 3 strictly increasing refinement levels")
    ops = base_config.ops
    rows = []
    for n in n_list:
        cfg = replace(base_config, n_steps=int(n))
        try:
            traj = run(cfg)
            ref = oracle_mol(cfg) if cfg.obstacle is None else None
        except Exception as exc:
            exc.partial_rows = tuple(rows)
            raise
        if ref is None:
            err = float("nan")
        else:
            gap = traj.u(n) - ref.terminal()
            err = float(np.sqrt(max(gap @ (ops.M @ gap), 0.0)))
        rows.append(RefinementRow(n=int(n), tau=cfg.T / n, error=err,
                                  max_drift=energy_drift(traj)[0]))
    taus = [r.tau for r in rows]
    return ConvergenceReport(
        rows=tuple(rows),
        error_slope=_loglog_slope(taus, [r.error for r in rows]),
        drift_slope=_loglog_slope(taus, [max(r.max_drift, 0.0) for r in rows]),
    )


def interface_radius(mesh: Mesh1D, u: np.ndarray) -> float:
    """Innermost sign change of the nodal profile u (all nodes), located by
    linear interpolation between the bracketing nodes; nan without one, as
    every output file writes a lost front."""
    u = np.asarray(u, dtype=float)
    if u.shape != mesh.nodes.shape:
        raise ConfigurationError("expected one value per mesh node")
    # a crossing at each zero node, and in each cell whose ends differ in sign
    zero = u == 0.0
    crossings = np.flatnonzero(zero | np.r_[u[:-1] * u[1:] < 0.0, False])
    if crossings.size == 0:
        return np.nan
    if crossings.size > 1:
        warnings.warn(f"{crossings.size} sign changes; reporting the innermost",
                      RuntimeWarning, stacklevel=2)
    j = crossings[0]
    x = mesh.nodes
    if zero[j]:
        return float(x[j])
    return float(x[j] + (x[j + 1] - x[j]) * u[j] / (u[j] - u[j + 1]))


def cosine_reference(R0: float, t: float) -> float:
    """Collapsing-interface reference radius R0 * cos(t / R0), defined while
    the interface exists (0 <= t < R0 * pi / 2)."""
    if R0 <= 0:
        raise ConfigurationError("R0 must be positive")
    if not 0.0 <= t < R0 * np.pi / 2.0:
        raise ValueError(f"time {t} outside [0, R0*pi/2)")
    return float(R0 * np.cos(t / R0))


def resolves_interface(span: float, n_cells: int, eps: float) -> bool:
    """Whether n_cells equal cells over span resolve a front of width eps:
    the resolution rule h = span / n_cells <= eps/2.  Its one statement:
    the CLI warns on a config that breaks it, and sweep-eps meshes each eps
    with the fewest cells that keep it."""
    return span / n_cells <= eps / 2.0


def sharp_interface_fault(potential: Potential, s: float) -> str | None:
    """Why the sharp-interface limit of the eps-scaled model does not hold
    for this potential and order s, or None when it does.  The one model
    rule of the interface instruments: the cosine law (cosine_law_fault),
    the interface-energy accounting (gl_energy_accounting,
    lagrangian_density) and the CLI's eps sweep all ask it.  It needs s = 1
    and the eps-scaled double well, whose two wells the front joins."""
    if not (isinstance(potential, ScaledPotential)
            and isinstance(potential.inner, DoubleWellPotential)):
        return "needs an eps-scaled double-well config"
    if s != 1.0:
        return "assumes s = 1"
    return None


def cosine_law_fault(scheme: SchemeConfig) -> str | None:
    """Why a front of this run is not measured against R0 cos(t / R0), or
    None when it is.  The law is the sharp-interface limit
    (sharp_interface_fault) of a circle that starts at rest: it needs a
    radial mesh in dim 2 (a sphere collapses by another law) and an initial
    velocity of 0 at every node, read from the built v0."""
    mesh = scheme.ops.mesh
    if mesh.geometry != "radial" or mesh.dim != 2:
        return "needs a radial mesh in dim 2"
    if np.any(scheme.v0):
        return "needs a front at rest (v0 = 0 at every node)"
    return sharp_interface_fault(scheme.potential, scheme.ops.s)


@dataclass(frozen=True)
class InterfaceTrace:
    """Measured zero-crossing radii against the cosine reference."""

    times: np.ndarray
    measured: np.ndarray   # nan where no crossing was found
    reference: np.ndarray
    rel_errors: np.ndarray


def sampled_steps(n_steps: int, stride: int) -> np.ndarray:
    """Every stride-th step of a run of n_steps, and its last: the rows of
    the CLI's snapshots and the samples of track_interface."""
    return np.r_[0:n_steps:stride, n_steps]


def front_radius(traj: Trajectory, i: int) -> float:
    """The interface radius (interface_radius) of the run's state at step i."""
    mesh = traj.config.ops.mesh
    return interface_radius(mesh, mesh.embed(traj.u(i)))


def track_interface(traj: Trajectory, r0: float, stride: int = 1) -> InterfaceTrace:
    """The interface radius of the run against the cosine law R0 cos(t / R0),
    at the steps sampled_steps(n, stride) while the law is defined; a lost
    front reads nan.  Raises ConfigurationError where the law does not hold
    for the run (cosine_law_fault)."""
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    fault = cosine_law_fault(traj.config)
    if fault is not None:
        raise ConfigurationError(f"cosine law {fault}")
    steps = sampled_steps(traj.n_steps, stride)
    steps = steps[steps * traj.tau < r0 * np.pi / 2.0]
    times = steps * traj.tau
    measured = np.array([front_radius(traj, i) for i in steps])
    reference = np.array([cosine_reference(r0, t) for t in times])
    return InterfaceTrace(times=times, measured=measured, reference=reference,
                          rel_errors=np.abs(measured - reference) / r0)


def _interface_eps(traj: Trajectory) -> float:
    """The run's eps, where its model has a sharp-interface limit
    (sharp_interface_fault); ConfigurationError with the reason otherwise."""
    fault = sharp_interface_fault(traj.config.potential, traj.config.ops.s)
    if fault is not None:
        raise ConfigurationError(f"interface accounting {fault}")
    return traj.config.potential.eps


def gl_energy_accounting(traj: Trajectory):
    """(series of eps * E_i, space-time interface-energy sum) of the run,
    with eps that of its potential.  Raises ConfigurationError where the
    run's model has no sharp-interface limit (sharp_interface_fault).

    The space-time sum accumulates eps * |grad_{t,x} u|^2 + W(u)/eps over the
    piecewise-constant interpolant: tau * sum_i [eps * (v_i^T M v_i
    + |grad u_i|^2) + eps * (scaled potential integral)].
    """
    eps = _interface_eps(traj)
    kin = traj.energies[:, 0]
    frac = traj.energies[:, 1]
    pot = traj.energies[:, 2]
    scaled = eps * traj.energies[:, 3]
    mm = traj.tau * float(np.sum(eps * (2.0 * kin[1:] + 2.0 * frac[1:] + pot[1:])))
    return scaled, mm


def lagrangian_density(traj: Trajectory, i: int) -> np.ndarray:
    """Scaled Lagrange density eps * [(-v^2 + |grad u|^2)/2 + W(u)/eps^2] of
    the run at step i and every node, with eps that of its potential and
    |grad u|^2 averaged onto nodes from cell gradients.  Raises
    ConfigurationError as gl_energy_accounting does."""
    eps = _interface_eps(traj)
    mesh = traj.config.ops.mesh
    u_full = mesh.embed(traj.u(i))
    v_full = mesh.embed(traj.v(i), boundary="zero")
    cell_grad_sq = (np.diff(u_full) / np.diff(mesh.nodes)) ** 2
    grad_sq = np.empty_like(u_full)
    grad_sq[0] = cell_grad_sq[0]
    grad_sq[-1] = cell_grad_sq[-1]
    grad_sq[1:-1] = 0.5 * (cell_grad_sq[:-1] + cell_grad_sq[1:])
    dens = 0.5 * (-v_full**2 + grad_sq) + traj.config.potential.value(u_full)
    return eps * dens


def no_contact_check(traj: Trajectory, g: np.ndarray, delta: float):
    """(mask of nodes staying delta above the obstacle at every step,
    max masked Euler-Lagrange residual over all steps).

    The masked residual uses the lumped mass weights so it stays local to the
    mask; it is bounded by the solver tolerance wherever contact never
    happened.  An empty mask reports 0.
    """
    g = np.asarray(g, dtype=float)
    ops = traj.config.ops
    states = traj.states[1:]     # u_0..u_n
    mask = np.min(states - g, axis=0) > delta
    if not np.any(mask):
        return mask, 0.0
    worst = 0.0
    for i in range(1, traj.n_steps + 1):
        r = step_gradient(ops, traj.config.potential, traj, i)
        val = float(np.sqrt(np.sum(r[mask] ** 2 / ops.lumps[mask])))
        worst = max(worst, val)
    return mask, worst
