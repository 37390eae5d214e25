"""Variational implicit time stepping for u_tt + A_s u + W'(u) = 0.

Each step minimizes the functional

    J(u) = |u - 2 u_prev + u_prevprev|_M^2 / (2 tau^2)
           + (1/2) u^T A_s u + sum_j m_j W(u_j)

over the free nodes, optionally restricted to the set {u >= g} for a nodal
obstacle g.  The potential integral uses lumped-mass quadrature (row sums
m_j of M), which keeps its gradient and Hessian diagonal and makes the
nodal max with g the exact projection in the lumped metric.

Minimization uses one semismooth-Newton method, the primal-dual active-set
iteration, for both admissible sets (Hintermueller, Ito & Kunisch, SIAM J.
Optim. 13 (2002) 865-888).  Each iteration takes the Hessian

    H = M / tau^2 + A_s + diag(m_j W''(u_j))

at the current iterate, pins the active nodes (those the linearized
gradient pushes below g) to g, and solves the Newton system on the other
nodes.  A_s splits into its tridiagonal band part B (A_s.band) and the
rest R (A_s.rest_apply).  The tridiagonal P = M / tau^2 + B +
diag(m_j W''(u_j)) is factored as L D L^T by LAPACK's symmetric positive
definite tridiagonal solver (dptsv), which solves the system outright where
R = 0, as at s in {0, 1}.  Otherwise conjugate gradients preconditioned by
P finish the solve in a few products with A_s (at fractional s, B is the
diagonal of A_s, and each product costs O(n log n) on a uniform line with
both ends fixed and O(n^2) elsewhere): no n x n array is factored or
copied.  M x, and A_s x at s in {0, 1}, are band products on the held
diagonals (operators.Tridiagonal); the sine backend takes its DSTs through
scipy.fftpack, which skips scipy.fft's dispatch, at a few hundred nodes
costlier than the transform (operators.SineStiffness).
Without an obstacle the active set is empty and the iteration is plain
Newton.  The time loop starts steps 1 and 2 from the inertial
extrapolation 2 u_{i-1} - u_{i-2} and every later step from the cubic
4 u_{i-1} - 6 u_{i-2} + 4 u_{i-3} - u_{i-4} through the last four states,
each projected onto u >= g.  On a smooth trajectory the cubic is O(tau^4)
from the minimizer, where the linear start is O(tau^2) away, so one Newton
iteration usually suffices: 899 of the 900 steps of the gl_interface preset
take one, against two from the linear start.  At contact onset the cubic
overshoots, and the active set may take more iterations to settle.  H is
positive definite whenever 1/tau^2 outweighs max(-W''); when P does not
factor or CG meets a direction of non-positive curvature, the step raises
SolverFailure.

Velocities are backward differences v_i = (u_i - u_{i-1})/tau; the history
starts from u_{-1} = u0 - tau*v0, or from a mode-truncated v0 when the
smoothed initialization is selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BlowupError, ConfigurationError, SolverFailure
from .operators import OperatorSet, band_apply, pt_args
from .potentials import Potential

_AUTO_TOL_FLOOR = 1e-9
_AUTO_TOL_ROUNDOFF = 2.0 * np.finfo(float).eps
# CG on a Newton system stops once its residual, which is the linearized
# gradient at the new iterate, is at most this fraction of the step's tol in
# the M^-1 norm of the stationarity test.  The inexact solve then moves the
# M^-1 norm of the next gradient by at most a tenth of the budget.  Without
# an obstacle that norm is the whole test, so Newton takes the iterations an
# exact solve would, except where a residual lies within that margin of tol.
# Under an obstacle the test also takes the pointwise dual term
# max(-grad_j / m_j), which the M^-1 norm does not bound on fine meshes, so
# the count may differ from an exact solve's either way.  The stationarity
# test alone decides convergence.
_CG_TOL_FRACTION = 0.1


@dataclass(frozen=True)
class SolverParams:
    """Inner semismooth-Newton solver controls.

    tol: absolute stopping threshold on the stationarity measure (the
        mass-weighted projected-gradient norm, and under an obstacle the
        larger of it and the dual-sign term, which together bound the
        complementarity product); None resolves per step to
        1e-9 plus the round-off floor of the residual (_roundoff_floor).
        Neither term depends on the warm start, so every start of a step is
        held to the same tolerance.
    max_iter: cap on Newton iterations per step.
    """

    tol: float | None = None
    max_iter: int = 100

    def __post_init__(self):
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise ConfigurationError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")


@dataclass
class SchemeConfig:
    """Complete description of one run."""

    T: float
    n_steps: int
    ops: OperatorSet
    potential: Potential
    u0: np.ndarray
    v0: np.ndarray
    obstacle: np.ndarray | None = None
    init_mode: str = "standard"
    k_max: int | None = None
    solver: SolverParams = field(default_factory=SolverParams)

    def validate(self):
        if not self.T > 0:
            raise ConfigurationError("horizon T must be positive")
        if self.n_steps < 2:
            raise ConfigurationError("need n_steps >= 2")
        nf = self.ops.n_free
        for name, vec in (("u0", self.u0), ("v0", self.v0)):
            if np.shape(vec) != (nf,):
                raise ConfigurationError(f"{name} must have length {nf}")
        if self.init_mode not in ("standard", "smoothed"):
            raise ConfigurationError(f"unknown init_mode {self.init_mode!r}")
        if self.k_max is not None and self.k_max < 1:
            raise ConfigurationError("k_max must be >= 1")
        if self.obstacle is not None:
            if np.shape(self.obstacle) != (nf,):
                raise ConfigurationError(f"obstacle must have length {nf}")
            if np.any(self.u0 < self.obstacle):
                raise ConfigurationError("u0 must satisfy u0 >= g at every node")


class Trajectory:
    """States u_i (i = -1..n), derived velocities, and per-step records.

    energies[i] is (kinetic, fractional, potential, total) at step i, equal
    bit for bit to energy(self, i).  Row 0 is computed here; rows 1..n take
    the fractional and potential terms from step_energies, which the last
    evaluation of each step's functional formed, and add the kinetic term.
    """

    def __init__(self, config: SchemeConfig, tau: float, states: np.ndarray,
                 iterations: np.ndarray, residuals: np.ndarray, tols: np.ndarray,
                 step_energies: np.ndarray):
        self.config = config
        self.tau = float(tau)
        self.states = states              # (n + 2, n_free), row i+1 <-> u_i
        self.iterations = iterations      # (n,), solve stats for steps 1..n
        self.residuals = residuals
        self.tols = tols
        n = config.n_steps
        self.energies = np.empty((n + 1, 4))
        self.energies[0] = energy(self, 0)
        for i in range(1, n + 1):
            # one row at a time: a vectorized table holds n x n_free temporaries
            kin = _kinetic_energy(config.ops, self.v(i))
            frac, pot = step_energies[i - 1]
            self.energies[i] = kin, frac, pot, kin + frac + pot

    @property
    def n_steps(self) -> int:
        return self.config.n_steps

    def u(self, i: int) -> np.ndarray:
        if not -1 <= i <= self.n_steps:
            raise ConfigurationError(f"state index {i} out of range")
        return self.states[i + 1]

    def v(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.n_steps:
            raise ConfigurationError(f"velocity index {i} out of range")
        return (self.states[i + 1] - self.states[i]) / self.tau

    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class StepResult:
    u: np.ndarray
    iterations: int
    residual: float
    tol: float
    j_path: tuple  # functional values at the Newton iterates
    frac_energy: float  # 0.5 u.A_s u + u.lift_load + lift_const at u
    pot_energy: float   # lumps . W(u) at u


def step_functional(ops: OperatorSet, potential: Potential, u, u1, u2,
                    tau: float) -> float:
    """J(u) for inertia history (u1, u2) = (previous, one before)."""
    u = np.asarray(u, dtype=float)
    return _grad_and_value(ops, potential, u, np.asarray(u1, dtype=float),
                           np.asarray(u2, dtype=float), tau)[0]


def _kinetic_energy(ops, v) -> float:
    return 0.5 * float(v @ (ops.M @ v))


def _fractional_energy(ops, u, au) -> float:
    """0.5 u.A_s u + u.lift_load + lift_const, with au = A_s u."""
    return 0.5 * float(u @ au) + float(u @ ops.lift_load) + ops.lift_const


def _grad_and_value(ops, potential, u, u1, u2, tau):
    """(J(u), grad J(u), fractional energy, potential energy) of u; the
    last two are the terms of J that energy() reports, formed once here."""
    d = u - 2.0 * u1 + u2
    md = ops.M @ d
    au = ops.A_s @ u
    frac = _fractional_energy(ops, u, au)
    pot = float(ops.lumps @ potential.value(u))
    j = float(d @ md) / (2.0 * tau**2) + frac + pot
    grad = md / tau**2 + au + ops.lift_load + ops.lumps * potential.gradient(u)
    return j, grad, frac, pot


def _stationarity(ops, u, grad, obstacle) -> float:
    """Mass-weighted norm of the projected gradient; under an obstacle the
    larger of the projected norm and the worst negative dual density (both
    must vanish at a minimizer).

    The normalized complementarity product |grad . slack| / (1 + |slack|_M),
    slack = u - g, needs no term of its own: u is feasible, so the slack
    vanishes on the active set, grad . slack = pg . slack <= |pg|_{M^-1}
    |slack|_M, and the product stays below the projected norm."""
    if obstacle is None:
        return float(np.sqrt(max(grad @ ops.solve_mass(grad), 0.0)))
    active = u <= obstacle
    pg = np.where(active, np.minimum(grad, 0.0), grad)
    pg_norm = float(np.sqrt(max(pg @ ops.solve_mass(pg), 0.0)))
    dual_violation = max(0.0, -float(np.min(grad / ops.lumps)))
    return max(pg_norm, dual_violation)


def _roundoff_floor(ops, potential, u1, u2, tau) -> float:
    """c eps (|t|_{M^-1} + a): the level of round-off in the computed
    residual.

    With w = 2 u1 - u2 the inertial extrapolation, near which the step's
    minimizer u lies,

        t = M (2|u1| + |u2|) / tau^2 + t_A + |lift_load| + m |W'(w)|

    sums the magnitudes of the gradient's terms (M is entrywise
    nonnegative).  Each term is formed with a few roundings, each of at
    most u = eps/2 relative to the magnitudes it combines (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3): the second
    difference (u - 2 u1) + u2 errs by at most u (|u| + 2|u1|) <=
    eps (2|u1| + |u2|), which M / tau^2 carries; summing the four terms
    adds up to 1.5 eps of t.  The round-off of A_s w follows the model of
    A_s's class (operators.Tridiagonal, SineStiffness, SpectralStiffness),
    which gives (t_A, a) = A_s.roundoff(|w|): an entrywise term, |A_s| |w|
    for a product that errs componentwise, and a normwise bound a on the
    M^-1 norm for one that errs normwise.  The class also gives the grounds
    for c = 2 and the cost of the term.
    """
    w = 2.0 * u1 - u2
    t_a, a = ops.A_s.roundoff(np.abs(w))
    t = (ops.M @ (2.0 * np.abs(u1) + np.abs(u2)) / tau**2
         + t_a + np.abs(ops.lift_load)
         + ops.lumps * np.abs(potential.gradient(w)))
    return _AUTO_TOL_ROUNDOFF * (float(np.sqrt(max(t @ ops.solve_mass(t), 0.0))) + a)


def minimize_step(ops: OperatorSet, potential: Potential, u1, u2, tau: float,
                  obstacle=None, solver: SolverParams = SolverParams(),
                  warm_start=None) -> StepResult:
    """Minimize the step functional by semismooth Newton from a feasible
    warm start (default u1).

    Under an obstacle, a node is active when the linearized gradient would
    push it below g, i.e. tau^2 * grad_j / m_j > u_j - g_j; active nodes are
    pinned to g and the Newton system is solved on the rest.  Iterates are
    projected onto u >= g, so every iterate is feasible.

    The result carries the fractional and potential energies of the final
    iterate, from the functional's last evaluation.

    Raises SolverFailure (carrying the iterate of least residual) if max_iter
    is reached above tolerance or the Hessian on the inactive nodes is not
    positive definite, and BlowupError on NaN in the functional or gradient.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    u = np.array(u1 if warm_start is None else warm_start, dtype=float)
    if obstacle is not None and np.any(u < obstacle):
        raise ConfigurationError("warm start is infeasible for the obstacle")

    j, grad, frac, pot = _grad_and_value(ops, potential, u, u1, u2, tau)
    if not (np.isfinite(j) and np.all(np.isfinite(grad))):
        raise BlowupError("non-finite functional or gradient at warm start")
    res = _stationarity(ops, u, grad, obstacle)
    tol = solver.tol
    if tol is None:
        tol = _AUTO_TOL_FLOOR + _roundoff_floor(ops, potential, u1, u2, tau)

    best, best_res = u, res
    iters = 0
    j_path = [j]
    while res > tol:
        if iters >= solver.max_iter:
            message = (f"no convergence in {solver.max_iter} iterations "
                       f"(residual {best_res:.3e} > tol {tol:.3e})")
            if solver.tol is not None:
                floor = _roundoff_floor(ops, potential, u1, u2, tau)
                message += f"; this step's round-off floor is {floor:.3e}"
                if tol < floor:
                    message += (", above the explicit tol: the residual cannot "
                                "be resolved below it; raise tol or leave it unset")
            raise SolverFailure(message, best=best, residual=best_res,
                                iterations=iters)
        step = _newton_step(ops, ops.lumps * potential.curvature(u), grad, u,
                            obstacle, tau, _CG_TOL_FRACTION * tol)
        if step is None:
            raise SolverFailure(
                "the step Hessian M/tau^2 + A_s + diag(m W'') is not positive "
                "definite; more time steps make the step functional convex",
                best=best, residual=best_res, iterations=iters)
        u = u + step
        if obstacle is not None:
            u = np.maximum(u, obstacle)
        j, grad, frac, pot = _grad_and_value(ops, potential, u, u1, u2, tau)
        if not (np.isfinite(j) and np.all(np.isfinite(grad))):
            raise BlowupError("non-finite functional or gradient during Newton iteration")
        iters += 1
        res = _stationarity(ops, u, grad, obstacle)
        j_path.append(j)
        if res < best_res:
            best, best_res = u, res
    return StepResult(u=u, iterations=iters, residual=res, tol=tol,
                      j_path=tuple(j_path), frac_energy=frac, pot_energy=pot)


def _newton_step(ops, curv, grad, u, obstacle, tau, stop):
    """The Newton step of H = M/tau^2 + A_s + diag(curv) at u, with the
    active nodes pinned to g (step g_j - u_j there), or None when H on the
    inactive nodes is not positive definite.

    The tridiagonal P = M/tau^2 + B + diag(curv), with B the band part of
    A_s (A_s.band) and the active rows and columns replaced by those of the
    identity, is factored as L D L^T by LAPACK's dptsv.  Its solution is the
    step where A_s = B (A_s.rest_apply is None); otherwise _pcg finishes the
    solve to the M^-1 residual stop.
    """
    rest = ops.A_s.rest_apply
    d = ops.M.band[0] / tau**2 + curv + ops.A_s.band[0]
    e = ops.M.band[1] / tau**2 + ops.A_s.band[1]
    rhs = -grad
    active = np.zeros(ops.n_free, dtype=bool)
    if obstacle is not None:
        # pin the active nodes to g: their columns of H = P + R move to the
        # right-hand side, their rows and columns of P become those of the
        # identity
        active = tau**2 * grad / ops.lumps > u - obstacle
        pinned = np.where(active, obstacle - u, 0.0)
        rhs -= band_apply((d, e), pinned)
        if rest is not None:
            rhs -= rest(pinned)
        rhs[active] = pinned[active]
        e[active[1:] | active[:-1]] = 0.0
        d[active] = 1.0
    # LAPACK's ptsv directly: a wrapper's argument handling costs more than
    # the O(n) solve at a few hundred nodes
    *factor, step, info = scipy.linalg.lapack.dptsv(
        *pt_args(d, e), rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dptsv")
    if info > 0:
        return None
    if rest is None:
        return step
    return _pcg(ops, factor, step, ~active if active.any() else None, curv,
                tau, stop)


def _pcg(ops, factor, x, free, curv, tau, stop):
    """Solve H_FF x_F = b_F on the inactive nodes F (mask free) by conjugate
    gradients preconditioned with P_FF, starting from x = P^-1 b, the solve
    by the tridiagonal LDL^T factors (d, e) of P with the active nodes pinned;
    each preconditioner solve is one LAPACK dpttrs with those factors.

    H = P + R, so the first residual is r = b - H x = -R_FF x_F, with R x
    from A_s.rest_apply; the caller skips the call where R = 0.  Stops
    once |r|_{M^-1} <= stop, or after |F| iterations, where CG terminates in
    exact arithmetic.  Every vector is zero off F.  free is None when no
    node is pinned: F is every node, and no vector needs masking.  Returns
    None at a direction p with p^T H p <= 0: there H_FF is not positive
    definite.
    """
    if free is None:
        r = -ops.A_s.rest_apply(x)
    else:
        r = np.where(free, -ops.A_s.rest_apply(np.where(free, x, 0.0)), 0.0)
    p = rz = None
    for _ in range(x.size if free is None else np.count_nonzero(free)):
        if r @ ops.solve_mass(r) <= stop**2:
            break
        z = scipy.linalg.lapack.dpttrs(*factor, r)[0]
        rz, rz_old = r @ z, rz
        p = z if p is None else z + (rz / rz_old) * p
        hp = ops.M @ p / tau**2 + ops.A_s @ p + curv * p
        if free is not None:
            hp = np.where(free, hp, 0.0)
        php = p @ hp
        if not php > 0:
            return None
        x = x + (rz / php) * p
        r = r - (rz / php) * hp
    return x


def effective_v0(config: SchemeConfig) -> np.ndarray:
    """Initial velocity actually used: v0, or its truncation onto leading
    eigenmodes in smoothed mode (cutoff from k_max, else the smallest band
    carrying 99.9% of the M-norm of v0)."""
    if config.init_mode != "smoothed":
        return np.asarray(config.v0, dtype=float)
    ops = config.ops
    coeff = ops.Phi.T @ (ops.M @ config.v0)
    total = float(np.sqrt(coeff @ coeff))
    if config.k_max is not None:
        k = min(int(config.k_max), coeff.size)
    elif total == 0.0:
        return np.zeros_like(coeff)
    else:
        norms = np.sqrt(np.cumsum(coeff * coeff))
        k = int(np.searchsorted(norms, 0.999 * total)) + 1
        k = min(k, coeff.size)
    return ops.Phi[:, :k] @ coeff[:k]


def run(config: SchemeConfig) -> Trajectory:
    """Execute the time loop and return the full trajectory.

    Solver errors are re-raised with the failing step index attached.
    """
    config.validate()
    ops = config.ops
    n = config.n_steps
    tau = config.T / n
    nf = ops.n_free

    v0n = effective_v0(config)
    states = np.zeros((n + 2, nf))
    states[0] = config.u0 - tau * v0n   # u_{-1}
    states[1] = config.u0
    iterations = np.zeros(n, dtype=int)
    residuals = np.zeros(n)
    tols = np.zeros(n)
    step_energies = np.zeros((n, 2))

    for i in range(1, n + 1):
        if i >= 3:
            # the cubic through u_{i-4}..u_{i-1}: O(tau^4) from u_i on a smooth
            # trajectory, where the linear start is O(tau^2) away
            start = (4.0 * states[i] - 6.0 * states[i - 1] + 4.0 * states[i - 2]
                     - states[i - 3])
        else:
            start = 2.0 * states[i] - states[i - 1]
        if config.obstacle is not None:
            start = np.maximum(start, config.obstacle)
        try:
            result = minimize_step(
                ops, config.potential, u1=states[i], u2=states[i - 1], tau=tau,
                obstacle=config.obstacle, solver=config.solver, warm_start=start)
        except SolverFailure as exc:
            raise SolverFailure(f"step {i}: {exc}", best=exc.best,
                                residual=exc.residual, iterations=exc.iterations,
                                step=i) from exc
        except BlowupError as exc:
            raise BlowupError(f"step {i}: {exc}", step=i) from exc
        states[i + 1] = result.u
        iterations[i - 1] = result.iterations
        residuals[i - 1] = result.residual
        tols[i - 1] = result.tol
        step_energies[i - 1] = result.frac_energy, result.pot_energy
    return Trajectory(config, tau, states, iterations, residuals, tols,
                      step_energies)


def energy(traj: Trajectory, i: int):
    """(kinetic, fractional, potential, total) at step i (0 <= i <= n),
    recomputed from the states."""
    ops = traj.config.ops
    u = traj.u(i)
    kin = _kinetic_energy(ops, traj.v(i))
    frac = _fractional_energy(ops, u, ops.A_s @ u)
    pot = float(ops.lumps @ traj.config.potential.value(u))
    return kin, frac, pot, kin + frac + pot


def eval_interpolants(traj: Trajectory, t: float):
    """(piecewise-constant state, piecewise-linear state, velocity) at time t.

    The constant interpolant takes the value u_i on (t_{i-1}, t_i] and
    u_{-1} at t = -tau; the linear one blends u_{i-1} and u_i on the same
    interval; the velocity is the backward difference v_i there.
    """
    tau, n = traj.tau, traj.n_steps
    fuzz = 1e-9 * tau
    if not (-tau - fuzz <= t <= traj.config.T + fuzz):
        raise ValueError(f"time {t} outside [-tau, T]")
    if t <= -tau + fuzz:
        return traj.u(-1), traj.u(-1), traj.v(0)
    i = int(np.ceil(t / tau - 1e-9))
    i = min(max(i, 0), n)
    theta = (t - (i - 1) * tau) / tau
    u_bar = traj.u(i)
    u_lin = theta * traj.u(i) + (1.0 - theta) * traj.u(i - 1)
    return u_bar, u_lin, traj.v(i)


def el_residual(ops: OperatorSet, potential: Potential, traj: Trajectory,
                i: int) -> float:
    """Mass-weighted norm of the discrete Euler-Lagrange residual at step i.

    At most the solver tolerance after a converged obstacle-free step.
    """
    if not 1 <= i <= traj.n_steps:
        raise ConfigurationError(f"step index {i} out of range")
    r = _grad_and_value(ops, potential, traj.u(i), traj.u(i - 1), traj.u(i - 2),
                        traj.tau)[1]
    return float(np.sqrt(max(r @ ops.solve_mass(r), 0.0)))


def vi_residuals(ops: OperatorSet, potential: Potential, traj: Trajectory,
                 i: int, g: np.ndarray):
    """Variational-inequality residuals at step i of an obstacle run.

    Returns (min_dual, complementarity): the smallest residual density
    (lumped-mass scaling, must be >= -tol) and |r . (u_i - g)| (must be
    <= tol * (1 + |u_i - g|_M)).  Thresholds are enforced by tests.
    """
    if not 1 <= i <= traj.n_steps:
        raise ConfigurationError(f"step index {i} out of range")
    r = _grad_and_value(ops, potential, traj.u(i), traj.u(i - 1), traj.u(i - 2),
                        traj.tau)[1]
    min_dual = float(np.min(r / ops.lumps))
    complementarity = abs(float(r @ (traj.u(i) - g)))
    return min_dual, complementarity
