"""Variational implicit time stepping for u_tt + A_s u + W'(u) = 0.

Each step minimizes the functional

    J(u) = (1/2) (u - w)^T (M / tau^2) (u - w) + (1/2) u^T A_s u
           + sum_j m_j W(u_j),    w = 2 u_prev - u_prevprev,

over the free nodes, optionally restricted to the set {u >= g} for a nodal
obstacle g.  The potential integral uses lumped-mass quadrature (row sums
m_j of M), which keeps its gradient and Hessian diagonal and makes the
nodal max with g the exact projection in the lumped metric.

Minimization uses one semismooth-Newton method, the primal-dual active-set
iteration, for both admissible sets (Hintermueller, Ito & Kunisch, SIAM J.
Optim. 13 (2002) 865-888), in one loop (minimize_step): evaluate J and
grad J at the iterate, check that both are finite, measure stationarity
(the M^-1 norm of the projected gradient, ops.dual_norm, and under an
obstacle the dual-sign term), stop below the step's tolerance, and
otherwise take a Newton step.  Each iteration takes the Hessian

    H = M / tau^2 + A_s + diag(m_j W''(u_j))

at the current iterate, pins the active nodes (those the linearized
gradient pushes below g) to g, and solves the Newton system on the other
nodes: x0 solves a part of H exactly, and where the rest of H leaves a
residual above CG's stop, conjugate gradients preconditioned by that
solve go on from x0 and its residual (_newton_step, _pcg).  On the sine
backend (operators.SineStiffness), a step with no node pinned whose H the
symbol bound proves positive definite starts from the exact solve of its
quadratic part, x0 = (M / tau^2 + A_s)^-1 (-grad J) in two DSTs, whose
residual is -m W'' x0, and CG goes on, preconditioned by that inverse,
only where the residual misses CG's stop: from the cubic warm start most
steps of a smooth run stop at x0, with no tridiagonal factorization.
Every other step takes the banded path.  A_s splits into its tridiagonal
band part B (A_s.band) and the rest R (A_s.rest_apply).  The tridiagonal
P = M / tau^2 + B + diag(m_j W''(u_j)) is factored as L D L^T by LAPACK's
symmetric positive definite tridiagonal solver (dptsv), which solves the
system outright where R = 0, as at s in {0, 1}.  Otherwise CG
preconditioned by P goes on from x0 = P^-1 (-grad J), whose residual is
-R x0, in a few products with A_s (at fractional s, B is the diagonal of
A_s, and each product costs O(n log n) on a uniform line with both ends
fixed and O(n^2) elsewhere): no n x n array is factored or copied.  M x,
and A_s x at s in {0, 1}, are band products on the held diagonals
(operators.Tridiagonal); the sine backend calls pocketfft's DST kernel
directly (operators._dst).
Without an obstacle the active set is empty and the iteration is plain
Newton.  The time loop starts steps 1 and 2 from the inertial
extrapolation through the last two states and every later step from the
cubic through the last four (_LINEAR and _CUBIC, one table of
coefficients), each projected onto u >= g.  On a smooth trajectory the
cubic is O(tau^4) from the minimizer, where the linear start is O(tau^2)
away, so one Newton iteration usually suffices: 899 of the 900 steps of
the gl_interface preset take one, against two from the linear start.  At
contact onset the cubic overshoots, and the active set may take more
iterations to settle.  H is
positive definite whenever 1/tau^2 outweighs max(-W''); when P does not
factor or CG meets a direction of non-positive curvature, the step raises
SolverFailure.

At a few hundred nodes an iterate costs numpy dispatch more than
arithmetic, so each quantity is formed where it changes.  Per run: at
s in {0, 1} the band of |A_s| that the round-off floor reads is formed
once and kept with the operators (Tridiagonal.abs_band), and on the sine
backend the shifted symbol m / tau^2 + mu and its floor, formed for the
run's tau on first use (SineStiffness.shifted_floor).  Per step: the
band of M / tau^2 and the extrapolation w = 2 u_{i-1} - u_{i-2}, which
feed the floor and every iterate's (M / tau^2) d with d = u - w, and the
floor itself.  Per iterate, one evaluation gives J, grad J and the two
energies from the band product (M / tau^2) d, one product A_s u and one
potential call (Potential.evaluate) that shares u^2 between W and W', and
at the warm start W'' too; then one mass solve for the stationarity norm,
and a Newton step: two DSTs for a certified free step on the sine backend
whose x0 meets the stop, and otherwise the band M / tau^2 + B +
diag(m W'') summed for one dptsv call; a CG iteration adds one
preconditioner solve (two DSTs, or one dpttrs), one product with A_s and
one mass solve.  The warm start's evaluation makes no product: A_s is
linear, so run passes it the same combination of the last states'
products as the start is of the states.  Both are one gemv with the same
coefficients, the products' from a buffer of the last four, oldest
first, each from its step's last evaluation, which also gives energy
row 0 its A_s u_0.  A start clipped by the obstacle takes a direct
product, and a start that meets tol on the combination is evaluated again
on a direct one before it is accepted, so round-off cannot build up from
step to step.  A step of one Newton iterate on the sine backend thus makes
four DSTs, two for the Newton step and two for its last evaluation, and
its round-off floor none.  Where the Dirichlet data vanish (ops.lifted
false, always at fractional s) the lift's terms are skipped.  Under an
obstacle the projection of the gradient and the pinning of the active
nodes run only on iterates with a node at g or active.

Velocities are backward differences v_i = (u_i - u_{i-1})/tau; the history
starts from u_{-1} = u0 - tau*v0, or from a mode-truncated v0 when the
smoothed initialization is selected.  run writes energy row 0 before
step 1 and each later row as its step finishes, from v_i and the
functional's last evaluation.  The
checks of a finished trajectory (el_residual, vi_residuals,
diagnostics.no_contact_check) take the step's gradient grad J_i(u_i) from
step_gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BlowupError, ConfigurationError, SolverFailure
from .operators import ROUNDOFF_SCALE, OperatorSet, band_apply, pt_args
from .potentials import Potential

_AUTO_TOL_FLOOR = 1e-9
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
        if not 0 < self.T < np.inf:
            raise ConfigurationError("horizon T must be positive and finite")
        if self.n_steps < 2:
            raise ConfigurationError("need n_steps >= 2")
        nf = self.ops.n_free
        vectors = {"u0": self.u0, "v0": self.v0}
        if self.obstacle is not None:
            vectors["obstacle"] = self.obstacle
        for name, vec in vectors.items():
            if np.shape(vec) != (nf,):
                raise ConfigurationError(f"{name} must have length {nf}")
            if not np.all(np.isfinite(vec)):
                raise ConfigurationError(f"{name} must be finite at every node")
        if self.init_mode not in ("standard", "smoothed"):
            raise ConfigurationError(f"unknown init_mode {self.init_mode!r}")
        if self.k_max is not None and self.k_max < 1:
            raise ConfigurationError("k_max must be >= 1")
        if self.obstacle is not None and np.any(self.u0 < self.obstacle):
            raise ConfigurationError("u0 must satisfy u0 >= g at every node")


class Trajectory:
    """States u_i (i = -1..n), derived velocities, and per-step records.

    energies[i] is (kinetic, fractional, potential, total) at step i, equal
    bit for bit to energy(self, i), which run fills: row 0 before step 1,
    and each later row as its step finishes.
    """

    def __init__(self, config: SchemeConfig, tau: float, states: np.ndarray,
                 iterations: np.ndarray, residuals: np.ndarray, tols: np.ndarray,
                 energies: np.ndarray):
        self.config = config
        self.tau = float(tau)
        self.states = states              # (n + 2, n_free), row i+1 <-> u_i
        self.iterations = iterations      # (n,), solve stats for steps 1..n
        self.residuals = residuals
        self.tols = tols
        self.energies = energies          # (n + 1, 4)

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


@dataclass(frozen=True)
class StepResult:
    u: np.ndarray
    iterations: int
    residual: float
    tol: float
    j_path: tuple  # functional values at the Newton iterates
    frac_energy: float  # 0.5 u.A_s u + u.lift_load + lift_const at u
    pot_energy: float   # lumps . W(u) at u
    product: np.ndarray  # A_s u, a direct product from the last evaluation


def _scaled_mass(ops: OperatorSet, tau: float):
    """The tridiagonal diagonals (d, e) of M / tau^2."""
    d, e = ops.M.band
    return d / tau**2, e / tau**2


def step_functional(ops: OperatorSet, potential: Potential, u, u1, u2,
                    tau: float) -> float:
    """J(u) for inertia history (u1, u2) = (previous, one before)."""
    u1 = np.asarray(u1, dtype=float)
    return _evaluate(ops, potential, _scaled_mass(ops, tau), np.asarray(u, dtype=float),
                     2.0 * u1 - np.asarray(u2, dtype=float))[0]


def _state_energies(ops, u, au, value):
    """(fractional, potential) energy of the state u, with au = A_s u and
    value = W(u): 0.5 u.A_s u + u.lift_load + lift_const, and lumps . W(u).
    The lift's terms are zero, and skipped, unless ops.lifted."""
    frac = 0.5 * float(u @ au)
    if ops.lifted:
        frac = frac + float(u @ ops.lift_load) + ops.lift_const
    return frac, float(ops.lumps @ value)


def _energy_row(ops, v, frac, pot):
    """(kinetic, fractional, potential, total) at velocity v, given the
    state's fractional and potential energies."""
    kin = 0.5 * float(v @ (ops.M @ v))
    return kin, frac, pot, kin + frac + pot


def _evaluate(ops, potential, mass, u, w, curvature=False, product=None):
    """(J(u), grad J(u), fractional energy, potential energy, m W''(u) if
    curvature else None, A_s u) for the step with inertial extrapolation
    w = 2 u1 - u2 and the band mass of M / tau^2, from d = u - w, the
    product A_s u (product where given, else formed here) and one potential
    evaluation; the energies are the terms of J that energy() reports,
    formed once here."""
    d = u - w
    md = band_apply(mass, d)
    au = ops.A_s @ u if product is None else product
    value, slope, curv = potential.evaluate(u, curvature)
    frac, pot = _state_energies(ops, u, au, value)
    j = 0.5 * float(d @ md) + frac + pot
    grad = md  # (M / tau^2) d, summed into in place
    grad += au
    if ops.lifted:
        grad += ops.lift_load
    grad += ops.lumps * slope
    return j, grad, frac, pot, None if curv is None else ops.lumps * curv, au


def _stationarity(ops, grad, slack=None, density=None) -> float:
    """Mass-weighted norm of the projected gradient; under an obstacle
    (slack = u - g, density = grad / lumps) the larger of the projected
    norm and the worst negative dual density (both must vanish at a
    minimizer).  The projection changes nothing while no node is at g.

    The normalized complementarity product |grad . slack| / (1 + |slack|_M)
    needs no term of its own: u is feasible, so the slack vanishes on the
    active set, grad . slack = pg . slack <= |pg|_{M^-1} |slack|_M, and the
    product stays below the projected norm."""
    if slack is None:
        return ops.dual_norm(grad)
    pg = (grad if slack.min() > 0.0
          else np.where(slack > 0.0, grad, np.minimum(grad, 0.0)))
    return max(ops.dual_norm(pg), -float(density.min()), 0.0)


def _roundoff_floor(ops, potential, mass, u1, u2, w) -> float:
    """c eps (|t|_{M^-1} + a), c eps = operators.ROUNDOFF_SCALE: the level
    of round-off in the computed residual.

    The step's minimizer u lies near the inertial extrapolation w =
    2 u1 - u2, formed once per step, and every evaluation takes the second
    difference as d = u - w and its product with the pre-scaled band
    M / tau^2 (mass).  With

        t = (M / tau^2) (2|u1| + |u2|) + t_A + |lift_load| + m |W'(w)|

    the sum of the magnitudes of the gradient's terms (M is entrywise
    nonnegative), each term is formed with a few roundings, each of at
    most u = eps/2 relative to the magnitudes it combines (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3): w errs by at
    most u (2|u1| + |u2|) and u - w by u |d|, with |d| far below |w| near
    the minimizer, so d errs by at most eps (2|u1| + |u2|), which
    M / tau^2 carries; scaling M's entries by 1 / tau^2 and the product
    err relative to (M / tau^2) |d|, a smaller term.  Summing the four
    terms adds up to 1.5 eps of t.  The round-off of A_s w follows the
    model of A_s's class (operators.Tridiagonal, SineStiffness,
    SpectralStiffness), which gives (t_A, a) = A_s.roundoff(w): an
    entrywise term, |A_s| |w| for a product that errs componentwise, and a
    normwise bound a on the M^-1 norm for one that errs normwise.  The class
    also gives the grounds for c = 2 and the cost of the term.  The lift's
    term is zero, and skipped, unless ops.lifted.
    """
    t_a, a = ops.A_s.roundoff(w)
    t = band_apply(mass, 2.0 * np.abs(u1) + np.abs(u2))
    t += t_a
    if ops.lifted:
        t += np.abs(ops.lift_load)
    t += ops.lumps * np.abs(potential.gradient(w))
    return ROUNDOFF_SCALE * (ops.dual_norm(t) + a)


def minimize_step(ops: OperatorSet, potential: Potential, u1, u2, tau: float,
                  obstacle=None, solver: SolverParams = SolverParams(),
                  warm_start=None, warm_product=None) -> StepResult:
    """Minimize the step functional by semismooth Newton from a feasible
    warm start (default u1).

    warm_product, where given, stands for A_s warm_start in the first
    evaluation only (run passes the same combination of the last states'
    products as the start is of the states).  A warm start that meets tol
    with it is evaluated again with a direct product before it is accepted,
    so a returned state, its residual, energies and product always come
    from a direct product.

    Under an obstacle, a node is active when the linearized gradient would
    push it below g, i.e. tau^2 * grad_j / m_j > u_j - g_j; active nodes are
    pinned to g and the Newton system is solved on the rest.  Iterates are
    projected onto u >= g, so every iterate is feasible.

    The result carries the fractional and potential energies and the
    product A_s u of the final iterate, from the functional's last
    evaluation.

    Raises SolverFailure (carrying the iterate of least residual) if max_iter
    is reached above tolerance or the Hessian on the inactive nodes is not
    positive definite, and BlowupError on NaN in the functional or gradient.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    u = np.array(u1 if warm_start is None else warm_start, dtype=float)
    if obstacle is not None and (u < obstacle).any():
        raise ConfigurationError("warm start is infeasible for the obstacle")
    mass = _scaled_mass(ops, tau)
    w = 2.0 * u1 - u2
    floor = _roundoff_floor(ops, potential, mass, u1, u2, w)
    tol = _AUTO_TOL_FLOOR + floor if solver.tol is None else solver.tol

    best, best_res = u, np.inf
    j_path = []
    slack = density = None
    product = warm_product
    iters = 0
    while True:
        # the curvature from the same pass at the warm start, whose Newton
        # step most steps take
        j, grad, frac, pot, curv, au = _evaluate(ops, potential, mass, u, w,
                                                 curvature=not iters, product=product)
        if not (math.isfinite(j) and np.isfinite(grad).all()):
            where = "during Newton iteration" if iters else "at warm start"
            raise BlowupError(f"non-finite functional or gradient {where}")
        if obstacle is not None:
            slack, density = u - obstacle, grad / ops.lumps
        res = _stationarity(ops, grad, slack, density)
        if product is not None:
            product = None
            if res <= tol:
                continue   # accepted only from a direct product
        j_path.append(j)
        if res < best_res:
            best, best_res = u, res
        if res <= tol:
            return StepResult(u=u, iterations=iters, residual=res, tol=tol,
                              j_path=tuple(j_path), frac_energy=frac,
                              pot_energy=pot, product=au)
        if iters == solver.max_iter:
            break
        if curv is None:
            curv = ops.lumps * potential.curvature(u)
        active = None
        if obstacle is not None:
            active = tau**2 * density > slack
            if not active.any():
                active = None
        step = _newton_step(ops, mass, tau**-2, curv, grad,
                            _CG_TOL_FRACTION * tol, slack, active)
        if step is None:
            raise SolverFailure(
                "the step Hessian M/tau^2 + A_s + diag(m W'') is not positive "
                "definite; more time steps make the step functional convex",
                best=best, residual=best_res, iterations=iters)
        u = u + step
        if obstacle is not None:
            u = np.maximum(u, obstacle)
        iters += 1
    message = (f"no convergence in {solver.max_iter} iterations "
               f"(residual {best_res:.3e} > tol {tol:.3e})")
    if solver.tol is not None:
        message += f"; this step's round-off floor is {floor:.3e}"
        if tol < floor:
            message += (", above the explicit tol: the residual cannot "
                        "be resolved below it; raise tol or leave it unset")
    raise SolverFailure(message, best=best, residual=best_res,
                        iterations=solver.max_iter)


def _newton_step(ops, mass, c, curv, grad, stop, slack=None, active=None):
    """The Newton step of H = c M + A_s + diag(curv) at u, c = 1/tau^2, with
    the nodes of the mask active (None: no node) pinned to g (step -slack_j
    = g_j - u_j there), or None when H on the inactive nodes is not positive
    definite.

    On the sine backend, a step with no node pinned whose H is positive
    definite by A_s.shifted_floor(c) + min(curv) > 0 starts from
    x = (c M + A_s)^-1 (-grad) by A_s.shifted_inverse.  Its residual is
    -curv x, since H - (c M + A_s) = diag(curv), and x is the step when
    that residual's 2-norm over sqrt(min m), M's eigenvalues being the m_k,
    meets the stop; otherwise _pcg goes on from x, preconditioned by
    shifted_inverse.  Every other step is banded: the tridiagonal
    P = c M + B + diag(curv), from the band mass of c M and B = A_s.band,
    with the active rows and columns replaced by those of the identity, is
    factored as L D L^T by LAPACK's dptsv.  Its solution is the step where
    A_s = B (A_s.rest_apply is None); otherwise _pcg goes on from it,
    preconditioned by P (LAPACK's dpttrs on the factors).
    """
    inverse = ops.A_s.shifted_inverse
    if (active is None and inverse is not None
            and ops.A_s.shifted_floor(c) + curv.min() > 0.0):
        x = inverse(c, -grad)
        r = -curv * x
        if r @ r <= stop**2 * ops.A_s.m_min:
            return x
        return _pcg(ops, mass, lambda v: inverse(c, v), x, r, None, curv, stop)
    rest = ops.A_s.rest_apply
    b_d, b_e = ops.A_s.band
    d = mass[0] + b_d
    d += curv
    e = mass[1] + b_e
    rhs = -grad
    if active is not None:
        # pin the active nodes to g: their columns of H = P + R move to the
        # right-hand side, their rows and columns of P become those of the
        # identity
        pinned = np.where(active, -slack, 0.0)
        rhs -= band_apply((d, e), pinned)
        if rest is not None:
            rhs -= rest(pinned)
        rhs[active] = pinned[active]
        e = np.where(active[1:] | active[:-1], 0.0, e)
        d[active] = 1.0
    # LAPACK's ptsv directly: a wrapper's argument handling costs more than
    # the O(n) solve at a few hundred nodes
    *factor, x, info = scipy.linalg.lapack.dptsv(
        *pt_args(d, e), rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dptsv")
    if info > 0:
        return None
    if rest is None:
        return x
    # H = P + R, so the residual of x = P^-1 b is -R x on the free nodes
    if active is None:
        free, r = None, -rest(x)
    else:
        free = ~active
        r = np.where(free, -rest(np.where(free, x, 0.0)), 0.0)
    return _pcg(ops, mass, lambda v: scipy.linalg.lapack.dpttrs(*factor, v)[0],
                x, r, free, curv, stop)


def _pcg(ops, mass, precondition, x, r, free, curv, stop):
    """Solve H_FF x_F = b_F on the inactive nodes F (mask free) by conjugate
    gradients from x, whose residual b - H x is r, with the preconditioner
    solve precondition (_newton_step's: the shifted inverse, or the LDL^T
    factors of the band part P by dpttrs).

    Stops once |r|_{M^-1} <= stop, or after |F| iterations, where CG
    terminates in exact arithmetic.  Every vector is zero off F.  free is
    None when no node is pinned: F is every node, and no vector needs
    masking.  Returns None at a direction p with p^T H p <= 0: there H_FF
    is not positive definite.
    """
    p = rz = None
    for _ in range(x.size if free is None else np.count_nonzero(free)):
        if r @ ops.solve_mass(r) <= stop**2:
            break
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z if p is None else z + (rz / rz_old) * p
        hp = band_apply(mass, p) + ops.A_s @ p + curv * p
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


# run's warm starts, as coefficients on the last states, oldest first: the
# linear extrapolation at steps 1 and 2, then the cubic
_LINEAR = np.array([-1.0, 2.0])
_CUBIC = np.array([-1.0, 4.0, -6.0, 4.0])


def run(config: SchemeConfig) -> Trajectory:
    """Execute the time loop and return the full trajectory.

    A SolverFailure or BlowupError of a step is re-raised with the step's
    index set as its `step` and named in front of its message.
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
    energies = np.empty((n + 1, 4))
    # A_s of the last four states, oldest first, each from its step's last
    # evaluation; the rows before u_{-1} are never read
    products = np.zeros((4, nf))
    products[2] = ops.A_s @ states[0]
    products[3] = ops.A_s @ states[1]
    energies[0] = _energy_row(ops, (states[1] - states[0]) / tau, *_state_energies(
        ops, states[1], products[3], config.potential.value(states[1])))

    for i in range(1, n + 1):
        # the cubic through u_{i-4}..u_{i-1} is O(tau^4) from u_i on a smooth
        # trajectory, where the linear start is O(tau^2) away
        coef = _CUBIC if i >= 3 else _LINEAR
        start = coef @ states[i + 1 - coef.size:i + 1]
        if config.obstacle is not None and (start < config.obstacle).any():
            start = np.maximum(start, config.obstacle)
            product = None   # a clipped start is no combination of the states
        else:
            # A_s is linear: the same combination of the states' products
            product = coef @ products[4 - coef.size:]
        try:
            result = minimize_step(
                ops, config.potential, u1=states[i], u2=states[i - 1], tau=tau,
                obstacle=config.obstacle, solver=config.solver, warm_start=start,
                warm_product=product)
        except (SolverFailure, BlowupError) as exc:
            exc.step = i
            exc.args = (f"step {i}: {exc}",)
            raise
        states[i + 1] = result.u
        products[:-1] = products[1:]
        products[-1] = result.product
        iterations[i - 1] = result.iterations
        residuals[i - 1] = result.residual
        tols[i - 1] = result.tol
        energies[i] = _energy_row(ops, (states[i + 1] - states[i]) / tau,
                                  result.frac_energy, result.pot_energy)
    return Trajectory(config, tau, states, iterations, residuals, tols, energies)


def energy(traj: Trajectory, i: int):
    """(kinetic, fractional, potential, total) at step i (0 <= i <= n),
    recomputed from the states."""
    ops = traj.config.ops
    u = traj.u(i)
    return _energy_row(ops, traj.v(i), *_state_energies(
        ops, u, ops.A_s @ u, traj.config.potential.value(u)))


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


def step_gradient(ops: OperatorSet, potential: Potential, traj: Trajectory,
                  i: int) -> np.ndarray:
    """grad J_i(u_i): the gradient of step i's functional, with inertia
    history (u_{i-1}, u_{i-2}), at the state u_i the step returned; the
    discrete Euler-Lagrange residual of step i (1 <= i <= n)."""
    if not 1 <= i <= traj.n_steps:
        raise ConfigurationError(f"step index {i} out of range")
    return _evaluate(ops, potential, _scaled_mass(ops, traj.tau), traj.u(i),
                     2.0 * traj.u(i - 1) - traj.u(i - 2))[1]


def el_residual(ops: OperatorSet, potential: Potential, traj: Trajectory,
                i: int) -> float:
    """Mass-weighted norm of the discrete Euler-Lagrange residual at step i.

    At most the solver tolerance after a converged obstacle-free step.
    """
    return ops.dual_norm(step_gradient(ops, potential, traj, i))


def vi_residuals(ops: OperatorSet, potential: Potential, traj: Trajectory,
                 i: int, g: np.ndarray):
    """Variational-inequality residuals at step i of an obstacle run.

    Returns (min_dual, complementarity): the smallest residual density
    (lumped-mass scaling, must be >= -tol) and |r . (u_i - g)| (must be
    <= tol * (1 + |u_i - g|_M)).  Thresholds are enforced by tests.
    """
    r = step_gradient(ops, potential, traj, i)
    min_dual = float((r / ops.lumps).min())
    complementarity = abs(float(r @ (traj.u(i) - g)))
    return min_dual, complementarity
