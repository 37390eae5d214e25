"""Reaction potentials: pointwise energy density W with its exact first and
second derivatives.

All densities are non-negative and act nodewise on scalars or arrays.  The
second derivative (`curvature`) enters the Newton system of each time step,
whose functional stays convex while 1/tau^2 dominates max(-W'').

Each potential implements one method, `evaluate(u, curvature=False)`, which
gives (W(u), W'(u), W''(u) or None) in one pass that forms the shared
subexpressions (u^2, 1 + u^2) once: the time step takes its potential terms
from it.  `value`, `gradient` and `curvature` read one entry of it, so every
route to W and its derivatives gives the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


class Potential:
    """Base class: the evaluate contract, and value, gradient and curvature
    read off it."""

    def evaluate(self, u, curvature=False):
        """(W(u), W'(u), W''(u) if curvature else None)."""
        raise NotImplementedError

    def value(self, u):
        return self.evaluate(u)[0]

    def gradient(self, u):
        return self.evaluate(u)[1]

    def curvature(self, u):
        return self.evaluate(u, curvature=True)[2]


class ZeroPotential(Potential):
    def evaluate(self, u, curvature=False):
        # one array for all three: no caller writes into them
        zero = np.zeros_like(np.asarray(u, dtype=float))
        return zero, zero, zero if curvature else None


class QuadraticPotential(Potential):
    """W(u) = c u^2 / 2 with c >= 0."""

    def __init__(self, c: float):
        if c < 0:
            raise ConfigurationError("quadratic coefficient must be >= 0")
        self.c = float(c)

    def evaluate(self, u, curvature=False):
        u = np.asarray(u, dtype=float)
        return (0.5 * self.c * (u * u), self.c * u,
                np.full_like(u, self.c) if curvature else None)


class DoubleWellPotential(Potential):
    """Balanced rational double well W(u) = (1 - u^2)^2 / (1 + u^2).

    Vanishes exactly on |u| = 1, equals 1 at the origin, and has globally
    bounded curvature (W'' >= -6, attained at the origin).
    """

    def evaluate(self, u, curvature=False):
        """With q = u^2 and p = 1 + q: W = (1 - q)^2 / p, W' = -2 (1 - q)
        (3 + q) / p^2 u and W'' = (2q^3 + 6q^2 + 30q - 6) / p^3, the
        numerator in Horner form and the powers as products (p * p * p),
        not float powers."""
        u = np.asarray(u, dtype=float)
        q = u * u
        p = 1.0 + q
        a = 1.0 - q
        curv = ((((2.0 * q + 6.0) * q + 30.0) * q - 6.0) / (p * p * p)
                if curvature else None)
        return a * a / p, -2.0 * a * (3.0 + q) / (p * p) * u, curv


class ScaledPotential(Potential):
    """Interface-scaling wrapper: W = inner / eps^2.

    Running the scaled potential turns the eps-weighted wave equation into
    the plain form with a stiff reaction term of size 1/eps^2.
    """

    def __init__(self, inner: Potential, eps: float):
        if not eps > 0:
            raise ConfigurationError("eps must be positive")
        if isinstance(inner, ScaledPotential):
            raise ConfigurationError("nested eps-scaling is not supported")
        self.inner = inner
        self.eps = float(eps)

    def evaluate(self, u, curvature=False):
        value, slope, curv = self.inner.evaluate(u, curvature)
        scale = self.eps**2
        return (value / scale, slope / scale,
                None if curv is None else curv / scale)


def zero_potential() -> ZeroPotential:
    return ZeroPotential()


def quadratic(c: float) -> QuadraticPotential:
    return QuadraticPotential(c)


def double_well() -> DoubleWellPotential:
    return DoubleWellPotential()


def gl_scaled(inner: Potential, eps: float) -> ScaledPotential:
    return ScaledPotential(inner, eps)
