"""Reaction potentials: pointwise energy density W with its exact first and
second derivatives.

All densities are non-negative and act nodewise on scalars or arrays.  The
second derivative (`curvature`) enters the Newton system of each time step,
whose functional stays convex while 1/tau^2 dominates max(-W'').
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


class Potential:
    """Base class: the value/gradient/curvature contract."""

    kind = "abstract"

    def value(self, u):
        raise NotImplementedError

    def gradient(self, u):
        raise NotImplementedError

    def curvature(self, u):
        raise NotImplementedError


class ZeroPotential(Potential):
    kind = "zero"

    def value(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def gradient(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def curvature(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


class QuadraticPotential(Potential):
    """W(u) = c u^2 / 2 with c >= 0."""

    kind = "quadratic"

    def __init__(self, c: float):
        if c < 0:
            raise ConfigurationError("quadratic coefficient must be >= 0")
        self.c = float(c)

    def value(self, u):
        return 0.5 * self.c * np.asarray(u, dtype=float) ** 2

    def gradient(self, u):
        return self.c * np.asarray(u, dtype=float)

    def curvature(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.c)


class DoubleWellPotential(Potential):
    """Balanced rational double well W(u) = (1 - u^2)^2 / (1 + u^2).

    Vanishes exactly on |u| = 1, equals 1 at the origin, and has globally
    bounded curvature (W'' >= -6, attained at the origin).
    """

    kind = "double_well_rational"

    def value(self, u):
        q = np.asarray(u, dtype=float) ** 2
        return (1.0 - q) ** 2 / (1.0 + q)

    def gradient(self, u):
        u = np.asarray(u, dtype=float)
        q = u * u
        return -2.0 * (1.0 - q) * (3.0 + q) / (1.0 + q) ** 2 * u

    def curvature(self, u):
        """(2q^3 + 6q^2 + 30q - 6) / (1 + q)^3 with q = u^2, the numerator in
        Horner form and the cube as p*p*p: products, not float powers."""
        q = np.asarray(u, dtype=float) ** 2
        p = 1.0 + q
        return (((2.0 * q + 6.0) * q + 30.0) * q - 6.0) / (p * p * p)


class ScaledPotential(Potential):
    """Interface-scaling wrapper: W = inner / eps^2.

    Running the scaled potential turns the eps-weighted wave equation into
    the plain form with a stiff reaction term of size 1/eps^2.
    """

    kind = "gl_scaled"

    def __init__(self, inner: Potential, eps: float):
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        if inner.kind == "gl_scaled":
            raise ConfigurationError("nested eps-scaling is not supported")
        self.inner = inner
        self.eps = float(eps)

    def value(self, u):
        return self.inner.value(u) / self.eps**2

    def gradient(self, u):
        return self.inner.gradient(u) / self.eps**2

    def curvature(self, u):
        return self.inner.curvature(u) / self.eps**2


def zero_potential() -> ZeroPotential:
    return ZeroPotential()


def quadratic(c: float) -> QuadraticPotential:
    return QuadraticPotential(c)


def double_well() -> DoubleWellPotential:
    return DoubleWellPotential()


def gl_scaled(inner: Potential, eps: float) -> ScaledPotential:
    return ScaledPotential(inner, eps)
