from fractions import Fraction

import numpy as np
import pytest

from fracwave import ConfigurationError
from fracwave.potentials import (double_well, gl_scaled, quadratic,
                                 zero_potential)


def central_difference(pot, u, h=1e-6):
    return (pot.value(u + h) - pot.value(u - h)) / (2 * h)


class TestValues:
    def test_double_well_origin(self):
        assert double_well().value(0.0) == 1.0

    def test_double_well_vanishes_on_wells(self):
        w = double_well()
        assert w.value(1.0) == 0.0
        assert w.value(-1.0) == 0.0

    def test_scaled_origin(self):
        w = gl_scaled(double_well(), 0.1)
        assert w.value(0.0) == pytest.approx(100.0, rel=1e-14)

    def test_zero_everywhere(self):
        w = zero_potential()
        u = np.linspace(-3, 3, 11)
        assert np.all(w.value(u) == 0.0)
        assert np.all(w.gradient(u) == 0.0)


class TestGradient:
    @pytest.mark.parametrize("pot", [zero_potential(), quadratic(2.5), double_well(),
                                     gl_scaled(double_well(), 0.2)])
    def test_matches_central_difference(self, pot):
        rng = np.random.default_rng(42)
        u = rng.uniform(-2, 2, 1000)
        grad = pot.gradient(u)
        fd = central_difference(pot, u)
        assert np.all(np.abs(grad - fd) <= 1e-6 * (1 + np.abs(grad)))

    def test_double_well_critical_points(self):
        w = double_well()
        assert w.gradient(0.0) == 0.0
        assert float(w.gradient(1.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(w.gradient(-1.0)) == pytest.approx(0.0, abs=1e-15)


class TestCurvature:
    @pytest.mark.parametrize("pot", [zero_potential(), quadratic(2.5), double_well(),
                                     gl_scaled(double_well(), 0.2)])
    def test_matches_central_difference_of_gradient(self, pot):
        rng = np.random.default_rng(43)
        u = rng.uniform(-2, 2, 1000)
        h = 1e-6
        curv = pot.curvature(u)
        fd = (pot.gradient(u + h) - pot.gradient(u - h)) / (2 * h)
        assert curv.shape == u.shape
        assert np.all(np.abs(curv - fd) <= 1e-6 * (1 + np.abs(curv)))

    def test_double_well_within_its_roundoff_bound(self):
        # curvature evaluates (2q^3 + 6q^2 + 30q - 6)/(1 + q)^3, q = u^2, by
        # Horner's rule and p*p*p, p = 1 + q.  With theta_k the error terms of
        # Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        # ch. 3): q = u^2 (1 + theta_1); Horner (eq. 5.3) gives the term a_i q^i
        # a factor 1 + theta_{3i+1} (theta_9 for i = 3), so the numerator errs
        # by at most gamma_9 N~(q), N~ = 2q^3 + 6q^2 + 30q + 6; p carries
        # 1 + theta_2 and the cube 1 + theta_8; the division makes the
        # quotient N^ (1 + theta_17) / (1 + q)^3 (Lemma 3.3), and the total is
        # at most (gamma_9 + gamma_17 (1 + gamma_9)) N~/(1 + q)^3
        # <= gamma_26 N~/(1 + q)^3.  The grid holds the numerator's root.
        unit = np.finfo(float).eps / 2
        gamma26 = Fraction(26 * unit / (1 - 26 * unit))
        q0 = max(r.real for r in np.roots([2.0, 6.0, 30.0, -6.0]) if abs(r.imag) < 1e-12)
        root = np.sqrt(q0)
        near = np.nextafter(root, [-np.inf, np.inf])
        u = np.concatenate([np.linspace(-3.0, 3.0, 3001), [root, -root], near, -near,
                            np.geomspace(1e-8, 1e8, 33)])
        for ui, got in zip(u, double_well().curvature(u)):
            q = Fraction(float(ui)) ** 2
            exact = (((2 * q + 6) * q + 30) * q - 6) / (1 + q) ** 3
            bound = gamma26 * (((2 * q + 6) * q + 30) * q + 6) / (1 + q) ** 3
            assert abs(Fraction(float(got)) - exact) <= bound, ui

    def test_double_well_minimum_at_origin(self):
        # the bound 1/tau^2 > 6/eps^2 for a convex step rests on W'' >= -6
        w = double_well()
        assert w.curvature(0.0) == -6.0
        assert np.all(w.curvature(np.linspace(-3, 3, 10001)) >= -6.0)


class TestNonnegativityAndSymmetry:
    @pytest.mark.parametrize("pot", [zero_potential(), quadratic(1.0), double_well(),
                                     gl_scaled(double_well(), 0.05)])
    def test_nonnegative(self, pot):
        rng = np.random.default_rng(3)
        u = rng.uniform(-2, 2, 1000)
        assert np.all(pot.value(u) >= 0.0)

    def test_even_in_one_component(self):
        w = double_well()
        u = np.linspace(-2, 2, 101)
        assert np.allclose(w.value(u), w.value(-u))
        assert np.allclose(np.abs(w.gradient(u)), np.abs(w.gradient(-u)))


class TestConstruction:
    def test_negative_quadratic_rejected(self):
        with pytest.raises(ConfigurationError):
            quadratic(-1.0)

    def test_bad_eps_rejected(self):
        with pytest.raises(ConfigurationError):
            gl_scaled(double_well(), 0.0)

    def test_nested_scaling_rejected(self):
        with pytest.raises(ConfigurationError):
            gl_scaled(gl_scaled(double_well(), 0.1), 0.1)
