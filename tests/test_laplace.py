import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ptlab.laplace import (
    c_analytic_bound,
    d_real_axis,
    estimate_C,
    estimate_C_sup,
    eval_D,
    eval_F,
    pole_margin_check,
    survival_from_transform,
)


class TestEvalD:
    def test_at_zero_argument(self):
        # w = x sqrt(z^2 + 2 lam z) vanishes at z = 0: D = cosh(0) = 1
        assert abs(eval_D(1.0, 0.0 + 0.0j, 2.0) - 1.0) < 1e-14

    def test_series_branch_continuity(self):
        # the sinhc power series (|w| < 1e-4) must join the exact formula
        lam = 3.0
        # pick z so that |w| straddles the switch point
        for scale in (0.9, 1.1):
            z = (1e-4 * scale) ** 2 / (2 * lam) + 0j
            w = np.sqrt(z**2 + 2 * lam * z)
            direct = np.cosh(w) + z * np.sinh(w) / w
            assert abs(eval_D(1.0, z, lam) - direct) < 1e-12

    def test_real_axis_formula(self):
        # on z = -gamma < 0 the argument is imaginary:
        # D = cos(s) - (gamma/s) sin(s), s = sqrt(gamma (2 lam - gamma))
        lam, gamma = 4.0, 0.1
        s = np.sqrt(gamma * (2 * lam - gamma))
        expected = np.cos(s) - (gamma / s) * np.sin(s)
        np.testing.assert_allclose(d_real_axis(lam, gamma), expected,
                                   atol=1e-12)
        np.testing.assert_allclose(eval_D(1.0, -gamma + 0j, lam).real,
                                   expected, atol=1e-12)

    @given(re=st.floats(-2, 2), im=st.floats(0.01, 50),
           lam=st.floats(1, 64))
    @settings(max_examples=100)
    def test_conjugate_symmetry(self, re, im, lam):
        z = complex(re, im)
        d1 = eval_D(1.0, z, lam)
        d2 = eval_D(1.0, np.conj(z), lam)
        np.testing.assert_allclose(d1, np.conj(d2), rtol=1e-10, atol=1e-12)


class TestEvalF:
    @given(re=st.floats(-0.1, 2), im=st.floats(0.05, 50),
           lam=st.floats(1, 64))
    @settings(max_examples=100)
    def test_conjugate_symmetry(self, re, im, lam):
        z = complex(re, im)
        f1 = eval_F(z, lam)
        f2 = eval_F(np.conj(z), lam)
        np.testing.assert_allclose(f1, np.conj(f2), rtol=1e-9, atol=1e-12)

    def test_decay_along_contour(self):
        # F(a + iy) ~ c/(a + iy) high up the contour
        lam = 2.0
        a = -1.0 / (lam + 2.0)
        y = 1e4
        f = eval_F(a + 1j * y, lam)
        c = 1.0 - np.exp(-lam)
        np.testing.assert_allclose(f, c / (a + 1j * y), rtol=0.05)


class TestEvalFFailures:
    def test_zero_argument_is_invalid_input(self):
        with pytest.raises(ValueError):
            eval_F(0.0, 4.0)

    def test_real_zero_of_d_is_numerical_failure(self):
        # D(1, -gamma) changes sign between gamma = 0.2 and 0.3 at lam = 4
        lam = 4.0
        gamma = brentq(lambda g: d_real_axis(lam, g), 0.2, 0.3, xtol=1e-15)
        with pytest.raises(FloatingPointError, match="singular"):
            eval_F(-gamma, lam)


class TestPoleMargin:
    def test_default_contour_clears_poles(self):
        # measured margins: 0.432, 0.229, 0.167, 0.157
        for lam in (1.0, 8.0, 64.0, 512.0):
            assert pole_margin_check(lam) >= 0.07

    def test_hypothesis_violations_raise(self):
        with pytest.raises(ValueError):
            pole_margin_check(0.5)  # needs lam >= 1


class TestNonFiniteLambda:
    """NaN and inf fail every lam >= 1 check, before any quadrature: a NaN
    once made the near-zone panel width 0 and the panel loop endless."""

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [
        lambda lam: estimate_C(lam, 1.0),
        lambda lam: estimate_C_sup(lam),
        pole_margin_check,
        c_analytic_bound,
        lambda lam: survival_from_transform(lam, 1.0),
    ], ids=["estimate_C", "estimate_C_sup", "pole_margin_check",
            "c_analytic_bound", "survival_from_transform"])
    def test_rejected(self, fn, lam):
        with pytest.raises(ValueError):
            fn(lam)


class TestRoundTripConstant:
    def test_small_lambda_value(self):
        sup, _, _ = estimate_C_sup(1.0)
        assert abs(sup - 0.632) < 0.02

    def test_moderate_lambda_value(self):
        sup, _, _ = estimate_C_sup(4.0)
        assert abs(sup - 0.9817) < 0.02

    def test_analytic_bound_frozen_values(self):
        np.testing.assert_allclose(c_analytic_bound(1.0), 81.335, rtol=1e-3)
        np.testing.assert_allclose(c_analytic_bound(512.0), 9.03, rtol=1e-2)

    def test_analytic_bound_hypotheses(self):
        with pytest.raises(ValueError):
            c_analytic_bound(0.5)


class TestSurvivalFromTransform:
    def test_matches_event_driven_monte_carlo(self):
        # frozen MC oracle: 4e5 exact event-driven samples of the continuum
        # persistent walk at lam=2, times shifted by the unit first leg
        oracle = {0.5: 0.6904, 1.0: 0.5576, 2.0: 0.3645, 4.0: 0.1550}
        for t, mc in oracle.items():
            val = survival_from_transform(2.0, t)
            assert abs(val - mc) < 3e-3
