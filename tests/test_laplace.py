import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import ptlab.laplace as laplace_mod
from ptlab.bounds import nrpt_infinite_tail
from ptlab.laplace import (
    _bromwich,
    _moments,
    _phases,
    c_analytic_bound,
    d_real_axis,
    default_t_grid,
    estimate_C,
    estimate_C_sup,
    eval_D,
    eval_F,
)

GL4_X, GL4_W = np.polynomial.legendre.leggauss(4)


def where_form_eval_D(x, z, lam):
    """eval_D as written before the sinhc series was limited to |w| < 1e-4:
    the series and sinh(w)/w both on every entry, joined by np.where."""
    z = np.asarray(z, dtype=complex)
    w = x * np.sqrt(z * z + 2.0 * lam * z)
    small = np.abs(w) < 1e-4
    wsafe = np.where(small, 1.0, w)
    sinhc = np.where(small, 1.0 + w * w / 6.0 + w**4 / 120.0,
                     np.sinh(wsafe) / wsafe)
    return np.cosh(w) + z * x * sinhc


def per_t_bromwich_integral(lam, t, a, tail_tol):
    """The Bromwich integral as computed before the t grid shared its nodes:
    fresh panels and far grid for this one t, step min(0.25, pi/(8t)), far
    end exactly at the truncation point.  Kept as a reference quadrature."""
    c = 1.0 - np.exp(-lam)
    decay = 765.0 * lam * np.exp(-0.75 * lam)
    b0 = np.sqrt(6.0) * (lam + 1.0)
    r_plain = decay / (np.pi * tail_tol)
    r_osc = np.sqrt(3.0 * decay / (np.pi * t * tail_tol)) if decay > 0 else 0.0
    r_max = max(b0, min(r_plain, r_osc))
    osc_cap = np.pi / (8.0 * t)
    delta = a + 1.0 / (lam + np.sqrt(2.0))
    x_split = min(2.0, r_max)

    def g(x):
        z = a + 1j * x
        return eval_F(z, lam) - c / z

    edges = [0.0]
    x = 0.0
    while x < x_split:
        x = min(x + min(max(x / 8.0, delta / 8.0), osc_cap, 0.25), x_split)
        edges.append(x)
    edges = np.asarray(edges)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xn = (mid[:, None] + half[:, None] * GL4_X).ravel()
    wn = (half[:, None] * GL4_W).ravel()
    total = float(np.sum(wn * np.real(np.exp(1j * xn * t) * g(xn))))
    if r_max > x_split:
        n_iv = int(np.ceil((r_max - x_split) / min(0.25, osc_cap)))
        n_iv += n_iv % 2
        xs = np.linspace(x_split, r_max, n_iv + 1)
        f = np.real(np.exp(1j * xs * t) * g(xs))
        h = xs[1] - xs[0]
        total += h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                            + 2.0 * f[2:-2:2].sum())
    return total / np.pi


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

    def test_byte_identical_to_where_form(self):
        # |w| from 0.5e-4 to 2e-4 in every direction, plus ordinary points
        lam = 3.0
        rng = np.random.default_rng(0)
        w = (np.geomspace(0.5e-4, 2e-4, 400)
             * np.exp(1j * rng.uniform(-np.pi, np.pi, 400)))
        z = np.concatenate([-lam + np.sqrt(lam**2 + w**2),
                            rng.normal(size=200) + 1j * rng.normal(size=200)])
        small = np.abs(np.sqrt(z * z + 2.0 * lam * z)) < 1e-4
        assert 0 < small.sum() < small.size - 200
        assert np.array_equal(eval_D(1.0, z, lam),
                              where_form_eval_D(1.0, z, lam))
        for zi in z[::50]:
            assert eval_D(1.0, zi, lam) == where_form_eval_D(1.0, zi, lam)

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
        # The analytic bound needs |D(1, -gamma + ix)| >= 0.07 for x in
        # [0, eps], gamma = 1/(lam + 2), eps = 1/(136 lam); its hypotheses
        # hold there for every finite lam >= 1.  Measured minima over 400
        # points: 0.432, 0.229, 0.167, 0.157.
        for lam in (1.0, 8.0, 64.0, 512.0):
            gamma, eps = 1.0 / (lam + 2.0), 1.0 / (136.0 * lam)
            xs = np.linspace(0.0, eps, 400)
            assert np.abs(eval_D(1.0, -gamma + 1j * xs, lam)).min() >= 0.07


class TestNonFiniteLambda:
    """NaN and inf fail every lam >= 1 check, before any quadrature: a NaN
    once made the near-zone panel width 0 and the panel loop endless."""

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [
        lambda lam: estimate_C(lam, 1.0),
        lambda lam: estimate_C_sup(lam),
        c_analytic_bound,
        lambda lam: _bromwich(lam, [1.0], 0.1, 1e-3),
    ], ids=["estimate_C", "estimate_C_sup", "c_analytic_bound", "_bromwich"])
    def test_rejected(self, fn, lam):
        with pytest.raises(ValueError):
            fn(lam)

    def test_nan_contour_rejected(self):
        # a NaN abscissa makes delta NaN, which must fail `delta > 0`
        with pytest.raises(ValueError, match="pole-free strip"):
            _bromwich(1.0, [1.0], np.nan, 1e-3)


class TestInvalidT:
    """A t that is not finite and positive fails before any quadrature: an
    infinite t once made the panel width 0 and the panel loop endless, and
    a NaN t returned NaN."""

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, -1.0,
                                   [1.0, np.inf], [np.nan, 2.0]])
    @pytest.mark.parametrize("fn", [estimate_C], ids=["estimate_C"])
    def test_rejected(self, fn, t):
        with pytest.raises(ValueError, match="finite and positive"):
            fn(2.0, t)


class TestFilonRules:
    """The moments mu_m(theta) = int_{-1}^{1} u^m e^{i theta u} du, and the
    two Filon rules built from them, integrate e^{ixt} exactly against the
    interpolants: cubics on the near panels, quadratics on the far pairs."""

    @pytest.mark.parametrize("theta", [0.0, 1e-8, 0.01, 0.5, 1.0 - 1e-12, 1.0,
                                       1.0 + 1e-12, 7.3, 187.5])
    def test_moments_match_quadrature(self, theta):
        mu = _moments(theta)
        for m in range(4):
            kw = dict(weight="cos", wvar=theta, epsabs=1e-13, epsrel=1e-13)
            re = quad(lambda u: u**m, -1.0, 1.0, **kw)[0]
            kw["weight"] = "sin"
            im = quad(lambda u: u**m, -1.0, 1.0, **kw)[0]
            assert abs(mu[m] - (re + 1j * im)) < 1e-14, m

    @pytest.mark.parametrize("t", [1e-3, 1.0, 3000.0])
    @pytest.mark.parametrize("zone, degrees, lam, a, lo, hi", [
        # lam = 32 on its own contour: the graded near panels, far zone off
        ("near", range(4), 32.0, -1.0 / 34.0, 0.0, 2.0),
        # lam = 0 with a loose budget: R = sqrt(6) rounded up to 2.5
        ("far", range(3), 0.0, 0.1, 2.0, 2.5),
    ], ids=["near-cubic", "far-quadratic"])
    def test_rule_is_exact(self, monkeypatch, t, zone, degrees, lam, a, lo,
                           hi):
        """With F - c/z = (1 + 2i) x^k on [lo, hi] and 0 elsewhere,
        _bromwich returns (1/pi) Re((1 + 2i) int_lo^hi x^k e^{ixt} dx)."""
        c = 1.0 - np.exp(-lam)
        for k in degrees:
            def fake_F(z, lam, k=k):
                x = z.imag
                inside = (x < 2.0) if zone == "near" else (x >= 2.0)
                return c / z + np.where(inside, (1 + 2j) * x**k, 0.0)

            monkeypatch.setattr(laplace_mod, "eval_F", fake_F)
            kw = dict(wvar=t, epsabs=1e-13, epsrel=1e-13)
            cos = quad(lambda x: x**k, lo, hi, weight="cos", **kw)[0]
            sin = quad(lambda x: x**k, lo, hi, weight="sin", **kw)[0]
            got = _bromwich(lam, t, a, 1.0)[0]
            assert abs(got - (cos - 2.0 * sin) / np.pi) < 1e-13, k


class TestSharedNodes:
    """Every t of a call is integrated on the call's one node set, out to
    its own truncation point, so which other t share the call cannot change
    its value."""

    @pytest.mark.parametrize("lam", [1.0, 32.0])
    def test_value_does_not_depend_on_batching(self, lam):
        grid = default_t_grid()
        curve = estimate_C(lam, grid)
        order = np.random.default_rng(0).permutation(grid.size)
        assert np.array_equal(estimate_C(lam, grid[order]), curve[order])
        for i in (0, 37, 98, 99, 150, 199):
            assert estimate_C(lam, grid[i]) == curve[i]

    @pytest.mark.parametrize("lam, every", [(1.0, 1), (4.0, 1), (32.0, 10)])
    def test_matches_per_t_quadrature(self, lam, every):
        grid = default_t_grid()[::every]
        a = -1.0 / (lam + 2.0)
        ref = [per_t_bromwich_integral(lam, t, a, 4e-3) for t in grid]
        np.testing.assert_allclose(estimate_C(lam, grid), ref, rtol=0,
                                   atol=1e-5)

    def test_survival_matches_per_t_quadrature(self):
        # the reference inverts along Re(z) = 0.1 with a 1e-3 budget; right
        # of 0 the subtracted c/z inverts to the constant c, added back
        lam, ts = 2.0, np.array([0.5, 1.0, 2.0, 4.0])
        ref = [np.exp(0.1 * t) * per_t_bromwich_integral(lam, t, 0.1, 1e-3)
               + 1.0 - np.exp(-lam) for t in ts]
        np.testing.assert_allclose(nrpt_infinite_tail(lam, ts + 1.0), ref,
                                   rtol=0, atol=1e-5)

    @pytest.mark.parametrize("lam", [1.0, 4.0, 32.0])
    def test_halving_the_steps_moves_no_value(self, monkeypatch, lam):
        """The truncation points do not depend on the steps, so halving the
        far step and the near-panel cap measures the quadrature error alone
        (measured: 2.2e-7 at lam = 1, 1.5e-7 at 4, 1.6e-8 at 32)."""
        grid = default_t_grid()
        curve = estimate_C(lam, grid)
        monkeypatch.setattr(laplace_mod, "_FAR_STEP",
                            laplace_mod._FAR_STEP / 2.0)
        monkeypatch.setattr(laplace_mod, "_NEAR_CAP",
                            laplace_mod._NEAR_CAP / 2.0)
        np.testing.assert_allclose(estimate_C(lam, grid), curve, rtol=0,
                                   atol=1e-6)

    def test_F_is_evaluated_once_per_node(self, monkeypatch):
        seen = []

        def counting_F(z, lam):
            seen.append(np.ravel(z))
            return eval_F(z, lam)

        monkeypatch.setattr(laplace_mod, "eval_F", counting_F)
        estimate_C(32.0, default_t_grid())
        z = np.concatenate(seen)
        assert np.unique(z).size == z.size < 10_000


class TestFarBlocks:
    """A t's far sums add one product per block of pairs its far zone
    reaches, so the block size regroups only the sums of the t whose far
    zone spans several blocks."""

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_smaller_blocks_move_only_split_sums(self, monkeypatch, lam):
        grid = default_t_grid()
        curve = estimate_C(lam, grid)
        phased = []

        def counting_phases(t, x0, dx, n):
            phased.append(t)
            return _phases(t, x0, dx, n)

        monkeypatch.setattr(laplace_mod, "_BLOCK", 1 << 10)
        monkeypatch.setattr(laplace_mod, "_phases", counting_phases)
        blocked = estimate_C(lam, grid)
        np.testing.assert_allclose(blocked, curve, rtol=0, atol=1e-15)
        # one block of phases per t whose far zone fits in one block
        ts, blocks = np.unique(phased, return_counts=True)
        one = np.isin(grid, ts[blocks == 1])
        assert 0 < one.sum() < grid.size
        np.testing.assert_array_equal(blocked[one], curve[one])


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
        vals = nrpt_infinite_tail(2.0, np.array(list(oracle)) + 1.0)
        for val, mc in zip(vals, oracle.values()):
            assert abs(val - mc) < 3e-3
