import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab.core import (
    AnnealingSchedule,
    TargetModel,
    energy,
    log_path_density,
    swap_acceptance,
)
from ptlab.models import gaussian_shift_pair
from ptlab.rng import make_stream


class TestAnnealingSchedule:
    def test_uniform_knots_exact(self):
        s = AnnealingSchedule.uniform(4)
        assert s.betas[0] == 0.0 and s.betas[-1] == 1.0
        np.testing.assert_allclose(s.betas, [0, 0.25, 0.5, 0.75, 1.0],
                                   atol=1e-15)
        assert s.n_intervals == 4

    @pytest.mark.parametrize("betas", [
        [0.0, 0.5],                 # does not end at 1
        [0.1, 0.5, 1.0],            # does not start at 0
        [0.0, 0.5, 0.5, 1.0],       # not strictly increasing
        [0.0, 0.7, 0.3, 1.0],       # decreasing
        [0.0],                      # too short
        [0.0, np.nan, 1.0],         # NaN passes every order check
    ])
    def test_invalid_schedules_raise(self, betas):
        with pytest.raises(ValueError):
            AnnealingSchedule(np.asarray(betas, dtype=float))

    @given(n=st.integers(min_value=1, max_value=50))
    def test_uniform_endpoints_any_size(self, n):
        s = AnnealingSchedule.uniform(n)
        assert s.betas[0] == 0.0 and s.betas[-1] == 1.0
        assert np.all(np.diff(s.betas) > 0)


class TestEnergy:
    def test_gaussian_energy_closed_form(self):
        mu = 2.0
        model = gaussian_shift_pair(mu)
        x = np.array([0.0, 1.0, -3.0])
        # V(x) = log N(x;0,1) - log N(x;mu,1) = mu^2/2 - mu x
        np.testing.assert_allclose(energy(model, x), mu**2 / 2 - mu * x,
                                   atol=1e-12)

    def test_nan_energy_rejected(self):
        model = TargetModel(
            log_reference=lambda x: np.where(x > 0, 0.0, np.nan),
            log_target_unnorm=lambda x: np.zeros_like(x),
        )
        with pytest.raises(ValueError):
            energy(model, np.array([-1.0]))

    @pytest.mark.parametrize("lr, lt, message", [
        ([0.0, np.nan, 0.0], [0.0, 0.0, 0.0], "NaN log-density"),
        ([0.0, 0.0, 0.0], [0.0, 0.0, np.nan], "NaN log-density"),
        # a NaN elsewhere is still named, even next to an inf - inf
        ([np.inf, 0.0, 0.0], [np.inf, np.nan, 0.0], "NaN log-density"),
        ([0.0, np.inf, 0.0], [0.0, np.inf, 0.0], r"indeterminate energy \(inf - inf\)"),
        ([0.0, -np.inf, 0.0], [0.0, -np.inf, 0.0], r"indeterminate energy \(inf - inf\)"),
    ])
    def test_bad_log_densities_name_their_fault(self, lr, lt, message):
        model = TargetModel(log_reference=lambda x: np.array(lr),
                            log_target_unnorm=lambda x: np.array(lt))
        with pytest.raises(ValueError, match=message):
            energy(model, np.zeros(3))

    def test_infinite_energy_allowed(self):
        model = TargetModel(
            log_reference=lambda x: np.zeros_like(x),
            log_target_unnorm=lambda x: np.where(x > 0, 0.0, -np.inf),
        )
        v = energy(model, np.array([-1.0, 1.0]))
        assert v[0] == np.inf and v[1] == 0.0


class TestLogPathDensity:
    def test_beta_zero_is_reference(self):
        model = gaussian_shift_pair(3.0)
        x = np.array([0.5, -2.0])
        np.testing.assert_allclose(log_path_density(model, 0.0, x),
                                   model.log_reference(x), atol=1e-12)

    def test_beta_one_is_target(self):
        model = gaussian_shift_pair(3.0)
        x = np.array([0.5, -2.0])
        np.testing.assert_allclose(log_path_density(model, 1.0, x),
                                   model.log_target_unnorm(x), atol=1e-12)

    def test_interpolation_midpoint(self):
        model = gaussian_shift_pair(1.0)
        x = np.array([0.7])
        lo = model.log_reference(x)
        expected = lo - 0.5 * energy(model, x)
        np.testing.assert_allclose(log_path_density(model, 0.5, x),
                                   expected, atol=1e-12)


def _reference_swap_acceptance(beta_lo, beta_hi, v_lo, v_hi):
    """swap_acceptance as first vectorized, in ten full-width passes: the
    reference the six-pass version must match bit for bit."""
    beta_lo = np.asarray(beta_lo, dtype=float)
    beta_hi = np.asarray(beta_hi, dtype=float)
    v_lo = np.asarray(v_lo, dtype=float)
    v_hi = np.asarray(v_hi, dtype=float)
    gap = beta_hi - beta_lo
    with np.errstate(invalid="ignore", over="ignore"):
        diff = v_hi - v_lo
        diff = np.where(np.isnan(diff), 0.0, diff)
        alpha = np.exp(np.minimum(0.0, gap * diff))
    return alpha if alpha.ndim else float(alpha)


EDGE_ENERGIES = np.array([
    0.0, -0.0, 4.0, -4.0, np.nextafter(4.0, 0.0), -np.nextafter(4.0, 0.0),
    np.inf, -np.inf, 1e308, -1e308, 1.0, -2.5, 700.0, -700.0, 5e-324])


class TestSwapAcceptance:
    def test_equal_energies_always_accept(self):
        assert swap_acceptance(0.2, 0.5, 3.7, 3.7) == 1.0

    def test_formula_value(self):
        # alpha = exp(min(0, (b_hi - b_lo)(V_hi - V_lo)))
        a = swap_acceptance(0.2, 0.5, 1.0, 0.0)
        np.testing.assert_allclose(a, np.exp(0.3 * (0.0 - 1.0)), atol=1e-14)

    def test_favourable_ordering_accepts(self):
        # V_hi > V_lo makes the exponent positive -> clipped at 1
        assert swap_acceptance(0.2, 0.5, 0.0, 1.0) == 1.0

    def test_vectorized(self):
        v_lo = np.array([1.0, 0.0])
        v_hi = np.array([0.0, 1.0])
        a = swap_acceptance(0.0, 1.0, v_lo, v_hi)
        np.testing.assert_allclose(a, [np.exp(-1.0), 1.0], atol=1e-14)

    def test_beta_arrays_match_per_pair_calls(self):
        betas = np.array([0.0, 0.1, 0.35, 0.7, 1.0])
        v = make_stream(3, 0, 0).normal(0.0, 5.0, size=(5, 7))
        v[2, 0] = v[3, 0] = np.inf
        a = swap_acceptance(betas[:-1, None], betas[1:, None], v[:-1], v[1:])
        assert a.shape == (4, 7)
        for n in range(4):
            np.testing.assert_array_equal(
                a[n], swap_acceptance(betas[n], betas[n + 1], v[n], v[n + 1]))

    def test_reversed_beta_in_array_raises(self):
        with pytest.raises(ValueError):
            swap_acceptance(np.array([0.0, 0.5]), np.array([0.5, 0.4]),
                            np.zeros(2), np.zeros(2))

    def test_conflicting_infinities_accept(self):
        assert swap_acceptance(0.0, 1.0, np.inf, np.inf) == 1.0

    @given(
        v_lo=st.floats(-50, 50), v_hi=st.floats(-50, 50),
        shift=st.floats(-100, 100),
        b=st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(
            lambda t: t[0] < t[1]),
    )
    @settings(max_examples=200)
    def test_additive_shift_invariance(self, v_lo, v_hi, shift, b):
        a1 = swap_acceptance(b[0], b[1], v_lo, v_hi)
        a2 = swap_acceptance(b[0], b[1], v_lo + shift, v_hi + shift)
        assert 0.0 < a1 <= 1.0
        np.testing.assert_allclose(a1, a2, rtol=1e-10)

    def test_reversed_betas_raise(self):
        with pytest.raises(ValueError):
            swap_acceptance(0.8, 0.3, 0.0, 0.0)

    def test_nan_energy_raises(self):
        with pytest.raises(ValueError):
            swap_acceptance(0.3, 0.8, np.nan, 0.0)

    @pytest.mark.parametrize("v_lo, v_hi", [
        (0.0, np.nan), (np.nan, np.nan), (np.nan, np.inf),
        (np.inf, np.nan), ([0.0, np.inf, 1.0], [1.0, np.inf, np.nan]),
    ])
    def test_nan_energy_keeps_its_message(self, v_lo, v_hi):
        # inf - inf beside the NaN must not hide it
        with pytest.raises(ValueError, match="NaN energy in swap_acceptance"):
            swap_acceptance(0.3, 0.8, v_lo, v_hi)

    @pytest.mark.parametrize("beta_lo, beta_hi", [
        (np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan),
        (np.array([0.0, np.nan]), np.array([0.5, 1.0])),
    ])
    def test_nan_beta_raises(self, beta_lo, beta_hi):
        # NaN fails every comparison, so an order test alone let it through
        with pytest.raises(ValueError, match="beta_hi must exceed beta_lo"):
            swap_acceptance(beta_lo, beta_hi, 1.0, 0.0)

    @pytest.mark.parametrize("beta_lo, beta_hi", [
        (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)])
    def test_infinite_gap_raises(self, beta_lo, beta_hi):
        with pytest.raises(ValueError, match="finite"):
            swap_acceptance(beta_lo, beta_hi, 1.0, 0.0)

    @staticmethod
    def _assert_bitwise(beta_lo, beta_hi, v_lo, v_hi):
        got = swap_acceptance(beta_lo, beta_hi, v_lo, v_hi)
        ref = _reference_swap_acceptance(beta_lo, beta_hi, v_lo, v_hi)
        assert type(got) is type(ref)
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(ref).view(np.int64))

    @pytest.mark.parametrize("beta_lo, beta_hi", [
        (0.0, 1.0), (0.2, 0.5), (0.0, 5e-324), (0.3, 0.3 + 2**-40)])
    def test_every_edge_pair_matches_reference(self, beta_lo, beta_hi):
        # all pairs of edge energies, among them inf - inf, -inf - -inf,
        # 1e308 - -1e308 (overflow) and the signed zeros
        v_lo, v_hi = np.meshgrid(EDGE_ENERGIES, EDGE_ENERGIES)
        self._assert_bitwise(beta_lo, beta_hi, v_lo, v_hi)
        for a, b in zip(v_lo.ravel(), v_hi.ravel()):
            self._assert_bitwise(beta_lo, beta_hi, a, b)  # Python floats
            self._assert_bitwise(np.asarray(beta_lo), np.asarray(beta_hi),
                                 np.asarray(a), np.asarray(b))  # 0-d arrays

    def test_schedule_shapes_match_reference(self):
        # (N, 1) betas against (N, R) energies, as communication_step calls
        betas = np.array([0.0, 1e-3, 0.1, 0.35, 0.7, 1.0])[:, None]
        g = make_stream(4, 0, 0)
        v = g.normal(0.0, 50.0, size=(6, 4000))
        v.ravel()[g.choice(v.size, 1500, replace=False)] = g.choice(
            EDGE_ENERGIES, 1500)
        self._assert_bitwise(betas[:-1], betas[1:], v[:-1], v[1:])
        # and broadcast the other way: (N, R) betas against (N, 1) energies
        wide = np.broadcast_to(betas, (6, 7))
        self._assert_bitwise(wide[:-1], wide[1:], v[:-1, :1], v[1:, :1])

    @given(v=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
           b=st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(
               lambda t: t[0] < t[1]))
    @settings(max_examples=300)
    def test_random_pairs_match_reference(self, v, b):
        self._assert_bitwise(b[0], b[1], v[0], v[1])
