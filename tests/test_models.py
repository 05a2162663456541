import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ptlab.core import energy
from ptlab.experiments import _bimodal_grid
from ptlab.models import (
    N_SITES,
    SITE_NEIGHBOURS,
    TORUS_EDGES,
    bimodal_pair,
    codes_from_spins,
    gaussian_shift_barrier,
    gaussian_shift_pair,
    ising_bond_sums,
    ising_exact_distribution,
    ising_model,
    spins_from_codes,
)
from ptlab.rng import make_stream


class TestTorusGeometry:
    def test_edge_count(self):
        # 4x4 periodic lattice: one right and one down bond per site
        assert len(TORUS_EDGES) == 2 * N_SITES

    def test_each_site_has_four_neighbours(self):
        assert SITE_NEIGHBOURS.shape == (N_SITES, 4)
        for i in range(N_SITES):
            assert len(set(SITE_NEIGHBOURS[i])) == 4
            assert i not in SITE_NEIGHBOURS[i]

    def test_neighbours_consistent_with_edges(self):
        from collections import Counter

        deg = Counter()
        for a, b in TORUS_EDGES:
            deg[a] += 1
            deg[b] += 1
            assert b in SITE_NEIGHBOURS[a] and a in SITE_NEIGHBOURS[b]
        assert all(deg[i] == 4 for i in range(N_SITES))


class TestIsingCoding:
    def test_round_trip_small(self):
        codes = np.array([0, 1, 2, 65535])
        back = codes_from_spins(spins_from_codes(codes))
        np.testing.assert_array_equal(back, codes)

    @given(st.lists(st.integers(0, 65535), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_round_trip_property(self, codes):
        codes = np.asarray(codes)
        spins = spins_from_codes(codes)
        assert set(np.unique(spins)) <= {-1, 1}
        np.testing.assert_array_equal(codes_from_spins(spins), codes)

    def test_bond_sums_extremes(self):
        s = ising_bond_sums()
        all_minus = codes_from_spins(np.full((1, N_SITES), -1, dtype=np.int8))
        all_plus = codes_from_spins(np.full((1, N_SITES), 1, dtype=np.int8))
        assert s[all_minus[0]] == 32 and s[all_plus[0]] == 32
        one_flip = np.full((1, N_SITES), 1, dtype=np.int8)
        one_flip[0, 5] = -1
        # flipping one site flips its 4 bonds: 32 - 8
        assert s[codes_from_spins(one_flip)[0]] == 24


class TestIsingReference:
    @pytest.mark.parametrize("size", [1, 3, 256, 20_000])
    def test_spins_and_stream_match_integers(self, size):
        # the reference draws 32-bit words and keeps their top bits; numpy's
        # integers(0, 2) gives the same spins from the same words
        ours, theirs = make_stream(16, 0, 0), make_stream(16, 0, 0)
        x = ising_model().sample_reference(ours, size)
        ref = (2 * theirs.integers(0, 2, size=(size, N_SITES)) - 1
               ).astype(np.int8)
        assert x.dtype == np.int8 and x.shape == (size, N_SITES)
        np.testing.assert_array_equal(x, ref)
        # both streams are left at the same point
        assert ours.random() == theirs.random()
        np.testing.assert_array_equal(ours.integers(0, 2**32, 5),
                                      theirs.integers(0, 2**32, 5))


class TestIsingExactDistribution:
    def test_beta_zero_uniform(self):
        d = ising_exact_distribution(0.0)
        np.testing.assert_allclose(d.probs, 1.0 / 65536, atol=1e-18)

    def test_normalizes(self):
        d = ising_exact_distribution(1.0)
        np.testing.assert_allclose(d.probs.sum(), 1.0, atol=1e-12)

    def test_global_spin_flip_symmetry(self):
        d = ising_exact_distribution(0.7)
        # complementing all 16 bits maps s -> -s, which preserves bond sums
        np.testing.assert_allclose(d.probs, d.probs[np.arange(65536) ^ 65535],
                                   atol=1e-18)

    def test_log_z_beta_zero(self):
        d = ising_exact_distribution(0.0)
        np.testing.assert_allclose(d.log_z, 16 * np.log(2.0), atol=1e-10)

    def test_model_energy_matches_table(self):
        # every state, exactly: the energy's bond sum and the table's
        # edge loop count the same 32 bonds
        v = energy(ising_model(), spins_from_codes(np.arange(65536)))
        np.testing.assert_array_equal(v, -16 * np.log(2.0) - ising_bond_sums())

    def test_bad_beta_raises(self):
        with pytest.raises(ValueError):
            ising_exact_distribution(1.5)


class TestGaussianShiftPair:
    def test_barrier_closed_form(self):
        np.testing.assert_allclose(gaussian_shift_barrier(2.0),
                                   2.0 / np.sqrt(np.pi), atol=1e-15)

    def test_reference_sampler_standard_normal(self):
        model = gaussian_shift_pair(2.0)
        x = model.sample_reference(make_stream(1, 0, 0), 100_000)
        assert abs(x.mean()) < 0.02 and abs(x.std() - 1.0) < 0.02


def _logaddexp_log_target(x):
    """bimodal_pair's log target as first written, with np.logaddexp on
    every state: the reference its exact far branch must match bit for bit."""
    x = np.asarray(x, dtype=float)
    a = -0.5 * (x + 100.0) ** 2
    b = -0.5 * (x - 100.0) ** 2
    return np.logaddexp(a, b) + np.log(0.5) - 0.5 * np.log(2 * np.pi)


class TestBimodalPair:
    def test_target_symmetric(self):
        model = bimodal_pair()
        x = np.array([-120.0, -100.0, -5.0, 5.0, 100.0, 120.0])
        lt = model.log_target_unnorm(x)
        np.testing.assert_allclose(lt, lt[::-1], atol=1e-10)

    def test_target_normalized(self):
        model = bimodal_pair()
        val, _ = integrate.quad(
            lambda x: np.exp(model.log_target_unnorm(np.array([x]))[0]),
            -150, -50)
        # each mode carries probability 1/2
        np.testing.assert_allclose(val, 0.5, rtol=1e-8)

    def test_exact_far_branch_is_bitwise_logaddexp(self):
        model = bimodal_pair()
        rng = make_stream(2, 0, 0)
        sweep = np.linspace(3.5, 4.5, 200_001)
        huge = np.geomspace(4.0, 1e308, 20_001)
        x = np.concatenate([
            _bimodal_grid()[1].mids,
            model.sample_reference(rng, 100_000),
            -100.0 + rng.standard_normal(100_000),
            100.0 + rng.standard_normal(100_000),
            sweep, -sweep, huge, -huge,
            [0.0, -0.0, 100.0, -100.0, np.inf, -np.inf, np.nan, -np.nan],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            got = model.log_target_unnorm(x)
            ref = _logaddexp_log_target(x)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("x", [3.0, -250.0, [1.5, -99.0],
                                   np.linspace(-300.0, 300.0, 13_000)
                                   .reshape(13, 1000)])
    def test_shape_and_type_unchanged(self, x):
        got = bimodal_pair().log_target_unnorm(x)
        ref = _logaddexp_log_target(x)
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref)
        assert got.dtype == ref.dtype == np.float64
        if np.ndim(x) == 0:
            assert isinstance(got, np.float64)

    def test_reference_dominates_modes(self):
        model = bimodal_pair()
        # the energy at the modes must be finite and moderate
        v = energy(model, np.array([-100.0, 0.0, 100.0]))
        assert np.all(np.isfinite(v))
