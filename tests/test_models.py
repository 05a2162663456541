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


def gather_bond_sums(x):
    """Reference Ising bond sums: each site's right and down neighbours
    gathered along the site axis, the 32 bonds of TORUS_EDGES summed in
    int32."""
    x = np.asarray(x)
    right, down = SITE_NEIGHBOURS[:, 0], SITE_NEIGHBOURS[:, 2]
    return (x * (x[..., right] + x[..., down])).sum(axis=-1, dtype=np.int32)


def shift_codes(spins):
    """Reference encoder: bit k of the code is 1 where spin k is +1."""
    spins = np.asarray(spins)
    bits = ((spins + 1) // 2).astype(np.int64)
    return (bits << np.arange(N_SITES)).sum(axis=-1)


def shift_spins(codes):
    """Reference decoder: spin k is +1 where bit k of the code is 1."""
    codes = np.asarray(codes)
    bits = (codes[..., None] >> np.arange(N_SITES)) & 1
    return (2 * bits - 1).astype(np.int8)


def _random_spins(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (2 * rng.integers(0, 2, size=shape) - 1).astype(np.int8)


PACKED_CASES = {
    "all-states": shift_spins(np.arange(65536)),
    "one-state": _random_spins((16,), 1),
    "rows": _random_spins((3, 16), 2),
    "tuning-block": _random_spins((6, 256, 16), 3),
    "4-d": _random_spins((2, 3, 5, 16), 4),
    "strided": _random_spins((6, 40, 16), 5)[:, ::2],
    "int32": _random_spins((4, 9, 16), 6).astype(np.int32),
    "int64": _random_spins((4, 9, 16), 7).astype(np.int64),
    "empty": np.ones((0, 16), dtype=np.int8),
}


class TestPackedCode:
    """The energy reads the uint16 code and the encoder packs it; they
    must match the gather and shift references bit for bit, dtype
    included."""

    @pytest.mark.parametrize("case", PACKED_CASES)
    def test_energy_matches_gather(self, case):
        x = PACKED_CASES[case]
        got = ising_model().log_target_unnorm(codes_from_spins(x))
        ref = gather_bond_sums(x).astype(float)
        assert np.shape(got) == np.shape(ref) == x.shape[:-1]
        assert np.asarray(got).dtype == np.float64
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("case", PACKED_CASES)
    def test_codes_match_shift(self, case):
        x = PACKED_CASES[case]
        got, ref = codes_from_spins(x), shift_codes(x)
        assert np.shape(got) == np.shape(ref) == x.shape[:-1]
        assert np.asarray(got).dtype == np.uint16  # the state dtype
        np.testing.assert_array_equal(got, ref)

    def test_inputs_left_unchanged(self):
        x = _random_spins((3, 7, 16), 8)
        before = x.copy()
        codes = codes_from_spins(x)
        codes_before = codes.copy()
        model = ising_model()
        model.log_target_unnorm(codes)
        model.log_reference(codes)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(codes, codes_before)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_spins_match_shift_on_all_codes(self, dtype):
        codes = np.arange(65536).astype(dtype)
        got = spins_from_codes(codes)
        assert got.dtype == np.int8 and got.shape == (65536, N_SITES)
        np.testing.assert_array_equal(got, shift_spins(codes))

    @pytest.mark.parametrize("codes", [5, [[0, 65535], [1, 40000]],
                                       np.zeros((0,), dtype=np.int64)])
    def test_spins_keep_the_code_shape(self, codes):
        got = spins_from_codes(codes)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, shift_spins(codes))


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
        assert x.dtype == np.uint16 and x.shape == (size,)
        np.testing.assert_array_equal(spins_from_codes(x), ref)
        # both streams are left at the same point
        assert ours.random() == theirs.random()
        np.testing.assert_array_equal(ours.integers(0, 2**32, 5),
                                      theirs.integers(0, 2**32, 5))


class TestIsingStateDtype:
    """Ising states are uint16 codes; the old int8 spin layout, or codes
    of any other dtype, must raise rather than be read as codes."""

    @pytest.mark.parametrize("fn", ["log_reference", "log_target_unnorm"])
    @pytest.mark.parametrize("x", [
        np.full((3, N_SITES), -1, dtype=np.int8),  # spins: -1 reads as 65535
        np.arange(5, dtype=np.int64),
        np.arange(5, dtype=np.int16),
    ], ids=["int8-spins", "int64-codes", "int16-codes"])
    def test_other_dtypes_raise(self, fn, x):
        with pytest.raises(ValueError, match="uint16 codes"):
            getattr(ising_model(), fn)(x)


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
        # every state, exactly: the energy of a code is its table entry,
        # and the table's edge loop and the gather reference count the
        # same 32 bonds of the code's spins
        codes = np.arange(65536, dtype=np.uint16)
        v = energy(ising_model(), codes)
        np.testing.assert_array_equal(v, -16 * np.log(2.0) - ising_bond_sums())
        np.testing.assert_array_equal(
            v, -16 * np.log(2.0) - gather_bond_sums(spins_from_codes(codes)))

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


S2 = 100.0**2 + 1.0


def _reference_log_reference(x):
    """bimodal_pair's log reference as one expression: the reference its
    in-place evaluation must match bit for bit."""
    x = np.asarray(x, dtype=float)
    return -0.5 * x**2 / S2 - 0.5 * np.log(2 * np.pi * S2)


def _reference_log_target(x):
    """bimodal_pair's log target with the exact far branch, written with
    out-of-place temporaries: the reference its in-place evaluation must
    match bit for bit."""
    x = np.asarray(x, dtype=float)
    d = np.abs(x)
    out = np.asarray(-0.5 * (d - 100.0) ** 2)
    near = ~(d >= 4.0)
    xn = x[near]
    out[near] = np.logaddexp(-0.5 * (xn + 100.0) ** 2,
                             -0.5 * (xn - 100.0) ** 2)
    return out + np.log(0.5) - 0.5 * np.log(2 * np.pi)


EDGE_STATES = [0.0, -0.0, 4.0, -4.0, np.nextafter(4.0, 0.0),
               -np.nextafter(4.0, 0.0), 100.0, -100.0, np.inf, -np.inf,
               1e308, -1e308, 1e154, 5e-324, np.nan, -np.nan]


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

    @pytest.mark.parametrize("x", [
        pytest.param(np.array(EDGE_STATES), id="edges"),
        pytest.param(np.array(EDGE_STATES).reshape(4, 4), id="edges-2d"),
        pytest.param(_bimodal_grid()[1].mids, id="grid-mids"),
        pytest.param(np.concatenate([
            make_stream(5, 0, 0).normal(0.0, 100.0, 200_000),
            np.linspace(3.5, 4.5, 100_001)]), id="random-and-sweep"),
    ] + [pytest.param(v, id=f"scalar-{v!r}") for v in EDGE_STATES]
      + [pytest.param(np.asarray(v), id=f"0d-{v!r}") for v in EDGE_STATES])
    @pytest.mark.parametrize("name, reference", [
        ("log_reference", _reference_log_reference),
        ("log_target_unnorm", _reference_log_target),
    ])
    def test_in_place_densities_match_reference(self, x, name, reference):
        with np.errstate(over="ignore", invalid="ignore"):
            got = getattr(bimodal_pair(), name)(x)
            ref = reference(x)
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref)
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(ref).view(np.int64))

    def test_densities_leave_their_input_unchanged(self):
        x = np.array(EDGE_STATES)
        before = x.copy()
        model = bimodal_pair()
        with np.errstate(over="ignore", invalid="ignore"):
            model.log_reference(x)
            model.log_target_unnorm(x)
        np.testing.assert_array_equal(x.view(np.int64),
                                      before.view(np.int64))

    def test_reference_dominates_modes(self):
        model = bimodal_pair()
        # the energy at the modes must be finite and moderate
        v = energy(model, np.array([-100.0, 0.0, 100.0]))
        assert np.all(np.isfinite(v))
