import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reachable_arrays

from ptlab import explorers
from ptlab.core import AnnealingSchedule, TargetModel, energy, log_path_density
from ptlab.diagnostics import empirical_tv_discrete
from ptlab.engine import PTConfig, run_pt
from ptlab.explorers import (
    GUIDE_SIZE,
    MIN_DRAW,
    GaussianPathExplorer,
    IIDReferenceExplorer,
    IdealGridExplorer,
    IdealIsingExplorer,
    IsingGibbsExplorer,
    ROW_SITE,
    SITE_ROW,
    _InverseCdf,
    gibbs_schedule,
    gibbs_thresholds,
)
from ptlab.experiments import BIMODAL_GRID
from ptlab.models import (
    N_SITES,
    SITE_NEIGHBOURS,
    bimodal_pair,
    codes_from_spins,
    gaussian_shift_pair,
    ising_bond_sums,
    ising_exact_distribution,
    ising_model,
    spins_from_codes,
)
from ptlab.rng import make_stream


def ising_states(shape, spin):
    """Codes of `shape` Ising states whose 16 spins all equal `spin`."""
    return codes_from_spins(np.full(shape + (N_SITES,), spin, dtype=np.int8))


def float_states(shape, value):
    return np.full(shape, value, dtype=float)


EXPLORERS = {
    "iid": (lambda: IIDReferenceExplorer(ising_model()), ising_states),
    "gibbs": (lambda: IsingGibbsExplorer(sweeps=1), ising_states),
    "ideal-ising": (IdealIsingExplorer, ising_states),
    "grid": (lambda: IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID),
             float_states),
    "gaussian": (lambda: GaussianPathExplorer(2.0), float_states),
}


@pytest.mark.parametrize("name", list(EXPLORERS))
def test_block_step_matches_chain_by_chain(name):
    # chain k draws only from rngs[k], so stepping a block of chains in one
    # call gives the same states as stepping each chain alone
    build, states = EXPLORERS[name]
    k = build()
    betas = np.array([0.25, 0.5, 1.0])
    x = states((3, 40), -1)
    block = k.step(x, betas, [make_stream(7, c, 0) for c in range(3)])
    assert block.shape == x.shape and block.dtype == x.dtype
    for c in range(3):
        alone = k.step(x[c:c + 1], betas[c:c + 1], [make_stream(7, c, 0)])
        np.testing.assert_array_equal(block[c], alone[0])


RENEWING = ["iid", "ideal-ising", "grid", "gaussian"]


def test_renews_is_set_on_the_renewing_explorers_only():
    for name, (build, _) in EXPLORERS.items():
        assert getattr(build(), "renews", False) == (name in RENEWING)


@pytest.mark.parametrize("name", RENEWING)
def test_renewing_step_splits_over_replicas(name):
    # the renewal contract: the output ignores the input's values, and one
    # call over a + b replicas is a call over a followed by a call over b
    build, states = EXPLORERS[name]
    k = build()
    betas = np.array([0.25, 1.0])
    a, b = 7, 12

    def streams():
        return [make_stream(9, c, 0) for c in range(2)]

    whole = k.step(states((2, a + b), 1), betas, streams())
    rngs = streams()
    first = k.step(states((2, a), -1), betas, rngs)
    second = k.step(states((2, b), 0), betas, rngs)
    np.testing.assert_array_equal(whole, np.concatenate([first, second],
                                                        axis=1))


@pytest.mark.parametrize("model", [
    ising_model, bimodal_pair,
    pytest.param(lambda: gaussian_shift_pair(2.0), id="gaussian_shift_pair")])
def test_sample_reference_splits_over_replicas(model):
    sample = model().sample_reference
    whole = sample(make_stream(10, 0, 0), 19)
    g = make_stream(10, 0, 0)
    np.testing.assert_array_equal(
        whole, np.concatenate([sample(g, 7), sample(g, 12)]))


class TestIIDReference:
    def test_ignores_input_state(self):
        model = ising_model()
        k = IIDReferenceExplorer(model)
        x0 = ising_states((5000,), -1)
        x1 = spins_from_codes(k.step(x0[None], [1.0],
                                     [make_stream(0, 0, 0)])[0])
        assert abs(x1.mean()) < 0.05  # uniform spins

    def test_requires_sampler(self):
        model = gaussian_shift_pair(1.0)
        model = type(model)(log_reference=model.log_reference,
                            log_target_unnorm=model.log_target_unnorm,
                            sample_reference=None)
        with pytest.raises(ValueError):
            IIDReferenceExplorer(model)


class TestIdealIsing:
    def test_samples_match_exact_distribution(self):
        k = IdealIsingExplorer()
        x0 = ising_states((200_000,), 0)
        x1 = k.step(x0[None], [1.0], [make_stream(1, 0, 0)])[0]
        exact = ising_exact_distribution(1.0)
        tv, floor = empirical_tv_discrete(x1, exact)
        assert tv < 3 * floor

    def test_energy_renews(self):
        # one step from reference draws: the output energy is independent
        # of the input's, so their correlation vanishes within Monte Carlo
        # error
        model, rng = ising_model(), make_stream(2, 0, 0)
        x0 = model.sample_reference(rng, 50_000)
        x1 = IdealIsingExplorer().step(x0[None], [0.8], [rng])[0]
        rho = np.corrcoef(energy(model, x0), energy(model, x1))[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(50_000) * 1.5


def raster_scan_gibbs(x, betas, rngs, sweeps):
    """Reference Gibbs kernel: per site, its neighbour sum, p(+1) from the
    exp formula, its threshold ceil(p(+1) 2^32) and one plain 32-bit draw
    g.integers(0, 2**32, R, dtype=np.uint32) per chain, in raster order."""
    x = np.array(x, dtype=np.int8)
    beta = np.asarray(betas, dtype=float)[:, None]
    for _ in range(sweeps):
        for site in range(N_SITES):
            nb_sum = x[:, :, SITE_NEIGHBOURS[site]].sum(axis=2,
                                                        dtype=np.int32)
            p_plus = 1.0 / (1.0 + np.exp(-2.0 * beta * nb_sum))
            u = np.stack([g.integers(0, 2**32, x.shape[1], dtype=np.uint32)
                          for g in rngs])
            x[:, :, site] = np.where(u < np.ceil(p_plus * 2.0**32), 1, -1)
    return x


BETAS = {
    "mixed": [0.0, 0.37, 1.0],
    "zero": [0.0] * 3,  # all five thresholds 2^31
    "five": [5.0] * 3,  # clamped thresholds
    "one-chain": [0.37],
    "one-chain-zero": [0.0],
    "one-chain-five": [5.0],
}


class TestIsingGibbs:
    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("replicas", [1, 40, 41])
    @pytest.mark.parametrize("betas", list(BETAS))
    @pytest.mark.parametrize("per_block", [1, 2, 3, 8, 16, 48])
    def test_matches_raster_scan_bit_for_bit(self, monkeypatch, sweeps,
                                             replicas, betas, per_block):
        # the buffer cap sets how many site updates share a block of draws
        # (made even, at least two, at odd R) and how many rows are packed
        # back at a time (twice as many, so 2 to 16 rows a chunk here); the
        # draws and the result must not depend on the blocking, on the
        # level schedule in it or on the chunks
        betas = np.array(BETAS[betas])
        n = betas.size
        monkeypatch.setattr(explorers, "DRAW_BUFFER_BYTES",
                            per_block * 4 * n * replicas)
        codes = make_stream(9, 1).integers(0, 65536, (3, replicas))[:n]
        x = spins_from_codes(codes)

        def streams():
            return [make_stream(9, 0, c) for c in range(n)]

        out = IsingGibbsExplorer(sweeps=sweeps).step(
            codes.astype(np.uint16), betas, streams())
        assert out.dtype == np.uint16 and out.flags.c_contiguous
        np.testing.assert_array_equal(
            spins_from_codes(out), raster_scan_gibbs(x, betas, streams(),
                                                     sweeps))

    def test_negative_beta_rejected(self):
        # the level codes need thresholds nondecreasing in the neighbour sum
        with pytest.raises(ValueError, match="beta >= 0"):
            IsingGibbsExplorer(sweeps=1).step(
                ising_states((1, 4), 1), [-0.1], [make_stream(9, 0, 0)])

    @pytest.mark.parametrize("x", [
        np.ones((1, 4, 16), dtype=np.int8),  # the old spin layout
        np.zeros((1, 4), dtype=np.int64),
    ], ids=["int8-spins", "int64-codes"])
    def test_states_other_than_uint16_codes_rejected(self, x):
        with pytest.raises(ValueError, match="uint16 codes"):
            IsingGibbsExplorer(sweeps=1).step(x, [0.5],
                                              [make_stream(9, 0, 0)])

    def test_thresholds_nondecreasing_in_neighbours_up(self):
        t = gibbs_thresholds(np.linspace(0.0, 10.0, 100_001))
        assert np.all(t[:, 1:] >= t[:, :-1])

    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.0])
    def test_thresholds_round_p_up_by_less_than_2_to_minus_32(self, beta):
        t = gibbs_thresholds([beta])[0]
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * beta * np.arange(-4, 5, 2)))
        excess = t / 2.0**32 - p_plus
        assert np.all(excess >= 0.0) and np.all(excess < 2.0**-32)
        if beta == 0.0:
            np.testing.assert_array_equal(t, np.full(5, 2**31))

    def test_thresholds_clamp_instead_of_overflowing(self):
        # p(+1) at s = 4 rounds to 1.0 in float64 at beta = 5
        assert gibbs_thresholds([5.0])[0, -1] == 2**32 - 1

    @pytest.mark.parametrize("beta", [0.37, 1.0])
    def test_preserves_exact_distribution(self, beta):
        # start from exact pi_beta samples; TV must stay at the noise floor
        k_exact = IdealIsingExplorer()
        k = IsingGibbsExplorer(sweeps=2)
        x = k_exact.step(ising_states((1, 100_000), 0), [beta],
                         [make_stream(3, 0, 0)])
        x = k.step(x, [beta], [make_stream(4, 0, 0)])[0]
        exact = ising_exact_distribution(beta)
        tv, floor = empirical_tv_discrete(x, exact)
        assert tv < 4 * floor

    def test_beta_zero_is_uniform(self):
        k = IsingGibbsExplorer(sweeps=1)
        x = k.step(ising_states((1, 50_000), -1), [0.0],
                   [make_stream(5, 0, 0)])[0]
        assert abs(spins_from_codes(x).mean()) < 0.02


class RasterScanGibbs:
    """The Gibbs explorer on +-1 spins (..., 16), by ``raster_scan_gibbs``."""

    def __init__(self, sweeps):
        self.sweeps = sweeps

    def step(self, x, betas, rngs):
        return raster_scan_gibbs(x, betas, rngs, self.sweeps)


def spin_ising_model():
    """The Ising target on +-1 spins (..., 16), by the plain definitions:
    the bond sum over the 32 bonds, each site to its right and down
    neighbours, and rng.integers(0, 2) spins."""
    def log_reference(x):
        return np.full(x.shape[:-1], -N_SITES * np.log(2.0))

    def log_target_unnorm(x):
        return sum(x[..., a].astype(float) * x[..., b]
                   for a in range(N_SITES) for b in SITE_NEIGHBOURS[a, [0, 2]])

    def sample_reference(rng, size):
        return (2 * rng.integers(0, 2, size=(size, N_SITES)) - 1).astype(np.int8)

    return TargetModel(log_reference, log_target_unnorm, sample_reference)


def test_gibbs_run_on_codes_matches_the_run_on_spins():
    # the whole NRPT run, reference draws, Gibbs sweeps, energies and swaps,
    # gives the same trace whether its states are codes or spins
    cfg = PTConfig("nrpt", AnnealingSchedule.uniform(3), n_iters=30,
                   n_replicas=40, seed=21, record_target_states=True)
    codes = run_pt(cfg, ising_model(), IsingGibbsExplorer(sweeps=3))
    spins = run_pt(cfg, spin_ising_model(), RasterScanGibbs(sweeps=3))
    assert codes.final_states.dtype == codes.target_states.dtype == np.uint16
    assert 0 < codes.accepts.mean() < 1
    np.testing.assert_array_equal(codes.accepts, spins.accepts)
    np.testing.assert_array_equal(codes.energies, spins.energies)
    np.testing.assert_array_equal(spins_from_codes(codes.target_states),
                                  spins.target_states)
    np.testing.assert_array_equal(spins_from_codes(codes.final_states),
                                  spins.final_states)


def expand(sl, size):
    return list(range(*sl.indices(size)))


class TestGibbsSchedule:
    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_levels_keep_the_raster_scan(self, sweeps):
        n_updates = N_SITES * sweeps
        for per_block in range(1, 49):
            when = {}  # update -> (block, level)
            stops = [0]
            for b, (start, stop, levels) in enumerate(
                    gibbs_schedule(n_updates, per_block)):
                # blocks of per_block updates, in raster order
                assert (start, stop) == (
                    stops[-1], min(start + per_block, n_updates))
                stops.append(stop)
                draws = []
                for lv, (pairs, adds, writes) in enumerate(levels):
                    written = {}
                    for slots, row, draw in writes:
                        for i, r, d in zip(expand(slots, 8),
                                           expand(row, N_SITES),
                                           expand(draw, stop - start)):
                            # update start + d is drawn with the block's
                            # d-th draw and stored in its site's row
                            p = start + d
                            assert ROW_SITE[r] == p % N_SITES
                            assert p not in when and i not in written
                            when[p] = (b, lv)
                            written[i] = p
                            draws.append(d)
                    assert sorted(written) == list(range(len(written)))
                    # each slot sums its 4 neighbour rows, the first two
                    # in one add
                    summed = {i: [] for i in written}
                    for slots, a, c in pairs:
                        for i, ra, rc in zip(expand(slots, 8),
                                             expand(a, N_SITES),
                                             expand(c, N_SITES)):
                            assert summed[i] == []
                            summed[i] += [ra, rc]
                    for slots, a in adds:
                        for i, ra in zip(expand(slots, 8),
                                         expand(a, N_SITES)):
                            assert len(summed[i]) >= 2
                            summed[i].append(ra)
                    for i, p in written.items():
                        assert sorted(summed[i]) == sorted(
                            SITE_ROW[SITE_NEIGHBOURS[p % N_SITES]])
                assert sorted(draws) == list(range(stop - start))
            assert stops[-1] == n_updates
            assert sorted(when) == list(range(n_updates))
            for p in range(n_updates):
                site = p % N_SITES
                for s in (site, *SITE_NEIGHBOURS[site]):
                    earlier = [q for q in range(p) if q % N_SITES == s]
                    if earlier:
                        assert when[earlier[-1]] < when[p], (per_block, p)

    def test_full_block_is_fifteen_row_slices(self):
        (start, stop, levels), = gibbs_schedule(48, 48)
        assert (start, stop) == (0, 48)
        sizes = []
        for pairs, adds, writes in levels:
            (slots, row, draw), = writes
            assert row.step == 1 and (slots.stop == 1 or draw.step == 3)
            sizes.append(slots.stop)
        assert sizes == [1, 2, 3] + [4] * 9 + [3, 2, 1]

    def test_two_update_blocks_are_the_raster_scan(self):
        # a block holds 2 updates at 5 chains x 20,000 replicas
        order = [start + draw.start
                 for start, _, levels in gibbs_schedule(48, 2)
                 for _, _, ((_, _, draw),) in levels]
        assert order == list(range(48))


class TestIdealGrid:
    def test_bimodal_target_mode_balance(self):
        model = bimodal_pair()
        k = IdealGridExplorer(model, *BIMODAL_GRID)
        x = k.step(np.zeros((1, 100_000)), [1.0], [make_stream(6, 0, 0)])[0]
        right = (x > 0).mean()
        assert abs(right - 0.5) < 0.01
        # modes are unit-width Gaussians at +-100
        assert abs(np.abs(x).mean() - 100.0) < 0.05

    def test_beta_zero_matches_reference_moments(self):
        model = bimodal_pair()
        k = IdealGridExplorer(model, *BIMODAL_GRID)
        x = k.step(np.zeros((1, 100_000)), [0.0], [make_stream(7, 0, 0)])[0]
        assert abs(x.mean()) < 1.5
        assert abs(x.std() - np.sqrt(100.0**2 + 1)) < 1.0


def normalised_cdf(log_weights):
    cdf = np.cumsum(np.exp(log_weights - log_weights.max()))
    cdf /= cdf[-1]
    return cdf


def ising_log_weights(beta):
    return beta * ising_bond_sums().astype(float)


def searchsorted_ising_step(x, betas, rngs):
    """Reference Ising kernel: per chain, one g.random(R) and one
    np.searchsorted in the chain's full CDF over the 65,536 states."""
    return np.stack([
        np.searchsorted(normalised_cdf(ising_log_weights(b)),
                        g.random(x.shape[1]))
        for b, g in zip(betas, rngs)])


def searchsorted_grid_cells(k, betas, u):
    """Reference grid cells: per chain, one np.searchsorted of the cell
    uniforms u[..., 0] in the chain's full CDF over the grid cells."""
    return np.stack([
        np.searchsorted(normalised_cdf(log_path_density(k.model, b, k.mids)),
                        uc)
        for b, uc in zip(betas, u[..., 0])])


def searchsorted_grid_step(k, x, betas, rngs):
    """Reference grid kernel: per chain, one g.random((R, 2)) call, each
    replica's cell uniform and then its offset, and the reference cells."""
    u = np.stack([g.random((x.shape[1], 2)) for g in rngs])
    cells = searchsorted_grid_cells(k, betas, u)
    edges = np.linspace(k.lo, k.hi, k.n_cells + 1)
    left = edges[cells]
    width = edges[cells + 1] - left
    return left + width * u[..., 1]


def reference_table(cdf):
    """The values and first cells of a CDF's table, by the plain
    definitions: the distinct values less every entry after the first
    whose value lies in (0, MIN_DRAW)."""
    first = np.flatnonzero(np.r_[True, cdf[1:] != cdf[:-1]])
    reachable = (cdf[first] == 0.0) | (cdf[first] >= MIN_DRAW)
    reachable[0] = True
    first = first[reachable]
    return cdf[first], first


BOUNDARY_KEYS = [MIN_DRAW, np.nextafter(MIN_DRAW, 1.0), 2 * MIN_DRAW]


def reachable_keys(u):
    """The keys of `u` that Generator.random can return."""
    return u[(u == 0.0) | (u >= MIN_DRAW)]


def searchsorted_cells(log_weights, betas, u):
    return np.stack([np.searchsorted(normalised_cdf(log_weights(b)), uk)
                     for b, uk in zip(betas, u)])


def grid_log_weights():
    mids = IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID).mids
    return lambda beta: log_path_density(bimodal_pair(), beta, mids)


def per_load(log_weights):
    """The tables' form of a per-beta weight function: for the betas of a
    load, an iterator of one fresh copy of each beta's weights."""
    return lambda betas: (np.array(log_weights(b), dtype=float)
                          for b in betas)


class TestInverseCdf:
    def test_grid_step_matches_searchsorted(self):
        k = IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID)
        betas = np.array([0.0, 4e-4, 0.06, 1.0])
        x = np.zeros((4, 2000))

        def streams():
            return [make_stream(11, c, 0) for c in range(4)]

        np.testing.assert_array_equal(
            k.step(x, betas, streams()),
            searchsorted_grid_step(k, x, betas, streams()))

    def test_ising_step_matches_searchsorted(self):
        betas = np.array([0.0, 0.37, 1.0])
        x = ising_states((3, 2000), 1)

        def streams():
            return [make_stream(12, c, 0) for c in range(3)]

        np.testing.assert_array_equal(
            IdealIsingExplorer().step(x, betas, streams()),
            searchsorted_ising_step(x, betas, streams()))

    @pytest.mark.parametrize("log_weights,betas", [
        (grid_log_weights(), (0.0, 4e-4, 0.06, 1.0)),
        (ising_log_weights, (0.0, 0.37, 1.0)),
    ], ids=["grid", "ising"])
    def test_cells_on_random_edge_and_tied_keys(self, log_weights, betas):
        g = make_stream(13, 0)
        keys = []
        for b in betas:
            cdf = normalised_cdf(log_weights(b))
            ties = cdf[cdf < 1.0]
            ties = ties[np.linspace(0, ties.size - 1, 3000).astype(int)]
            keys.append(reachable_keys(np.concatenate([
                g.random(100_000),
                [0.0, np.nextafter(1.0, 0.0)], BOUNDARY_KEYS,
                np.arange(0, GUIDE_SIZE, 97) / GUIDE_SIZE,  # slot edges
                ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0),
            ])))
        # chains that lost keys are padded with the key 0
        size = max(k.size for k in keys)
        u = np.stack([np.pad(k, (0, size - k.size)) for k in keys])
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        np.testing.assert_array_equal(
            _InverseCdf(per_load(log_weights)).cells(betas, u),
            searchsorted_cells(log_weights, betas, u))

    @pytest.mark.parametrize("log_w", [
        # dead cells (exp gives 0) on both sides of the live ones and
        # between them, and cells whose exp is subnormal
        [-np.inf, -800.0, -751.0, -750.0, -749.9, -745.2, -745.1, -740.0,
         -708.5, -700.0, 0.0, -900.0, -750.0, -749.0, -760.0, -np.inf],
        [1e6 - 800.0, 1e6 - 745.1, 1e6, 1e6 - 760.0],
        np.linspace(-10.0, 0.0, 50),
        [0.0], [0.0, -800.0, -np.inf], [-np.inf, -760.0, 0.0],
        # the CDF at cells 0 to 2 lies in (0, MIN_DRAW)
        [-40.0, -39.0, -38.0, -20.0, 0.0],
    ])
    def test_tables_skip_dead_cells_bit_for_bit(self, log_w):
        log_w = np.asarray(log_w)
        values, first = _InverseCdf._build(log_w.copy())
        values_ref, first_ref = reference_table(normalised_cdf(log_w))
        np.testing.assert_array_equal(values.view(np.int64),
                                      values_ref.view(np.int64))
        np.testing.assert_array_equal(first, first_ref)
        # the guide is built by the load, from the joined values: one
        # chain's table starts at 0, so its row holds the positions as is
        tables = _InverseCdf(lambda betas: iter([log_w.copy()]))
        tables.prepare([0.0])
        np.testing.assert_array_equal(
            tables._guide[0], np.searchsorted(
                values_ref, np.arange(GUIDE_SIZE + 1) / GUIDE_SIZE))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cells_on_random_monotone_cdfs(self, data):
        # -inf and weights below exp(-745) give zero-weight cells: leading
        # zeros and interior plateaus of the CDF
        log_w = st.lists(st.one_of(st.just(-np.inf), st.floats(-800.0, 0.0)),
                         min_size=1, max_size=300)
        n_chains = data.draw(st.integers(1, 3))
        tables = {}
        for k in range(n_chains):
            lead = data.draw(st.integers(0, 40))
            tables[float(k)] = np.concatenate(
                [np.full(lead, -np.inf), data.draw(log_w), [0.0]])
        # the keys Generator.random can return: 0 and [MIN_DRAW, 1)
        keys = st.lists(st.one_of(st.just(0.0), st.floats(
            MIN_DRAW, 1.0, exclude_max=True)), min_size=64, max_size=64)
        u = np.array([data.draw(keys) + BOUNDARY_KEYS
                      for _ in range(n_chains)])
        for k, log_weights in enumerate(tables.values()):
            ties = normalised_cdf(log_weights)
            ties = reachable_keys(ties[ties < 1.0][::3][:32])
            u[k, :ties.size] = ties
        betas = tuple(tables)
        np.testing.assert_array_equal(
            _InverseCdf(per_load(tables.__getitem__)).cells(betas, u),
            searchsorted_cells(tables.__getitem__, betas, u))

    def test_random_returns_multiples_of_min_draw(self):
        # the tables drop the values in (0, MIN_DRAW) because no key the
        # explorers draw lies there: check both of their call forms
        g = make_stream(15, 0)
        ising_keys = g.random(1_000_000)
        grid_keys = np.empty((1, 500_000, 2))
        g.random(out=grid_keys[0])
        for u in (ising_keys, grid_keys):
            scaled = u / MIN_DRAW  # exact: a power of two
            assert np.all((u >= 0.0) & (u < 1.0))
            np.testing.assert_array_equal(scaled, np.floor(scaled))

    def test_tables_hold_no_unreachable_value_but_entry_0(self):
        betas = (0.0, 4e-4, 0.06, 1.0)
        tables = _InverseCdf(per_load(grid_log_weights()))
        tables.prepare(betas)
        unreachable = (tables._values > 0.0) & (tables._values < MIN_DRAW)
        assert set(np.flatnonzero(unreachable)) <= set(tables._guide[:, 0])
        # the full CDFs at beta > 0 do hold such values
        for b in betas[1:]:
            cdf = normalised_cdf(grid_log_weights()(b))
            assert np.any((cdf[1:] > 0.0) & (cdf[1:] < MIN_DRAW))


class TestTableCache:
    def test_tables_of_the_last_betas_only(self):
        base = bimodal_pair()
        evaluated = []

        def log_target(x):
            evaluated.append(np.shape(x))
            return base.log_target_unnorm(x)

        model = dataclasses.replace(base, log_target_unnorm=log_target)
        k = IdealGridExplorer(model, *BIMODAL_GRID)
        # count builds per beta at the tables' weight function
        built = []
        weights = k._cdf.log_weights

        def counted(betas):
            for beta, logw in zip(betas, weights(betas)):
                built.append(beta)
                yield logw

        k._cdf.log_weights = counted

        def step(betas):
            k.step(np.zeros((3, 10)), np.asarray(betas),
                   [make_stream(14, c, 0) for c in range(3)])

        step([0.1, 0.5, 1.0])
        assert built == [0.1, 0.5, 1.0]
        step([0.1, 0.5, 1.0])
        assert built == [0.1, 0.5, 1.0]
        step([0.2, 0.6, 1.0])  # a new schedule rebuilds every table
        assert built == [0.1, 0.5, 1.0, 0.2, 0.6, 1.0]
        # the model is evaluated on the mids once per table load
        assert evaluated == [k.mids.shape] * 2

        tables = k._cdf
        assert tables.betas == (0.2, 0.6, 1.0)
        held = [reference_table(normalised_cdf(
                    log_path_density(base, b, k.mids)))[0]
                for b in tables.betas]
        np.testing.assert_array_equal(tables._values, np.concatenate(held))
        nbytes = (tables._values.nbytes + tables._first.nbytes
                  + tables._guide.nbytes)
        assert nbytes <= 3 * (12 * k.mids.size + 4 * (GUIDE_SIZE + 1))

    @pytest.mark.parametrize("beta", [0.0, 5e-324, 4e-4, 0.06, 0.5, 1.0])
    def test_weights_are_log_path_density_bit_for_bit(self, beta):
        model = bimodal_pair()
        k = IdealGridExplorer(model, *BIMODAL_GRID)
        [logw] = k._cdf.log_weights((beta,))
        np.testing.assert_array_equal(
            logw.view(np.int64),
            log_path_density(model, beta, k.mids).view(np.int64))

    def test_weights_reject_beta_outside_the_path(self):
        k = IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID)
        for beta in (-0.1, 1.5, np.nan):
            # the whole load is checked before its first weights
            with pytest.raises(ValueError, match="beta"):
                next(k._cdf.log_weights((0.5, beta)))

    @pytest.mark.parametrize("explorer,expected", [
        (lambda: IdealGridExplorer(bimodal_pair(), *BIMODAL_GRID),
         grid_log_weights()),
        (IdealIsingExplorer, ising_log_weights),
    ], ids=["grid", "ising"])
    def test_weights_share_no_memory(self, explorer, expected):
        # a table is built in place in its weights, so each must be fresh:
        # apart from the others and from all the explorer holds, and
        # unchanged by writes to the weights yielded before it
        k = explorer()
        betas = (0.0, 4e-4, 0.5, 1.0)
        x = np.zeros((4, 10), dtype=np.uint16)
        k.step(x, betas, [make_stream(16, c, 0) for c in range(4)])
        held = [a for _, a in reachable_arrays(k)] + [ising_bond_sums()]
        weights = []
        for beta, logw in zip(betas, k._cdf.log_weights(betas)):
            np.testing.assert_array_equal(logw.view(np.int64),
                                          expected(beta).view(np.int64))
            for other in weights + held:
                assert not np.shares_memory(logw, other)
            logw[:] = np.nan
            weights.append(logw)
        assert len(weights) == len(betas)

    def test_guide_holds_positions_in_the_joined_values(self):
        tables = _InverseCdf(per_load(grid_log_weights()))
        tables.cells((0.0, 0.06, 1.0), np.zeros((3, 1)))
        assert tables._guide.dtype == np.int32
        starts = np.r_[0, np.cumsum([reference_table(normalised_cdf(
            grid_log_weights()(b)))[0].size for b in tables.betas])]
        np.testing.assert_array_equal(tables._guide[:, 0], starts[:-1])
        # every value but the last, 1.0, lies below 1
        np.testing.assert_array_equal(tables._guide[:, -1], starts[1:] - 1)


# the last two have n step + lo != hi, so that e(n_cells) = hi is checked
GRIDS = [BIMODAL_GRID, (-1.0, 2.0, 7), (-3e-3, 1e5, 999),
         (-250.5, 123.25, 4097), (0.1, 1.0, 3), (-0.3, 0.9, 11)]


class EdgeOffsets:
    """A stream whose cell keys are its generator's and whose offsets
    are all `offset`."""

    def __init__(self, g, offset):
        self.g, self.offset = g, offset

    def random(self, out):
        self.g.random(out=out)
        out[..., 1] = self.offset


class TestGridEdges:
    # the explorer computes e(c) by linspace's float operations rather
    # than holding np.linspace(lo, hi, n_cells + 1): check that they still
    # agree, as numpy may change linspace

    @pytest.mark.parametrize("lo,hi,n", GRIDS)
    def test_edges_are_linspace_bit_for_bit(self, lo, hi, n):
        edges = explorers._grid_edges(np.arange(n + 1, dtype=float), lo, hi, n)
        np.testing.assert_array_equal(
            edges.view(np.int64), np.linspace(lo, hi, n + 1).view(np.int64))

    @pytest.mark.parametrize("offset", [None, 0.0, 1.0 - MIN_DRAW],
                             ids=["random", "0", "max"])
    @pytest.mark.parametrize("lo,hi,n", GRIDS)
    def test_draws_lie_in_their_cells(self, lo, hi, n, offset):
        k = IdealGridExplorer(bimodal_pair(), lo, hi, n)
        betas = np.array([0.0, 4e-4, 0.5, 1.0])
        x = np.zeros((4, 20_000))

        def streams():
            gs = [make_stream(17, c, 0) for c in range(4)]
            return gs if offset is None else [EdgeOffsets(g, offset)
                                              for g in gs]

        drawn = k.step(x, betas, streams())
        u = np.empty(x.shape + (2,))
        for uk, g in zip(u, streams()):
            g.random(out=uk)
        cells = searchsorted_grid_cells(k, betas, u)
        edges = np.linspace(lo, hi, n + 1)
        assert np.all(edges[cells] <= drawn)
        assert np.all(drawn <= edges[cells + 1])


class TestGaussianPath:
    def test_exact_moments(self):
        k = GaussianPathExplorer(3.0)
        x = k.step(np.zeros((1, 200_000)), [0.5], [make_stream(8, 0, 0)])[0]
        assert abs(x.mean() - 1.5) < 0.01
        assert abs(x.std() - 1.0) < 0.01
