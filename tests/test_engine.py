import numpy as np
import pytest
from scipy.special import ndtr

from ptlab import engine
from ptlab.core import AnnealingSchedule, TargetModel, energy
from ptlab.engine import (
    PTConfig,
    PTTrace,
    _gather,
    _slot_rows,
    ancestral_survival,
    communication_step,
    rejection_rates,
    restart_count,
    run_pt,
    slot_map,
    update_index_process,
)
from ptlab.experiments import gaussian_equal_rate_mu
from ptlab.explorers import (
    GaussianPathExplorer,
    IdealGridExplorer,
    IdealIsingExplorer,
    IsingGibbsExplorer,
)
from ptlab.models import N_SITES, bimodal_pair, gaussian_shift_pair, ising_model
from ptlab.rng import make_stream


def _pack(accepts):
    """A (T, N, R) bool swap record as ``PTTrace.accept_bits``."""
    return np.packbits(accepts, axis=-1, bitorder="little")


def _replay_by_direction(accepts, parities):
    """The index process by the direction rule, one machine at a time.

    A machine in slot s proposes upward when pair s is proposed at the
    round's parity and s < N, else downward; it moves one slot along
    that direction when the swap of the pair it proposed was accepted.
    """
    t_iters, n, r = accepts.shape
    index = np.zeros((t_iters + 1, n + 1, r), dtype=int)
    direction = np.zeros_like(index)
    for rep in range(r):
        slots = list(range(n + 1))
        for t in range(t_iters + 1):
            eps = [1 if s % 2 == parities[t, rep] and s < n else -1
                   for s in slots]
            index[t, :, rep], direction[t, :, rep] = slots, eps
            if t == t_iters:
                break
            pairs = [min(s, s + e) for s, e in zip(slots, eps)]
            slots = [s + e if p >= 0 and accepts[t, p, rep] else s
                     for s, e, p in zip(slots, eps, pairs)]
    return index, direction


def per_machine_restart_count(trace):
    """Reference restart count, straight from the definition: for each
    machine, walk its slot path and count the arrivals at N whose last
    boundary touched before was 0."""
    idx = trace.index
    n = trace.n_intervals
    count = 0
    for path in idx.reshape(idx.shape[0], -1).T.tolist():
        last = None
        for slot in path:
            if slot == n:
                count += last == 0
                last = n
            elif slot == 0:
                last = 0
    return count


def _gaussian_run(scheme, n, r, n_iters, n_replicas, seed=0, **kw):
    mu = gaussian_equal_rate_mu(n, r)
    model = gaussian_shift_pair(mu)
    cfg = PTConfig(scheme, AnnealingSchedule.uniform(n), n_iters=n_iters,
                   n_replicas=n_replicas, seed=seed, **kw)
    return run_pt(cfg, model, GaussianPathExplorer(mu))


class TestConfig:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            PTConfig("deo", AnnealingSchedule.uniform(2), n_iters=10)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            PTConfig("nrpt", AnnealingSchedule.uniform(2), n_iters=0)


class TestCommunicationStep:
    def test_only_proposed_parity_swaps(self):
        sched = AnnealingSchedule.uniform(4)
        v = np.zeros((5, 100))
        acc = communication_step(v, sched, 0, make_stream(0, 0, 0))
        assert acc.shape == (4, 100)
        assert acc[0].all() and acc[2].all()       # equal energies: accept
        assert not acc[1].any() and not acc[3].any()  # wrong parity
        acc = communication_step(v, sched, 1, make_stream(0, 0, 0))
        assert acc[1].all() and acc[3].all()
        assert not acc[0].any() and not acc[2].any()

    def test_deterministic_rejection_on_energy_order(self):
        # huge unfavourable energy gap: acceptance probability ~ 0
        sched = AnnealingSchedule.uniform(2)
        v = np.array([[1000.0], [0.0], [0.0]])
        acc = communication_step(v, sched, 0, make_stream(0, 0, 0))
        assert not acc[0, 0]

    def test_per_replica_parity(self):
        sched = AnnealingSchedule.uniform(2)
        v = np.zeros((3, 2))
        parity = np.array([0, 1])
        acc = communication_step(v, sched, parity, make_stream(0, 0, 0))
        assert acc[0, 0] and not acc[1, 0]
        assert acc[1, 1] and not acc[0, 1]


    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    def test_wide_round_is_rounds_side_by_side(self, scheme):
        # one call over b*R columns draws what b calls over R draw
        n, r, b = 4, 5, 3
        sched = AnnealingSchedule.uniform(n)
        v = make_stream(1, 0).standard_normal((n + 1, b * r))
        parity = (np.arange(b * r) // r % 2 if scheme == "nrpt"
                  else make_stream(2, 0).integers(0, 2, b * r))
        wide = communication_step(v, sched, parity, make_stream(3, 0))
        g = make_stream(3, 0)
        narrow = [communication_step(v[:, k * r:(k + 1) * r], sched,
                                     parity[k * r:(k + 1) * r], g)
                  for k in range(b)]
        np.testing.assert_array_equal(wide, np.concatenate(narrow, axis=1))


class TestIndexProcess:
    def test_initial_conditions(self):
        tr = _gaussian_run("nrpt", 4, 0.3, 2, 3)
        np.testing.assert_array_equal(
            tr.index[0], np.tile(np.arange(5)[:, None], (1, 3)))
        # at parity 0, even non-target slots propose upward
        np.testing.assert_array_equal(tr.direction[0, :, 0], [1, -1, 1, -1, -1])

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    def test_index_is_permutation_each_iteration(self, scheme):
        tr = _gaussian_run(scheme, 3, 0.4, 50, 8)
        for t in range(tr.index.shape[0]):
            for rep in range(8):
                assert sorted(tr.index[t, :, rep]) == [0, 1, 2, 3]

    def test_moves_only_on_accepted_swaps(self):
        idx = np.array([[0], [1], [2]], dtype=np.int16)
        accepts = np.array([[True], [False]])  # pair 0 accepted only
        i_new = update_index_process(idx, accepts)
        np.testing.assert_array_equal(i_new.ravel(), [1, 0, 2])

    @pytest.mark.parametrize("accepts, src", [
        # N = 3: parity 0 proposes both boundary pairs 0 and 2 at once
        ([[1, 0], [0, 1], [1, 0]], [[1, 0], [0, 2], [3, 1], [2, 3]]),
        # N = 4: parity 0 proposes the bottom pair, parity 1 the top pair
        ([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 1]],
         [[1, 0, 0], [0, 2, 1], [3, 1, 2], [2, 4, 4], [4, 3, 3]]),
    ])
    def test_slot_map_handcrafted(self, accepts, src):
        # columns are replicas; slot n takes its content from src[n]
        got = slot_map(np.array(accepts, dtype=bool))
        np.testing.assert_array_equal(got, src)
        reps = np.arange(got.shape[1])
        np.testing.assert_array_equal(got[got, reps],
                                      np.indices(got.shape)[0])

    def test_index_and_direction_handcrafted(self):
        # N = 4, two replicas on opposite parities; every accepted pair
        # was proposed, and each boundary pair is accepted in each replica
        parities = np.array([[0, 1], [1, 0], [0, 1]], dtype=np.int8)
        accepts = np.zeros((2, 4, 2), dtype=bool)
        accepts[0, [0, 2], 0] = True  # parity 0: bottom pair and pair 2
        accepts[1, 3, 0] = True       # parity 1: top pair
        accepts[0, [1, 3], 1] = True  # parity 1: pair 1 and top pair
        accepts[1, 0, 1] = True       # parity 0: bottom pair
        tr = PTTrace(scheme="rpt", betas=np.linspace(0.0, 1.0, 5),
                     parities=parities, accept_bits=_pack(accepts))
        np.testing.assert_array_equal(tr.index[:, :, 0], [
            [0, 1, 2, 3, 4], [1, 0, 3, 2, 4], [1, 0, 4, 2, 3]])
        np.testing.assert_array_equal(tr.index[:, :, 1], [
            [0, 1, 2, 3, 4], [0, 2, 1, 4, 3], [1, 2, 0, 4, 3]])
        np.testing.assert_array_equal(tr.direction[:, :, 0], [
            [1, -1, 1, -1, -1], [1, -1, 1, -1, -1], [-1, 1, -1, 1, -1]])
        np.testing.assert_array_equal(tr.direction[:, :, 1], [
            [-1, 1, -1, 1, -1], [1, 1, -1, -1, -1], [1, -1, -1, -1, 1]])

    @pytest.mark.parametrize("scheme, n, r, n_iters", [
        ("nrpt", 1, 3, 40), ("nrpt", 5, 8, 300),
        ("rpt", 1, 3, 40), ("rpt", 6, 8, 300),
    ])
    def test_replay_matches_direction_rule(self, scheme, n, r, n_iters):
        tr = _gaussian_run(scheme, n, 0.4, n_iters, r, seed=n)
        index, direction = _replay_by_direction(tr.accepts, tr.parities)
        np.testing.assert_array_equal(tr.index, index)
        np.testing.assert_array_equal(tr.direction, direction)

    def test_rpt_parities_per_replica(self):
        tr = _gaussian_run("rpt", 2, 0.3, 10, 6)
        assert tr.parities.shape == (11, 6)
        assert set(np.unique(tr.parities)) <= {0, 1}

    def test_nrpt_parities_alternate(self):
        tr = _gaussian_run("nrpt", 2, 0.3, 9, 3)
        assert tr.parities.shape == (10, 3)
        for rep in range(3):
            np.testing.assert_array_equal(tr.parities[:, rep],
                                          np.arange(10) % 2)


def _random_accepts(n, r, seed):
    """Accepts of one swap round at a random parity per replica."""
    rng = np.random.default_rng(seed)
    parity = rng.integers(0, 2, size=r)
    pairs = np.arange(n)[:, None]
    return (pairs % 2 == parity) & (rng.random((n, r)) < 0.5)


class TestFlatGather:
    """One flat take through the slot rows is the two-array fancy index
    a[slots, arange(R)] on every layout the engine gathers."""

    @pytest.mark.parametrize("shape, dtype", [
        ((13, 1000), float),        # the bimodal / Gaussian chain states
        ((6, 256), np.uint16),      # Ising states, one code each
        ((6, 256, N_SITES), np.int8),  # states with a site axis
        ((4, 1), float),            # one replica
        ((4, 1, N_SITES), np.int8),
    ])
    def test_matches_fancy_index(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        a = rng.integers(-100, 100, size=shape).astype(dtype)
        src = slot_map(_random_accepts(shape[0] - 1, shape[1], sum(shape)))
        got = _gather(a, _slot_rows(src))
        assert got.dtype == a.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, a[src, np.arange(shape[1])])

    def test_index_replay_at_large_r(self):
        # 7 chains, R = 20000: int16 slots times R leave int16 from slot 2
        # on, so the rows must be computed in intp
        n_chains, r = 7, 20_000
        rng = np.random.default_rng(7)
        index = np.argsort(rng.random((n_chains, r)), axis=0).astype(np.int16)
        accepts = _random_accepts(n_chains - 1, r, 7)
        got = update_index_process(index, accepts)
        np.testing.assert_array_equal(
            got, slot_map(accepts)[index, np.arange(r)])
        np.testing.assert_array_equal(
            _gather(slot_map(accepts), _slot_rows(index)), got)


class TestRunPt:
    def test_deterministic_given_seed(self):
        t1 = _gaussian_run("nrpt", 3, 0.4, 30, 5, seed=11)
        t2 = _gaussian_run("nrpt", 3, 0.4, 30, 5, seed=11)
        np.testing.assert_array_equal(t1.accepts, t2.accepts)
        np.testing.assert_array_equal(t1.energies, t2.energies)
        np.testing.assert_array_equal(t1.index, t2.index)

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_renewing_explorer_called_once_per_block(self, monkeypatch,
                                                     block):
        # chains 1..N move in one call per block of iterations, each chain
        # on its own stream, over the block's (N, b*R) columns; chain 0 is
        # always the engine's reference draw
        class Counting(GaussianPathExplorer):
            calls = []

            def step(self, x, betas, rngs):
                self.calls.append((x.shape, np.array(betas), len(rngs)))
                return super().step(x, betas, rngs)

        n, r, t_iters = 3, 5, 7
        monkeypatch.setattr(engine, "BLOCK_BYTES", block * 8 * (n + 1) * r)
        cfg = PTConfig("nrpt", AnnealingSchedule.uniform(n), n_iters=t_iters,
                       n_replicas=r)
        run_pt(cfg, gaussian_shift_pair(1.0), Counting(1.0))
        widths = [min(block, t_iters - t0) * r
                  for t0 in range(0, t_iters, block)]
        assert len(Counting.calls) == -(-t_iters // block)
        for (shape, betas, n_rngs), width in zip(Counting.calls, widths):
            assert shape == (n, width) and n_rngs == n
            np.testing.assert_array_equal(betas, cfg.schedule.betas[1:])

    def test_reading_explorer_called_once_per_iteration(self):
        # an explorer without ``renews`` reads its input, so every
        # iteration gets its own (N, R) call whatever the block budget
        class Counting(IsingGibbsExplorer):
            calls = []

            def step(self, x, betas, rngs):
                self.calls.append(x.shape)
                return super().step(x, betas, rngs)

        n, r = 3, 4
        cfg = PTConfig("nrpt", AnnealingSchedule.uniform(n), n_iters=7,
                       n_replicas=r)
        run_pt(cfg, ising_model(), Counting(sweeps=1))
        assert Counting.calls == [(n, r)] * 7

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    @pytest.mark.parametrize("problem", ["grid", "ideal-ising", "gaussian"])
    def test_trace_does_not_depend_on_block_size(self, monkeypatch, scheme,
                                                 problem):
        # b = 1, b = 3 and the default (one block), over T = 23 iterations
        n, r, t_iters = 4, 6, 23
        if problem == "grid":
            model = bimodal_pair()
            explorer = IdealGridExplorer(model, lo=-600.0, hi=600.0)
        elif problem == "ideal-ising":
            model, explorer = ising_model(), IdealIsingExplorer()
        else:
            model, explorer = gaussian_shift_pair(2.0), GaussianPathExplorer(2.0)
        cfg = PTConfig(scheme, AnnealingSchedule.uniform(n), n_iters=t_iters,
                       n_replicas=r, seed=5, record_energies=True,
                       record_target_states=True)
        traces = []
        for budget in (1, 3 * 8 * (n + 1) * r, engine.BLOCK_BYTES):
            monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
            traces.append(run_pt(cfg, model, explorer))
        assert 0 < traces[0].accepts.mean() < 1
        for tr in traces[1:]:
            for field in ("accepts", "parities", "energies", "target_states",
                          "final_states", "index"):
                np.testing.assert_array_equal(getattr(tr, field),
                                              getattr(traces[0], field))

    def test_model_without_reference_sampler_raises(self):
        model = gaussian_shift_pair(1.0)
        model = TargetModel(log_reference=model.log_reference,
                            log_target_unnorm=model.log_target_unnorm)
        cfg = PTConfig("nrpt", AnnealingSchedule.uniform(2), n_iters=2,
                       n_replicas=4)
        with pytest.raises(ValueError, match="reference sampler"):
            run_pt(cfg, model, GaussianPathExplorer(1.0))
        with pytest.raises(ValueError, match="reference sampler"):
            run_pt(cfg, model, GaussianPathExplorer(1.0),
                   init_states=np.zeros((3, 4)))

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    @pytest.mark.parametrize("problem", ["gaussian", "ising"])
    def test_swap_exchanges_energies(self, scheme, problem):
        # post-swap energies must match V recomputed on the swapped states:
        # on the target chain at every iteration, on every chain at the end
        n, r = 3, 16
        if problem == "gaussian":
            mu = gaussian_equal_rate_mu(n, 0.4)
            model = gaussian_shift_pair(mu)
            explorer = GaussianPathExplorer(mu)
            state_shape = (r,)
        else:
            model = ising_model()
            explorer = IsingGibbsExplorer(sweeps=1)
            state_shape = (r,)
        cfg = PTConfig(scheme, AnnealingSchedule.uniform(n), n_iters=8,
                       n_replicas=r, seed=4, record_target_states=True)
        tr = run_pt(cfg, model, explorer)
        assert tr.accepts.any()
        assert tr.final_states.shape == (n + 1,) + state_shape
        np.testing.assert_allclose(tr.energies[-1],
                                   energy(model, tr.final_states), atol=1e-10)
        np.testing.assert_allclose(tr.energies[:, n],
                                   energy(model, tr.target_states), atol=1e-10)

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    def test_states_follow_index_process(self, scheme):
        # with an explorer that keeps its input and a reference sampler
        # that hands out consecutive values, a machine keeps its value
        # except while it sits in slot 0, where it takes the next reference
        # values; the states must follow the replayed index
        class Stay:
            def step(self, x, betas, rngs):
                return x

        drawn = [0]

        def sample_reference(rng, size):
            drawn[0] += size
            return np.arange(drawn[0] - size, drawn[0], dtype=float)

        model = TargetModel(log_reference=np.zeros_like,
                            log_target_unnorm=np.cos,
                            sample_reference=sample_reference)
        n, r = 4, 32
        init = -1.0 - np.arange((n + 1) * r).reshape(n + 1, r)
        cfg = PTConfig(scheme, AnnealingSchedule.uniform(n), n_iters=30,
                       n_replicas=r, seed=6, record_target_states=True)
        tr = run_pt(cfg, model, Stay(), init_states=init)
        assert tr.accepts.sum() > 100
        reps = np.arange(r)
        value = init  # (machine, replica) -> value it carries
        held = np.empty_like(init)  # (slot, replica) -> value held
        for t in range(tr.n_iters):
            value = np.where(tr.index[t] == 0, t * r + reps, value)
            held[tr.index[t + 1], reps] = value
            np.testing.assert_array_equal(held[n], tr.target_states[t])
        np.testing.assert_array_equal(held, tr.final_states)

    def test_init_states_list_or_array(self):
        model = ising_model()
        explorer = IsingGibbsExplorer()
        cfg = PTConfig("rpt", AnnealingSchedule.uniform(2), n_iters=5,
                       n_replicas=4, seed=2)
        init = model.sample_reference(make_stream(1, 0, 0), 12).reshape(3, 4)
        t1 = run_pt(cfg, model, explorer, init_states=init)
        t2 = run_pt(cfg, model, explorer, init_states=list(init))
        np.testing.assert_array_equal(t1.final_states, t2.final_states)
        np.testing.assert_array_equal(t1.accepts, t2.accepts)
        with pytest.raises(ValueError):
            run_pt(cfg, model, explorer, init_states=init[:2])

    def test_float_kernel_into_integer_states_raises(self):
        # the state array keeps the dtype of init_states; truncating an
        # explorer's float draws to integers would corrupt the run
        model = gaussian_shift_pair(1.0)
        cfg = PTConfig("nrpt", AnnealingSchedule.uniform(2), n_iters=2,
                       n_replicas=4)
        with pytest.raises(TypeError):
            run_pt(cfg, model, GaussianPathExplorer(1.0),
                   init_states=np.zeros((3, 4), dtype=np.int64))

    def test_closed_form_rejection_rates(self):
        # uniform grid on the Gaussian shift path gives equal pair
        # rejection r = 1 - 2 Phi(-mu / (N sqrt(2)))
        n, r = 4, 0.3
        tr = _gaussian_run("nrpt", n, r, 400, 64, seed=3)
        stats = rejection_rates(tr, burn_in=0.1)
        n_prop = stats.proposed.min()
        se = np.sqrt(r * (1 - r) / n_prop)
        assert np.all(np.abs(stats.rejection - r) < 4 * se)

    def test_closed_form_matches_ndtr(self):
        mu = gaussian_equal_rate_mu(4, 0.3)
        r_back = 1.0 - 2.0 * ndtr(-mu / (4 * np.sqrt(2.0)))
        np.testing.assert_allclose(r_back, 0.3, atol=1e-12)


class TestPackedRecord:
    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    @pytest.mark.parametrize("n_replicas", [1, 7, 8, 9, 1001])
    def test_bits_hold_the_accepts(self, scheme, n_replicas):
        n, t_iters = 4, 30
        tr = _gaussian_run(scheme, n, 0.4, t_iters, n_replicas,
                           seed=n_replicas)
        n_bytes = -(-n_replicas // 8)
        bits = tr.accept_bits
        assert bits.dtype == np.uint8
        assert bits.shape == (t_iters, n, n_bytes)
        assert bits.nbytes == t_iters * n * n_bytes
        assert tr.n_iters == t_iters and tr.n_replicas == n_replicas
        # pad bits of the last byte are 0
        every_bit = np.unpackbits(bits, axis=-1, bitorder="little")
        assert not every_bit[..., n_replicas:].any()
        accepts = tr.accepts
        assert accepts.dtype == bool
        assert accepts.shape == (t_iters, n, n_replicas)
        assert not accepts.flags.writeable
        np.testing.assert_array_equal(accepts, every_bit[..., :n_replicas])
        assert accepts.any()
        # only proposed pairs are accepted
        proposed = engine._proposed(np.arange(n)[None, :, None],
                                    tr.parities[:-1, None, :])
        assert not (accepts & ~proposed).any()
        for burn_in in (0.0, 0.3):
            t0 = int(np.floor(burn_in * t_iters))
            stats = rejection_rates(tr, burn_in=burn_in)
            n_prop = proposed[t0:].sum(axis=(0, 2))
            accepted = accepts[t0:].sum(axis=(0, 2))
            np.testing.assert_array_equal(stats.proposed, n_prop)
            np.testing.assert_array_equal(stats.accepted, accepted)
            assert stats.accepted.dtype == accepted.dtype
            np.testing.assert_array_equal(stats.rejection,
                                          1.0 - accepted / n_prop)


class TestRejectionRates:
    def test_zero_proposal_pairs_flagged(self):
        tr = _gaussian_run("nrpt", 2, 0.3, 1, 4)  # single even round
        stats = rejection_rates(tr)
        assert not np.isnan(stats.rejection[0])
        assert np.isnan(stats.rejection[1])  # odd pair never proposed

    def test_barrier_estimate_is_sum(self):
        tr = _gaussian_run("nrpt", 3, 0.4, 100, 16)
        stats = rejection_rates(tr, burn_in=0.2)
        np.testing.assert_allclose(stats.barrier_estimate,
                                   stats.rejection.sum(), atol=1e-14)

    @pytest.mark.parametrize("burn_in", [-0.5, 1.0, float("nan")])
    def test_burn_in_outside_unit_interval(self, burn_in):
        tr = _gaussian_run("nrpt", 2, 0.3, 10, 2)
        with pytest.raises(ValueError, match="burn_in"):
            rejection_rates(tr, burn_in=burn_in)


class TestRestartsAndAncestry:
    def test_restart_count_handcrafted(self):
        # accepting pair 0 at t=0 (even) and pair 1 at t=1 (odd) walks
        # machine 0 through slots 0 -> 1 -> 2: one traversal; machines 1
        # and 2 only move down
        accepts = np.array([[[True], [False]],
                            [[False], [True]]])  # (t, pair, replica)
        tr = PTTrace(scheme="nrpt", betas=np.array([0.0, 0.5, 1.0]),
                     parities=np.arange(3)[:, None] % 2,
                     accept_bits=_pack(accepts))
        np.testing.assert_array_equal(tr.index[:, :, 0],
                                      [[0, 1, 2], [1, 0, 2], [2, 0, 1]])
        assert restart_count(tr) == 1
        assert per_machine_restart_count(tr) == 1

    @pytest.mark.parametrize("scheme", ["nrpt", "rpt"])
    @pytest.mark.parametrize("n,r", [(1, 0.2), (3, 0.4), (6, 0.1)])
    def test_restart_count_matches_definition(self, scheme, n, r):
        tr = _gaussian_run(scheme, n, r, 120, 50, seed=n)
        count = restart_count(tr)
        assert count > 0
        assert count == per_machine_restart_count(tr)

    def test_ancestral_survival_bounds(self):
        tr = _gaussian_run("nrpt", 3, 0.4, 30, 200)
        vals = [ancestral_survival(tr, t) for t in (1, 10, 30)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals[0] >= vals[1] >= vals[2]

    def test_ancestral_survival_range_check(self):
        tr = _gaussian_run("nrpt", 2, 0.3, 5, 2)
        with pytest.raises(ValueError):
            ancestral_survival(tr, 0)
        with pytest.raises(ValueError):
            ancestral_survival(tr, 6)
