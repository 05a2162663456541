"""Explorers: the within-chain moves of parallel tempering.

Every explorer exposes ``step(x, betas, rngs) -> x`` over a block of chains:
``x`` has shape (n, R, ...) with chain along the first axis, replicas
along the second and the model's state shape after them (none for the
Ising explorers, whose states are uint16 codes, so their blocks are
(n, R)), ``betas`` has shape (n,), and ``rngs`` holds one stream per
chain, in chain order.  Chain k draws only from ``rngs[k]``, so each
chain's draws do not depend on which other chains share the call.  The
ideal and Gaussian explorers leave the path distribution pi_beta invariant
at each chain's beta; the Gibbs explorer rounds p(+1) up to a multiple of
2^-32, so each of its site updates moves pi_beta by less than 2^-32 in
total variation.  The i.i.d. reference sampler ignores beta.  The ideal
explorers hold inverse-CDF tables for the betas of their last call only,
and load a call's tables before they draw its uniforms; a lookup gives
the same cells whatever the tables held, so one explorer object can serve
many runs.  The tables are all they hold: the weights a load builds from
live only for that load, and the grid explorer computes its cell edges
from the grid formula.

An explorer whose class sets ``renews = True`` promises two things: its
output ignores the values of its input (only the shape is read), and it
draws replica by replica, so that one call over a + b replicas returns
what a call over a replicas followed by a call over b returns.  Such an
explorer renews the state i.i.d. every call, the paper's model of
efficient local exploration, and ``engine.run_pt`` steps a block of
iterations in one call.  The reference, ideal and Gaussian explorers
renew; the Gibbs explorer reads its input and does not.
"""

import functools

import numpy as np

from .core import energy, log_path_density
from .models import (
    N_SITES,
    SITE_NEIGHBOURS,
    ising_bond_sums,
    ising_codes,
)
from .rng import uint32_draws


class IIDReferenceExplorer:
    """Fresh i.i.d. draws from the reference, ignoring the input state."""

    renews = True

    def __init__(self, model):
        if model.sample_reference is None:
            raise ValueError("model does not expose a reference sampler")
        self.model = model

    def step(self, x, betas, rngs):
        return np.stack([self.model.sample_reference(g, x.shape[1])
                         for g in rngs])


DRAW_BUFFER_BYTES = 1 << 20  # the uint32 draws of one block, all chains

# storage row of site s in the Gibbs kernel's site-major array; every
# anti-diagonal of the torus, i + j = const (mod 4), is four adjacent rows
SITE_ROW = (11 * np.arange(N_SITES) + 3) % N_SITES
# 3 * 11 = 1 (mod 16); uint16, the codes' dtype, as the kernel's bit shifts
ROW_SITE = (3 * np.arange(N_SITES, dtype=np.uint16) + 7) % N_SITES


def gibbs_thresholds(betas):
    """The (n, 5) uint32 thresholds T = ceil(p 2^32) of the Gibbs kernel.

    Row k holds chain k's T for j = 0..4 neighbours up, with
    p = 1 / (1 + exp(-2 beta s)) and neighbour sum s = 2 j - 4.  p 2^32
    is exact, so T is the ceil of the exact product, and T / 2^32 lies in
    [p, p + 2^-32).  T is clamped to 2^32 - 1, so that p > 1 - 2^-32
    (beta > 2.77) cannot overflow the cast.  For beta >= 0 each row is
    nondecreasing in j.
    """
    beta = np.asarray(betas, dtype=float)[:, None]
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * beta * np.arange(-4, 5, 2)))
    return np.minimum(np.ceil(p_plus * 2.0**32),
                      2.0**32 - 1).astype(np.uint32)


def _slice(seq):
    """The slice that lists the arithmetic progression `seq`."""
    step = seq[1] - seq[0] if len(seq) > 1 else 1
    stop = seq[-1] + step
    return slice(seq[0], stop if stop >= 0 else None, step)


def _runs(*columns):
    """Cut equal-length index columns into maximal runs over which every
    column is an arithmetic progression with a nonzero step; give each run
    as one slice per column."""
    size = len(columns[0])
    runs, lo = [], 0
    for hi in range(1, size + 1):
        if hi < size:
            steps = [c[hi] - c[hi - 1] for c in columns]
            if all(steps) and (hi - lo == 1 or
                               steps == [c[lo + 1] - c[lo] for c in columns]):
                continue
        runs.append(tuple(_slice(c[lo:hi]) for c in columns))
        lo = hi
    return tuple(runs)


@functools.lru_cache(maxsize=None)
def gibbs_schedule(n_updates, per_block):
    """The dependency levels of `n_updates` raster-scan site updates drawn
    in blocks of `per_block`, compiled to slices.

    Update p resamples site p mod 16.  Within a block, its level is one
    more than the highest level among the last earlier updates of its own
    site and of its 4 neighbours (Lamport's hyperplane method); an update
    with none of those in its block is at level 0.  The sites of one
    level are distinct and pairwise non-adjacent, so at most 8, and its
    updates commute: doing them together, level by level, gives the
    raster scan bit for bit.  A level's updates are ordered by storage
    row (``SITE_ROW``); slot i of the level holds its i-th update.

    Returns one ``(start, stop, levels)`` per block of updates
    [start, stop).  A level is ``(pairs, adds, writes)``:
    ``(slots, row_a, row_b)`` in ``pairs`` and then ``(slots, row)`` in
    ``adds`` sum the 4 neighbour rows of each slot, and
    ``(slots, row, draw)`` in ``writes`` stores each slot's update in its
    storage row from its draw (update p - start of the block).
    """
    blocks = []
    for start in range(0, n_updates, per_block):
        stop = min(start + per_block, n_updates)
        level, last = {}, {}
        for p in range(start, stop):
            site = p % N_SITES
            level[p] = 1 + max((level[last[s]]
                                for s in (site, *SITE_NEIGHBOURS[site])
                                if s in last), default=-1)
            last[site] = p
        members = [[] for _ in range(max(level.values()) + 1)]
        for p in sorted(level, key=lambda p: SITE_ROW[p % N_SITES]):
            members[level[p]].append(p)
        levels = []
        for ps in members:
            sites = [p % N_SITES for p in ps]
            slots = range(len(ps))
            right, left, down, up = SITE_ROW[SITE_NEIGHBOURS[sites].T]
            # right and left first: the fewest slices for a full block
            levels.append((_runs(slots, right, left),
                           _runs(slots, down) + _runs(slots, up),
                           _runs(slots, SITE_ROW[sites],
                                 [p - start for p in ps])))
        blocks.append((start, stop, tuple(levels)))
    return tuple(blocks)


def _gibbs_blocks(up, t, rngs, n_updates, per_block):
    """Run `n_updates` site updates in blocks of `per_block`
    (``gibbs_schedule``) on the site-major 0/1 rows ``up``, in place, with
    the thresholds ``t`` (n, 5, 1, 1) and one stream per chain.  The block
    buffers are freed on return."""
    _, n, r = up.shape
    up_b = up.view(bool)
    u = np.empty((n, per_block, r), dtype=np.uint32)
    codes = np.empty((n, per_block, r), dtype=np.int8)
    at_least = np.empty((n, per_block, r), dtype=bool)
    # a level's neighbours up, per slot: a level holds distinct,
    # pairwise non-adjacent sites of one block, so at most 8
    n_up = np.empty((min(N_SITES // 2, per_block), n, r), dtype=np.int8)
    for start, stop, levels in gibbs_schedule(n_updates, per_block):
        m = stop - start  # m * r is even: see IsingGibbsExplorer
        for k, g in enumerate(rngs):
            u[k, :m] = uint32_draws(g, m * r).reshape(m, r)
        u_m, c, ge = u[:, :m], codes[:, :m], at_least[:, :m]
        # level codes L(u) = #{j : T[j] <= u}
        np.greater_equal(u_m, t[:, 0], out=c.view(bool))
        for j in range(1, 5):
            np.greater_equal(u_m, t[:, j], out=ge)
            c += ge.view(np.int8)
        c = c.transpose(1, 0, 2)  # by update, as the schedule's draws
        for pairs, adds, writes in levels:
            for slots, a, b in pairs:
                np.add(up[a], up[b], out=n_up[slots])
            for slots, a in adds:
                n_up[slots] += up[a]
            for slots, row, draw in writes:
                np.greater_equal(n_up[slots], c[draw], out=up_b[row])


class IsingGibbsExplorer:
    """Systematic-scan single-site Gibbs sweeps on the 4x4 torus.

    Each call performs `sweeps` full raster-order passes; every site is
    resampled from its conditional under pi_beta given its 4 neighbours,
    p(+1) = 1 / (1 + exp(-2 beta s)) with s the neighbour sum.  s is one
    of -4, -2, 0, 2, 4, so each call tabulates once per chain a 5-entry
    row of thresholds T = ceil(p(+1) 2^32) (``gibbs_thresholds``).  The
    draws are 32-bit (``uint32_draws``): per site update, one uint32 u per
    replica from each chain's stream, in raster order.  The site becomes
    +1 where u < T, so P(+1) = T / 2^32 lies in [p, p + 2^-32).

    A chain's draws for a block of updates come from one call.  A block
    holds as many updates as fit DRAW_BUFFER_BYTES over all chains, at
    least one and at most the call's; when R is odd the count is made
    even, at least two.  A call's 16 × sweeps updates are even in number
    too, so no block ends inside a 64-bit output and the draws do not
    depend on the blocking.

    ``x`` is an (n, R) block of uint16 state codes (``ising_model``), and
    ``step`` returns the new codes, raising ``ValueError`` on any other
    dtype.  For the call the spins are held site-major, (16, n, R), as
    0/1, site s in row SITE_ROW[s] = (11 s + 3) mod 16: one right shift
    of the codes by ``ROW_SITE`` and one ``& 1`` fill the rows, and a left
    shift and an OR over the rows pack them back, in chunks of as many
    rows as fit DRAW_BUFFER_BYTES as uint16 (at least one row), each
    chunk's OR then OR-ed into the codes.

    Each block runs level by level (``gibbs_schedule``): a full 3-sweep
    block has 15 levels of 1, 2, 3, 4, ..., 4, 3, 2, 1 updates, the
    anti-diagonals of the torus.  Each level of a full block is 4
    adjacent rows or fewer, and its draws are every third update of the
    block.  Each row of T is nondecreasing in j (beta >= 0), so u < T[j]
    exactly when j >= L(u) = #{j : T[j] <= u}.  The block's level codes L
    are five compares of its draws, in int8 and chain-major like the
    draws, and a level's update is one compare of its neighbour counts
    with its codes.  The block buffers (draws, codes, compares and one
    neighbour count per slot of a level, at most min(8, block size)
    slots) are freed before the pack-out.
    """

    def __init__(self, sweeps=3):
        self.sweeps = sweeps

    def step(self, x, betas, rngs):
        x = ising_codes(x)
        n, r = x.shape
        t = gibbs_thresholds(betas)[:, :, None, None]
        if np.any(t[:, 1:] < t[:, :-1]):
            raise ValueError("the Gibbs kernel needs beta >= 0")
        shifts = ROW_SITE[:, None, None]
        up = np.empty((N_SITES, n, r), dtype=np.int8)  # 1 where x = +1
        np.right_shift(x, shifts, out=up, casting="unsafe")
        up &= 1
        n_updates = N_SITES * self.sweeps
        per_block = max(1, min(n_updates, DRAW_BUFFER_BYTES // (4 * n * r)))
        if r % 2:
            per_block = max(2, per_block - per_block % 2)
        _gibbs_blocks(up, t, rngs, n_updates, per_block)
        per_chunk = max(1, DRAW_BUFFER_BYTES // (2 * n * r))
        x = None
        for lo in range(0, N_SITES, per_chunk):
            rows = slice(lo, lo + per_chunk)
            bits = np.left_shift(up[rows].view(np.uint8), shifts[rows],
                                 dtype=np.uint16)
            part = np.bitwise_or.reduce(bits, axis=0)
            del bits
            x = part if x is None else np.bitwise_or(x, part, out=x)
        return x


GUIDE_SIZE = 1 << 16  # a power of two, so u * GUIDE_SIZE is exact
MIN_DRAW = 2.0**-53  # the smallest positive value Generator.random returns
DEAD_LOG_WEIGHT = -750.0  # exp underflows to 0 below -745.14
MAX_TABLE_ENTRIES = 1 << 30  # positions and their pairwise sums fit int32


def _guide_slots(u):
    """floor(u GUIDE_SIZE) as intp, cast inside the multiply's buffered
    loop rather than from a float array of u's size."""
    return np.multiply(u, GUIDE_SIZE, out=np.empty(u.shape, np.intp),
                       casting="unsafe")


class _InverseCdf:
    """Inverse-CDF lookup over a block of chains, with guide tables.

    ``cells(betas, u)`` returns ``np.searchsorted(cdf_k, u[k])`` for every
    chain k in one vectorized pass, where cdf_k is the normalised CDF of
    exp(w_k), and w_k the k-th array of ``log_weights(betas)``, an
    iterator that yields one fresh float64 array per beta, in chain order.
    A table is built in place in its array, which nothing else holds, and
    the iterator is dropped when the load ends.  Every key in ``u`` (n, R)
    must lie in {0} U [MIN_DRAW, 1), the values ``Generator.random``
    returns; a key in (0, MIN_DRAW) may get a wrong cell.  A beta's table
    holds the distinct CDF values, the first cell of each (so a plateau of
    zero-weight cells is one entry), less every entry after the first
    whose value lies in (0, MIN_DRAW), which no such key can reach, and a
    guide of GUIDE_SIZE + 1 entries, guide[j] = #(values < j / GUIDE_SIZE)
    (Chen & Asau 1974; Devroye 1986, sec. III.2.4).  A key in guide slot
    j = floor(u GUIDE_SIZE) has its answer in [guide[j], guide[j + 1]]; a
    bisection over the keys whose range is not empty finishes it.  The
    chains' tables are concatenated, and chain k's guide entries hold
    positions in the joined values (offset by the start of its table when
    the tables are loaded), in int32: the tables may hold at most
    MAX_TABLE_ENTRIES values, so that the sum of two positions, a
    bisection's midpoint, fits too.

    Only the tables of the last call's betas are held.  When the betas
    change, every table is rebuilt from the caller's exact beta.
    ``prepare(betas)`` loads them without a lookup, so that a caller can
    load before it draws its keys and no table is built while the keys
    are held.
    """

    def __init__(self, log_weights):
        self.log_weights = log_weights
        self.betas = ()  # the betas whose tables are held, in chain order

    @staticmethod
    def _build(cdf, guide):
        # cdf holds the log weights, and becomes the CDF in place
        cdf -= cdf.max()
        # exp is slow on the cells far below the max and gives exactly 0
        # there, so it and the cumulative sum run from the first cell to
        # the last with log weight >= DEAD_LOG_WEIGHT; the CDF is 0 before
        # them and flat after, as the full sum gives bit for bit
        live = cdf >= DEAD_LOG_WEIGHT
        a, b = live.argmax(), live.size - live[::-1].argmax()
        cdf[:a] = 0.0
        np.exp(cdf[a:b], out=cdf[a:b])
        np.cumsum(cdf[a:b], out=cdf[a:b])
        cdf[b:] = cdf[b - 1]
        cdf /= cdf[-1]
        # cell 0 and the cells from `cut` on where the CDF steps: the
        # entries between lie in (0, MIN_DRAW), below every positive key
        cut = max(1, np.searchsorted(cdf, MIN_DRAW))
        first = np.r_[0, cut + np.flatnonzero(cdf[cut:] != cdf[cut - 1:-1])]
        values = cdf[first]
        per_slot = np.bincount(_guide_slots(values), minlength=GUIDE_SIZE + 1)
        guide[0] = 0
        np.cumsum(per_slot[:GUIDE_SIZE], out=guide[1:])
        return values, first.astype(np.int32)

    def _load(self, betas):
        # drop the old tables before building, write each guide into its
        # row of the joined guide, and drop the weights as each table is
        # built and the other arrays' parts as soon as they are joined, so
        # that only one array is held twice
        self.betas, self._values, self._first, self._guide = (), None, None, None
        guide = np.empty((len(betas), GUIDE_SIZE + 1), dtype=np.int32)
        weights = self.log_weights(betas)
        values, first = zip(*[self._build(next(weights), g) for g in guide])
        del weights
        starts = np.cumsum([0] + [len(v) for v in values])
        if starts[-1] > MAX_TABLE_ENTRIES:
            raise ValueError("inverse-CDF tables too large for int32 lookup")
        self._values = np.concatenate(values)
        del values
        self._first = np.concatenate(first)
        del first
        guide += starts[:-1, None].astype(np.int32)
        self._guide = guide
        self.betas = betas

    def prepare(self, betas):
        """Hold the tables of ``betas``, loading them unless they are held;
        returns the betas as a tuple of floats."""
        betas = tuple(float(b) for b in betas)
        if betas != self.betas:
            self._load(betas)
        return betas

    def cells(self, betas, u):
        betas = self.prepare(betas)
        slot = _guide_slots(u)
        slot += (GUIDE_SIZE + 1) * np.arange(len(betas))[:, None]
        lo = self._guide.take(slot).ravel()
        slot += 1
        hi = self._guide.take(slot).ravel()
        del slot
        # bisect [lo, hi] for the first value >= u, over the keys still open
        open_ = np.flatnonzero(lo < hi)
        # a view of a strided u where one exists: gather, do not copy
        key = u.reshape(-1)[open_]
        a, b = lo.take(open_), hi.take(open_)
        del hi
        while open_.size:
            mid = (a + b) >> 1
            below = self._values.take(mid) < key
            a = np.where(below, mid + 1, a)
            b = np.where(below, b, mid)
            lo[open_] = a
            more = a < b
            open_, key, a, b = open_[more], key[more], a[more], b[more]
        return self._first.take(lo).reshape(u.shape)


class IdealIsingExplorer:
    """Exact i.i.d. sampling from pi_beta over all 65,536 Ising states.

    A state is one inverse-CDF lookup in the chain's table of
    exp(beta * bond sum) over all states, whose cell is the state's uint16
    code, so the kernel renews the energy i.i.d. — the
    idealized-exploration model holds exactly.
    """

    renews = True

    def __init__(self):
        self._cdf = _InverseCdf(lambda betas: (
            b * ising_bond_sums().astype(float) for b in betas))

    def step(self, x, betas, rngs):
        self._cdf.prepare(betas)  # tables before draws
        u = np.stack([g.random(x.shape[1]) for g in rngs])
        return self._cdf.cells(betas, u).astype(np.uint16)


def _grid_edges(c, lo, hi, n_cells):
    """e(c) = c (hi - lo) / n_cells + lo, with e(n_cells) = hi, in place in
    ``c``, a float array of cell indices in [0, n_cells]."""
    at_hi = c == n_cells
    c *= (hi - lo) / n_cells
    c += lo
    c[at_hi] = hi
    return c


def _grid_mids(lo, hi, n_cells):
    """The cell midpoints of the grid."""
    edges = _grid_edges(np.arange(n_cells + 1, dtype=float), lo, hi, n_cells)
    return 0.5 * (edges[:-1] + edges[1:])


def _grid_log_weights(model, lo, hi, n_cells, betas):
    """One fresh array of cell log weights per beta of ``betas``."""
    if not all(0.0 <= beta <= 1.0 for beta in betas):
        raise ValueError("beta must lie in [0, 1]")
    mids = _grid_mids(lo, hi, n_cells)
    lr = log_path_density(model, 0.0, mids)
    v = energy(model, mids)
    del mids
    for beta in betas:
        if beta == 0.0:
            # avoids 0 * inf at cells of zero target density
            yield lr.copy()
            continue
        logw = beta * v
        np.subtract(lr, logw, out=logw)
        yield logw
        del logw  # the table is built: hold its weights no longer


class IdealGridExplorer:
    """Exact i.i.d. sampling from a one-dimensional pi_beta via a grid CDF.

    The unnormalized density is tabulated on a fine uniform grid; draws use
    inverse-CDF sampling with uniform placement inside a cell.  Adequate
    whenever the grid resolves every mode (cell width well below the
    narrowest length scale of the path).  Each replica draws its two
    uniforms together, the one that picks the cell, then the offset.

    Besides the model, the explorer holds only the grid's ``lo``, ``hi``
    and ``n_cells`` and its tables.  Cell c spans [e(c), e(c + 1)], with
    e(c) = c s + lo for c < n_cells, e(n_cells) = hi and spacing
    s = (hi - lo) / n_cells: the float operations of
    ``np.linspace(lo, hi, n_cells + 1)``, so e is its entries bit for
    bit.  A draw in cell c with offset u is (e(c + 1) - e(c)) u + e(c).

    The model is evaluated on the cell midpoints once per table load: the
    reference term lr = log pi_0 and the energy V, and the table of each
    beta weighs the cells by lr at beta = 0 and lr - beta V otherwise,
    which is ``log_path_density`` bit for bit.  Both terms are dropped
    when the load ends.
    """

    renews = True

    def __init__(self, model, lo, hi, n_cells=120_000):
        self.model = model
        self.lo, self.hi, self.n_cells = float(lo), float(hi), int(n_cells)
        # the tables' weights come from the model and the grid alone: a
        # bound method would close a cycle through the explorer, and the
        # tables would outlive the run until the cyclic collector ran
        self._cdf = _InverseCdf(functools.partial(
            _grid_log_weights, model, self.lo, self.hi, self.n_cells))

    def _edges(self, c):
        """e(c), in place in ``c``, a float array of cell indices in
        [0, n_cells]."""
        return _grid_edges(c, self.lo, self.hi, self.n_cells)

    @property
    def mids(self):
        """The cell midpoints, computed on each read."""
        return _grid_mids(self.lo, self.hi, self.n_cells)

    def step(self, x, betas, rngs):
        self._cdf.prepare(betas)  # tables before draws
        # per chain and replica, the uniform that picks the cell, then the
        # offset
        u = np.empty((len(rngs), x.shape[1], 2))
        for k, g in enumerate(rngs):
            g.random(out=u[k])
        left = self._cdf.cells(betas, u[..., 0]).astype(float)
        x = self._edges(left + 1.0)  # c + 1 is exact in float
        self._edges(left)
        x -= left
        x *= u[..., 1]
        del u  # the draws go before the last temporary comes
        x += left
        return x


class GaussianPathExplorer:
    """Exact sampler for the N(0,1) -> N(mu,1) path: pi_beta = N(beta mu, 1)."""

    renews = True

    def __init__(self, mu):
        self.mu = float(mu)

    def step(self, x, betas, rngs):
        z = np.stack([g.standard_normal(x.shape[1]) for g in rngs])
        return np.asarray(betas, dtype=float)[:, None] * self.mu + z


def lag1_independence_check(model, explorer, beta, rng, n_pairs=100_000):
    """Empirical correlation between V(input) and V(output) over one step
    from `n_pairs` reference draws.

    Under idealized exploration the output energy is independent of the
    input, so the correlation should vanish within Monte Carlo error.
    """
    x0 = model.sample_reference(rng, n_pairs)
    x1 = explorer.step(x0[None], [beta], [rng])[0]
    v0, v1 = energy(model, x0), energy(model, x1)
    return float(np.corrcoef(v0, v1)[0, 1])
