"""Reproducible random number streams.

Every stochastic routine in this package draws from a stream made by
``make_stream(seed, *key)``: an SFC64 generator seeded with
``numpy.random.SeedSequence(seed, spawn_key=key)``.  The master seed is the
entropy and the key is the spawn key, so each (seed, key) pair is its own
stream, and keys of different lengths never coincide: ``make_stream(5)``,
``make_stream(5, 0)`` and ``make_stream(5, 0, 0)`` are three streams.  A
seed may also be a key tuple ``(seed, *path)``; its path goes in front of
``key``, so ``make_stream((5, 1), 0)`` is ``make_stream(5, 1, 0)``.  A run
is bit-reproducible from its seed at a fixed replica count.

The reference sampler, the renewing explorers and the swap round draw
replica by replica: chain c's stream gives replica 0 its draws for an
iteration, then replica 1, and so on, and the swap stream gives each
replica its N swap uniforms together.  A block of b iterations over R
replicas therefore draws exactly what b iterations drawn one at a time
would, which is what lets ``run_pt`` run such a block as one wide
iteration (see ``explorers``).  The Gibbs explorer reads its input, so it
runs one iteration per call and draws site by site.

Key layout, for a schedule of N intervals (N+1 chains):

    key                 stream
    ------------------  ------------------------------------------------
    (c, 0)              run_pt: exploration of chain c, 0 <= c <= N
    (N+1, 0)            run_pt: swap acceptance draws
    (N+2, 0)            run_pt: parity draws (reversible PT)
    (0, b)              walks.survival_curve: replicate block b
    (0, i)              gcb.gcb_direct_mc: quadrature node i
    (TUNE, k, *run)     experiments: run_pt keys of tuning round k
    (MAIN, *run)        experiments: run_pt keys of the main run
    (INIT,)             experiments: initial states of the main run

``*run`` stands for the three run_pt rows, so an experiment passes
``(seed, TUNE, k)`` or ``(seed, MAIN)`` as ``PTConfig.seed``.  Rows that
share a key belong to different commands, which never draw under one
seed together.  The trailing 0 of the run_pt keys is the replica-block
slot.
"""

import numpy as np

# Phases of an experiment recipe: the first spawn-key entry of its runs.
TUNE = 0
MAIN = 1
INIT = 2


def make_stream(seed, *key):
    """Return the Generator of stream `key` under `seed`.

    Parameters
    ----------
    seed : int or tuple
        Master seed (any non-negative integer; 64-bit range is fine), or a
        key tuple (seed, *path) whose path is prepended to `key`.
    *key : int
        Spawn key of the stream; see the module docstring for the layout.

    Returns
    -------
    numpy.random.Generator
        SFC64-backed generator; the SeedSequence spawn key keeps the
        streams of distinct keys apart.
    """
    if isinstance(seed, tuple):
        seed, key = seed[0], seed[1:] + key
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


def uint32_draws(g, size):
    """The next `size` 32-bit draws of `g`, `size` even, in one call.

    Two draws per 64-bit output, low half first on a little-endian host:
    numpy's own ``next_uint32`` order, so on a stream with no half-word
    buffered they equal ``g.integers(0, 2**32, size, dtype=np.uint32)``,
    at about half its cost, and leave the stream where it would.
    """
    return g.bit_generator.random_raw(size // 2).view(np.uint32)
