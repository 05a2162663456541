"""Benchmark targets with exact oracles.

Contains the 4x4 torus Ising model (small enough to enumerate all 65,536
states exactly), the far-separated bimodal Gaussian pair, and a Gaussian
mean-shift pair with closed-form barrier.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import TargetModel
from .rng import uint32_draws

# ---------------------------------------------------------------------------
# 4x4 torus Ising model
# ---------------------------------------------------------------------------

N_SITES = 16
N_STATES = 1 << N_SITES
SIDE = 4


def _torus_edges():
    """The 32 (right, down) nearest-neighbour bonds of the 4x4 torus."""
    edges = []
    for i in range(SIDE):
        for j in range(SIDE):
            s = SIDE * i + j
            edges.append((s, SIDE * i + (j + 1) % SIDE))
            edges.append((s, SIDE * ((i + 1) % SIDE) + j))
    return edges


TORUS_EDGES = _torus_edges()


def _site_neighbours():
    """For each site, its 4 torus neighbours (left/right/up/down)."""
    nbrs = np.empty((N_SITES, 4), dtype=np.intp)
    for i in range(SIDE):
        for j in range(SIDE):
            s = SIDE * i + j
            nbrs[s] = [
                SIDE * i + (j + 1) % SIDE,
                SIDE * i + (j - 1) % SIDE,
                SIDE * ((i + 1) % SIDE) + j,
                SIDE * ((i - 1) % SIDE) + j,
            ]
    return nbrs


SITE_NEIGHBOURS = _site_neighbours()


def spins_from_codes(codes):
    """Decode 16-bit state codes into +-1 spin arrays of shape (..., 16)."""
    # bit k of a code is spin k: the code's two little-endian bytes,
    # unpacked low bit first, are the 16 bits in site order
    code_bytes = np.asarray(codes).astype("<u2")[..., None].view(np.uint8)
    bits = np.unpackbits(code_bytes, axis=-1, bitorder="little").view(np.int8)
    return 2 * bits - 1


def _sign_byte(w):
    """The sign bits of the 8 int8 spins in each uint64 word of w, gathered
    into one byte, spin k at bit k."""
    # bit 7 of each byte is its sign: keep one bit per byte, then one
    # multiply lifts the 8 bits into the top byte
    b = w >> 7
    b &= 0x0101010101010101
    b *= 0x0102040810204080
    b >>= 56
    return b


def _minus_code(x):
    """The 16-bit code with bit k set where spin k of x (..., 16) is -1.

    More generally, bit k is set where x[..., k], read as int8, is negative.
    The spins, as int8 bytes, are read as two little-endian 64-bit words
    (so the result does not depend on the host's byte order), and the sign
    bits of each are gathered by one multiply (a broadword gather; Knuth,
    TAOCP 4A, 7.1.3).  The low word holds spins 0-7, the high word 8-15.
    One word at a time, with the low byte narrowed to uint8 before the
    high word is read, the temporaries stay at half the input's size.
    """
    w = np.ascontiguousarray(x, dtype=np.int8).view("<u8")
    # slices, not w[..., k]: one state's words would be numpy scalars,
    # whose multiply warns on the intended wrap-around
    lo = _sign_byte(w[..., :1]).astype(np.uint8)
    code = _sign_byte(w[..., 1:])
    code <<= 8
    code |= lo
    return code.view(np.int64)[..., 0]


def codes_from_spins(spins):
    """Encode +-1 spin arrays of shape (..., 16) into 16-bit codes."""
    code = _minus_code(spins)
    code ^= 0xFFFF  # in place: a second array of codes would double the peak
    return code[()]  # a numpy scalar for one state, as a reduction gives


def _all_bond_sums():
    """sum_{i~j} x_i x_j for every one of the 65,536 states."""
    spins = spins_from_codes(np.arange(N_STATES)).astype(np.int32)
    s = np.zeros(N_STATES, dtype=np.int32)
    for a, b in TORUS_EDGES:
        s += spins[:, a] * spins[:, b]
    return s


_BOND_SUMS = None


def ising_bond_sums():
    """Cached per-state bond sums (the sufficient statistic)."""
    global _BOND_SUMS
    if _BOND_SUMS is None:
        _BOND_SUMS = _all_bond_sums()
    return _BOND_SUMS


@dataclass(frozen=True)
class DiscreteDist:
    """Exact probability table over the coded Ising state space."""

    probs: np.ndarray
    log_z: float

    def __post_init__(self):
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError("distribution does not normalize")


def ising_exact_distribution(beta):
    """Exact pi_beta over all 65,536 states, pi_beta ~ exp(beta * bond sum)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    s = ising_bond_sums().astype(float)
    logw = beta * s
    log_z = logsumexp(logw)
    p = np.exp(logw - log_z)
    p /= p.sum()
    return DiscreteDist(probs=p, log_z=float(log_z))


def ising_model():
    """The 4x4 torus Ising target with uniform reference.

    States are +-1 spin arrays of shape (..., 16).  The energy convention is
    V(x) = log pi_0(x) - log gamma_1(x) = const - sum_{i~j} x_i x_j.
    The bond sum is one lookup in ``ising_bond_sums()``: each state is
    packed into a 16-bit code by viewing its int8 spins as two
    little-endian 64-bit words (``"<u8"``) and gathering their sign bits
    with one multiply per word (``_minus_code``).
    """
    log_unif = -N_SITES * np.log(2.0)

    def log_reference(x):
        x = np.asarray(x)
        return np.full(x.shape[:-1], log_unif)

    def log_target_unnorm(x):
        # the bond sum is even under a global flip, so the complement of
        # the state's code reads the same table entry
        return ising_bond_sums().take(_minus_code(x)).astype(float)

    def sample_reference(rng, size):
        # rng.integers(0, 2) is the top bit of numpy's next_uint32 (Lemire's
        # method with range 2 keeps (u 2) >> 32), so these are its spins
        bits = (uint32_draws(rng, size * N_SITES) >> 31).astype(np.int8)
        return (2 * bits - 1).reshape(size, N_SITES)

    return TargetModel(
        log_reference=log_reference,
        log_target_unnorm=log_target_unnorm,
        sample_reference=sample_reference,
    )


# ---------------------------------------------------------------------------
# Gaussian pairs
# ---------------------------------------------------------------------------


def gaussian_shift_pair(mu=2.0):
    """Reference N(0,1), target N(mu,1).

    Along the linear path pi_beta = N(beta*mu, 1) exactly, and the barrier
    has the closed form Lambda = mu / sqrt(pi): the energy is
    V(x) = mu^2/2 - mu*x, so E|V - V'| under pi_beta is beta-free.
    """

    def log_reference(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x**2 - 0.5 * np.log(2 * np.pi)

    def log_target_unnorm(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * (x - mu) ** 2 - 0.5 * np.log(2 * np.pi)

    def sample_reference(rng, size):
        return rng.standard_normal(size)

    return TargetModel(
        log_reference=log_reference,
        log_target_unnorm=log_target_unnorm,
        sample_reference=sample_reference,
    )


def gaussian_shift_barrier(mu):
    """Closed-form barrier for gaussian_shift_pair: mu / sqrt(pi)."""
    return mu / np.sqrt(np.pi)


def bimodal_pair():
    """Target 0.5 N(-100,1) + 0.5 N(100,1), reference N(0, 100^2 + 1)."""
    s2 = 100.0**2 + 1.0

    def log_reference(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x**2 / s2 - 0.5 * np.log(2 * np.pi * s2)

    def log_target_unnorm(x):
        # logaddexp(a, b) is max(a, b) + log1p(exp(-|a - b|)) with a, b the
        # two modes' terms.  For |x| >= 4, |a - b| = 200|x| >= 800 and exp
        # underflows to 0 (or, at huge |x|, the correction is below the
        # rounding of the max), so the result is the nearer mode's term,
        # which rounds symmetrically to -(|x| - 100)^2 / 2.  Only the
        # middle, and NaN, take logaddexp; the result equals logaddexp on
        # every state bit for bit.
        x = np.asarray(x, dtype=float)
        d = np.abs(x)
        out = np.asarray(-0.5 * (d - 100.0) ** 2)
        near = ~(d >= 4.0)
        xn = x[near]
        out[near] = np.logaddexp(-0.5 * (xn + 100.0) ** 2,
                                 -0.5 * (xn - 100.0) ** 2)
        return out + np.log(0.5) - 0.5 * np.log(2 * np.pi)

    def sample_reference(rng, size):
        return np.sqrt(s2) * rng.standard_normal(size)

    return TargetModel(
        log_reference=log_reference,
        log_target_unnorm=log_target_unnorm,
        sample_reference=sample_reference,
    )
