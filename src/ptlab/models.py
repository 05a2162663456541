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


def codes_from_spins(spins):
    """Encode +-1 spin arrays of shape (..., 16) into uint16 state codes."""
    spins = np.asarray(spins)
    # flattened, each state's 16 spins are 2 whole bytes; packing the flat
    # array is several times faster than packing along the last axis
    bits = np.packbits(spins > 0, bitorder="little").view("<u2")
    return bits.astype(np.uint16, copy=False).reshape(spins.shape[:-1])[()]


def ising_codes(x):
    """x as an array of Ising states, which must be uint16 codes.

    Any other dtype raises: int8 spins (..., 16), say, would otherwise be
    read as codes, a -1 as code 65535.
    """
    x = np.asarray(x)
    if x.dtype != np.uint16:
        raise ValueError("Ising states are uint16 codes, got an array of "
                         f"{x.dtype}; convert spins with codes_from_spins")
    return x


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

    A state is a uint16 code, bit k set where spin k is +1, so a block of
    states has shape (...) and every uint16 is a valid state; the
    callables raise ``ValueError`` on any other dtype (``ising_codes``).
    The energy convention is
    V(x) = log pi_0(x) - log gamma_1(x) = const - sum_{i~j} x_i x_j,
    and the bond sum is one lookup in ``ising_bond_sums()``.
    """
    log_unif = -N_SITES * np.log(2.0)

    def log_reference(x):
        # one value broadcast, not an array of x's size: callers only read it
        return np.broadcast_to(log_unif, ising_codes(x).shape)

    def log_target_unnorm(x):
        return ising_bond_sums().take(ising_codes(x)).astype(float)

    def sample_reference(rng, size):
        # rng.integers(0, 2) is the top bit of numpy's next_uint32 (Lemire's
        # method with range 2 keeps (u 2) >> 32), so these are its spins;
        # codes_from_spins reads True as +1
        draws = uint32_draws(rng, size * N_SITES).reshape(size, N_SITES)
        return codes_from_spins(draws >= 1 << 31)

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
    """Target 0.5 N(-100,1) + 0.5 N(100,1), reference N(0, 100^2 + 1).

    Each log-density makes one float array the size of its input and
    works in place in it, applying the written formula's operations in
    the formula's order, so the result is the formula's bit for bit.
    """
    s2 = 100.0**2 + 1.0

    def log_reference(x):
        # -0.5 * x**2 / s2 - 0.5 * log(2 pi s2)
        out = np.square(np.asarray(x, dtype=float))
        out *= -0.5
        out /= s2
        out -= 0.5 * np.log(2 * np.pi * s2)
        return out

    def log_target_unnorm(x):
        # logaddexp(a, b) is max(a, b) + log1p(exp(-|a - b|)) with a, b the
        # two modes' terms.  For |x| >= 4, |a - b| = 200|x| >= 800 and exp
        # underflows to 0 (or, at huge |x|, the correction is below the
        # rounding of the max), so the result is the nearer mode's term,
        # which rounds symmetrically to -(|x| - 100)^2 / 2.  Only the
        # middle, and NaN, take logaddexp; the result equals logaddexp on
        # every state bit for bit.
        x = np.asarray(x, dtype=float)
        out = np.asarray(np.abs(x))  # a 0-d array for a scalar x
        near = ~(out >= 4.0)
        out -= 100.0
        np.square(out, out=out)
        out *= -0.5
        xn = x[near]
        out[near] = np.logaddexp(-0.5 * (xn + 100.0) ** 2,
                                 -0.5 * (xn - 100.0) ** 2)
        out += np.log(0.5)
        out -= 0.5 * np.log(2 * np.pi)
        return out[()]  # a numpy scalar for a scalar x, as the formula gives

    def sample_reference(rng, size):
        return np.sqrt(s2) * rng.standard_normal(size)

    return TargetModel(
        log_reference=log_reference,
        log_target_unnorm=log_target_unnorm,
        sample_reference=sample_reference,
    )
