"""Domain types and annealing-path mathematics.

A tempering problem is a pair (reference pi_0, unnormalized target gamma_1)
connected by the linear path pi_beta(x) proportional to pi_0(x) exp(-beta V(x)),
where the energy is V(x) = log pi_0(x) - log gamma_1(x).  The unknown
normalizing constant of the target shifts V by a constant, which cancels in
every quantity computed here (swap probabilities, barriers, diagnostics).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class TargetModel:
    """A reference/target pair with log-densities and optional samplers.

    Parameters
    ----------
    log_reference : callable
        x -> log pi_0(x), normalized.  Must accept batched states (an array
        of shape (..., *state_shape), the leading axes indexing chains and
        replicas) and return an array of shape (...).  The state shape is
        the model's own: () for a scalar state, and () for an Ising state
        too, which is one uint16 code.  The result may be a read-only view;
        callers only read it.
    log_target_unnorm : callable
        x -> log gamma_1(x), unnormalized target log-density, batched.
    sample_reference : callable or None
        (rng, size) -> array of i.i.d. draws from pi_0, drawn replica by
        replica: a call of size a + b returns what a call of size a
        followed by one of size b returns.  ``engine.run_pt`` relies on
        this to draw chain 0 for a block of iterations in one call.
    """

    log_reference: Callable
    log_target_unnorm: Callable
    sample_reference: Optional[Callable] = None


@dataclass(frozen=True)
class AnnealingSchedule:
    """An ordered inverse-temperature grid 0 = beta_0 < ... < beta_N = 1."""

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", b)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("schedule needs at least two points")
        if not np.isfinite(b).all():
            raise ValueError("schedule points must be finite")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("schedule must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0):
            raise ValueError("schedule must be strictly increasing")

    @property
    def n_intervals(self):
        return self.betas.size - 1

    @classmethod
    def uniform(cls, n):
        return cls(np.linspace(0.0, 1.0, n + 1))


def energy(model, x):
    """Energy V(x) = log pi_0(x) - log gamma_1(x), batched.

    Returns +inf where the target density vanishes inside the reference
    support.  NaN log-densities indicate an invalid model and raise.
    """
    lr = np.asarray(model.log_reference(x), dtype=float)
    lt = np.asarray(model.log_target_unnorm(x), dtype=float)
    with np.errstate(invalid="ignore"):
        v = lr - lt
    # lr finite on support; lt = -inf gives v = +inf, which is meaningful.
    # v is NaN exactly where lr or lt is NaN or both are infinities of one
    # sign, so one scan of v finds every bad state.
    if np.isnan(v).any():
        if np.isnan(lr).any() or np.isnan(lt).any():
            raise ValueError("NaN log-density: invalid model at supplied state")
        raise ValueError("indeterminate energy (inf - inf)")
    return v


def log_path_density(model, beta, x):
    """Unnormalized log pi_beta(x) = log pi_0(x) - beta * V(x)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    lr = np.asarray(model.log_reference(x), dtype=float)
    if beta == 0.0:
        return lr  # avoids 0 * inf at states of zero target density
    return lr - beta * energy(model, x)


def swap_acceptance(beta_lo, beta_hi, v_lo, v_hi):
    """Probability of accepting a swap between adjacent chains.

    alpha = exp(min{0, (beta_hi - beta_lo) * (v_hi - v_lo)}), vectorized
    over all arguments: scalar inverse temperatures serve one pair, arrays
    of them (e.g. shape (N, 1) against (N, R) energies) serve every pair
    at once.  Infinite energies are resolved by the clamped formula (never
    NaN); NaN inputs raise, and so do inverse temperatures that are NaN,
    infinite or out of order.

    Six full-width passes: the difference, one NaN scan of it, then the
    scaling, the clamp and the exp in place.  ``np.fmin`` drops NaN, so a
    difference inf - inf clamps to 0 and accepts with probability 1.
    """
    beta_lo = np.asarray(beta_lo, dtype=float)
    beta_hi = np.asarray(beta_hi, dtype=float)
    if not np.all(beta_hi > beta_lo):
        raise ValueError("beta_hi must exceed beta_lo")
    with np.errstate(over="ignore"):
        gap = beta_hi - beta_lo
    if not np.isfinite(gap).all():
        raise ValueError("inverse temperatures must be finite")
    v_lo = np.asarray(v_lo, dtype=float)
    v_hi = np.asarray(v_hi, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        # a 0-d array for scalar energies, so that every step is in place
        diff = np.asarray(v_hi - v_lo)
        # diff is NaN exactly where v_lo or v_hi is NaN or both are
        # infinities of one sign, so one scan of diff finds every NaN input.
        # inf - inf: both chains at zero target density; the swap is a
        # no-op, accepted with probability 1 (the states are exchangeable).
        if np.isnan(diff).any() and (np.isnan(v_lo).any()
                                     or np.isnan(v_hi).any()):
            raise ValueError("NaN energy in swap_acceptance")
        shape = np.broadcast_shapes(gap.shape, diff.shape)
        alpha = np.multiply(gap, diff,
                            out=diff if diff.shape == shape else None)
        np.fmin(alpha, 0.0, out=alpha)
        np.exp(alpha, out=alpha)
    return alpha if alpha.ndim else float(alpha)
