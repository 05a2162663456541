"""Complex-analytic machinery for the infinite-chain constant C(Lambda).

The Laplace transform of the continuum traversal-time survival function is
F(z) = (D(1,z) - e^z) / (z * D(1,z)) with D(x,z) = cosh(x r(z)) +
(z/r(z)) sinh(x r(z)) and r(z) = sqrt(z^2 + 2 Lambda z).  Only even powers
of r enter D, so the square-root branch is immaterial and D is entire.

C(Lambda, t) is recovered by numerical Bromwich inversion along the
vertical contour Re(z) = -1/(Lambda+2).  The rightmost singularity of F
lies on the negative real axis at Re(z) <= -1/(Lambda+sqrt(2)), a distance
O(1/Lambda^2) from the contour, so the remainder g = F - c/z has a sharp
near-pole spike at x ~ 0.  On [0, 2] g is interpolated by cubics on
Gauss-Legendre panels, geometrically refined toward x = 0; beyond 2 it is
smooth on a scale ~x and is interpolated by quadratics on pairs of steps
of the uniform grid 2 + j _FAR_STEP.

Only the factor e^{ixt} depends on t, and Filon quadrature integrates it
exactly against each interpolant, from the moments of u^m e^{i theta u}
on [-1, 1].  So the steps need only resolve g, not e^{ixt}: one node set
serves every t, and F is evaluated once per call on it (the node shared
by two far blocks twice).  Each t sums its panels out to its own
truncation point, which does not depend on the steps, and its value does
not depend on which other t share the call.

The memory a call holds beyond a few numbers per t is bounded by the block
constants, whatever the number of t, their truncation points or the tail
budget: F is evaluated _PIECE nodes at a time, the far coefficients are
held one block of (_BLOCK - 1) // 2 pairs at a time, and the near zone
takes a chunk of t at a time.  A t whose far zone spans several blocks
sums it block by block, so only its far sum is grouped by block.
"""

import math

import numpy as np

_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
# column i holds the u^0 .. u^3 coefficients of the cubic Lagrange basis
# polynomial that is 1 at _GL4_X[i] and 0 at the other nodes
_GL4_TO_MONO = np.array([np.poly(np.delete(_GL4_X, i))[::-1]
                         / np.prod(x - np.delete(_GL4_X, i))
                         for i, x in enumerate(_GL4_X)]).T

_NEAR_CAP = 0.125  # widest near-zone panel
_FAR_STEP = 0.0625  # far-zone step; a power of 2, at most 1/8
_BLOCK = 1 << 14  # nodes per far block, which bounds its coefficients
_PIECE = 1 << 12  # nodes per evaluation of F, which bounds its temporaries

# Taylor coefficients in theta^2 of mu_m(theta) for |theta| < 1: mu_m is
# sum_j (-1)^j theta^2j / (2j)! * 2/(m+2j+1) for even m, and
# i theta sum_j (-1)^j theta^2j / (2j+1)! * 2/(m+2j+2) for odd m
_TAYLOR = [[(-1) ** j * 2.0 / (math.factorial(2 * j + m % 2)
                               * (m + 2 * j + 1 + m % 2)) for j in range(10)]
           for m in range(4)]


def eval_D(x, z, lam):
    """D(x, z) = cosh(x r(z)) + z x sinhc(x r(z)), branch-free.

    Uses w = x * sqrt(z^2 + 2 lam z) and sinhc(w) = sinh(w)/w with a series
    branch for |w| < 1e-4 to avoid cancellation near r = 0.
    """
    z = np.asarray(z, dtype=complex)
    w = x * np.sqrt(z * z + 2.0 * lam * z)
    small = np.abs(w) < 1e-4
    wsafe = np.where(small, 1.0, w)
    sinhc = np.asarray(np.sinh(wsafe) / wsafe)
    ws = w[small]
    sinhc[small] = 1.0 + ws * ws / 6.0 + ws**4 / 120.0
    return np.cosh(w) + z * x * sinhc


def eval_F(z, lam):
    """F(z) = (D(1,z) - e^z) / (z D(1,z)), computed as (1 - e^z/D)/z.

    The rearranged form avoids inf - inf overflow when Re(r(z)) is large.
    Raises ValueError on z = 0 (invalid input) and FloatingPointError
    where D is numerically singular (a numerical failure).
    """
    z = np.asarray(z, dtype=complex)
    d = eval_D(1.0, z, lam)
    if np.any(z == 0):
        raise ValueError("F has a removable structure at z = 0; not evaluated")
    if np.any(np.abs(d) < 1e-14):
        raise FloatingPointError("D(1, z) numerically singular at supplied z")
    return (1.0 - np.exp(z) / d) / z


def d_real_axis(lam, gamma):
    """Closed-form D(1, -gamma) = cos(s) - (gamma/s) sin(s), s = sqrt(gamma(2 lam - gamma))."""
    if not 0.0 < gamma < 2.0 * lam:
        raise ValueError("requires 0 < gamma < 2 lam")
    s = np.sqrt(gamma * (2.0 * lam - gamma))
    return np.cos(s) - (gamma / s) * np.sin(s)


def _near_panel_edges(delta):
    """Panel edges on [0, 2]: width min(max(x, delta)/8, _NEAR_CAP)."""
    edges = [0.0]
    x = 0.0
    while x < 2.0 and max(x, delta) < 8.0 * _NEAR_CAP:
        x = min(x + max(x, delta) / 8.0, 2.0)
        edges.append(x)
    # every further panel has width _NEAR_CAP
    n = int(np.ceil((2.0 - x) / _NEAR_CAP))
    tail = np.minimum(x + _NEAR_CAP * np.arange(1, n + 1), 2.0)
    return np.append(edges, tail)


def _g(x, lam, a, c):
    """F(a+ix) - c/(a+ix) on the nodes x, evaluated _PIECE nodes at a time."""
    out = np.empty(x.size, dtype=complex)
    for s in range(0, x.size, _PIECE):
        z = a + 1j * x[s:s + _PIECE]
        out[s:s + _PIECE] = eval_F(z, lam) - c / z
    return out


def _moments(theta):
    """mu_m(theta) = int_{-1}^{1} u^m e^{i theta u} du for m = 0..3, on a new
    first axis.

    The forward recursion mu_m = (e^{i theta} - (-1)^m e^{-i theta}
    - m mu_{m-1}) / (i theta) cancels catastrophically as theta -> 0, so
    |theta| < 1 sums the Taylor series instead.
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 1.0
    th = np.where(small, 1.0, theta)
    ep = np.exp(1j * th)
    em = np.conj(ep)
    rec = [(ep - em) / (1j * th)]
    for m in range(1, 4):
        rec.append((ep - (-1) ** m * em - m * rec[-1]) / (1j * th))
    s = np.where(small, theta, 0.0)
    s2 = s * s
    mu = np.empty((4,) + theta.shape, dtype=complex)
    for m, coef in enumerate(_TAYLOR):
        series = coef[-1]
        for cj in coef[-2::-1]:
            series = series * s2 + cj
        if m % 2:
            series = 1j * s * series
        mu[m] = np.where(small, series, rec[m])
    return mu


def _phases(t, x0, dx, n):
    """e^{i t (x0 + k dx)} for k < n, as the outer product of two tables of
    about sqrt(n) exponentials each: one complex product per k, not one
    complex exponential."""
    b = math.isqrt(n) + 1
    inner = np.exp(1j * t * dx * np.arange(b))
    outer = np.exp(1j * t * (x0 + dx * b * np.arange(-(-n // b))))
    return (outer[:, None] * inner).ravel()[:n]


def _bromwich(lam, t, a, tail_tol):
    """(1/pi) * int_0^R(t) Re(e^{ixt} (F(a+ix) - c/(a+ix))) dx for each t.

    The subtracted term c/(a+ix), c = 1 - e^{-lam}, carries the O(1/x)
    far-field of F, so the remainder decays like 1/x^2 and the truncation
    point R(t) can be chosen from the decay constant of |zF - c|.

    Besides its output, a call holds one block of far coefficients, one
    piece of F's temporaries, one near chunk's temporaries (about _PIECE / 2
    panel terms) and three far sums per t.  Each t's far sums add one
    product per block its far zone reaches, so only a t with more than
    (_BLOCK - 1) // 2 far pairs has its far sum grouped by block.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    bad = ~(np.isfinite(t) & (t > 0))
    if bad.any():
        raise ValueError(
            f"t must be finite and positive, got {float(t[bad][0])!r}")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    # distance from the contour to the rightmost singularity of F
    delta = a + 1.0 / (lam + np.sqrt(2.0))
    if not delta > 0:
        raise ValueError("contour lies left of the pole-free strip")
    c = 1.0 - np.exp(-lam)
    decay = 765.0 * lam * np.exp(-0.75 * lam)  # |z F(z) - c| <= decay/|Im z|
    b0 = np.sqrt(6.0) * (lam + 1.0)  # > 2, so every far zone is non-empty
    # truncation: plain bound decay/(pi R), or via integration by parts
    # ~ 3 decay / (pi t R^2) for oscillatory t
    r_plain = decay / (np.pi * tail_tol)
    r_osc = np.sqrt(3.0 * decay / (np.pi * t * tail_tol))
    r_max = np.maximum(b0, np.minimum(r_plain, r_osc))
    # R(t) is r_max rounded up to a multiple of 1/4, whatever the steps, so
    # refining them leaves the truncation alone; n_pairs far pairs reach it
    pairs_per_quarter = round(0.125 / _FAR_STEP)
    n_pairs = np.ceil(4.0 * r_max - 8.0).astype(int) * pairs_per_quarter
    edges = _near_panel_edges(delta)
    lo, hi = edges[:-1], edges[1:]
    mid_n, half_n = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x_n = (mid_n[:, None] + half_n[:, None] * _GL4_X).ravel()
    # u^m coefficients of the interpolants: cubic through each panel's
    # four nodes, quadratic through each far pair's nodes at u = -1, 0, 1
    coef_n = _GL4_TO_MONO @ _g(x_n, lam, a, c).reshape(-1, 4).T
    # far pair p has nodes 2p..2p+2 of the grid 2 + k _FAR_STEP; a block of
    # m pairs has 2m + 1 nodes, one _BLOCK, the last shared with the next.
    # Each t adds the block's pairs it reaches to its three sums over
    # coef_m e^{ixt}, so only one block of coefficients is held.
    m, n_max = (_BLOCK - 1) // 2, n_pairs.max()
    coef = np.empty((3, min(m, n_max)), dtype=complex)
    acc = np.zeros((t.size, 3), dtype=complex)
    for p0 in range(0, n_max, m):
        size = min(m, n_max - p0)
        c0, c1, c2 = coef[:, :size]
        g = _g(2.0 + _FAR_STEP * np.arange(2 * p0, 2 * (p0 + size) + 1),
               lam, a, c)
        g_lo, g_mid, g_hi = g[:-1:2], g[1::2], g[2::2]
        # g_mid, (g_hi - g_lo) / 2 and (g_hi + g_lo) / 2 - g_mid, in place
        c0[...] = g_mid
        np.subtract(g_hi, g_lo, out=c1)
        c1 *= 0.5
        np.add(g_hi, g_lo, out=c2)
        c2 *= 0.5
        c2 -= g_mid
        del g, g_lo, g_mid, g_hi  # before the next block's values come
        x0 = 2.0 + _FAR_STEP * (1 + 2 * p0)
        for i in np.flatnonzero(n_pairs > p0):
            n = min(n_pairs[i] - p0, size)
            acc[i] += coef[:, :n] @ _phases(t[i], x0, 2.0 * _FAR_STEP, n)
    del coef, c0, c1, c2
    # Filon: a panel of half-width h about x contributes
    # h e^{ixt} sum_m coef_m mu_m(h t).  All work on t is elementwise or a
    # sum over that t's own panels, so no t depends on the others.  The
    # near zone and the far moments take a chunk of t at a time, of about
    # _PIECE / 2 panel terms.
    out = np.empty(t.size)
    chunk = max(1, _PIECE // 2 // half_n.size)
    for s in range(0, t.size, chunk):
        ts = t[s:s + chunk]
        mu_n = _moments(half_n * ts[:, None])
        near = (half_n * np.exp(1j * ts[:, None] * mid_n) * sum(
            coef_n[m] * mu_n[m] for m in range(4))).sum(axis=1)
        del mu_n
        mu_f = _FAR_STEP * _moments(_FAR_STEP * ts)[:3]
        for i in range(ts.size):
            out[s + i] = (near[i] + mu_f[:, i] @ acc[s + i]).real / np.pi
    return out


def estimate_C(lam, t):
    """C(Lambda, t): Bromwich inversion along Re(z) = -1/(Lambda+2).

    Scalar or array in t; every t must be finite and positive.  The
    truncation error budget of the oscillatory integral is 4e-3.
    """
    if not 1.0 <= lam < np.inf:
        raise ValueError(f"requires finite lam >= 1, got {lam!r}")
    out = _bromwich(lam, t, -1.0 / (lam + 2.0), 4e-3)
    return out if np.ndim(t) else float(out[0])


def default_t_grid():
    """The logarithmic grid over which C(Lambda) is maximized."""
    return np.geomspace(1e-3, 3e3, 200)


def estimate_C_sup(lam):
    """C(Lambda) = sup_t C(Lambda, t) over default_t_grid().

    Returns (supremum, argmax t, curve over that grid).
    """
    t_grid = default_t_grid()
    curve = estimate_C(lam, t_grid)
    i = int(np.argmax(curve))
    return float(curve[i]), float(t_grid[i]), curve


def c_analytic_bound(lam):
    """Closed-form upper bound on C(gamma, Lambda) (five-term expression)
    at gamma = 1/(lam + 2), b = sqrt(6)(lam + 1), eps = 1/(136 lam).

    The bound's hypotheses, lam >= 1, 1/(4 lam) <= gamma < 1/(lam+sqrt(2)),
    b >= sqrt(6)(lam+1) and 0 < eps <= 1/(136 lam), all hold there for
    finite lam >= 1, and the bound is below the universal constant 106.
    """
    if not 1.0 <= lam < np.inf:
        raise ValueError(f"requires finite lam >= 1, got {lam!r}")
    gamma = 1.0 / (lam + 2.0)
    b = np.sqrt(6.0) * (lam + 1.0)
    eps = 1.0 / (136.0 * lam)
    k = (lam - gamma) * (np.sqrt(1.0 + b**2 / (4.0 * lam**2)) - b / (2.0 * lam))
    sk = np.sqrt(k)
    sek = np.sqrt(eps * k)
    eg = np.exp(-gamma)
    t1 = (1.0 + np.exp(-lam)) * (2.0 + np.pi) / np.pi
    t2 = 15.0 * eps * eg / (np.pi * gamma)
    t3 = 765.0 * lam * np.exp(-0.75 * lam) / (np.pi * b)
    t4 = (4.0 * eg / (np.pi * k)) * (-sk * np.log1p(-np.exp(-sk)) + 2.0 * np.exp(-sk))
    t5 = (4.0 * eg / (np.pi * gamma * k)) * (
        -sek * np.log1p(-np.exp(-sek)) + 2.0 * np.exp(-sek)
    )
    return float(t1 + t2 + t3 + t4 + t5)
