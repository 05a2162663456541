"""Complex-analytic machinery for the infinite-chain constant C(Lambda).

The Laplace transform of the continuum traversal-time survival function is
F(z) = (D(1,z) - e^z) / (z * D(1,z)) with D(x,z) = cosh(x r(z)) +
(z/r(z)) sinh(x r(z)) and r(z) = sqrt(z^2 + 2 Lambda z).  Only even powers
of r enter D, so the square-root branch is immaterial and D is entire.

C(Lambda, t) is recovered by numerical Bromwich inversion along the
vertical contour Re(z) = -1/(Lambda+2).  The rightmost singularity of F
lies on the negative real axis at Re(z) <= -1/(Lambda+sqrt(2)), a distance
O(1/Lambda^2) from the contour, so the integrand has a sharp near-pole
spike at x ~ 0.  On [0, 2] it is integrated by Gauss-Legendre panels,
geometrically refined toward x = 0; beyond 2 it is smooth on a scale ~x and
is integrated by composite Simpson on the uniform grid 2 + j h.

The transform does not depend on t; only the factor e^{ixt} does.  Each t
is given the dyadic step h = 0.25 * 2^-k, the largest at or below
min(0.25, pi/(8t)) (16 or more steps per period of e^{ixt}), and the t of
one step level share one node set: the near panels (width at most h) and
the far grid out to the group's longest truncation point.  F is evaluated
once per level on those nodes, in blocks of _BLOCK nodes, and each t takes
the near nodes plus the Simpson prefix that first reaches its own
truncation point.  A t's nodes depend only on its level, so its value does
not depend on which other t are computed with it.
"""

import numpy as np

_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.3478548451374538, 0.6521451548625461,
                   0.6521451548625461, 0.3478548451374538])

_BLOCK = 1 << 14  # nodes per evaluation of F; even, so blocks start at even j
_SIMPSON = np.tile([2.0, 4.0], _BLOCK // 2)  # interior weights, even j first


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


def _near_panel_edges(delta, h):
    """Panel edges on [0, 2]: width min(max(x/8, delta/8), h)."""
    edges = [0.0]
    x = 0.0
    while x < 2.0 and max(x, delta) < 8.0 * h:
        x = min(x + max(x, delta) / 8.0, 2.0)
        edges.append(x)
    # every further panel has width h
    n = int(np.ceil((2.0 - x) / h))
    return np.append(edges, np.minimum(x + h * np.arange(1, n + 1), 2.0))


def _g(x, lam, a, c):
    """F(a+ix) - c/(a+ix) on the nodes x, evaluated _BLOCK nodes at a time."""
    out = np.empty(x.size, dtype=complex)
    for s in range(0, x.size, _BLOCK):
        z = a + 1j * x[s:s + _BLOCK]
        out[s:s + _BLOCK] = eval_F(z, lam) - c / z
    return out


def _bromwich(lam, t, a, tail_tol):
    """(1/pi) * int_0^R(t) Re(e^{ixt} (F(a+ix) - c/(a+ix))) dx for each t.

    The subtracted term c/(a+ix), c = 1 - e^{-lam}, carries the O(1/x)
    far-field of F, so the remainder decays like 1/x^2 and the truncation
    point R(t) can be chosen from the decay constant of |zF - c|.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    bad = ~(np.isfinite(t) & (t > 0))
    if bad.any():
        raise ValueError(
            f"t must be finite and positive, got {float(t[bad][0])!r}")
    # distance from the contour to the rightmost singularity of F
    delta = a + 1.0 / (lam + np.sqrt(2.0))
    if delta <= 0:
        raise ValueError("contour lies left of the pole-free strip")
    c = 1.0 - np.exp(-lam)
    decay = 765.0 * lam * np.exp(-0.75 * lam)  # |z F(z) - c| <= decay/|Im z|
    b0 = np.sqrt(6.0) * (lam + 1.0)  # > 2, so every far zone is non-empty
    # truncation: plain bound decay/(pi R), or via integration by parts
    # ~ 3 decay / (pi t R^2) for oscillatory t
    r_plain = decay / (np.pi * tail_tol)
    r_osc = np.sqrt(3.0 * decay / (np.pi * t * tail_tol))
    r_max = np.maximum(b0, np.minimum(r_plain, r_osc))
    # step level: the smallest k >= 0 with 0.25 * 2^-k <= pi/(8t)
    osc_cap = np.pi / (8.0 * t)
    level = np.maximum(0, np.ceil(np.log2(0.25 / osc_cap))).astype(int)
    level += np.ldexp(0.25, -level) > osc_cap
    out = np.empty(t.size)
    for k in np.unique(level):
        group = np.flatnonzero(level == k)
        ts = t[group]
        h = np.ldexp(0.25, -int(k))
        # near zone: Gauss-Legendre panels on [0, 2]
        edges = _near_panel_edges(delta, h)
        lo, hi = edges[:-1], edges[1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xn = (mid[:, None] + half[:, None] * _GL4_X).ravel()
        wgn = (half[:, None] * _GL4_W).ravel() * _g(xn, lam, a, c)
        near = np.array([np.sum(np.exp(1j * xn * ti) * wgn).real for ti in ts])
        # far zone: composite Simpson on 2 + j h for j = 0 .. last, the
        # first even j at or past r_max.  In the block of nodes starting at
        # j = s, e^{ixt} = e^{i x_s t} * base[j - s] with base[m] = e^{imht}.
        last = 2 * np.ceil((r_max[group] - 2.0) / (2.0 * h)).astype(int)
        base = [np.exp(1j * (h * ti * np.arange(min(_BLOCK, n + 1))))
                for ti, n in zip(ts, last)]
        far = np.zeros(group.size, dtype=complex)
        for s in range(0, last.max() + 1, _BLOCK):
            xb = 2.0 + h * np.arange(s, min(s + _BLOCK, last.max() + 1))
            gb = _g(xb, lam, a, c)
            wgb = _SIMPSON[:gb.size] * gb
            if s == 0:
                wgb[0] = gb[0]
            for i in np.flatnonzero(last >= s):
                m = min(_BLOCK, last[i] - s + 1)
                part = np.sum(base[i][:m] * wgb[:m])
                if s + m - 1 == last[i]:
                    part -= base[i][m - 1] * gb[m - 1]  # end weight 1, not 2
                far[i] += np.exp(1j * (xb[0] * ts[i])) * part
        out[group] = (near + h / 3.0 * far.real) / np.pi
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


def survival_from_transform(lam, t):
    """Reconstruct Pr(tau_inf > t + 1) by inversion along Re(z) = 0.1 with
    a truncation error budget of 1e-3 (a consistency check against Monte
    Carlo, not used by the C(Lambda) pipeline).

    On a contour with Re(z) = a > 0 the subtracted c/z term inverts to the
    constant c, which is added back.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"requires finite lam >= 0, got {lam!r}")
    c = 1.0 - np.exp(-lam)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.exp(0.1 * t_arr) * _bromwich(lam, t_arr, 0.1, 1e-3) + c
    return out if np.ndim(t) else float(out[0])


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
