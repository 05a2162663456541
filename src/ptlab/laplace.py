"""Complex-analytic machinery for the infinite-chain constant C(Lambda).

The Laplace transform of the continuum traversal-time survival function is
F(z) = (D(1,z) - e^z) / (z * D(1,z)) with D(x,z) = cosh(x r(z)) +
(z/r(z)) sinh(x r(z)) and r(z) = sqrt(z^2 + 2 Lambda z).  Only even powers
of r enter D, so the square-root branch is immaterial and D is entire.

C(Lambda, t) is recovered by numerical Bromwich inversion along the
vertical contour Re(z) = -1/(Lambda+2).  The rightmost singularity of F
lies on the negative real axis at Re(z) <= -1/(Lambda+sqrt(2)), a distance
O(1/Lambda^2) from the contour, so the integrand has a sharp near-pole
spike at x ~ 0 that the quadrature resolves with geometrically refined
panels; away from the origin the integrand is smooth on a scale ~x and is
handled by oscillation-capped composite rules.
"""

import numpy as np

_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.3478548451374538, 0.6521451548625461,
                   0.6521451548625461, 0.3478548451374538])


def eval_D(x, z, lam):
    """D(x, z) = cosh(x r(z)) + z x sinhc(x r(z)), branch-free.

    Uses w = x * sqrt(z^2 + 2 lam z) and sinhc(w) = sinh(w)/w with a series
    branch for |w| < 1e-4 to avoid cancellation near r = 0.
    """
    z = np.asarray(z, dtype=complex)
    w = x * np.sqrt(z * z + 2.0 * lam * z)
    aw = np.abs(w)
    small = aw < 1e-4
    wsafe = np.where(small, 1.0, w)
    sinhc = np.where(small, 1.0 + w * w / 6.0 + w**4 / 120.0,
                     np.sinh(wsafe) / wsafe)
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


def pole_margin_check(lam):
    """Minimum of |D(1, -gamma + ix)| over 400 points x in [0, eps], with
    gamma = 1/(lam + 2) and eps = 1/(136 lam).

    The analytic bound requires this margin to stay >= 0.07 on the
    hypothesis region lam >= 1, 1/(4 lam) <= gamma < 1/(lam + sqrt(2)),
    0 < eps <= 1/(136 lam), which holds at these gamma and eps for every
    finite lam >= 1.
    """
    if not 1.0 <= lam < np.inf:
        raise ValueError(f"requires finite lam >= 1, got {lam!r}")
    gamma = 1.0 / (lam + 2.0)
    eps = 1.0 / (136.0 * lam)
    xs = np.linspace(0.0, eps, 400)
    vals = np.abs(eval_D(1.0, -gamma + 1j * xs, lam))
    return float(vals.min())


def d_real_axis(lam, gamma):
    """Closed-form D(1, -gamma) = cos(s) - (gamma/s) sin(s), s = sqrt(gamma(2 lam - gamma))."""
    if not 0.0 < gamma < 2.0 * lam:
        raise ValueError("requires 0 < gamma < 2 lam")
    s = np.sqrt(gamma * (2.0 * lam - gamma))
    return np.cos(s) - (gamma / s) * np.sin(s)


def _near_panel_edges(x_split, delta, osc_cap):
    """Panel edges on [0, x_split]: width min(max(x/8, delta/8), osc_cap, 0.25)."""
    edges = [0.0]
    x = 0.0
    while x < x_split:
        w = min(max(x / 8.0, delta / 8.0), osc_cap, 0.25)
        x = min(x + w, x_split)
        edges.append(x)
    return np.asarray(edges)


def _bromwich_integral(lam, t, a, tail_tol):
    """(1/pi) * int_0^R Re(e^{ixt} (F(a+ix) - c/(a+ix))) dx.

    The subtracted term c/(a+ix), c = 1 - e^{-lam}, carries the O(1/x)
    far-field of F, so the remainder decays like 1/x^2 and the truncation
    point R can be chosen from the decay constant of |zF - c|.
    """
    c = 1.0 - np.exp(-lam)
    decay = 765.0 * lam * np.exp(-0.75 * lam)  # |z F(z) - c| <= decay/|Im z|
    b0 = np.sqrt(6.0) * (lam + 1.0)
    if t <= 0:
        raise ValueError("t must be positive")
    # truncation: plain bound decay/(pi R), or via integration by parts
    # ~ 3 decay / (pi t R^2) for oscillatory t
    r_plain = decay / (np.pi * tail_tol)
    r_osc = np.sqrt(3.0 * decay / (np.pi * t * tail_tol)) if decay > 0 else 0.0
    r_max = max(b0, min(r_plain, r_osc))
    osc_cap = np.pi / (8.0 * t)
    # distance from the contour to the rightmost singularity of F
    delta = a + 1.0 / (lam + np.sqrt(2.0))
    if delta <= 0:
        raise ValueError("contour lies left of the pole-free strip")
    x_split = min(2.0, r_max)

    def g(x):
        z = a + 1j * x
        return eval_F(z, lam) - c / z

    # near zone: Gauss-Legendre panels, geometrically refined toward x = 0
    edges = _near_panel_edges(x_split, delta, osc_cap)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xn = (mid[:, None] + half[:, None] * _GL4_X).ravel()
    wn = (half[:, None] * _GL4_W).ravel()
    total = float(np.sum(wn * np.real(np.exp(1j * xn * t) * g(xn))))
    # far zone: uniform composite Simpson with oscillation-capped step
    if r_max > x_split:
        h_target = min(0.25, osc_cap)
        n_iv = int(np.ceil((r_max - x_split) / h_target))
        n_iv += n_iv % 2  # Simpson needs an even interval count
        xs = np.linspace(x_split, r_max, n_iv + 1)
        f = np.real(np.exp(1j * xs * t) * g(xs))
        h = xs[1] - xs[0]
        total += h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                            + 2.0 * f[2:-2:2].sum())
    return total / np.pi


def estimate_C(lam, t):
    """C(Lambda, t): Bromwich inversion along Re(z) = -1/(Lambda+2).

    Scalar or array in t.  The truncation error budget of the oscillatory
    integral is 4e-3.
    """
    if not 1.0 <= lam < np.inf:
        raise ValueError(f"requires finite lam >= 1, got {lam!r}")
    a = -1.0 / (lam + 2.0)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.array([_bromwich_integral(lam, ti, a, 4e-3) for ti in t_arr])
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
    out = np.array([np.exp(0.1 * ti) * _bromwich_integral(lam, ti, 0.1, 1e-3) + c
                    for ti in t_arr])
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
