"""The scipy evaluation of the Yule-Simon special functions, kept as the
oracle of forgesim.yule's numpy sums.

Below size or argument 64 these are scipy's gammaln, digamma and Hurwitz
zeta; above it the log-Gamma ratio uses the Stirling series as the
scipy-based yule wrote it (stirling_ratio, with its powers taken by `**`),
and the digamma difference uses yule's digamma series. newton_fit is
fit_rho_batch's safeguarded Newton iteration for one histogram, run on
these functions.
"""

import numpy as np
from scipy.special import digamma, gammaln, zeta

from forgesim.yule import _STIRLING_MIN, _psi_series


def stirling_ratio(x, a):
    """log Gamma(x) - log Gamma(x + a) for x >= 64, from the Stirling series
    of the ratio itself rather than a difference of two large log-Gammas."""
    u = 1.0 / x
    v = 1.0 / (x + a)
    d = a / (x * (x + a))  # u - v without cancellation
    # Bernoulli corrections B_2..B_8 of the Stirling series, as differences.
    corr = d / 12.0
    corr -= d * (u * u + u * v + v * v) / 360.0
    u2, v2 = u * u, v * v
    corr += d * (u2 * u2 + u2 * u * v + u2 * v2 + u * v * v2 + v2 * v2) / 1260.0
    corr -= d * sum(u ** (6 - i) * v**i for i in range(7)) / 1680.0
    return -(x - 0.5) * np.log1p(a / x) - a * np.log(x + a) + a + corr


def lgamma_ratio(x, a):
    """log Gamma(x) - log Gamma(x + a); a is a scalar or shaped like x."""
    a = np.broadcast_to(a, x.shape)
    out = np.empty_like(x)
    small = x < _STIRLING_MIN
    out[small] = gammaln(x[small]) - gammaln(x[small] + a[small])
    out[~small] = stirling_ratio(x[~small], a[~small])
    return out


def log_beta(x, a):
    """log B(x, a)."""
    return gammaln(a) + lgamma_ratio(x, a)


def digamma_diff(a, x):
    """psi(a + x) - psi(a) for a >= 1, x >= 0."""
    a, x = np.broadcast_arrays(a, x)
    out = np.empty(a.shape)
    small = a < _STIRLING_MIN
    out[small] = digamma(a[small] + x[small]) - digamma(a[small])
    out[~small] = _psi_series(a[~small], x[~small])[0]
    return out


def trigamma_diff(a, x):
    """psi'(a) - psi'(a + x)."""
    return zeta(2, a) - zeta(2, x + a)


def newton_fit(sizes, weights):
    """(rho, loglik) maximising sum_x w(x) log pmf(x, rho), by the Newton
    iteration in log rho of fit_rho_batch on the scipy sums."""
    sizes = np.asarray(sizes, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    t = np.log(max(weights[sizes == 1].sum() / weights[sizes >= 2].sum(), 1e-2))
    lo, hi = -np.inf, np.inf
    for _ in range(100):
        rho = np.exp(t)
        d1 = digamma_diff(rho + 1.0, sizes)
        d2 = trigamma_diff(rho + 1.0, sizes)
        g = np.dot(weights, 1.0 - rho * d1)
        h = np.dot(weights, rho * (rho * d2 - d1))
        lo = t if g > 0 else lo
        hi = t if g < 0 else hi
        step = -g / h if h < 0 else np.sign(g) * 2.0
        new = t + np.clip(step, -2.0, 2.0)
        if new < lo or new > hi:
            new = 0.5 * (lo + hi)
        done = abs(new - t) < 1e-10
        t = new
        if done:
            break
    else:
        raise AssertionError("oracle Newton did not converge")
    rho = np.exp(t)
    return float(rho), float(np.dot(weights, np.log(rho) + log_beta(sizes, rho + 1.0)))
