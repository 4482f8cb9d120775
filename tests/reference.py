"""Reference implementations that the tests hold the package's closed forms
to, kept out of the package because the package never calls them.

``integrate`` is an adaptive-Simpson quadrature; ``semicircle_pdf`` is the
Wigner density of the log gains, ``capacity_pdf`` and ``capacity_cdf`` the
semicircle-limit capacity density and CDF on ``capacity_support``, in the
capacity domain through ``gain_db_from_capacity``.  The semicircle track
takes the CDF's quantiles and the density there in closed form, in the
gain domain.  ``bisect`` and ``capacity_mean_by_bisection`` solve a GUE
mode's capacity mean in the capacity domain, as
``capacity.per_mode_capacity_mean`` does in the gain domain.
"""

from __future__ import annotations

import math

from sdmcap.capacity import capacity_from_gain
from sdmcap.errors import DegenerateDistributionError

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)


class QuadratureError(Exception):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best estimate obtained so far in ``best_estimate``.
    """

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


def _simpson(f_a, f_m, f_b, h):
    return h / 6.0 * (f_a + 4.0 * f_m + f_b)


def integrate(f, lower: float, upper: float, tol: float = 1e-10,
              initial_panels: int = 32, max_depth: int = 60) -> float:
    """Adaptive-Simpson estimate of the integral of ``f`` on [lower, upper].

    The interval is pre-split into ``initial_panels`` panels so narrow
    features cannot be missed by the first coarse estimate.  Raises
    QuadratureError (carrying the best estimate) if the depth budget is
    exhausted anywhere.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if upper == lower:
        return 0.0
    if upper < lower:
        return -integrate(f, upper, lower, tol, initial_panels, max_depth)

    panel_tol = tol / initial_panels
    total = 0.0
    failed = False
    width = (upper - lower) / initial_panels
    for i in range(initial_panels):
        a = lower + i * width
        b = a + width
        m = 0.5 * (a + b)
        fa, fm, fb = f(a), f(m), f(b)
        whole = _simpson(fa, fm, fb, b - a)
        value, ok = _adaptive(f, a, b, fa, fm, fb, whole, panel_tol, max_depth)
        total += value
        failed = failed or not ok
    if failed:
        raise QuadratureError(
            f"quadrature did not converge to tol={tol} within depth {max_depth}",
            best_estimate=total,
        )
    return total


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, True
    if depth <= 0:
        return left + right + delta / 15.0, False
    lv, lok = _adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
    rv, rok = _adaptive(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
    return lv + rv, lok and rok


def semicircle_pdf(x: float, sigma_mdg_db: float, mu_lambda_db: float) -> float:
    """Wigner semicircle density of the log gains; support mu +- 2 sigma."""
    if sigma_mdg_db <= 0:
        raise ValueError("sigma_mdg_db must be positive")
    u = (x - mu_lambda_db) / sigma_mdg_db
    if abs(u) >= 2.0:
        return 0.0
    return math.sqrt(4.0 - u * u) / (2.0 * math.pi * sigma_mdg_db)


def gain_db_from_capacity(c: float, snr_linear: float) -> float:
    """Log gain (dB) whose capacity equals ``c``; inverse of the capacity map."""
    return 10.0 / _LN10 * math.log(math.expm1(c * _LN2) / snr_linear)


def capacity_support(spec, mu_lambda_db: float):
    """Capacity interval onto which the semicircle support maps."""
    sigma = spec.sigma_mdg_db
    snr = spec.snr_linear
    lo = math.log2(snr * 10.0 ** ((mu_lambda_db - 2.0 * sigma) / 10.0) + 1.0)
    hi = math.log2(snr * 10.0 ** ((mu_lambda_db + 2.0 * sigma) / 10.0) + 1.0)
    return lo, hi


def capacity_pdf(c: float, spec, mu_lambda_db: float) -> float:
    """Ensemble capacity density in the semicircle limit; zero off support."""
    lo, hi = capacity_support(spec, mu_lambda_db)
    if not lo < c < hi:
        return 0.0
    sigma = spec.sigma_mdg_db
    u = (gain_db_from_capacity(c, spec.snr_linear) - mu_lambda_db) / sigma
    radicand = 4.0 - u * u
    if radicand <= 0.0:
        return 0.0
    return (5.0 * _LN2 * 2.0**c / (math.pi * sigma * _LN10 * math.expm1(c * _LN2))
            * math.sqrt(radicand))


def capacity_cdf(c: float, spec, mu_lambda_db: float) -> float:
    """Closed-form capacity CDF in the semicircle limit, clamped off support."""
    lo, hi = capacity_support(spec, mu_lambda_db)
    if c <= lo:
        return 0.0
    if c >= hi:
        return 1.0
    sigma = spec.sigma_mdg_db
    z = (gain_db_from_capacity(c, spec.snr_linear) - mu_lambda_db) / (2.0 * sigma)
    z = max(-1.0, min(1.0, z))
    return 0.5 + (z * math.sqrt(1.0 - z * z) + math.asin(z)) / math.pi


def bisect(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisection on a sign-change bracket [a, b]; |f| <= tol or width <= tol."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("bisect requires a sign change on [a, b]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) <= tol or (b - a) <= tol:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def capacity_mean_by_bisection(mean_db: float, sigma_db: float, snr_linear: float) -> float:
    """A stationary point of the capacity density of a mode with Gaussian log
    gain N(``mean_db``, ``sigma_db``^2): the root of its stationarity
    condition in capacity c, bisected over the capacities of the +-6 sigma
    gain window.  Raises DegenerateDistributionError where the window's
    lower capacity rounds to 0, since the condition is undefined there."""
    ln10 = math.log(10.0)

    def stationarity(c):
        two_c = 2.0**c
        lam_db = 10.0 / ln10 * math.log((two_c - 1.0) / snr_linear)
        return 10.0 * two_c / (sigma_db * sigma_db * ln10) * (lam_db - mean_db) + 1.0

    lo = capacity_from_gain(mean_db - 6.0 * sigma_db, snr_linear)
    if 2.0**lo == 1.0:
        raise DegenerateDistributionError(
            f"the mode with gain mean {mean_db} dB and deviation {sigma_db} dB has "
            f"capacity {lo} at its -6 sigma gain, where its stationarity "
            f"condition is undefined")
    hi = capacity_from_gain(mean_db + 6.0 * sigma_db, snr_linear)
    return bisect(stationarity, lo, hi)
