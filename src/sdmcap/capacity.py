"""Gain-to-capacity transformation, GUE-track per-mode capacity statistics,
and the method-dispatch entry point producing PerModeStats."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import gue, wigner
from .channel import ChannelSpec
from .errors import DegenerateDistributionError, UnsupportedOrderError
from .numerics import matched_sigma

_LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_A = math.log(10.0) / 10.0  # natural log of the linear gain per dB
_NEWTON_TOL = 1e-12  # on t = a x + ln snr, for a mode's gain x (dB)

METHOD_GUE = "gue"
METHOD_WIGNER = "wigner"
METHOD_AUTO = "auto"

# below this nonzero MDG the D per-mode statistics merge in double precision
SIGMA_MIN_DB = 1e-9


@dataclass(frozen=True)
class PerModeStats:
    """Ordered per-mode Gaussian parameters for gains and capacities."""

    D: int
    method: str  # "gue" or "wigner"
    mu_lambda_db: float
    gain_means: tuple  # dB
    gain_sigmas: tuple  # dB; empty for the wigner method
    cap_means: tuple  # bit/s/Hz
    cap_sigmas: tuple  # bit/s/Hz


def capacity_from_gain(lambda_db: float, snr_linear: float) -> float:
    """Per-mode capacity log2(1 + SNR * 10^(lambda_dB / 10))."""
    if snr_linear <= 0:
        raise ValueError("snr_linear must be positive")
    return math.log2(1.0 + snr_linear * 10.0 ** (lambda_db / 10.0))


def _softplus(t: float) -> float:
    """ln(1 + e^t), without overflow."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def per_mode_capacity_pdf(c: float, mean_db: float, sigma_db: float,
                          snr_linear: float) -> float:
    """Capacity density of a mode with log gain N(``mean_db``, ``sigma_db``^2):
    the gain density at x = (t - ln snr) / a, e^t = 2^c - 1, times dx/dc =
    (ln 2 / a)(1 + e^-t), in logs: no cancelling or underflow near c = 0."""
    if c <= 0:
        return 0.0
    t = math.log(math.expm1(c * _LN2))
    u = ((t - math.log(snr_linear)) / _A - mean_db) / sigma_db
    return math.exp(_softplus(-t) - 0.5 * u * u) * _LN2 / (_A * sigma_db * _SQRT_2PI)


def _stationarity(d: float, t_lo: float, k: float) -> tuple:
    """(h, dh/dt), h = d / k - p, p = 1 / (1 + e^-t), t = t_lo + d: a mode's
    stationarity condition (x - m) / s^2 + a (1 - p) = a h for t = a x + ln snr,
    k = (a s)^2, t_lo = a m + ln snr - k; d parts a root from t_lo (c near 0)."""
    t = t_lo + d
    e = math.exp(-abs(t))
    return d / k - (1.0 if t >= 0 else e) / (1.0 + e), 1.0 / k - e / ((1.0 + e) * (1.0 + e))


def per_mode_capacity_mean(mean_db: float, sigma_db: float, snr_linear: float) -> float:
    """Mode of ``per_mode_capacity_pdf``, softplus(t) / ln 2 at the root of
    ``_stationarity`` in 0 < d < k: Newton, kept inside that bracket.  Above
    a gain deviation of 2 / a (8.69 dB), h falls between its critical points
    t = -+2 atanh(sqrt(1 - 4 / k)); if it has three roots, the density is
    bimodal, which raises DegenerateDistributionError."""
    k = (_A * sigma_db) ** 2
    t_lo = _A * mean_db + math.log(snr_linear) - k
    lo, hi = 0.0, k
    if k > 4.0:
        tau = 2.0 * math.atanh(math.sqrt(1.0 - 4.0 / k))
        h_max, h_min = (_stationarity(t - t_lo, t_lo, k)[0] for t in (-tau, tau))
        if h_max > 0.0 > h_min:
            raise DegenerateDistributionError(
                f"the capacity density of the mode with gain mean {mean_db} dB and "
                f"deviation {sigma_db} dB is bimodal, so it has no one Gaussian match")
        lo, hi = (max(lo, tau - t_lo), hi) if h_max <= 0.0 else (lo, min(hi, -tau - t_lo))
    d = k * math.exp(-_softplus(-t_lo - k))  # d = k p at the gain mean
    if not lo < d < hi:
        d = 0.5 * (lo + hi)
    while hi - lo > _NEWTON_TOL:
        h, dh = _stationarity(d, t_lo, k)
        lo, hi = (d, hi) if h < 0.0 else (lo, d)
        step = h / dh if dh > 0.0 else math.inf
        d -= step
        # converged: tested before the bracket, which a sub-ulp step may leave
        if abs(step) <= _NEWTON_TOL:
            break
        if not lo < d < hi:
            d = 0.5 * (lo + hi)
    return _softplus(t_lo + d) / _LN2


def per_mode_stats(spec: ChannelSpec, method: str = METHOD_AUTO) -> PerModeStats:
    """Per-mode gain and capacity statistics for a link.

    ``auto`` dispatches to the GUE track for D <= 8 and to the semicircle
    track otherwise; both can be requested explicitly (GUE only up to D = 8).
    """
    if method not in (METHOD_AUTO, METHOD_GUE, METHOD_WIGNER):
        raise ValueError(f"unknown method {method!r}")
    D = spec.mode_count
    snr = spec.snr_linear
    if method == METHOD_AUTO:
        method = METHOD_GUE if D <= gue.SUPPORTED_MAX else METHOD_WIGNER

    if spec.sigma_mdg_db == 0:
        return PerModeStats(
            D=D, method=method, mu_lambda_db=0.0,
            gain_means=(0.0,) * D, gain_sigmas=(0.0,) * D,
            cap_means=(math.log2(1.0 + snr),) * D, cap_sigmas=(0.0,) * D,
        )

    if spec.sigma_mdg_db < SIGMA_MIN_DB:
        raise DegenerateDistributionError(
            f"sigma_mdg_db={spec.sigma_mdg_db} is below {SIGMA_MIN_DB} dB, where the "
            f"per-mode statistics are not resolvable; use 0 for a flat link")
    if method == METHOD_GUE:
        if D > gue.SUPPORTED_MAX:
            raise UnsupportedOrderError(f"GUE track supports D <= {gue.SUPPORTED_MAX}; got D={D}")
        coeffs = gue.derive_coefficients(D)
        mu = gue.mean_log_gain(spec, coeffs)
        gain_means = gue.per_mode_means(spec, coeffs, mu)
        gain_sigmas = gue.per_mode_sigmas(spec, coeffs, mu, gain_means)
        cap_means = [per_mode_capacity_mean(m, s, snr) for m, s in zip(gain_means, gain_sigmas)]
        cap_sigmas = [matched_sigma(per_mode_capacity_pdf(c, m, s, snr))
                      for c, m, s in zip(cap_means, gain_means, gain_sigmas)]
    else:  # semicircle track
        mu = wigner.mean_log_gain(spec)
        gain_means = wigner.per_mode_gains(spec, mu)
        gain_sigmas = ()
        linear = wigner.snr_gains(spec, gain_means)
        cap_means = wigner.per_mode_means_from_cdf(linear)
        cap_sigmas = wigner.per_mode_sigmas_from_pdf(spec, linear)
    for means in (gain_means, cap_means):
        if not all(map(operator.lt, means, means[1:])):
            raise DegenerateDistributionError(
                f"the per-mode means of the {method} track are not strictly ascending "
                f"at sigma_mdg_db={spec.sigma_mdg_db}, so its modes have no one order")
    return PerModeStats(
        D=D, method=method, mu_lambda_db=mu,
        gain_means=tuple(gain_means), gain_sigmas=tuple(gain_sigmas),
        cap_means=tuple(cap_means), cap_sigmas=tuple(cap_sigmas),
    )
