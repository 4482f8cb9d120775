"""Multivariate-normal total capacity: empirical correlation model, total
mean/variance, exact mean integral, frequency diversity and outage capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gue, wigner
from .capacity import METHOD_GUE, PerModeStats
from .channel import ChannelSpec
from .errors import CorrelationRangeError, DegenerateDistributionError
from .numerics import inverse_erf

CORRELATION_EXPONENT = 2.75

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_LN10 = math.log(10.0)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CorrelationModel:
    """Fitted coefficients of the inter-mode capacity correlation function,
    valid for one (D, SNR) pair."""

    gamma0: float
    gamma1: float
    D: int
    snr_db: float
    exponent: float = CORRELATION_EXPONENT


@dataclass(frozen=True)
class TotalCapacityStats:
    """Gaussian total-capacity parameters plus the exact mean integral."""

    mu_ct: float  # bit/s/Hz, sum of per-mode Gaussian means
    sigma_ct: float  # bit/s/Hz
    mu_ct_exact: float  # bit/s/Hz, ensemble-density mean integral (NaN if unset)
    n_bins: int = 1


def correlation(i: int, j: int, sigma_mdg_db: float,
                model: CorrelationModel) -> float:
    """Empirical correlation between the capacities of modes i and j."""
    d = abs(i - j)
    decay = math.exp(-d)
    g = model.gamma0 + model.gamma1 * sigma_mdg_db**model.exponent
    return decay + (decay - 1.0) * g


def correlation_matrix(D: int, sigma_mdg_db: float, model: CorrelationModel):
    return [
        [correlation(i, j, sigma_mdg_db, model) for j in range(1, D + 1)]
        for i in range(1, D + 1)
    ]


def total_stats(stats: PerModeStats, model: CorrelationModel,
                sigma_mdg_db: float, mu_ct_exact: float = math.nan,
                n_bins: int = 1) -> TotalCapacityStats:
    """Total-capacity Gaussian parameters from per-mode statistics and the
    correlation model.  A non-positive computed variance means the empirical
    correlation model is being used outside its fitted envelope and raises."""
    D = stats.D
    mu_ct = sum(stats.cap_means)
    var = 0.0
    for i in range(1, D + 1):
        si = stats.cap_sigmas[i - 1]
        for j in range(1, D + 1):
            var += si * stats.cap_sigmas[j - 1] * correlation(i, j, sigma_mdg_db, model)
    if any(s > 0 for s in stats.cap_sigmas) and var <= 0:
        raise CorrelationRangeError(
            f"computed total variance {var} is not positive; the correlation "
            f"model is out of its valid range"
        )
    return TotalCapacityStats(mu_ct=mu_ct, sigma_ct=math.sqrt(max(var, 0.0)),
                              mu_ct_exact=mu_ct_exact, n_bins=n_bins)


def exact_total_mean(spec: ChannelSpec, stats: PerModeStats) -> float:
    """Exact total-capacity mean: D times the mean of log2(1 + snr gain) under
    the ensemble log-gain density with mean ``stats.mu_lambda_db``, by the
    Gauss rule of the density's track (Gauss-Hermite for the GUE,
    Gauss-Chebyshev of the second kind for the semicircle)."""
    snr = spec.snr_linear
    sigma = spec.sigma_mdg_db
    if sigma == 0:
        return spec.mode_count * math.log2(1.0 + snr)
    if stats.method == METHOD_GUE:
        nodes, weights = gue.gauss_rule(gue.derive_coefficients(spec.mode_count))
    else:
        nodes, weights = wigner.GAUSS_NODES, wigner.GAUSS_WEIGHTS
    # log2(1 + snr 10^(x / 10)) as a softplus, which cannot overflow
    exponent = math.log(snr) + (sigma * nodes + stats.mu_lambda_db) * (_LN10 / 10.0)
    return spec.mode_count * float(np.dot(weights, np.logaddexp(0.0, exponent))) / _LN2


def apply_frequency_diversity(stats: TotalCapacityStats, N: int) -> TotalCapacityStats:
    """Average over N independent frequency bins: mean unchanged, deviation
    reduced by sqrt(N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return replace(stats, sigma_ct=stats.sigma_ct / math.sqrt(N),
                   n_bins=stats.n_bins * N)


def _normal_quantile(p: float) -> float:
    """Standard-normal quantile, accurate deep into either tail: Newton on the
    concave log Phi from the inverse-erf estimate, or from -sqrt(-2 ln p)
    once 2p - 1 rounds to -1.  Above 1/2 by symmetry (1 - p is exact there)."""
    if p > 0.5:
        return -_normal_quantile(1.0 - p)
    x = 2.0 * p - 1.0
    z = _SQRT_2 * inverse_erf(x) if x > -1.0 else -math.sqrt(-2.0 * math.log(p))
    for _ in range(50):
        cdf = 0.5 * math.erfc(-z / _SQRT_2)
        if cdf == 0.0:
            raise ValueError(f"p_out={p} is below the representable normal tail")
        step = math.log(cdf / p) * cdf * _SQRT_2PI / math.exp(-0.5 * z * z)
        z -= step
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            break
    return z


def outage_capacity(mu: float, sigma: float, p_out: float) -> float:
    """Gaussian outage capacity mu + sigma Phi^-1(p_out)."""
    if not 0.0 < p_out < 1.0:
        raise ValueError("p_out must lie in (0, 1)")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return mu
    return sigma * _normal_quantile(p_out) + mu


def total_pdf(c: float, stats: TotalCapacityStats) -> float:
    """Gaussian total-capacity density."""
    if stats.sigma_ct <= 0:
        raise DegenerateDistributionError("total capacity is deterministic")
    u = (c - stats.mu_ct) / stats.sigma_ct
    return math.exp(-0.5 * u * u) / (stats.sigma_ct * _SQRT_2PI)
