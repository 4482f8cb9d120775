"""Large-mode-count limit: the semicircular log-gain density's closed-form
mean log-gain, the closed-form capacity density, and per-mode statistics
at the closed-form quantiles of the capacity CDF."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channel import ChannelSpec
from .numerics import matched_sigma

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)

# 64-node Gauss-Chebyshev rule of the second kind, mapped onto the unit
# semicircle on [-2, 2]: E[g(U)] = sum_k w_k g(u_k)
_ANGLES = np.arange(1, 65) * math.pi / 65
GAUSS_NODES = 2.0 * np.cos(_ANGLES)
GAUSS_WEIGHTS = 2.0 / 65 * np.sin(_ANGLES) ** 2
GAUSS_NODES.flags.writeable = GAUSS_WEIGHTS.flags.writeable = False


def mean_log_gain(spec: ChannelSpec) -> float:
    """Mean of the log-gain ensemble such that the linear-scale gain mean is 1.

    For the unit semicircle U and a = sigma ln(10) / 10, E[10^(sigma U / 10)]
    = I1(2a) / a = sum_k a^(2k) / (k! (k+1)!), all terms positive.
    """
    a2 = (spec.sigma_mdg_db * _LN10 / 10.0) ** 2
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= a2 / (k * (k + 1))
        total += term
    return -10.0 / _LN10 * math.log(total)


def gain_db_from_capacity(c: float, snr_linear: float) -> float:
    """Log gain (dB) whose capacity equals ``c``; inverse of the capacity map."""
    return 10.0 / _LN10 * math.log(math.expm1(c * _LN2) / snr_linear)


def capacity_support(spec: ChannelSpec, mu_lambda_db: float):
    """Capacity interval onto which the semicircle support maps."""
    sigma = spec.sigma_mdg_db
    snr = spec.snr_linear
    lo = math.log2(snr * 10.0 ** ((mu_lambda_db - 2.0 * sigma) / 10.0) + 1.0)
    hi = math.log2(snr * 10.0 ** ((mu_lambda_db + 2.0 * sigma) / 10.0) + 1.0)
    return lo, hi


def capacity_pdf(c: float, spec: ChannelSpec, mu_lambda_db: float,
                 support=None, lam_db=None) -> float:
    """Ensemble capacity density in the semicircle limit; zero off support.
    A caller may pass the link's ``capacity_support`` and ``c``'s gain."""
    lo, hi = support or capacity_support(spec, mu_lambda_db)
    if not lo < c < hi:
        return 0.0
    sigma = spec.sigma_mdg_db
    two_c = 2.0**c
    lam_db = gain_db_from_capacity(c, spec.snr_linear) if lam_db is None else lam_db
    u = (lam_db - mu_lambda_db) / sigma
    radicand = 4.0 - u * u
    if radicand <= 0.0:
        return 0.0
    return (5.0 * _LN2 * two_c / (math.pi * sigma * _LN10 * math.expm1(c * _LN2))
            * math.sqrt(radicand))


@lru_cache(maxsize=128)
def _quantile_offsets(D: int) -> tuple:
    """z = sin(phi / 2) at the (i - 1/2)/D quantiles of the unit semicircle,
    where phi + sin(phi) = t = 2 pi (q - 1/2).

    For t >= 0 the left side is increasing and concave on [0, pi), and
    Newton from t / 2 starts left of the root, so it rises monotonically
    onto it; negative t follow by symmetry."""
    offsets = []
    for i in range(1, D + 1):
        t = 2.0 * math.pi * ((i - 0.5) / D - 0.5)
        phi = 0.5 * abs(t)
        for _ in range(60):
            step = (phi + math.sin(phi) - abs(t)) / (1.0 + math.cos(phi))
            phi -= step
            if abs(step) <= 1e-13:
                break
        offsets.append(math.copysign(math.sin(0.5 * phi), t))
    return tuple(offsets)


def per_mode_means_from_cdf(spec: ChannelSpec, mu_lambda_db: float):
    """Per-mode capacity means as the (i - 1/2)/D quantiles of the ensemble CDF.

    With z = (lambda_dB - mu) / (2 sigma) = sin(phi / 2) the CDF reads
    1/2 + (phi + sin(phi)) / (2 pi), so the quantiles in z do not depend on
    the link; each maps to the capacity log2(1 + snr 10^((mu + 2 sigma z) / 10)).
    """
    sigma = spec.sigma_mdg_db
    snr = spec.snr_linear
    return [math.log1p(snr * 10.0 ** ((mu_lambda_db + 2.0 * sigma * z) / 10.0)) / _LN2
            for z in _quantile_offsets(spec.mode_count)]


def per_mode_sigmas_from_pdf(spec: ChannelSpec, mu_lambda_db: float, means, gains=None):
    """Per-mode capacity deviations from the ensemble density at each mean,
    whose gains (dB) a caller may pass as ``gains``."""
    support = capacity_support(spec, mu_lambda_db)
    gains = gains or [gain_db_from_capacity(c, spec.snr_linear) for c in means]
    return [matched_sigma(capacity_pdf(c, spec, mu_lambda_db, support, x), spec.mode_count)
            for c, x in zip(means, gains)]
