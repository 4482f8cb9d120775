"""Large-mode-count limit: the semicircular log-gain density's closed-form
mean log-gain, and per-mode statistics in closed form at its (i - 1/2)/D
quantiles.

Mode i sits at the quantile offset z_i = sin(phi_i / 2), with gain mean
x_i = mu + 2 sigma z_i (dB) and g_i = snr 10^(x_i / 10).  Its capacity mean
is log2(1 + g_i), and its capacity deviation is matched to the ensemble
capacity density there,

    f_i = 10 ln 2 / (pi sigma ln 10) (1 + 1 / g_i) sqrt(1 - z_i^2),

the semicircle density sqrt(4 - u^2) / (2 pi sigma) at u = 2 z_i times
the Jacobian dx/dC = (10 / ln 10) ln 2 2^C / (2^C - 1), 2^C = 1 + g_i.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channel import ChannelSpec
from .errors import DegenerateDistributionError
from .numerics import matched_sigma

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_DENSITY_SCALE = 10.0 * _LN2 / (math.pi * _LN10)  # sigma f_i / ((1 + 1 / g_i) sqrt(1 - z_i^2))

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
    try:
        a2 = (spec.sigma_mdg_db * _LN10 / 10.0) ** 2
    except OverflowError:  # sigma_mdg above about 5.8e154 dB
        a2 = math.inf
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= a2 / (k * (k + 1))
        total += term
    if total == math.inf:
        raise DegenerateDistributionError(
            f"the linear-scale gain mean at sigma_mdg_db={spec.sigma_mdg_db} "
            f"overflows double precision, so the mean log-gain has no finite value")
    return -10.0 / _LN10 * math.log(total)


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


def per_mode_gains(spec: ChannelSpec, mu_lambda_db: float) -> list:
    """Per-mode log-gain means mu + 2 sigma z_i (dB) at the quantile offsets.

    With z = (lambda_dB - mu) / (2 sigma) = sin(phi / 2) the CDF reads
    1/2 + (phi + sin(phi)) / (2 pi), so the quantiles in z do not depend on
    the link."""
    two_sigma = 2.0 * spec.sigma_mdg_db
    return [mu_lambda_db + two_sigma * z for z in _quantile_offsets(spec.mode_count)]


def snr_gains(spec: ChannelSpec, gains) -> list:
    """g = snr 10^(x / 10) of each gain ``x`` (dB), which both per-mode
    capacity statistics take.  A g that underflows to 0 or overflows leaves
    its mode no finite, positive capacity or density, which raises
    DegenerateDistributionError."""
    snr = spec.snr_linear
    linear = [snr * 10.0 ** (x / 10.0) for x in gains]
    if not all(0.0 < g < math.inf for g in linear):
        raise DegenerateDistributionError(
            f"the per-mode gains {gains[0]} to {gains[-1]} dB at "
            f"sigma_mdg_db={spec.sigma_mdg_db} give SNR gains {linear[0]} to "
            f"{linear[-1]}, beyond double precision")
    return linear


def per_mode_means_from_cdf(linear) -> list:
    """Per-mode capacity means log2(1 + g_i) at the (i - 1/2)/D quantiles of
    the ensemble CDF, from the modes' SNR gains g_i (``snr_gains``)."""
    return [math.log1p(g) / _LN2 for g in linear]


def per_mode_sigmas_from_pdf(spec: ChannelSpec, linear) -> list:
    """Per-mode capacity deviations matched to the ensemble capacity density
    f_i at each mode, from the modes' SNR gains g_i (``snr_gains``)."""
    scale = _DENSITY_SCALE / spec.sigma_mdg_db
    # 1 + 1 / g as (1 + g) / g, last, so that no factor overflows before f_i
    return [matched_sigma(scale * math.sqrt((1.0 - z) * (1.0 + z)) * (1.0 + g) / g,
                          spec.mode_count)
            for g, z in zip(linear, _quantile_offsets(spec.mode_count))]
