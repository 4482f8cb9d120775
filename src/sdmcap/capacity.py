"""Gain-to-capacity transformation, GUE-track per-mode capacity statistics,
and the method-dispatch entry point producing PerModeStats."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gue, wigner
from .channel import ChannelSpec
from .errors import DegenerateDistributionError, UnsupportedOrderError
from .numerics import bisect, matched_sigma

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

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


def per_mode_capacity_pdf(c: float, mean_db: float, sigma_db: float,
                          snr_linear: float) -> float:
    """Capacity density of a mode with Gaussian log gain N(``mean_db``,
    ``sigma_db``^2), by change of variables."""
    if c <= 0:
        return 0.0
    two_c = 2.0**c
    lam_db = 10.0 / _LN10 * math.log((two_c - 1.0) / snr_linear)
    jacobian = 10.0 * _LN2 * two_c / (_LN10 * (two_c - 1.0))
    u = (lam_db - mean_db) / sigma_db
    return jacobian * (math.exp(-0.5 * u * u) / (sigma_db * _SQRT_2PI))


def per_mode_capacity_mean(mean_db: float, sigma_db: float, snr_linear: float) -> float:
    """Mode of ``per_mode_capacity_pdf``: the root of the stationarity
    condition bracketed by the +-6 sigma gain window.  Raises
    DegenerateDistributionError where the window's lower capacity rounds to
    0, since the condition is undefined there."""
    if sigma_db == 0.0:
        return capacity_from_gain(mean_db, snr_linear)

    def stationarity(c):
        two_c = 2.0**c
        lam_db = 10.0 / _LN10 * math.log((two_c - 1.0) / snr_linear)
        return 10.0 * two_c / (sigma_db * sigma_db * _LN10) * (lam_db - mean_db) + 1.0

    lo = capacity_from_gain(mean_db - 6.0 * sigma_db, snr_linear)
    if 2.0**lo == 1.0:
        raise DegenerateDistributionError(
            f"the mode with gain mean {mean_db} dB and deviation {sigma_db} dB has "
            f"capacity {lo} at its -6 sigma gain, where its stationarity "
            f"condition is undefined; sigma_mdg is beyond the GUE track's range")
    hi = capacity_from_gain(mean_db + 6.0 * sigma_db, snr_linear)
    return bisect(stationarity, lo, hi)


def per_mode_stats(spec: ChannelSpec, method: str = METHOD_AUTO) -> PerModeStats:
    """Per-mode gain and capacity statistics for a link.

    ``auto`` dispatches to the GUE track for D <= 8 and to the semicircle
    track otherwise; both can be requested explicitly (GUE only up to D = 8).
    """
    if method not in (METHOD_AUTO, METHOD_GUE, METHOD_WIGNER):
        raise ValueError(f"unknown method {method!r}")
    D = spec.mode_count
    snr = spec.snr_linear

    if spec.sigma_mdg_db == 0:
        c0 = math.log2(1.0 + snr)
        resolved = method if method != METHOD_AUTO else (
            METHOD_GUE if D <= gue.SUPPORTED_MAX else METHOD_WIGNER)
        return PerModeStats(
            D=D, method=resolved, mu_lambda_db=0.0,
            gain_means=(0.0,) * D, gain_sigmas=(0.0,) * D,
            cap_means=(c0,) * D, cap_sigmas=(0.0,) * D,
        )

    if spec.sigma_mdg_db < SIGMA_MIN_DB:
        raise DegenerateDistributionError(
            f"sigma_mdg_db={spec.sigma_mdg_db} is below {SIGMA_MIN_DB} dB, where the "
            f"per-mode statistics are not resolvable; use 0 for a flat link")
    if method == METHOD_AUTO:
        method = METHOD_GUE if D <= gue.SUPPORTED_MAX else METHOD_WIGNER

    if method == METHOD_GUE:
        if D > gue.SUPPORTED_MAX:
            raise UnsupportedOrderError(
                f"GUE track supports D <= {gue.SUPPORTED_MAX}; got D={D}"
            )
        coeffs = gue.derive_coefficients(D)
        mu = gue.mean_log_gain(spec, coeffs)
        gain_means = gue.per_mode_means(spec, coeffs, mu)
        gain_sigmas = gue.per_mode_sigmas(spec, coeffs, mu, gain_means)
        cap_means = [per_mode_capacity_mean(m, s, snr) for m, s in zip(gain_means, gain_sigmas)]
        cap_sigmas = [matched_sigma(per_mode_capacity_pdf(c, m, s, snr))
                      for c, m, s in zip(cap_means, gain_means, gain_sigmas)]
        return PerModeStats(
            D=D, method=METHOD_GUE, mu_lambda_db=mu,
            gain_means=tuple(gain_means), gain_sigmas=tuple(gain_sigmas),
            cap_means=tuple(cap_means), cap_sigmas=tuple(cap_sigmas),
        )

    # semicircle track
    mu = wigner.mean_log_gain(spec)
    cap_means = wigner.per_mode_means_from_cdf(spec, mu)
    cap_sigmas = wigner.per_mode_sigmas_from_pdf(spec, mu, cap_means)
    gain_means = tuple(
        wigner.gain_db_from_capacity(c, snr) for c in cap_means
    )
    return PerModeStats(
        D=D, method=METHOD_WIGNER, mu_lambda_db=mu,
        gain_means=gain_means, gain_sigmas=(),
        cap_means=tuple(cap_means), cap_sigmas=tuple(cap_sigmas),
    )
