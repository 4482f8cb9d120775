"""Correlation-coefficient fitting.

Fits (gamma0, gamma1) of the inter-mode correlation model by matching the
analytic total-capacity variance to simulated variances over a sigma_mdg
grid.  The analytic variance is linear in the combined coefficient
g = gamma0 + gamma1 * sigma^2.75, var(sigma) = A(sigma) + B(sigma) * g with
B < 0 (``total.variance_terms``).  Phase one anchors gamma0 so the
variance at the smallest grid sigma is matched exactly; phase two searches
gamma1 by golden section, re-anchoring gamma0 for every candidate.  If
the fitted variance curve is not increasing in sigma_mdg, gamma0 is lowered
to the largest value at which it is: each rise between neighbouring check
points is linear in gamma0, so the smallest correction is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .capacity import per_mode_stats
from .channel import ChannelSpec
from .errors import FitError
from .total import CORRELATION_EXPONENT, CorrelationModel, variance_terms

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

GAMMA1_MAGNITUDE = 1e-2


@dataclass(frozen=True)
class FittedModel(CorrelationModel):
    """A ``CorrelationModel`` from ``fit``, with its analytic total-capacity
    variance at each grid sigma, as the fit evaluated them."""

    grid_variances: tuple = ()


def msle(analytic_vars, oracle_vars) -> float:
    """Mean squared logarithmic error between two variance sequences."""
    if len(analytic_vars) != len(oracle_vars):
        raise ValueError("sequences must have equal length")
    if not analytic_vars:
        raise ValueError("sequences must be non-empty")
    acc = 0.0
    for a, o in zip(analytic_vars, oracle_vars):
        if a <= 0 or o <= 0:
            raise ValueError("variances must be positive")
        acc += (math.log(a) - math.log(o)) ** 2
    return acc / len(analytic_vars)


def fit(D: int, snr_db: float, sigma_grid, oracle_vars) -> FittedModel:
    """Fit (gamma0, gamma1) to simulated total-capacity variances.

    ``sigma_grid`` must be ascending with at least three points; its
    smallest value anchors gamma0 (the gamma1 term is assumed negligible
    there only in the sense that the anchor equation is re-solved for each
    gamma1 candidate, so the smallest-sigma variance is always matched
    exactly).  Returns a ``FittedModel``.  Raises FitError carrying the
    best candidate if no monotonically increasing fit exists.
    """
    sigma_grid = [float(s) for s in sigma_grid]
    oracle_vars = [float(v) for v in oracle_vars]
    if len(sigma_grid) < 3:
        raise ValueError("need at least 3 sigma_mdg grid points")
    if sorted(sigma_grid) != sigma_grid or len(set(sigma_grid)) != len(sigma_grid):
        raise ValueError("sigma_grid must be strictly ascending")
    if len(oracle_vars) != len(sigma_grid):
        raise ValueError("oracle_vars must match sigma_grid in length")
    if any(v <= 0 for v in oracle_vars):
        raise ValueError("oracle variances must be positive")

    # the grid interleaved with its midpoints: grid points at even indices
    check_sigmas = sorted(
        sigma_grid
        + [0.5 * (lo + hi) for lo, hi in zip(sigma_grid, sigma_grid[1:])]
    )
    check_terms = [variance_terms(per_mode_stats(ChannelSpec(D, snr_db, s)).cap_sigmas)
                   for s in check_sigmas]
    terms = check_terms[0::2]

    a0, b0 = terms[0]
    if b0 == 0.0:  # no deviation at the smallest sigma, or none left after underflow
        raise FitError(
            f"the analytic variance at the smallest grid sigma_mdg, {sigma_grid[0]} dB, "
            f"does not depend on the correlation model, so it cannot anchor gamma0")
    s0_pow = sigma_grid[0] ** CORRELATION_EXPONENT

    def anchored(gamma1: float) -> CorrelationModel:
        # exact phase-one anchor: variance at the smallest sigma is matched
        return CorrelationModel(gamma0=(oracle_vars[0] - a0) / b0 - gamma1 * s0_pow,
                                gamma1=gamma1, D=D, snr_db=snr_db)

    def model_vars(model, sigmas, sigma_terms):
        return [a + b * model.combined_coefficient(s)
                for s, (a, b) in zip(sigmas, sigma_terms)]

    def objective(gamma1: float) -> float:
        vars_ = model_vars(anchored(gamma1), sigma_grid, terms)
        if any(v <= 0 for v in vars_):
            return math.inf
        return msle(vars_, oracle_vars)

    def golden_section(lo: float, hi: float):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = objective(x1), objective(x2)
        while (hi - lo) > 1e-16:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = objective(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = objective(x2)
        return (x1, f1) if f1 <= f2 else (x2, f2)

    # search the non-negative half-bracket first; fall back to negative
    # gamma1 only when it is strictly better (the semicircle track's
    # deviation bias grows with sigma_mdg at large D and can demand a
    # decreasing combined coefficient)
    g1_pos, f_pos = golden_section(0.0, GAMMA1_MAGNITUDE)
    g1_neg, f_neg = golden_section(-GAMMA1_MAGNITUDE, 0.0)
    model = anchored(g1_pos if f_pos <= f_neg * (1.0 + 1e-9) + 1e-15 else g1_neg)

    def rises(gamma0):
        vars_ = model_vars(replace(model, gamma0=gamma0), check_sigmas, check_terms)
        return all(v2 > v1 for v1, v2 in zip(vars_, vars_[1:]))

    def fitted(gamma0) -> FittedModel:
        candidate = replace(model, gamma0=gamma0)
        return FittedModel(**asdict(candidate), grid_variances=tuple(
            model_vars(candidate, sigma_grid, terms)))

    if rises(model.gamma0):
        return fitted(model.gamma0)
    # with g_k = gamma0 + gamma1 sigma_k^2.75, the rise from check point k
    # to k + 1 is (A + B (g - gamma0))_(k+1) - (...)_k + (B_(k+1) - B_k) gamma0:
    # positive below -rise / slope where B falls (slope < 0), above it where
    # B rises, and gamma0-free where B is level
    upper, lower = model.gamma0, -math.inf
    points = [(a + b * model.gamma1 * s**CORRELATION_EXPONENT, b)
              for s, (a, b) in zip(check_sigmas, check_terms)]
    for (o1, b1), (o2, b2) in zip(points, points[1:]):
        rise, slope = o2 - o1, b2 - b1
        if slope < 0:
            upper = min(upper, -rise / slope)
        elif slope > 0:
            lower = max(lower, -rise / slope)
        elif rise <= 0:
            lower = math.inf
    # the curve as evaluated rises up to a threshold that the rounding of
    # the sums puts near the bound: a few ulps off on a well-spaced grid,
    # far more where check points nearly coincide.  Widen [lo, hi] from the
    # bound in doubling steps until the curve rises at lo and not at hi,
    # then halve it down to adjacent floats.
    lo = hi = upper
    step = math.ulp(upper)
    while hi < model.gamma0 and rises(hi):
        lo, hi, step = hi, min(model.gamma0, hi + step), 2.0 * step
    step = math.ulp(upper)
    while not rises(lo):
        if lo <= lower:
            raise FitError(
                "no gamma0 at or below the fitted one makes the variance "
                "curve increase monotonically in sigma_mdg",
                best_candidate=model,
            )
        lo, hi, step = max(lower, lo - step), lo, 2.0 * step
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + 0.5 * (hi - lo)
        lo, hi = (mid, hi) if rises(mid) else (lo, mid)
    return fitted(lo)
