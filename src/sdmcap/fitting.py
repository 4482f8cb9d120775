"""Correlation-coefficient fitting.

Fits (gamma0, gamma1) of the inter-mode correlation model by matching the
analytic total-capacity variance to simulated variances over a sigma_mdg
grid.  The analytic variance is linear in the combined coefficient
g = gamma0 + gamma1 * sigma^2.75, var(sigma) = A(sigma) + B(sigma) * g with
B < 0 (``total.variance_terms``).  Phase one anchors gamma0 so the
variance at the smallest grid sigma is matched exactly; phase two searches
gamma1 by golden section, re-anchoring gamma0 for every candidate, and
finally nudges gamma0 downward if the fitted variance curve fails to be
monotonically increasing in sigma_mdg.
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
MAX_ITERATIONS = 10_000


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

    def golden_section(lo: float, hi: float, budget: int):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = objective(x1), objective(x2)
        used = 2
        while used < budget and (hi - lo) > 1e-16:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = objective(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = objective(x2)
            used += 1
        return (x1, f1, used) if f1 <= f2 else (x2, f2, used)

    # search the non-negative half-bracket first; fall back to negative
    # gamma1 only when it is strictly better (the semicircle track's
    # deviation bias grows with sigma_mdg at large D and can demand a
    # decreasing combined coefficient)
    g1_pos, f_pos, used_pos = golden_section(0.0, GAMMA1_MAGNITUDE,
                                             MAX_ITERATIONS // 2)
    g1_neg, f_neg, used_neg = golden_section(-GAMMA1_MAGNITUDE, 0.0,
                                             MAX_ITERATIONS // 2)
    iterations = used_pos + used_neg
    model = anchored(g1_pos if f_pos <= f_neg * (1.0 + 1e-9) + 1e-15 else g1_neg)

    def is_monotone(candidate):
        vars_ = model_vars(candidate, check_sigmas, check_terms)
        return all(v2 > v1 for v1, v2 in zip(vars_, vars_[1:]))

    def fitted(candidate) -> FittedModel:
        return FittedModel(**asdict(candidate), grid_variances=tuple(
            model_vars(candidate, sigma_grid, terms)))

    if not is_monotone(model):
        # small downward corrections to gamma0: B < 0 grows in magnitude
        # with sigma, so lowering gamma0 steepens the variance curve
        step = max(abs(model.gamma0), 1e-3) * 1e-3
        candidate = model
        for _ in range(MAX_ITERATIONS - iterations):
            candidate = replace(candidate, gamma0=candidate.gamma0 - step)
            if is_monotone(candidate):
                return fitted(candidate)
        raise FitError(
            "fitted variance curve is not monotonically increasing in "
            "sigma_mdg and gamma0 corrections did not restore it",
            best_candidate=model,
        )
    return fitted(model)
