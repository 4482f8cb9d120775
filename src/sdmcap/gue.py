"""Fixed-trace GUE spectral distribution of the log-scale modal gains.

Provides the exact-rational derivation of the density coefficients, the
ensemble density itself, the closed-form mean that enforces unit
linear-scale gain, a Gauss-Hermite rule for expectations under the density,
and the per-mode Gaussian approximations obtained from the density's local
maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelSpec
from .errors import DegenerateDistributionError, RootLocalizationError, UnsupportedOrderError
from .numerics import hermite, matched_sigma

SUPPORTED_MIN = 2
SUPPORTED_MAX = 8

_LN10 = math.log(10.0)


def _gauss_hermite(n: int):
    """n-node Gauss-Hermite rule on exp(-t^2): the eigenvalues of the Jacobi
    matrix, weighted by the Christoffel numbers 1 / sum_k p_k(t)^2 of the
    orthonormal Hermite polynomials, accurate also for the tiny outer weights."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros(n), np.full(n, math.pi ** -0.25)
    total = p * p
    for k in range(1, n):
        p_prev, p = p, (math.sqrt(2.0) * nodes * p - math.sqrt(k - 1) * p_prev) / math.sqrt(k)
        total += p * p
    return nodes, 1.0 / total


# built at import, so no report runs the eigensolver
_HERMITE_NODES, _HERMITE_WEIGHTS = _gauss_hermite(80)


@dataclass(frozen=True, eq=False)
class GueCoefficients:
    """Normalization alpha and even-power polynomial coefficients beta of the
    ensemble log-gain density for mode count D; compared and hashed by
    identity, so a cache keyed on it hashes no ``Fraction``."""

    D: int
    alpha: float
    beta: tuple  # D exact Fractions, coefficient of ((x - mu)/sigma)^(2k)

    @cached_property
    def beta_float(self) -> tuple:
        return tuple(float(b) for b in self.beta)


def _even_moment(j: int, D: int) -> Fraction:
    """Exact Gaussian moment int exp(-(D+1) x^2 / 2) x^(2j) dx in units of
    sqrt(2 pi / (D+1)): (2j - 1)!! / (D+1)^j, with (-1)!! = 1."""
    return Fraction(math.factorial(2 * j) // (2**j * math.factorial(j)), (D + 1) ** j)


@lru_cache(maxsize=None)
def derive_coefficients(D: int) -> GueCoefficients:
    """Exact-rational coefficients of the fixed-trace GUE log-gain density.

    The unit-variance density is assembled from the squared-Hermite sum of
    the 1-point spectral function: each H_k^2(t / (2 sqrt(D-1))) is expanded
    in even powers of the auxiliary variable t, and t^(2m) is replaced by
    H_2m(x sqrt(D (D+1) / 2)).  Only even powers survive at both steps, so
    every square root cancels and the result is a rational polynomial in
    x^2 against the Gaussian weight exp(-(D+1) x^2 / 2).  The polynomial is
    then scaled so that the density integrates to exactly 1 with
    alpha = sqrt(2 (D+1) / pi).
    """
    if not SUPPORTED_MIN <= D <= SUPPORTED_MAX:
        raise UnsupportedOrderError(
            f"coefficients are derived for {SUPPORTED_MIN} <= D <= {SUPPORTED_MAX}; "
            f"got D={D} (use the semicircle method for higher mode counts)"
        )
    s2 = Fraction(D * (D + 1), 2)  # square of the x scaling inside H_2m
    c = [Fraction(0)] * D  # coefficient of x^(2j)
    for k in range(D):
        hk = hermite(k)
        hk2 = [sum(hk[i] * hk[p - i] for i in range(max(0, p - k), min(p, k) + 1))
               for p in range(2 * k + 1)]  # H_k^2: an even polynomial in u
        weight = Fraction(1, 2**k * math.factorial(k))
        for power, coeff in enumerate(hk2):
            if coeff == 0:
                continue
            m = power // 2  # hk2 has even powers only
            t_coeff = weight * coeff / Fraction(4 * (D - 1)) ** m if m else weight * coeff
            for xpow, hcoeff in enumerate(hermite(2 * m)):
                if hcoeff == 0:
                    continue
                j = xpow // 2
                c[j] += t_coeff * hcoeff * s2**j

    area_sum = sum(cj * _even_moment(j, D) for j, cj in enumerate(c))
    beta = tuple(cj / (2 * area_sum) for cj in c)
    alpha = math.sqrt(2.0 * (D + 1) / math.pi)
    return GueCoefficients(D=D, alpha=alpha, beta=beta)


def unit_area_check(coeffs: GueCoefficients) -> Fraction:
    """Exact area of the normalized density (should be 1)."""
    return 2 * sum(bj * _even_moment(j, coeffs.D) for j, bj in enumerate(coeffs.beta))


def unit_variance_check(coeffs: GueCoefficients) -> Fraction:
    """Exact second moment of the normalized zero-mean density (should be 1)."""
    return 2 * sum(bj * _even_moment(j + 1, coeffs.D) for j, bj in enumerate(coeffs.beta))


def ensemble_pdf(x: float, spec: ChannelSpec, coeffs: GueCoefficients,
                 mu_lambda_db: float) -> float:
    """Ensemble log-gain density at ``x`` dB with mean ``mu_lambda_db``."""
    sigma = spec.sigma_mdg_db
    if sigma == 0:
        raise DegenerateDistributionError(
            "sigma_mdg_db = 0 yields a point mass; callers must special-case it"
        )
    u = (x - mu_lambda_db) / sigma
    u2 = u * u
    poly = 0.0
    for b in reversed(coeffs.beta_float):
        poly = poly * u2 + b
    return coeffs.alpha / sigma * math.exp(-0.5 * (coeffs.D + 1) * u2) * poly


def mean_log_gain(spec: ChannelSpec, coeffs: GueCoefficients) -> float:
    """Mean of the log-gain ensemble such that the linear-scale gain mean is 1.

    Completing the square with a = sigma ln(10) / 10 gives E[10^(sigma u / 10)]
    = alpha sqrt(2 pi / (D+1)) e^(a^2 / (2 (D+1))) sum_j beta_j E[Y^(2j)] for
    Y ~ N(m, s^2), m = a / (D+1), s^2 = 1 / (D+1), whose moments follow
    M_n = m M_(n-1) + (n-1) s^2 M_(n-2).  Where the sum overflows (inf - inf
    at very large sigma) the mean has no finite value, which raises
    DegenerateDistributionError.
    """
    sigma = spec.sigma_mdg_db
    if sigma == 0:
        return 0.0
    d1 = coeffs.D + 1
    a = sigma * _LN10 / 10.0
    moments = [1.0, a / d1]
    for n in range(2, 2 * coeffs.D - 1):
        moments.append((a * moments[-1] + (n - 1) * moments[-2]) / d1)
    poly = sum(b * moments[2 * j] for j, b in enumerate(coeffs.beta_float))
    log_mean = (math.log(coeffs.alpha * math.sqrt(2.0 * math.pi / d1) * poly) + 0.5 * a * a / d1
                if poly > 0.0 else math.nan)
    mu = -10.0 / _LN10 * log_mean
    if not math.isfinite(mu):
        raise DegenerateDistributionError(
            f"the linear-scale gain mean at sigma_mdg_db={sigma} has no finite, "
            f"positive value in double precision, so the mean log-gain has none")
    return mu


@lru_cache(maxsize=None)
def gauss_rule(coeffs: GueCoefficients):
    """(nodes, weights) integrating g(u) against the unit-variance density:
    the Gauss-Hermite rule on exp(-(D+1) u^2 / 2), with alpha and the beta
    polynomial folded into the weights."""
    scale = math.sqrt(2.0 / (coeffs.D + 1))
    nodes = _HERMITE_NODES * scale
    poly = np.zeros_like(nodes)
    for b in reversed(coeffs.beta_float):
        poly = poly * nodes * nodes + b
    weights = coeffs.alpha * scale * _HERMITE_WEIGHTS * poly
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


@lru_cache(maxsize=None)
def _maxima(coeffs: GueCoefficients) -> tuple:
    """Local maxima of the unit-variance density, ascending.

    The density's derivative is proportional to u Q(u^2), with
    Q = 2 P' - (D+1) P of degree D - 1 for P the beta polynomial, so the
    2D - 1 stationary points are 0 and +-sqrt(w) over the roots w of Q:
    companion-matrix roots, polished by one Newton step on u Q(u^2).
    Every other point, from the outermost, is a maximum.
    """
    D = coeffs.D
    beta = coeffs.beta + (0,)
    q = np.array([float(2 * (j + 1) * beta[j + 1] - (D + 1) * beta[j]) for j in range(D)])
    w = np.roots(q[::-1])
    if np.iscomplexobj(w) or np.any(w <= 0.0):
        raise RootLocalizationError(f"stationary points of D={D} are not all real")
    u = np.sort(np.sqrt(w))
    powers = (u * u)[:, None] ** np.arange(D)
    u -= u * (powers @ q) / (powers @ ((2 * np.arange(D) + 1) * q))
    points = [-x for x in reversed(u.tolist())] + [0.0] + u.tolist()
    if len(points) != 2 * D - 1 or not all(a < b for a, b in zip(points, points[1:])):
        raise RootLocalizationError(f"expected {2 * D - 1} distinct stationary points for D={D}")
    return tuple(points[0::2])


def per_mode_means(spec: ChannelSpec, coeffs: GueCoefficients,
                   mu_lambda_db: float):
    """Ordered per-mode log-gain means: the local maxima of the ensemble density."""
    return [mu_lambda_db + spec.sigma_mdg_db * u for u in _maxima(coeffs)]


def per_mode_sigmas(spec: ChannelSpec, coeffs: GueCoefficients,
                    mu_lambda_db: float, per_mode_means_db):
    """Per-mode log-gain deviations from the ensemble density at each mean."""
    return [matched_sigma(ensemble_pdf(mu_i, spec, coeffs, mu_lambda_db), coeffs.D)
            for mu_i in per_mode_means_db]
