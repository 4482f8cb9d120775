"""Numeric kernels: Hermite polynomials with exact coefficients, the
inverse error function and the Gaussian match of a density.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateDistributionError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def hermite(n: int) -> tuple:
    """Physicist's Hermite polynomial H_n as its n + 1 exact integer
    coefficients (``Fraction``s), index = power.

    Uses the explicit sum H_n(x) = n! sum_k (-1)^k (2x)^(n-2k) / (k! (n-2k)!).
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        power = n - 2 * k
        coeffs[power] = Fraction(
            (-1) ** k * math.factorial(n) * 2**power,
            math.factorial(k) * math.factorial(power),
        )
    return tuple(coeffs)


def matched_sigma(density: float, modes: int = 1) -> float:
    """Deviation of the Gaussian that, weighted 1 / ``modes``, peaks at
    ``density``: 1 / (modes sqrt(2 pi) density).  A mode's share of an
    ensemble density with ``modes`` modes, or with 1 its own density.  A
    density that is not positive, or whose deviation rounds to 0 or to
    infinity, raises DegenerateDistributionError."""
    sigma = 1.0 / (modes * _SQRT_2PI * density) if density > 0 else 0.0
    if not 0.0 < sigma < math.inf:
        raise DegenerateDistributionError(
            f"density {density} at a per-mode mean has no Gaussian match of "
            f"finite, positive deviation")
    return sigma


def inverse_erf(p: float) -> float:
    """Inverse error function on (-1, 1).

    Polynomial initial approximation (Giles-style, valid to single
    precision) followed by Newton steps on erf, giving <= 1e-12 relative
    error across the open interval.
    """
    if not -1.0 < p < 1.0:
        raise ValueError("inverse_erf argument must lie in (-1, 1)")
    if p == 0.0:
        return 0.0
    w = -math.log((1.0 - p) * (1.0 + p))
    if w < 5.0:
        w -= 2.5
        y = 2.81022636e-08
        for c in (3.43273939e-07, -3.5233877e-06, -4.39150654e-06,
                  0.00021858087, -0.00125372503, -0.00417768164,
                  0.246640727, 1.50140941):
            y = c + y * w
    else:
        w = math.sqrt(w) - 3.0
        y = -0.000200214257
        for c in (0.000100950558, 0.00134934322, -0.00367342844,
                  0.00573950773, -0.0076224613, 0.00943887047,
                  1.00167406, 2.83297682):
            y = c + y * w
    y *= p
    # Newton polish: y <- y - (erf(y) - p) / erf'(y)
    half_sqrt_pi = 0.5 * math.sqrt(math.pi)
    for _ in range(3):
        err = math.erf(y) - p
        y -= err * half_sqrt_pi * math.exp(y * y)
    return y
