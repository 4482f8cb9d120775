"""Numeric kernels: Hermite polynomials with exact coefficients and the
Gaussian match of a density.
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
