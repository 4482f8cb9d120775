"""Link parameter container shared by the analytic and Monte-Carlo paths."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def check_integers(obj, names) -> None:
    """Raise ``ValueError`` naming the first of ``obj``'s fields ``names``
    that is not an integer (Python or numpy); a ``bool`` is not a count."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class ChannelSpec:
    """Strongly-coupled SDM link parameters.

    mode_count     -- number of spatial/polarization modes D (>= 2)
    snr_db         -- total-signal to total-noise ratio, decibels (finite,
                      with 10^(snr_db / 10) finite and positive)
    sigma_mdg_db   -- std of the log-scale modal gains, decibels (finite, >= 0)
    freq_bins      -- independent narrowband frequency bins N (>= 1)
    """

    mode_count: int
    snr_db: float
    sigma_mdg_db: float
    freq_bins: int = 1

    def __post_init__(self):
        check_integers(self, ("mode_count", "freq_bins"))
        if self.mode_count < 2:
            raise ValueError("mode_count must be >= 2")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, not {self.snr_db}")
        try:
            linear = self.snr_linear
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ValueError(
                f"snr_db={self.snr_db} has no finite, positive linear value "
                f"in double precision")
        if not 0 <= self.sigma_mdg_db < math.inf:
            raise ValueError(
                f"sigma_mdg_db must be finite and >= 0, not {self.sigma_mdg_db}")
        if self.freq_bins < 1:
            raise ValueError("freq_bins must be >= 1")

    @property
    def snr_linear(self) -> float:
        """Linear-scale SNR; the single dB-to-linear conversion point."""
        return 10.0 ** (self.snr_db / 10.0)
