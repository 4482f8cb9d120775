"""Exception hierarchy shared by all sdmcap modules."""


class SdmCapError(Exception):
    """Base class for all sdmcap errors."""


class UnsupportedOrderError(SdmCapError):
    """Mode count outside the range handled by the requested method."""


class RootLocalizationError(SdmCapError):
    """The density's stationary points are not the 2D - 1 distinct real ones required."""


class DegenerateDistributionError(SdmCapError):
    """A density was requested for a point-mass (zero-spread) distribution,
    or a density vanishes where a Gaussian match needs its curvature."""


class CalibrationError(SdmCapError):
    """Per-section gain calibration did not converge."""


class EnsembleError(SdmCapError):
    """Too many Monte-Carlo trials were discarded."""


class CorrelationRangeError(SdmCapError):
    """The empirical correlation model produced a non-positive variance."""


class FitError(SdmCapError):
    """Coefficient fitting failed; carries the best candidate found."""

    def __init__(self, message, best_candidate=None):
        super().__init__(message)
        self.best_candidate = best_candidate
