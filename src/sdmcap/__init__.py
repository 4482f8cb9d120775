"""Analytic capacity-distribution models for strongly coupled SDM links
with mode-dependent gain, plus a Monte-Carlo multisection oracle and the
correlation-coefficient fitting that ties the two together."""

from .capacity import (
    METHOD_AUTO,
    METHOD_GUE,
    METHOD_WIGNER,
    PerModeStats,
    capacity_from_gain,
    per_mode_stats,
)
from .channel import ChannelSpec
from .errors import (
    CalibrationError,
    CorrelationRangeError,
    DegenerateDistributionError,
    EnsembleError,
    FitError,
    RootLocalizationError,
    SdmCapError,
    UnsupportedOrderError,
)
from .fitting import fit, msle
from .gue import GueCoefficients, derive_coefficients
from .mc import (
    McConfig,
    McEnsembleResult,
    POWER_CONTROL_ENSEMBLE,
    POWER_CONTROL_TRIAL,
    run_ensemble,
    run_ensembles,
)
from .total import (
    CorrelationModel,
    TotalCapacityStats,
    apply_frequency_diversity,
    correlation,
    correlation_matrix,
    exact_total_mean,
    outage_capacity,
    total_stats,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ChannelSpec",
    "CorrelationModel",
    "CorrelationRangeError",
    "DegenerateDistributionError",
    "EnsembleError",
    "FitError",
    "GueCoefficients",
    "METHOD_AUTO",
    "METHOD_GUE",
    "METHOD_WIGNER",
    "McConfig",
    "McEnsembleResult",
    "POWER_CONTROL_ENSEMBLE",
    "POWER_CONTROL_TRIAL",
    "PerModeStats",
    "RootLocalizationError",
    "SdmCapError",
    "TotalCapacityStats",
    "UnsupportedOrderError",
    "apply_frequency_diversity",
    "capacity_from_gain",
    "correlation",
    "correlation_matrix",
    "derive_coefficients",
    "exact_total_mean",
    "fit",
    "msle",
    "outage_capacity",
    "per_mode_stats",
    "run_ensemble",
    "run_ensembles",
    "total_stats",
    "__version__",
]
