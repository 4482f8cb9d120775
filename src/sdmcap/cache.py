"""On-disk caches: derived density coefficients and the fitted-coefficient
table for the correlation model.

The cache directory defaults to ``~/.cache/sdmcap`` and is overridden by
the ``SDMCAP_CACHE_DIR`` environment variable.  A default correlation
table with the D=6 / SNR=10 dB pair ships with the package; locally fitted
records are merged over it, with local records winning.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .gue import GueCoefficients, derive_coefficients
from .total import CorrelationModel

CACHE_DIR_ENV = "SDMCAP_CACHE_DIR"
COEFFICIENTS_FILE = "coefficients.json"
GAMMA_TABLE_FILE = "gamma_table.json"

_SNR_MATCH_TOL = 1e-9


def cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "sdmcap"


def _coefficients_path() -> Path:
    return cache_dir() / COEFFICIENTS_FILE


def _gamma_table_path() -> Path:
    return cache_dir() / GAMMA_TABLE_FILE


def load_cached_coefficients() -> dict:
    """Cached coefficient records as {D: GueCoefficients}; empty if absent."""
    path = _coefficients_path()
    if not path.exists():
        return {}
    try:
        raw = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    out = {}
    for key, rec in raw.items():
        try:
            D = int(key)
            beta = tuple(Fraction(b) for b in rec["beta"])
            out[D] = GueCoefficients(D=D, alpha=float(rec["alpha"]), beta=beta)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            continue
    return out


def store_coefficients(coeffs: GueCoefficients) -> Path:
    """Write (merge) one coefficient record into the cache file."""
    path = _coefficients_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    records = {}
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            records = {}
    records[str(coeffs.D)] = {
        "alpha": repr(coeffs.alpha),
        "beta": [f"{b.numerator}/{b.denominator}" for b in coeffs.beta],
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)
    return path


def cached_coefficients(D: int) -> GueCoefficients:
    """Coefficients for D, derived at first use and persisted to the cache."""
    cached = load_cached_coefficients()
    if D in cached:
        return cached[D]
    coeffs = derive_coefficients(D)
    store_coefficients(coeffs)
    return coeffs


def _shipped_gamma_records() -> list:
    text = resources.files("sdmcap").joinpath("data", GAMMA_TABLE_FILE).read_text()
    return json.loads(text)


def _same_pair(record: dict, D: int, snr_db: float) -> bool:
    return record.get("D") == D and abs(record.get("snr_db", 0.0) - snr_db) <= _SNR_MATCH_TOL


def load_gamma_table() -> list:
    """Shipped + locally fitted correlation records ({D, snr_db, gamma0,
    gamma1} dicts); a local record overrides any shipped one with the same
    D and an SNR within the match tolerance."""
    records = _shipped_gamma_records()
    path = _gamma_table_path()
    if path.exists():
        try:
            for r in json.loads(path.read_text()):
                records = [s for s in records
                           if not _same_pair(s, r["D"], r["snr_db"])] + [r]
        except (json.JSONDecodeError, OSError, KeyError, TypeError):
            pass
    return sorted(records, key=lambda r: (r["D"], r["snr_db"]))


def store_gamma(model: CorrelationModel) -> Path:
    """Write (merge) one fitted record into the local correlation table."""
    path = _gamma_table_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            records = []
    records = [r for r in records if not _same_pair(r, model.D, model.snr_db)]
    records.append({"D": model.D, "snr_db": model.snr_db,
                    "gamma0": model.gamma0, "gamma1": model.gamma1})
    records.sort(key=lambda r: (r["D"], r["snr_db"]))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=2) + "\n")
    os.replace(tmp, path)
    return path


def lookup_gamma(D: int, snr_db: float) -> CorrelationModel | None:
    """Correlation model for (D, snr_db), or None if no record matches."""
    for r in load_gamma_table():
        if _same_pair(r, D, snr_db):
            return CorrelationModel(gamma0=r["gamma0"], gamma1=r["gamma1"],
                                    D=D, snr_db=snr_db)
    return None
