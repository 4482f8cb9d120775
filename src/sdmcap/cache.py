"""On-disk table of fitted correlation coefficients.

The cache directory defaults to ``~/.cache/sdmcap`` and is overridden by
the ``SDMCAP_CACHE_DIR`` environment variable.  A default correlation
table with the D=6 / SNR=10 dB pair ships with the package; locally fitted
records are merged over it, with local records winning.

The table is rewritten whole: a writer takes an exclusive lock on a
sibling ``.lock`` file (where ``fcntl`` exists), reads the records, merges
its own and renames a uniquely named temporary file over the old one, so
concurrent writers neither lose records nor expose a half-written file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from .gue import GueCoefficients, derive_coefficients
from .total import CorrelationModel

try:
    import fcntl
except ImportError:  # no advisory file locks on this platform
    fcntl = None

CACHE_DIR_ENV = "SDMCAP_CACHE_DIR"
GAMMA_TABLE_FILE = "gamma_table.json"

_SNR_MATCH_TOL = 1e-9


def cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "sdmcap"


def _gamma_table_path() -> Path:
    return cache_dir() / GAMMA_TABLE_FILE


@contextmanager
def _locked(path: Path):
    """Hold an exclusive lock on ``path``'s sibling lock file, if the
    platform has ``fcntl``; released when the file closes."""
    if fcntl is None:
        yield
        return
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


def cached_coefficients(D: int) -> GueCoefficients:
    """Coefficients for D; the exact derivation takes milliseconds and is
    memoised in the process, so nothing is stored on disk."""
    return derive_coefficients(D)


@functools.cache  # the shipped table is read and parsed once per process
def _shipped_gamma_records() -> tuple:
    text = resources.files("sdmcap").joinpath("data", GAMMA_TABLE_FILE).read_text()
    return tuple(json.loads(text))


def _same_pair(record: dict, D: int, snr_db: float) -> bool:
    return record.get("D") == D and abs(record.get("snr_db", 0.0) - snr_db) <= _SNR_MATCH_TOL


def _local_records(path: Path) -> list:
    """The well-formed records of the local table at ``path``: dicts with an
    int D and finite numeric snr_db, gamma0 and gamma1.  Other records are
    dropped, and a missing or corrupt table has none."""
    try:
        records = json.loads(path.read_text())
    except (ValueError, OSError):
        return []
    if not isinstance(records, list):
        return []
    return [r for r in records
            if isinstance(r, dict) and type(r.get("D")) is int
            and all(isinstance(r.get(key), (int, float)) and math.isfinite(r[key])
                    for key in ("snr_db", "gamma0", "gamma1"))]


def load_gamma_table() -> list:
    """Shipped + locally fitted correlation records ({D, snr_db, gamma0,
    gamma1} dicts); a local record overrides any shipped one with the same
    D and an SNR within the match tolerance, and a malformed one is
    ignored."""
    records = [dict(r) for r in _shipped_gamma_records()]
    for r in _local_records(_gamma_table_path()):
        records = [s for s in records if not _same_pair(s, r["D"], r["snr_db"])] + [r]
    return sorted(records, key=lambda r: (r["D"], r["snr_db"]))


def store_gamma(model: CorrelationModel) -> Path:
    """Write (merge) one fitted record into the local correlation table,
    under its lock, replacing the file atomically; a missing or corrupt
    table starts empty, and its malformed records are dropped."""
    path = _gamma_table_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    with _locked(path):
        records = [r for r in _local_records(path)
                   if not _same_pair(r, model.D, model.snr_db)]
        records.append({"D": model.D, "snr_db": model.snr_db,
                        "gamma0": model.gamma0, "gamma1": model.gamma1})
        records.sort(key=lambda r: (r["D"], r["snr_db"]))
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(records, indent=2) + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return path


def lookup_gamma(D: int, snr_db: float) -> CorrelationModel | None:
    """Correlation model for (D, snr_db), or None if no record matches."""
    for r in load_gamma_table():
        if _same_pair(r, D, snr_db):
            return CorrelationModel(gamma0=r["gamma0"], gamma1=r["gamma1"],
                                    D=D, snr_db=snr_db)
    return None
