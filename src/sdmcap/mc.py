"""Monte-Carlo multisection channel oracle.

Channels are products of per-section blocks (Haar unitary x diagonal random
log-gain); per-section gain is calibrated empirically so the ensemble
log-gain deviation hits the target sigma_mdg.  Every trial draws its
randomness from a counter-based Philox stream keyed by (seed, stream kind,
trial index, bin index), so results are independent of execution order.

The trial kernel has two parts.  ``_haar_factors`` holds everything that
does not depend on the per-section gain: the Philox draws, the batched QR
with its R-diagonal phase fix, and the unit-variance log-gain draws.
``_section_gains`` scales and centres the gains, chains the sections and
takes the spectrum.  Calibration builds the gain-independent part of its
sample once and reuses it at every secant step; the memo holds at most one
chunk budget of complex entries, and chunks beyond it are rebuilt on each
step through the same function.  Trial runs call the same two parts.

Each chunk is cut into one contiguous trial range per CPU in the process's
affinity mask; the caller runs the first range and a thread pool the
others (numpy's draws, QR, matmul and eigen-solver release the interpreter
lock).  The pieces return in trial order and every trial keeps its own
stream, so results are bit-identical for any worker count; with one CPU,
or a one-trial chunk, the chunk runs inline and no thread is started.
BLAS thread settings are left as the user set them.

Two power-control conventions are supported.  ``trial`` renormalizes every
realization so the linear gains sum to exactly D; it keeps the per-trial
trace fixed but couples the sorted gains through the shared normalizer,
which inflates the inter-mode capacity correlations and hence the
total-capacity variance.  ``ensemble`` applies one deterministic gain to
the whole ensemble so the mean linear gain is 1 (the per-trial product of
gains is already pinned exactly, since each section's log gains are drawn
traceless); it leaves the covariance structure of the sorted gains intact
and is the convention under which the analytic model is accurate, so it is
the ensemble default.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSpec
from .errors import CalibrationError, EnsembleError, SdmCapError, TrialError

_STREAM_TRIAL = 0
_STREAM_CALIBRATION = 1

POWER_CONTROL_TRIAL = "trial"
POWER_CONTROL_ENSEMBLE = "ensemble"


@dataclass(frozen=True)
class McConfig:
    spec: ChannelSpec
    sections: int = 100  # metadata-only physical analogue: 100 x 50 km
    trials: int = 100
    seed: int = 0
    freq_bins: int | None = None  # None: take from spec
    calibration_tol: float = 0.01  # relative, on the ensemble gain std
    calibration_trials: int = 400
    power_control: str = POWER_CONTROL_ENSEMBLE

    def __post_init__(self):
        if self.sections < 1 or self.trials < 1 or self.calibration_trials < 1:
            raise ValueError("all counts must be positive")
        if not 0.0 < self.calibration_tol < 0.2:
            raise ValueError("calibration_tol must lie in (0, 0.2)")
        if self.freq_bins is not None and self.freq_bins < 1:
            raise ValueError("freq_bins must be >= 1")
        if self.power_control not in (POWER_CONTROL_TRIAL, POWER_CONTROL_ENSEMBLE):
            raise ValueError(
                f"power_control must be {POWER_CONTROL_TRIAL!r} or "
                f"{POWER_CONTROL_ENSEMBLE!r}"
            )

    @property
    def effective_freq_bins(self) -> int:
        return self.freq_bins if self.freq_bins is not None else self.spec.freq_bins


@dataclass
class McEnsembleResult:
    config: McConfig
    section_gain_db: float
    ensemble_shift_db: float  # deterministic gain applied in ensemble mode
    ensemble_gain_std_db: float
    per_mode_gain_mean_db: list
    per_mode_gain_std_db: list
    per_mode_cap_mean: list
    per_mode_cap_std: list
    cap_correlation: list  # D x D
    total_mean: float
    total_var: float
    total_samples: list
    gain_histogram: dict
    per_mode_cap_histograms: list
    total_histogram: dict
    discarded_trials: int = 0
    gain_samples: np.ndarray = field(default=None, repr=False)
    cap_samples: np.ndarray = field(default=None, repr=False)


def _rng(seed: int, stream: int, trial: int, bin_index: int = 0):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, trial, bin_index))
    return np.random.Generator(np.random.Philox(ss))


def _draw_trial_blocks(D: int, K: int, rng):
    """Raw draws of one (trial, bin) stream: a complex Ginibre stack and
    unit-variance per-section log gains, in that order."""
    z = rng.standard_normal((K, D, D)) + 1j * rng.standard_normal((K, D, D))
    return z, rng.standard_normal((K, D))


def _haar_factors(D: int, K: int, rngs):
    """The gain-independent part of a batch of streams.

    Returns the Haar unitaries (B, K, D, D), from the QR of each Ginibre
    block with the R-diagonal phase correction, and the unit log-gain draws
    (B, K, D).  Neither depends on the per-section gain, so calibration
    builds them once and reuses them at every secant step.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    z = np.empty((len(rngs), K, D, D), dtype=complex)
    unit = np.empty((len(rngs), K, D))
    for b, rng in enumerate(rngs):
        z[b], unit[b] = _draw_trial_blocks(D, K, rng)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q, unit


def _section_gains(factors, g_db: float, power_control=POWER_CONTROL_ENSEMBLE):
    """The gain-dependent part: sorted linear power gains of each channel.

    Scales the unit draws to ``g_db`` and centres each section's log gains
    so their trace is zero, keeping the accumulated channel determinant
    pinned at unit magnitude instead of letting the overall gain random-walk
    over the K sections.  Then chains the K sections and takes the spectrum.
    """
    q, unit = factors
    B, K, D, _ = q.shape
    gains_db = unit * g_db
    gains_db -= gains_db.mean(axis=-1, keepdims=True)
    amp = 10.0 ** (gains_db / 20.0)  # field amplitude for a power gain in dB
    h = np.broadcast_to(np.eye(D, dtype=complex), (B, D, D)).copy()
    for k in range(K):
        h = (q[:, k] * amp[:, k, None, :]) @ h
    return _gains_from_channels(h, D, power_control)


def _gains_from_channels(h, D, power_control=POWER_CONTROL_ENSEMBLE):
    """Sorted power gains (linear) per channel in the batch.

    ``trial`` pins the linear gain sum of every realization to exactly D;
    ``ensemble`` leaves the raw spectrum (the deterministic ensemble-level
    gain is applied later by the caller).
    """
    lam = np.linalg.eigvalsh(h @ np.conjugate(np.swapaxes(h, -2, -1)))
    if power_control == POWER_CONTROL_TRIAL:
        lam *= D / lam.sum(axis=-1, keepdims=True)
    return lam  # eigvalsh returns ascending order


def run_trial(spec: ChannelSpec, K: int, g_db: float, rng,
              power_control: str = POWER_CONTROL_TRIAL):
    """One multisection realization: sorted gains (dB), capacities, total.

    Defaults to per-trial power control (linear gains summing to exactly D)
    because a single realization has no ensemble to normalize against;
    ``ensemble`` returns the raw traceless-log spectrum instead.
    """
    try:
        lam = _batch_gains(spec, K, g_db, [rng], power_control)[0]
    except np.linalg.LinAlgError as exc:
        raise TrialError(f"eigendecomposition failed: {exc}") from exc
    gains = 10.0 * np.log10(lam)
    caps = np.log2(1.0 + spec.snr_linear * lam)
    return gains, caps, float(caps.sum())


def _batch_gains(spec: ChannelSpec, K: int, g_db: float, rngs,
                 power_control=POWER_CONTROL_ENSEMBLE):
    """Draw and evaluate many (trial, bin) streams batched."""
    return _section_gains(_haar_factors(spec.mode_count, K, rngs), g_db,
                          power_control)


def _chunked(n, size):
    for start in range(0, n, size):
        yield start, min(start + size, n)


_CHUNK_BUDGET = 4_000_000  # complex entries held at once


def _chunk_size(D: int, K: int, bins: int) -> int:
    return max(1, _CHUNK_BUDGET // max(1, K * D * D * bins))


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# The threads that run all pieces but the first, which the caller runs:
# (pid, executor), made on the first map with more than one piece and kept
# for the life of the process.  Threads made afresh for every map spread
# freed arrays over new malloc arenas (the peak RSS of ten D = 20 fits grew
# from 89 to 152 MiB), and every thread beyond the caller holds an arena of
# its own.  A child made by fork() inherits the executor without its
# threads, hence the pid.
_pool = None
_pool_lock = threading.Lock()


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(
                max_workers=max(1, _worker_count() - 1), thread_name_prefix="sdmcap-mc"))
        return _pool[1]


def _map_pieces(fn, lo: int, hi: int) -> list:
    """``fn(a, b)`` for each of the contiguous ranges, one per worker, that
    cut the trial range [lo, hi), returned in trial order.

    The caller runs the first piece and the pool the others; a single piece
    runs inline and starts no thread.  ``fn`` must not call back into this
    function."""
    n = min(_worker_count(), hi - lo)
    if n <= 1:
        return [fn(lo, hi)]
    from concurrent.futures import wait

    bounds = [lo + (hi - lo) * i // n for i in range(n + 1)]
    pool = _executor()
    others = [pool.submit(fn, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        first = fn(lo, bounds[1])
    finally:
        wait(others)  # no piece outlives the call
    return [first, *(f.result() for f in others)]


def measure_ensemble_std(spec: ChannelSpec, K: int, g_db: float, seed: int,
                         trials: int, stream: int = _STREAM_CALIBRATION,
                         power_control: str = POWER_CONTROL_ENSEMBLE,
                         memo: dict | None = None) -> float:
    """Std (dB) of the pooled lambda_dB ensemble over ``trials`` realizations
    drawn from fixed streams, so repeated calls with the same seed see the
    same underlying randomness.  The requested power control is applied
    before measuring (the deterministic ensemble-level gain has no effect
    on the std, so the ensemble mode measures the raw spectrum).  A
    non-positive eigenvalue makes the result NaN.

    ``memo`` is a dict the caller keeps across calls with the same spec, K,
    seed, trials and stream.  It keeps the gain-independent factors of the
    leading chunks, keyed by trial range, at most one chunk budget of
    complex entries in all; chunks beyond it are redrawn on every call."""
    if g_db == 0.0:
        return 0.0
    D = spec.mode_count
    held = 0 if memo is None else sum(q.size for q, _ in memo.values())

    def piece(lo, hi):
        factors = None if memo is None else memo.get((lo, hi))
        fresh = factors is None
        if fresh:
            factors = _haar_factors(D, K, [_rng(seed, stream, t) for t in range(lo, hi)])
        lam = _section_gains(factors, g_db, power_control)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (lo, hi), factors if fresh else None, 10.0 * np.log10(lam)

    all_gains = []
    for lo, hi in _chunked(trials, _chunk_size(D, K, 1)):
        # whether this chunk is held is settled here, before its pieces run
        size = (hi - lo) * K * D * D
        keep = memo is not None and held + size <= _CHUNK_BUDGET
        for key, fresh, gains_db in _map_pieces(piece, lo, hi):
            if keep and fresh is not None:
                memo[key] = fresh
                held += fresh[0].size
            all_gains.append(gains_db)
    pooled = np.concatenate(all_gains).ravel()
    return float(pooled.std(ddof=1))


def calibrate_section_gain(spec: ChannelSpec, K: int, trials_cal: int, seed: int,
                           tol: float = 0.01, max_iter: int = 50,
                           power_control: str = POWER_CONTROL_ENSEMBLE) -> float:
    """Per-section log-gain std (dB) hitting the target ensemble sigma_mdg.

    Secant iteration on the measured ensemble std with common random numbers
    across iterations, so the objective is a deterministic smooth function
    of the per-section gain.  The Haar factors and unit gain draws of the
    calibration sample are built once, within the chunk budget, and reused
    by every evaluation.

    A gain so large that the spectrum loses positivity measures NaN; such a
    step is halved back towards the last gain with a finite measurement
    (g = 0, which measures exactly 0, before the first), and the secant
    continues from there."""
    target = spec.sigma_mdg_db
    if target == 0.0:
        return 0.0

    memo = {}  # gain-independent factors, shared by every secant step
    evals = 0

    def objective(g, g_finite):
        nonlocal evals
        for _ in range(max_iter):
            evals += 1
            f = measure_ensemble_std(spec, K, g, seed, trials_cal,
                                     power_control=power_control, memo=memo) - target
            if math.isfinite(f):
                return g, f
            g = 0.5 * (g_finite + g)
        raise CalibrationError(
            f"per-section gain calibration found no finite ensemble std "
            f"above {g_finite} dB in {evals} evaluations")

    g0, f0 = objective(target / math.sqrt(K), 0.0)
    g1, f1 = objective(1.3 * g0, g0)
    if abs(f0) <= tol * target:
        return g0
    for _ in range(max_iter):
        if abs(f1) <= tol * target:
            return g1
        denom = f1 - f0
        if denom == 0.0:
            break
        g2 = max(1e-12, g1 - f1 * (g1 - g0) / denom)
        g0, f0 = g1, f1
        g1, f1 = objective(g2, g1)
    raise CalibrationError(
        f"per-section gain calibration did not reach {tol:.3%} of "
        f"{target} dB in {evals} evaluations"
    )


def empirical_correlation(cap_samples) -> np.ndarray:
    """Sample Pearson correlation of sorted per-mode capacities across trials."""
    caps = np.asarray(cap_samples, dtype=float)
    if caps.ndim != 2 or caps.shape[0] < 2:
        raise ValueError("need a (trials, D) array with at least 2 trials")
    if np.any(caps.std(axis=0) == 0.0):
        raise SdmCapError("zero variance in a mode; correlation undefined")
    corr = np.corrcoef(caps, rowvar=False)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def _histogram(values, bins):
    try:
        counts, edges = np.histogram(values, bins=bins)
    except ValueError:
        # the values span fewer floats than ``bins`` needs for distinct
        # edges (a tiny sigma_mdg): widen the range about its centre
        lo, hi = float(np.min(values)), float(np.max(values))
        half = max(0.5 * (hi - lo), bins * float(np.spacing(max(abs(lo), abs(hi)))))
        mid = 0.5 * (lo + hi)
        counts, edges = np.histogram(values, bins=bins, range=(mid - half, mid + half))
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def run_ensemble(config: McConfig) -> McEnsembleResult:
    """Full oracle run: calibrate, simulate all trials, aggregate.

    Per-trial randomness depends only on (seed, trial index, bin index), so
    the result is bit-identical regardless of chunking or scheduling.  When
    more than one frequency bin is requested, each trial averages the
    per-bin totals (and per-mode values) over independent channel draws.
    """
    spec = config.spec
    D = spec.mode_count
    K = config.sections
    N = config.effective_freq_bins
    snr = spec.snr_linear
    pc = config.power_control

    g_db = calibrate_section_gain(spec, K, config.calibration_trials,
                                  config.seed, config.calibration_tol,
                                  power_control=pc)

    lam_all = np.ones((config.trials, N, D))
    discarded = []

    def piece(lo, hi):
        """Gains of trials [lo, hi) and the trials to discard: a (trial, bin)
        whose eigendecomposition fails or whose spectrum is not positive and
        finite."""
        keys = [(t, b) for t in range(lo, hi) for b in range(N)]
        try:
            lam = _batch_gains(spec, K, g_db, [_rng(config.seed, _STREAM_TRIAL, t, b)
                                                for t, b in keys], pc)
        except np.linalg.LinAlgError:
            # isolate failing draws one by one, each from a fresh stream
            lam = np.full((len(keys), D), np.nan)
            for row, (t, b) in enumerate(keys):
                try:
                    lam[row] = _batch_gains(spec, K, g_db,
                                            [_rng(config.seed, _STREAM_TRIAL, t, b)], pc)[0]
                except np.linalg.LinAlgError:
                    pass
        bad = ~np.all((lam > 0.0) & (lam < np.inf), axis=-1)
        return lam, [keys[row][0] for row in np.flatnonzero(bad)]

    if g_db != 0.0:
        for lo, hi in _chunked(config.trials, _chunk_size(D, K, N)):
            results = _map_pieces(piece, lo, hi)
            lam_all[lo:hi] = np.concatenate([lam for lam, _ in results]).reshape(hi - lo, N, D)
            discarded.extend(t for _, bad in results for t in bad)

    if discarded:
        discarded = sorted(set(discarded))
        if len(discarded) > 0.01 * config.trials:
            raise EnsembleError(
                f"{len(discarded)} of {config.trials} trials discarded (> 1%)"
            )
        keep = np.ones(config.trials, dtype=bool)
        keep[discarded] = False
        lam_all = lam_all[keep]

    shift_db = 0.0
    if pc == POWER_CONTROL_ENSEMBLE and g_db != 0.0:
        # deterministic ensemble-level power control: unit mean linear gain
        mean_linear = float(lam_all.mean())
        lam_all /= mean_linear
        shift_db = -10.0 * math.log10(mean_linear)

    gains_bins = 10.0 * np.log10(lam_all)
    cap_bins = np.log2(1.0 + snr * lam_all)
    gains = gains_bins.mean(axis=1)
    caps = cap_bins.mean(axis=1)
    totals = cap_bins.sum(axis=2).mean(axis=1)

    total_mean = float(totals.mean())
    total_var = float(totals.var(ddof=1)) if len(totals) > 1 else 0.0
    if np.any(caps.std(axis=0) > 0.0):
        corr = empirical_correlation(caps)
    else:
        corr = np.eye(D)

    return McEnsembleResult(
        config=config,
        section_gain_db=g_db,
        ensemble_shift_db=shift_db,
        ensemble_gain_std_db=float(gains.ravel().std(ddof=1)),
        per_mode_gain_mean_db=gains.mean(axis=0).tolist(),
        per_mode_gain_std_db=gains.std(axis=0, ddof=1).tolist(),
        per_mode_cap_mean=caps.mean(axis=0).tolist(),
        per_mode_cap_std=caps.std(axis=0, ddof=1).tolist(),
        cap_correlation=corr.tolist(),
        total_mean=total_mean,
        total_var=total_var,
        total_samples=totals.tolist(),
        gain_histogram=_histogram(gains.ravel(), 80),
        per_mode_cap_histograms=[_histogram(caps[:, i], 60) for i in range(D)],
        total_histogram=_histogram(totals, 60),
        discarded_trials=len(discarded),
        gain_samples=gains,
        cap_samples=caps,
    )


def result_to_json(result: McEnsembleResult) -> str:
    """Deterministic JSON serialization of an ensemble result."""
    cfg = result.config
    payload = {
        "schema": 1,
        "config": {
            "mode_count": cfg.spec.mode_count,
            "snr_db": cfg.spec.snr_db,
            "sigma_mdg_db": cfg.spec.sigma_mdg_db,
            "freq_bins": cfg.effective_freq_bins,
            "sections": cfg.sections,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "calibration_tol": cfg.calibration_tol,
            "calibration_trials": cfg.calibration_trials,
            "power_control": cfg.power_control,
        },
        "section_gain_db": result.section_gain_db,
        "ensemble_shift_db": result.ensemble_shift_db,
        "ensemble_gain_std_db": result.ensemble_gain_std_db,
        "per_mode_gain_mean_db": result.per_mode_gain_mean_db,
        "per_mode_gain_std_db": result.per_mode_gain_std_db,
        "per_mode_cap_mean_bits_per_s_per_hz": result.per_mode_cap_mean,
        "per_mode_cap_std_bits_per_s_per_hz": result.per_mode_cap_std,
        "cap_correlation": result.cap_correlation,
        "total_mean_bits_per_s_per_hz": result.total_mean,
        "total_var": result.total_var,
        "discarded_trials": result.discarded_trials,
        "gain_histogram": result.gain_histogram,
        "per_mode_cap_histograms": result.per_mode_cap_histograms,
        "total_histogram": result.total_histogram,
        "total_samples": result.total_samples,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_to_csv_rows(result: McEnsembleResult):
    """Per-trial rows: trial index, D gains (dB), D capacities, total."""
    rows = []
    for t, (g, c, s) in enumerate(zip(result.gain_samples, result.cap_samples,
                                      result.total_samples)):
        rows.append([t, *map(float, g), *map(float, c), float(s)])
    return rows
