"""Monte-Carlo multisection channel oracle.

Channels are products of per-section blocks (Haar unitary x diagonal random
log-gain); per-section gain is calibrated empirically so the ensemble
log-gain deviation hits the target sigma_mdg.  Every trial draws its
randomness from a counter-based Philox stream keyed by (seed, trial index,
bin index), so results are independent of execution order.

The trial kernel has two parts.  ``_haar_factors`` holds everything that
does not depend on the per-section gain: the Philox draws, the batched QR
with its R-diagonal phase fix (of every section but the last, whose
unitary cannot move the spectrum), and the unit-variance log-gain draws.
``_section_gains`` scales and centres the gains, chains the sections and
takes the spectrum.  ``_spectra`` is the one pass over them, used by
calibration and the trial pass alike.  Its unit of work is the build block,
about 2^16 complex entries of draws (``_chunk_size``): it builds each
block's factors once, chains them at every gain asked for and keeps only
the spectra, so the pass holds about two blocks per worker plus the
calibration memo, whatever its trial count.  It isolates failures,
redoing a block whose build or chain raises row by row, each row from its
own stream; a row that still fails is NaN.  Calibration measures such
a gain as NaN, and a run discards the row's trial.

``run_ensembles`` is the one oracle path: it runs a grid of configs that
differ only in sigma_mdg and SNR (same D, sections, seed, trials, frequency
bins, power control and calibration settings) in one pass, and
``run_ensemble`` is its one-config case.  The factors do not depend on
sigma_mdg, so each block is built once for the whole grid (common random
numbers across parameter values).  Calibration measures on the leading
trials of the trial stream itself, with all their frequency bins, and runs
one iteration per sigma in lockstep: each round is one pass over that
sample that measures every pending gain, each over the leading trials its
own pilot asked for.  Each measurement estimates the pooled std with a
control variate drawn from the same random numbers: each row's squared
deviations of its unit log-gain draws from their section means, summed
over the sections, whose mean K (D - 1) is exact.  On links of few
sections it tracks the row's spread of the spectrum closely, so a small
sample meets the standard-error target.  Each iteration starts from the
gain that the accumulated-MDG relation gives, so a sigma whose seed
measures within tolerance takes one round; the others take a log-log
Newton step and then secant steps.  The memo is a list of whole blocks
0, 1, 2, ... of the trial stream, at most ``_CHUNK_BUDGET`` complex entries,
held from the first round to the end of the trial pass; blocks beyond it
are rebuilt once per round.  A sigma's last calibration measurement is
at its returned gain, over its n calibration trials, so the trial pass
takes trials [0, n) from it and chains only the trials beyond.  Each
result is bit-identical to a lone run of its config.

Each pass is cut at block boundaries into one contiguous trial range per
CPU in the process's affinity mask (fewer if it touches fewer blocks),
which walks its blocks in turn; the caller runs the first range and a
thread pool the others (numpy's draws, QR, matmul and eigen-solver release
the interpreter lock).  Every trial keeps its own stream and writes its
own rows, so results are bit-identical for any worker count and block
size; with one CPU, or a pass inside one block, it runs inline and no
thread is started.  BLAS thread settings are left as the user set them.

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

A result holds what the oracle determines; the per-mode statistics and the
capacity correlation of its report are reductions of its samples, made by
``result_to_json``, so a ``fit`` or ``sweep`` grid never builds them.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSpec, check_integers
from .errors import CalibrationError, DegenerateDistributionError, EnsembleError

_STREAM_TRIAL = 0  # the stream kind of every spawn key

POWER_CONTROL_TRIAL = "trial"
POWER_CONTROL_ENSEMBLE = "ensemble"


@dataclass(frozen=True)
class McConfig:
    spec: ChannelSpec
    sections: int = 100  # metadata-only physical analogue: 100 x 50 km
    trials: int = 100
    seed: int = 0
    calibration_tol: float = 0.01  # relative, on the ensemble gain std
    calibration_trials: int = 400
    power_control: str = POWER_CONTROL_ENSEMBLE

    def __post_init__(self):
        check_integers(self, ("sections", "trials", "calibration_trials"))
        if self.sections < 1 or self.calibration_trials < 1:
            raise ValueError("all counts must be positive")
        if self.trials < 2:
            raise ValueError("trials must be >= 2: the ensemble deviations "
                             "need two samples")
        if not 0.0 < self.calibration_tol < 0.2:
            raise ValueError("calibration_tol must lie in (0, 0.2)")
        if self.power_control not in (POWER_CONTROL_TRIAL, POWER_CONTROL_ENSEMBLE):
            raise ValueError(
                f"power_control must be {POWER_CONTROL_TRIAL!r} or "
                f"{POWER_CONTROL_ENSEMBLE!r}"
            )

    @property
    def effective_freq_bins(self) -> int:
        """Frequency bins per trial, as ``spec.freq_bins`` sets them."""
        return self.spec.freq_bins


@dataclass
class McEnsembleResult:
    config: McConfig
    section_gain_db: float
    ensemble_shift_db: float  # deterministic gain applied in ensemble mode
    ensemble_gain_std_db: float
    total_mean: float
    total_var: float
    total_samples: list
    discarded: tuple  # stream indices of the discarded trials, ascending
    calibration_trials_used: int  # trials of the calibration sample
    calibration_rel_se: float | None  # its pooled std's, as estimated
    gain_samples: np.ndarray = field(repr=False)
    cap_samples: np.ndarray = field(repr=False)

    @property
    def discarded_trials(self) -> int:
        return len(self.discarded)


def _rng(seed: int, trial: int, bin_index: int = 0):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAM_TRIAL, trial, bin_index))
    return np.random.Generator(np.random.Philox(ss))


def _draw_trial_blocks(D: int, K: int, rng):
    """Raw draws of one (trial, bin) stream: a complex Ginibre stack and
    unit-variance per-section log gains, in that order."""
    z = rng.standard_normal((K, D, D)) + 1j * rng.standard_normal((K, D, D))
    return z, rng.standard_normal((K, D))


def _haar_factors(D: int, K: int, rngs):
    """The gain-independent part of a batch of streams.

    Returns the Haar unitaries (B, K - 1, D, D) of sections 1 ... K - 1,
    from the QR of each Ginibre block with the R-diagonal phase correction,
    and the unit log-gain draws (B, K, D) of all K sections.  Neither
    depends on the per-section gain, so one build serves every secant step
    and every sigma of a grid.  The last section's block is drawn, so the
    stream order does not depend on K, but never factored: its unitary
    multiplies the channel on the left, which leaves ``eigvalsh(h h^H)``
    unchanged.  With one section no QR is made at all.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    z = np.empty((len(rngs), K, D, D), dtype=complex)
    unit = np.empty((len(rngs), K, D))
    for b, rng in enumerate(rngs):
        z[b], unit[b] = _draw_trial_blocks(D, K, rng)
    if K == 1:
        return np.empty((len(rngs), 0, D, D), dtype=complex), unit
    q, r = np.linalg.qr(z[:, :-1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q, unit


def _section_gains(factors, g_db: float, power_control=POWER_CONTROL_ENSEMBLE):
    """The gain-dependent part: sorted linear power gains of each channel.

    Scales the unit draws to ``g_db`` and centres each section's log gains
    so their trace is zero, keeping the accumulated channel determinant
    pinned at unit magnitude instead of letting the overall gain random-walk
    over the K sections.  Then chains the K sections and takes the spectrum;
    the last section contributes only its amplitudes, which scale the rows
    (its unitary would not move the spectrum, see ``_haar_factors``).
    """
    q, unit = factors
    K, D = unit.shape[1:3]
    gains_db = unit * g_db
    gains_db -= gains_db.mean(axis=-1, keepdims=True)
    amp = 10.0 ** (gains_db / 20.0)  # field amplitude for a power gain in dB
    if K == 1:
        h = amp[:, 0, :, None] * np.eye(D)
    else:
        scaled = q * amp[:, :-1, None, :]  # one product for all K - 1 sections
        h = scaled[:, 0]
        for k in range(1, K - 1):
            h = scaled[:, k] @ h
        h *= amp[:, K - 1, :, None]
    return _gains_from_channels(h, D, power_control)


def _control(unit):
    """Each row's control variate: the squared deviations of its unit
    log-gain draws (B, K, D) from their section means, summed over all K
    sections.  Each section's sum is chi^2 with D - 1 degrees of freedom, so
    the control's mean is exactly K (D - 1), and it does not depend on the
    per-section gain."""
    dev = unit - unit.mean(axis=-1, keepdims=True)
    return (dev * dev).sum(axis=-1).sum(axis=-1)


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


_CHUNK_BUDGET = 4_000_000  # complex entries the calibration memo may hold
_BLOCK_BUDGET = 1 << 16  # complex entries of draws one build block aims at
_BLOCK_FLOOR = 8  # trials: the K-section chain stays batched


def _chunk_size(D: int, K: int, bins: int) -> int:
    """Trials per build block: about ``_BLOCK_BUDGET`` complex entries of
    Ginibre draws, at least ``_BLOCK_FLOOR`` trials, and never more than
    ``_CHUNK_BUDGET`` entries (nor fewer than one trial)."""
    per_trial = K * D * D * bins
    return max(1, min(_CHUNK_BUDGET // per_trial, max(_BLOCK_FLOOR, _BLOCK_BUDGET // per_trial)))


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


def _map_pieces(fn, lo: int, hi: int, size: int) -> list:
    """``fn(a, b)`` for each of the contiguous ranges, one per worker but no
    more than the blocks of ``size`` trials it touches, that cut the trial
    range [lo, hi) at multiples of ``size``, returned in trial order.

    The caller runs the first piece and the pool the others; a single piece
    runs inline and starts no thread.  ``fn`` must not call back into this
    function."""
    k0 = lo // size
    blocks = -(-hi // size) - k0
    n = min(_worker_count(), blocks)
    if n <= 1:
        return [fn(lo, hi)]
    from concurrent.futures import wait

    bounds = [lo, *((k0 + blocks * i // n) * size for i in range(1, n)), hi]
    pool = _executor()
    others = [pool.submit(fn, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        first = fn(lo, bounds[1])
    finally:
        wait(others)  # no piece outlives the call
    return [first, *(f.result() for f in others)]


def _spectra(D: int, K: int, bins: int, seed: int, gains_db, starts, counts,
             power_control: str, memo: list | None = None, grow: bool = True) -> list:
    """Sorted linear gains of trials [starts[i], counts[i]) at each
    per-section gain ``gains_db[i]``, and each row's control (``_control``):
    a list of one ((counts[i] - starts[i]) * bins, D) array per gain and a
    list of one matching array of controls, ``bins`` rows per trial in
    (trial, bin) order.

    One map over trials [min(starts), max(counts)), cut at the multiples of
    ``_chunk_size``: each worker's contiguous range walks its build blocks.
    A block takes its gain-independent factors from the memo or builds them,
    takes their controls once, chains them at every gain whose range covers
    it and keeps only the spectra and controls, so a worker holds the
    factors of its current block and of the last one.  A block whose chain
    raises ``LinAlgError`` is chained row by row from its factors, and one
    whose build raises is rebuilt row by row, each row from its own stream,
    which also gives its control; a row that still fails is NaN.  Overflow
    in the chain is not reported: its rows come out non-finite or
    non-positive, and the caller handles them.

    ``memo`` is a list the caller keeps across calls with the same D, K,
    bins and seed: entry k holds the factors of the whole build block k.
    Blocks from 0 that fit in ``_CHUNK_BUDGET`` complex entries are built
    whole, even where the pass needs only their leading trials, and the memo
    takes them in order up to the first whose build failed; other blocks
    are built over the trials the pass needs, on every call.  With ``grow``
    false the call reads the memo but adds no block to it."""
    size = _chunk_size(D, K, bins)
    held = [] if memo is None else memo
    if memo is None or not grow:
        limit = 0
    elif K == 1:  # no unitaries to hold
        limit = math.inf
    else:
        limit = _CHUNK_BUDGET // (size * bins * (K - 1) * D * D)
    spectra = [np.empty(((n - s) * bins, D)) for s, n in zip(starts, counts)]
    controls = [np.empty((n - s) * bins) for s, n in zip(starts, counts)]

    def chain(factors, control, g_db, lo, hi):
        # the spectra and controls of trials [lo, hi) from their factors and
        # controls, or rebuilt row by row when ``factors`` is None (their
        # build failed)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if factors is not None:
                try:
                    return _section_gains(factors, g_db, power_control), control
                except np.linalg.LinAlgError:
                    pass
            else:
                control = np.full((hi - lo) * bins, np.nan)
            lam = np.full(((hi - lo) * bins, D), np.nan)
            for row in range(len(lam)):
                try:
                    if factors is None:
                        one = _haar_factors(D, K, [_rng(seed, lo + row // bins, row % bins)])
                        control[row] = _control(one[1])[0]
                    else:
                        one = tuple(f[row:row + 1] for f in factors)
                    lam[row] = _section_gains(one, g_db, power_control)[0]
                except np.linalg.LinAlgError:
                    pass
            return lam, control

    def piece(lo, hi):
        # (block, factors) of each block this piece built for the memo,
        # factors None where the build failed
        kept = []
        for k in range(lo // size, -(-hi // size)):
            a, b = max(lo, k * size), min(hi, (k + 1) * size)
            if k < len(held):
                p, factors = k * size, held[k]
            else:
                p, q = (k * size, (k + 1) * size) if k < limit else (a, b)
                # the last block's factors are freed only once these are
                # built, so malloc reuses their memory: freed first, it went
                # back to the OS and every block faulted it in afresh (4.7
                # times the page faults at D = 6, K = 100)
                try:
                    factors = _haar_factors(D, K, [_rng(seed, t, j)
                                                   for t in range(p, q) for j in range(bins)])
                except np.linalg.LinAlgError:
                    factors = None
                if k < limit:
                    kept.append((k, factors))
            control = None if factors is None else _control(factors[1])  # once for every gain
            for i, (g, s, n) in enumerate(zip(gains_db, starts, counts)):
                t0, t1 = max(a, s), min(b, n)
                if t0 < t1:
                    cut = slice((t0 - p) * bins, (t1 - p) * bins)
                    rows = None if factors is None else tuple(f[cut] for f in factors)
                    out = slice((t0 - s) * bins, (t1 - s) * bins)
                    spectra[i][out], controls[i][out] = chain(
                        rows, None if control is None else control[cut], g, t0, t1)
        return kept

    lo, hi = min(starts, default=0), max(counts, default=0)
    pieces = _map_pieces(piece, lo, hi, size) if lo < hi else []  # an empty pass builds nothing
    for k, factors in (entry for kept in pieces for entry in kept):
        if factors is None or k != len(held):
            break
        held.append(factors)
    return spectra, controls


def measure_ensemble_std(D: int, K: int, gains_db, seed: int, trials,
                         power_control: str = POWER_CONTROL_ENSEMBLE, bins: int = 1,
                         memo: list | None = None) -> list:
    """One (std, rel_se, spectra) per per-section gain in ``gains_db``: the
    std (dB) of the pooled lambda_dB ensemble of gain i over trials [0,
    trials[i]) of the trial stream, each with its ``bins`` frequency bins,
    so repeated calls with the same seed see the same underlying randomness;
    the relative standard error of that std; and the (trials[i] * bins, D)
    spectra it was measured on.

    The spectra and their rows' controls come from one ``_spectra`` pass,
    whose ``memo`` (a list of build blocks) this passes on, and each std is
    estimated with the control (``_pooled_std``).  The requested power
    control is applied before measuring (the deterministic ensemble-level
    gain has no effect on the std, so the ensemble mode measures the raw
    spectrum).  A gain of 0 measures (0.0, None, None); a non-positive,
    non-finite or failed spectrum makes the std NaN and its rel_se None."""
    live = [i for i, g in enumerate(gains_db) if g != 0.0]
    lams, controls = _spectra(D, K, bins, seed, [gains_db[i] for i in live], [0] * len(live),
                              [trials[i] for i in live], power_control, memo)
    records = [(0.0, None, None)] * len(gains_db)
    # a zero eigenvalue's -inf dB is caught as non-finite, not warned about
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, lam, control in zip(live, lams, controls):
            records[i] = (*_pooled_std(10.0 * np.log10(lam), control, K * (D - 1)), lam)
    return records


_PILOT_TRIALS = 64  # leading trials that size each sigma's calibration sample
_MAX_ITER = 50  # halvings of one step, and secant steps, of one calibration


def _pooled_std(pooled, control, control_mean: float) -> tuple:
    """The std of the pooled values ``pooled`` (rows, D) and its relative
    standard error, estimated with a control variate (Lavenberg & Welch,
    Manage. Sci. 27(3), 1981): ``control`` holds one value per row, drawn
    from the same random numbers, whose mean is ``control_mean`` exactly.

    The row is the independent unit: the D values of one row repel, and
    each (trial, bin) row has its own stream.  With q each row's mean
    squared deviation from the pooled mean and X its control, the variance
    is mean(q) - beta (mean(X) - control_mean), beta = cov(q, X) / var(X),
    and the relative standard error of its root, the std, is
    sd(q - beta X) / sqrt(rows) / (2 variance).  With fewer than 3 rows, a
    constant control or a variance that comes out non-positive it is the
    plain sample std, whose standard error is the delta method over each
    row's mean and mean square.

    Returns (NaN, None) if a value is not finite; the standard error is
    None for one row and 0 when every value is equal."""
    if not np.all(np.isfinite(pooled)):
        return math.nan, None
    plain = float(pooled.ravel().std(ddof=1))
    rows = len(pooled)
    if rows < 2:
        return plain, None
    x = pooled - pooled.mean()
    scale = x.std()
    if not scale > 0.0:
        return plain, 0.0
    x /= scale  # the ratio does not depend on the scale, which may underflow
    q = np.mean(x * x, axis=1)
    if rows >= 3:
        dev = control - control.mean()
        var_control = np.mean(dev * dev)
        if var_control > 0.0:
            beta = np.mean((q - q.mean()) * dev) / var_control
            var = q.mean() - beta * (control.mean() - control_mean)
            if var > 0.0:
                se = (q - beta * control).std(ddof=1) / math.sqrt(rows) / (2.0 * var)
                return float(scale * math.sqrt(var)), float(se)
    m = x.mean(axis=1)
    m_bar = m.mean()
    influence = q - 2.0 * m_bar * m  # of the variance mean(q) - mean(m)^2
    var = q.mean() - m_bar * m_bar
    return plain, float(influence.std(ddof=1) / math.sqrt(rows) / (2.0 * var))


def _seed(target: float, D: int, K: int) -> tuple:
    """Model seed for one target ensemble std: the per-section gain g0 and
    the model's elasticity d ln(sigma) / d ln(g) there.

    The accumulated-MDG relation sigma = xi * sqrt(1 + c xi^2), with
    c = (ln 10 / 10)^2 (1 - 1/D^2) / 12 dB^-2 (Ho & Kahn, Opt. Express
    19(17), 2011), is inverted in a form that neither cancels nor
    underflows for tiny sigma, and xi is split over K traceless sections,
    each of per-mode variance g^2 (1 - 1/D)."""
    c = (math.log(10.0) / 10.0) ** 2 * (1.0 - 1.0 / D**2) / 12.0
    try:
        root = math.sqrt(1.0 + 4.0 * c * target**2)
    except OverflowError:  # target above about 1.3e154 dB: a seed of 0
        root = math.inf
    xi = target * math.sqrt(2.0 / (1.0 + root))
    cx2 = c * xi**2
    return xi / math.sqrt(K * (1.0 - 1.0 / D)), 1.0 + cx2 / (1.0 + cx2)


def _secant(target: float, D: int, K: int, tol: float, max_iter: int):
    """Calibration towards one target ensemble std, as a generator: it
    yields each per-section gain to measure, is sent the measured std and
    returns the calibrated gain.

    The first gain is the model seed (``_seed``); if it measures within
    ``tol`` of the target it is returned after that one evaluation.  The
    second is a log-log Newton step from it with the model's elasticity,
    and a secant continues from the two.  A gain so large that the
    spectrum loses positivity measures NaN; such a step is halved back
    towards the last gain with a finite measurement (g = 0, which measures
    exactly 0, before the first), and the iteration continues from there.
    When that finite gain measured below the target and the NaN one lies
    above it, within ``tol`` times the finite gain, the target lies at or
    beyond the oracle's positivity limit and the iteration ends in
    ``CalibrationError``, as does a seed that measures exactly 0 (a gain
    lost to underflow).  A NaN on the other side (the std is not monotone
    in the gain where positivity is lost) is only halved back."""
    if target == 0.0:
        return 0.0
    evals = 0

    def objective(g, g_finite, f_finite):
        nonlocal evals
        for _ in range(max_iter):
            evals += 1
            f = (yield g) - target
            if math.isfinite(f):
                return g, f
            if f_finite < 0.0 and 0.0 < g - g_finite < tol * g_finite:
                raise CalibrationError(
                    f"per-section gain calibration reached the oracle's positivity "
                    f"limit short of {target} dB: the ensemble std is finite at "
                    f"{g_finite} dB and NaN at {g} dB, after {evals} evaluations")
            g = 0.5 * (g_finite + g)
        raise CalibrationError(
            f"per-section gain calibration found no finite ensemble std "
            f"above {g_finite} dB in {evals} evaluations")

    seed, elasticity = _seed(target, D, K)
    g0, f0 = yield from objective(seed, 0.0, -target)
    if abs(f0) <= tol * target:
        return g0
    std0 = target + f0
    if std0 > 0.0:
        g1, f1 = yield from objective(g0 * (target / std0) ** (1.0 / elasticity),
                                        g0, f0)
        for _ in range(max_iter):
            if abs(f1) <= tol * target:
                return g1
            denom = f1 - f0
            if denom == 0.0:
                break
            g2 = max(1e-12, g1 - f1 * (g1 - g0) / denom)
            g0, f0 = g1, f1
            g1, f1 = yield from objective(g2, g1, f1)
    raise CalibrationError(
        f"per-section gain calibration did not reach {tol:.3%} of "
        f"{target} dB in {evals} evaluations"
    )


def calibrate_section_gain(D: int, K: int, targets, trials_cal: int, seed: int,
                           tol: float = 0.01, power_control: str = POWER_CONTROL_ENSEMBLE,
                           bins: int = 1, memo: list | None = None) -> list:
    """One (gain, n, rel_se, spectra) per target ensemble sigma_mdg in
    ``targets``: the per-section log-gain std (dB) that hits it, the trials
    of its sample, the relative standard error of its pooled std at n
    trials, as the pilot estimates it, and the (n * bins, D) spectra of its
    last measurement, which was made at that gain.

    Each target runs its own iteration (``_secant``, at most ``_MAX_ITER``
    steps in each loop) on the measured ensemble std: the model seed for D
    and K, returned if it measures within ``tol``, else a log-log Newton
    step and secant steps.  Common random numbers across iterations make the
    objective a deterministic smooth function of the per-section gain.

    The sample is the leading trials of the trial stream, each with its
    ``bins`` frequency bins.  Each target's sample is as large as its own
    standard error needs, and never larger than ``trials_cal``.  Its
    measurements run on a pilot, the first n_pilot = min(_PILOT_TRIALS,
    trials_cal) trials, until one comes out finite.  That one fixes the
    target's sample at

        n = clamp(ceil(n_pilot (se / (tol / 2))^2), n_pilot, trials_cal)

    trials, where se is the relative standard error of the pilot's pooled
    std, as ``measure_ensemble_std`` estimates it with its control.  If
    n > n_pilot the gain stays pending and is measured again over the n
    trials in the next round; every later measurement is made over trials
    [0, n).  So n depends only on the target's own pilot, and rel_se is at
    most tol / 2 whenever n < ``trials_cal``.

    The iterations run in lockstep: a round measures every pending gain in
    one pass over the shared sample.  Its Haar factors and unit gain draws
    are built once per call, in whole build blocks, within ``_CHUNK_BUDGET``
    and once per round beyond it; ``memo``, if given, is the list of held
    blocks, kept for the caller (see ``_spectra``).  Each record is the one
    a lone call for its target would return.  A target of 0 measures
    nothing, (0.0, 0, None, None); rel_se is None too when the pilot has
    one row."""
    secants = [_secant(t, D, K, tol, _MAX_ITER) for t in targets]
    # n = 0 until the pilot measures finite
    records = [(0.0, 0, None, None)] * len(secants)
    pending = {}  # secant index -> gain it waits to have measured

    def advance(i, std):
        try:
            pending[i] = secants[i].send(std)
        except StopIteration as done:
            pending.pop(i, None)
            records[i] = (done.value, *records[i][1:])

    for i in range(len(secants)):
        advance(i, None)
    n_pilot = min(_PILOT_TRIALS, trials_cal)
    memo = [] if memo is None else memo  # gain-independent factors, shared by every round
    while pending:
        order = list(pending)
        gains_db = [pending[i] for i in order]
        measured = measure_ensemble_std(D, K, gains_db, seed,
                                        [records[i][1] or n_pilot for i in order],
                                        power_control=power_control, bins=bins, memo=memo)
        for i, g_db, (std, se, lam) in zip(order, gains_db, measured):
            n, n_se = records[i][1:3]
            sized = n == 0 and g_db != 0.0 and math.isfinite(std)
            if sized:
                need = math.inf if se is None else n_pilot * (se / (0.5 * tol)) ** 2
                n = trials_cal if need >= trials_cal else max(n_pilot, math.ceil(need))
                n_se = None if se is None else se * math.sqrt(n_pilot / n)
            records[i] = (g_db, n, n_se, lam)
            if sized and n > n_pilot:
                continue  # remade over the n trials in the next round
            advance(i, std)
    return records


def empirical_correlation(cap_samples) -> np.ndarray:
    """Sample Pearson correlation of sorted per-mode capacities across trials."""
    caps = np.asarray(cap_samples, dtype=float)
    if caps.ndim != 2 or caps.shape[0] < 2:
        raise ValueError("need a (trials, D) array with at least 2 trials")
    if np.any(caps.std(axis=0) == 0.0):
        raise DegenerateDistributionError("zero variance in a mode; correlation undefined")
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


def _shared_settings(config: McConfig):
    """What every config of one oracle pass must have in common."""
    return (config.spec.mode_count, config.sections, config.seed, config.trials,
            config.spec.freq_bins, config.power_control, config.calibration_trials,
            config.calibration_tol)


def run_ensembles(configs) -> list:
    """Full oracle runs of a grid of configs: calibrate, simulate all trials,
    aggregate; one ``McEnsembleResult`` per config, in order.

    The configs may differ in sigma_mdg and SNR only; they must share D,
    sections, seed, trials, frequency bins, power control and calibration
    settings, else ``ValueError``.  The calibrations run in lockstep on the
    leading trials of the trial stream (``calibrate_section_gain``), whose
    memo lives through the trial pass.  Each config's trials [0, n) are the
    spectra its calibration last measured at its gain, over its n
    calibration trials; the trial pass chains the rest, trials [n, trials),
    building each block's gain-independent factors once (unless the memo
    holds them) for every config's calibrated gain.  So each result is
    bit-identical to a lone ``run_ensemble`` of its config.

    Per-trial randomness depends only on (seed, trial index, bin index), so
    the results are bit-identical regardless of block size or scheduling.
    When more than one frequency bin is requested, each trial averages the
    per-bin totals (and per-mode values) over independent channel draws.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_ensembles needs at least one config")
    first = configs[0]
    if any(_shared_settings(c) != _shared_settings(first) for c in configs[1:]):
        raise ValueError(
            "configs of one oracle pass must share D, sections, seed, trials, "
            "frequency bins, power control and calibration settings")
    D = first.spec.mode_count
    K = first.sections
    N = first.spec.freq_bins
    pc = first.power_control

    T = first.trials
    memo = []  # calibration's held blocks, for the trial pass
    records = calibrate_section_gain(D, K, [c.spec.sigma_mdg_db for c in configs],
                                     first.calibration_trials, first.seed,
                                     first.calibration_tol, power_control=pc, bins=N,
                                     memo=memo)
    live = [i for i, (g, *_) in enumerate(records) if g != 0.0]  # g = 0 skips the chain
    reused = [min(records[i][1], T) for i in live]
    # the trial pass reads no held block below the first trial it chains
    k = min(reused, default=T) // _chunk_size(D, K, N)
    memo = [None] * k + memo[k:]
    lam_all = [np.ones((T, N, D)) for _ in configs]
    spectra, _ = _spectra(D, K, N, first.seed, [records[i][0] for i in live], reused,
                          [T] * len(live), pc, memo, grow=False)
    for i, m, rest in zip(live, reused, spectra):
        lam_all[i] = np.concatenate([records[i][3][:m * N], rest]).reshape(T, N, D)
    return [_aggregate(*args) for args in zip(configs, records, lam_all)]


def run_ensemble(config: McConfig) -> McEnsembleResult:
    """Full oracle run of one config: ``run_ensembles([config])[0]``."""
    return run_ensembles([config])[0]


def _aggregate(config: McConfig, calibration: tuple, lam_all) -> McEnsembleResult:
    """The result of one config from its calibration record (gain, n,
    rel_se, spectra) and its simulated gains (trials, bins, D).  A trial
    with a bin whose spectrum failed or is not positive and finite is
    discarded, up to 1 % of them.  Of the reductions it makes only the
    pooled gain std and the total's mean and variance; the per-mode ones are
    ``result_to_json``'s."""
    g_db, n, rel_se, _ = calibration
    bad = ~np.all((lam_all > 0.0) & (lam_all < np.inf), axis=(1, 2))
    discarded = np.flatnonzero(bad).tolist()
    if len(discarded) > 0.01 * config.trials:
        raise EnsembleError(f"{len(discarded)} of {config.trials} trials discarded (> 1%)")
    lam_all = lam_all[~bad]

    shift_db = 0.0
    spec = config.spec
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if config.power_control == POWER_CONTROL_ENSEMBLE and g_db != 0.0:
            # deterministic ensemble-level power control: unit mean linear gain
            mean_linear = float(lam_all.mean())
            lam_all /= mean_linear
            shift_db = -10.0 * math.log10(mean_linear)
        gains_bins = 10.0 * np.log10(lam_all)
        cap_bins = np.log2(1.0 + spec.snr_linear * lam_all)
    if not (np.isfinite(gains_bins).all() and np.isfinite(cap_bins).all()):
        raise DegenerateDistributionError(
            f"the simulated gains at sigma_mdg_db={spec.sigma_mdg_db} and "
            f"snr_db={spec.snr_db} have log gains or capacities beyond double precision")
    gains = gains_bins.mean(axis=1)
    caps = cap_bins.mean(axis=1)
    totals = cap_bins.sum(axis=2).mean(axis=1)

    return McEnsembleResult(
        config=config,
        section_gain_db=g_db,
        ensemble_shift_db=shift_db,
        ensemble_gain_std_db=float(gains.ravel().std(ddof=1)),
        total_mean=float(totals.mean()),
        total_var=float(totals.var(ddof=1)),
        total_samples=totals.tolist(),
        discarded=tuple(discarded),
        calibration_trials_used=n,
        calibration_rel_se=rel_se,
        gain_samples=gains,
        cap_samples=caps,
    )


def result_to_json(result: McEnsembleResult) -> str:
    """Deterministic JSON serialization of an ensemble result, with the
    per-mode means and stds of its gains and capacities, the capacities'
    correlation matrix (the identity when no mode's capacity varies) and
    the histograms of its pooled gains, per-mode capacities and totals, all
    reduced from its samples."""
    cfg = result.config
    gains, caps = result.gain_samples, result.cap_samples
    if np.any(caps.std(axis=0) > 0.0):
        corr = empirical_correlation(caps)
    else:
        corr = np.eye(cfg.spec.mode_count)
    payload = {
        "schema": 1,
        "config": {
            "mode_count": cfg.spec.mode_count,
            "snr_db": cfg.spec.snr_db,
            "sigma_mdg_db": cfg.spec.sigma_mdg_db,
            "freq_bins": cfg.spec.freq_bins,
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
        "per_mode_gain_mean_db": gains.mean(axis=0).tolist(),
        "per_mode_gain_std_db": gains.std(axis=0, ddof=1).tolist(),
        "per_mode_cap_mean_bits_per_s_per_hz": caps.mean(axis=0).tolist(),
        "per_mode_cap_std_bits_per_s_per_hz": caps.std(axis=0, ddof=1).tolist(),
        "cap_correlation": corr.tolist(),
        "total_mean_bits_per_s_per_hz": result.total_mean,
        "total_var": result.total_var,
        "discarded_trials": result.discarded_trials,
        "calibration_trials_used": result.calibration_trials_used,
        "calibration_rel_se": result.calibration_rel_se,
        "gain_histogram": _histogram(gains.ravel(), 80),
        "per_mode_cap_histograms": [_histogram(c, 60) for c in caps.T],
        "total_histogram": _histogram(result.total_samples, 60),
        "total_samples": result.total_samples,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_to_csv_rows(result: McEnsembleResult):
    """Per-trial rows: the trial's stream index, D gains (dB), D capacities,
    total; a discarded trial has no row."""
    kept = sorted(set(range(result.config.trials)) - set(result.discarded))
    return [[t, *map(float, g), *map(float, c), float(s)] for t, g, c, s in
            zip(kept, result.gain_samples, result.cap_samples, result.total_samples)]
