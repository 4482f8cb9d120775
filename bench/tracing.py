"""In-memory span tracer that wraps sdmcap's layer boundaries from outside.

Each wrapped function is replaced under the name its caller looks it up by
(``sdmcap.gue.integrate`` is the quadrature the GUE track calls,
``sdmcap.total.integrate`` the one the total-capacity mean calls, and so on),
so nothing in ``src/`` changes.  A span is ``[name, start, end, parent]``;
spans stay in memory and are written out once, when the worker ends.
Callables handed to the numeric kernels are wrapped too, so integrand,
root-scan and bisection evaluations are counted where they happen.

A target that a later version of the package no longer has is skipped with
a warning on stderr; the metrics it fed then read 0.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, extra bookkeeping)
TARGETS = (
    ("sdmcap.cli", "main", "cli.main", None),
    ("sdmcap.cli", "per_mode_stats", "capacity.per_mode_stats", None),
    ("sdmcap.fitting", "per_mode_stats", "capacity.per_mode_stats", "provider"),
    ("sdmcap.capacity", "per_mode_capacity_mean", "capacity.cap_mean", None),
    ("sdmcap.capacity", "bisect", "numerics.bisect", "bisect"),
    ("sdmcap.wigner", "bisect", "numerics.bisect", "bisect"),
    ("sdmcap.wigner", "per_mode_means_from_cdf", "wigner.per_mode_means", None),
    ("sdmcap.wigner", "per_mode_sigmas_from_pdf", "wigner.per_mode_sigmas", None),
    ("sdmcap.gue", "integrate", "numerics.integrate", "integrate"),
    ("sdmcap.gue", "find_roots", "numerics.find_roots", "find_roots"),
    ("sdmcap.gue", "mean_log_gain", "gue.mean_log_gain", None),
    ("sdmcap.gue", "per_mode_means", "gue.per_mode_means", None),
    ("sdmcap.gue", "per_mode_sigmas", "gue.per_mode_sigmas", None),
    ("sdmcap.gue", "derive_coefficients", "gue.derive", None),
    ("sdmcap.cache", "derive_coefficients", "gue.derive", None),
    ("sdmcap.cache", "lookup_gamma", "cache.lookup_gamma", None),
    ("sdmcap.total", "integrate", "numerics.integrate", "integrate"),
    ("sdmcap.total", "exact_total_mean", "total.exact_total_mean", None),
    ("sdmcap.total", "total_stats", "total.total_stats", None),
    ("sdmcap.total", "outage_capacity", "total.outage", None),
    ("sdmcap.fitting", "fit", "fitting.fit", None),
    ("sdmcap.mc", "run_ensemble", "mc.run_ensemble", "ensemble"),
    ("sdmcap.cli", "run_ensemble", "mc.run_ensemble", "ensemble"),
    ("sdmcap.mc", "calibrate_section_gain", "mc.calibrate", None),
    ("sdmcap.mc", "measure_ensemble_std", "mc.measure_ensemble_std", None),
    ("sdmcap.mc", "_rng", "mc.sample", None),
    ("sdmcap.mc", "_draw_trial_blocks", "mc.sample", None),
    ("numpy.linalg", "qr", "mc.qr", "matrices"),
    ("numpy.linalg", "eigvalsh", "mc.eig", "matrices"),
    ("numpy.linalg", "svd", "mc.eig", "matrices"),
)

# bookkeeping kind -> counter fed by each evaluation of the wrapped callable
_EVAL_COUNTERS = {
    "integrate": "numerics.integrand_evals",
    "find_roots": "numerics.root_scan_evals",
    "bisect": "numerics.bisect_evals",
}


def _matrix_count(a) -> int:
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) >= 2 else 0


class Tracer:
    """Spans and counters for one traced phase of a workload."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.sigma_err_pct = []  # |achieved - target| / target per ensemble
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _counted(self, f, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return counted

    def _wrap(self, fn, name, kind):
        tracer = self
        counts = self.counts
        eval_key = _EVAL_COUNTERS.get(kind)

        def wrapper(*args, **kwargs):
            counts[name + "_calls"] += 1
            if eval_key is not None:
                args = (tracer._counted(args[0], eval_key),) + args[1:]
            elif kind == "matrices":
                counts[name + "_matrices"] += _matrix_count(args[0])
            elif kind == "provider":
                counts["fitting.provider_calls"] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if kind == "ensemble":
                tracer._record_ensemble(result)
            return result

        return wrapper

    def _record_ensemble(self, result) -> None:
        cfg = result.config
        self.counts["mc.requested_trials"] += cfg.trials * cfg.effective_freq_bins
        self.counts["mc.discarded_trials"] += result.discarded_trials
        target = cfg.spec.sigma_mdg_db
        if target > 0:
            self.sigma_err_pct.append(
                100.0 * abs(result.ensemble_gain_std_db - target) / target)

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                sys.stderr.write(f"trace: {module_name}.{attr} not found; "
                                 f"{name} reads 0\n")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def times(self):
        """(inclusive, self) seconds per span name.

        Inclusive time counts only the outermost span of a name, so a name
        nested in itself is not counted twice; self time is a span's duration
        minus the part its direct children cover."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for idx in range(len(spans)):
            name, start, end, parent = spans[idx]
            duration = end - start
            own[name] += duration - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += duration
        return inclusive, own

    def dump(self):
        """Spans with times relative to the first start, for writing at exit."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans]


def layer_metrics(tracer: Tracer, setup: Tracer, cpu_s: float, wall_s: float,
                  overhead_pct: float) -> dict:
    """Per-layer metric values of the traced measured phase.

    ``gue.derive_s`` adds the traced warm-up (``setup``), because
    coefficient derivation is set-up work."""
    inc, own = tracer.times()
    c = tracer.counts
    simulated = c["mc.eig_matrices"]
    return {
        "mc.calibrate_s": inc["mc.calibrate"],
        "mc.calibration_evals": c["mc.measure_ensemble_std_calls"],
        "mc.trials_simulated": simulated,
        "mc.useful_trial_ratio": c["mc.requested_trials"] / simulated if simulated else 0.0,
        "mc.qr_s": inc["mc.qr"],
        "mc.qr_matrices": c["mc.qr_matrices"],
        "mc.eig_s": inc["mc.eig"],
        "mc.eig_matrices": simulated,
        "mc.other_s": max(0.0, inc["mc.run_ensemble"] - inc["mc.qr"] - inc["mc.eig"]),
        "mc.sample_s": inc["mc.sample"],
        "proc.cpu_s": cpu_s,
        "proc.cpu_util": cpu_s / wall_s if wall_s > 0 else 0.0,
        "numerics.integrate_calls": c["numerics.integrate_calls"],
        "numerics.integrand_evals": c["numerics.integrand_evals"],
        "numerics.integrate_s": inc["numerics.integrate"],
        "gue.mean_log_gain_s": inc["gue.mean_log_gain"],
        "total.exact_total_mean_s": inc["total.exact_total_mean"],
        "numerics.find_roots_calls": c["numerics.find_roots_calls"],
        "numerics.root_scan_evals": c["numerics.root_scan_evals"],
        "numerics.find_roots_s": inc["numerics.find_roots"],
        "gue.per_mode_means_s": inc["gue.per_mode_means"],
        "gue.per_mode_sigmas_s": inc["gue.per_mode_sigmas"],
        "numerics.bisect_calls": c["numerics.bisect_calls"],
        "numerics.bisect_evals": c["numerics.bisect_evals"],
        "numerics.bisect_s": inc["numerics.bisect"],
        "capacity.cap_mean_s": inc["capacity.cap_mean"],
        "wigner.per_mode_means_s": inc["wigner.per_mode_means"],
        "wigner.per_mode_sigmas_s": inc["wigner.per_mode_sigmas"],
        "capacity.per_mode_stats_calls": c["capacity.per_mode_stats_calls"],
        "capacity.per_mode_stats_s": inc["capacity.per_mode_stats"],
        "total.total_stats_s": inc["total.total_stats"],
        "total.outage_s": inc["total.outage"],
        "cache.lookup_gamma_calls": c["cache.lookup_gamma_calls"],
        "cache.lookup_gamma_s": inc["cache.lookup_gamma"],
        "cli.self_s": own["cli.main"],
        "fitting.fit_s": inc["fitting.fit"],
        "fitting.provider_calls": c["fitting.provider_calls"],
        "gue.derive_s": setup.times()[0]["gue.derive"] + inc["gue.derive"],
        "mc.discarded_trials": c["mc.discarded_trials"],
        "mc.sigma_err_pct": (sum(tracer.sigma_err_pct) / len(tracer.sigma_err_pct)
                             if tracer.sigma_err_pct else 0.0),
        "trace.overhead_pct": overhead_pct,
    }
