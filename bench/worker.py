"""Run one sdmcap benchmark workload in this (fresh) interpreter.

Started by ``run.py``, which pins the BLAS threads, points
``SDMCAP_CACHE_DIR`` at a throwaway directory and puts the checkout's
``src`` on ``PYTHONPATH`` before this process imports numpy.  All calls are
closed-loop from this one process, one operation at a time.

With ``--setup-only`` the worker imports sdmcap, runs the workload's
warm-up and exits; ``run.py`` times that from outside as ``setup_s``.
Otherwise it prints one JSON record as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import sdmcap
from sdmcap import cache, cli, mc
from sdmcap.channel import ChannelSpec

from tracing import Tracer, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"

# |ln analytic var - ln oracle var| allowed by acceptance criterion 08
VAR_LOG_BOUND = 0.3


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _all_finite(payload) -> bool:
    return all(math.isfinite(v) for v in _numbers(payload))


def _cli(argv):
    """One in-process ``sdmcap`` command with stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def _oracle_seeds(seed: int):
    """Batches of one oracle seed each, drawn from the run's seed."""
    rng = random.Random(seed)
    while True:
        yield [rng.randrange(2**32)]


def _ascending(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


class Checks:
    """Named output checks; every name a workload declares must run."""

    def __init__(self, names):
        self.table = {name: [0, 0] for name in names}  # name -> [ran, failed]

    def __call__(self, name: str, ok: bool) -> bool:
        entry = self.table[name]
        entry[0] += 1
        entry[1] += 0 if ok else 1
        if not ok:
            sys.stderr.write(f"check failed: {name}\n")
        return ok


class AnalyticGrid:
    """``sdmcap analytic`` reports over the GUE and semicircle tracks."""

    name = "analytic_grid"
    CHECKS = ("exit_zero", "finite", "ascending_means", "positive_sigmas",
              "outage_below_mean", "case_study_frozen", "trace_matches")
    REPEAT_FIRST = False
    MODES = (2, 3, 4, 5, 6, 7, 8, 12, 20, 40, 100)
    SIGMAS = (1.0, 2.5, 5.0, 7.5, 10.0)
    SNRS = (5.0, 10.0, 20.0)
    # the only shipped correlation pair; every other point passes --gamma 0,0
    SHIPPED_GAMMA = (6, 10.0)
    CASE = (6, 10.0, 5.0)
    # acceptance criteria 03 and 05 (frozen values, same tolerances)
    CASE_CAP_MEANS = (1.022, 1.653, 2.330, 3.067, 3.887, 4.865)
    CASE_CAP_SIGMAS = (0.192, 0.202, 0.217, 0.238, 0.276, 0.362)
    MIN_BATCHES = 2  # two grid passes: >= 330 reports, ten beyond p95
    PROBE = (120, 10, 12, 20_000)  # small matrices, interpreter-bound

    def __init__(self, smoke: bool):
        if smoke:
            self.MODES, self.SIGMAS, self.SNRS = (2, 6, 12), (2.5, 5.0), (10.0,)
            self.MIN_BATCHES = 1

    def warm_up(self):
        for D in range(2, 9):
            cache.cached_coefficients(D)

    def _grid(self):
        return [(D, snr, sigma) for D in self.MODES for snr in self.SNRS
                for sigma in self.SIGMAS]

    def batches(self, seed: int):
        """Grid passes in seeded order; passes after the first jitter sigma by
        up to 0.1 dB so no two reports of a run share their inputs."""
        rng = random.Random(seed)
        first = self._grid()
        rng.shuffle(first)
        yield first
        while True:
            grid = [(D, snr, sigma + rng.uniform(-0.1, 0.1))
                    for D, snr, sigma in self._grid()]
            rng.shuffle(grid)
            yield grid

    def fixed_ops(self, seed: int):
        return next(self.batches(seed))

    def work(self, op) -> int:
        return 1

    def call(self, op):
        D, snr, sigma = op
        argv = ["analytic", "--modes", str(D), "--snr-db", repr(snr),
                "--sigma-mdg-db", repr(sigma), "--bins", "2", "--pout", "0.01"]
        if (D, snr) != self.SHIPPED_GAMMA:
            argv += ["--gamma", "0,0"]
        return _cli(argv)

    def digest(self, output) -> str:
        return _cli_digest(output)

    def check(self, op, output, check) -> bool:
        code, text = output
        if not check("exit_zero", code == 0):
            return False
        r = json.loads(text)
        ok = check("finite", _all_finite(r))
        ok &= check("ascending_means", _ascending(r["per_mode_cap_mean_bits_per_s_per_hz"])
                    and _ascending(r["per_mode_gain_mean_db"]))
        ok &= check("positive_sigmas", all(
            s > 0 for s in r["per_mode_cap_std_bits_per_s_per_hz"]
            + r["per_mode_gain_std_db"] + [r["total_std_bits_per_s_per_hz"]]))
        ok &= check("outage_below_mean", r["outage_capacity_bits_per_s_per_hz"]
                    < r["total_mean_bits_per_s_per_hz"])
        if op == self.CASE:
            ok &= check("case_study_frozen", all(
                abs(got - want) <= 0.002 for got, want in zip(
                    r["per_mode_cap_mean_bits_per_s_per_hz"] + r["per_mode_cap_std_bits_per_s_per_hz"],
                    self.CASE_CAP_MEANS + self.CASE_CAP_SIGMAS))
                and abs(r["total_mean_bits_per_s_per_hz"] - 16.825) <= 0.003
                and abs(r["total_std_bits_per_s_per_hz"] - 0.181) <= 0.002
                and abs(r["total_std_diversity_bits_per_s_per_hz"] - 0.128) <= 0.002)
        return ok


class FitD20:
    """The ``sdmcap fit`` pipeline at D = 20 on criterion 08's sigma grid."""

    name = "fit_d20"
    CHECKS = ("exit_zero", "finite", "variance_vs_oracle", "repeat_identical",
              "trace_matches")
    REPEAT_FIRST = True  # an untimed repeat of the first solve must match it
    GRID = "2.5,5,7.5"
    TRIALS = 200
    # 5 sections (not the default 100) keep one solve near 2 s on 2 cores,
    # so a run holds two dozen solves and its p95 is not one slow call; the D = 20
    # matrix size and the calibration share (1200 of 1400 trials per sigma)
    # are those of the default link.
    SECTIONS = 5
    MIN_BATCHES = 3
    PROBE = (100, 5, 20, 0)  # the oracle's own D = 20 trial kernel

    def __init__(self, smoke: bool):
        if smoke:
            self.TRIALS, self.SECTIONS, self.MIN_BATCHES = 100, 10, 1

    def warm_up(self):
        mc.run_ensemble(mc.McConfig(ChannelSpec(20, 10.0, 5.0), sections=self.SECTIONS,
                                    trials=4, calibration_trials=4))

    def batches(self, seed: int):
        return _oracle_seeds(seed)

    def fixed_ops(self, seed: int):
        return next(self.batches(seed))

    def work(self, op) -> int:
        return len(self.GRID.split(",")) * self.TRIALS

    def call(self, op):
        return _cli(["fit", "--modes", "20", "--snr-db", "10", "--sigma-grid", self.GRID,
                     "--trials", str(self.TRIALS), "--sections", str(self.SECTIONS),
                     "--seed", str(op)])

    def digest(self, output) -> str:
        return _cli_digest(output)

    def check(self, op, output, check) -> bool:
        code, text = output
        if not check("exit_zero", code == 0):
            return False
        r = json.loads(text)
        ok = check("finite", _all_finite(r))
        ok &= check("variance_vs_oracle", all(
            a > 0 and o > 0 and abs(math.log(a) - math.log(o)) <= VAR_LOG_BOUND
            for a, o in zip(r["analytic_variances"], r["oracle_variances"])))
        return ok


WORKLOADS = {w.name: w for w in (AnalyticGrid, FitD20)}


class Runner:
    """Times each call, checks its output and keeps the tallies."""

    def __init__(self, workload, checks: Checks):
        self.w = workload
        self.check = checks
        self.attempted = 0
        self.failed = 0

    def run(self, op):
        """(seconds, output or None); the check is outside the timed call."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.w.call(op)
        except Exception as exc:  # any raise is a failed operation
            seconds = time.perf_counter() - start
            sys.stderr.write(f"operation {op!r} raised {type(exc).__name__}: {exc}\n")
            self.failed += 1
            return seconds, None
        seconds = time.perf_counter() - start
        if not self.w.check(op, output, self.check):
            self.failed += 1
        return seconds, output


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _p95(values) -> float:
    """95th percentile, interpolated between order statistics, so that with
    the two dozen solves of a ``fit_d20`` run it is not simply their maximum."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# Speed probe: the shared 2-vCPU host this benchmark was built on changes
# speed by tens of percent within seconds, and a kernel slows by an amount
# that depends on its mix of interpreter and LAPACK work.  So call times
# are also expressed in units of a fixed reference kernel timed between
# calls ("ref"): a frozen copy of the oracle's trial kernel (a Philox
# stream per item, complex Ginibre draws, a batched QR with phase fix, a
# section product and eigvalsh), then a pure-Python loop.  Each workload
# sizes it to its own mix (items, sections, D, loop steps).  The kernel is
# bound here, before any tracing patches numpy.linalg, and never changes
# with the package.
_PROBE_QR, _PROBE_EIGVALSH = np.linalg.qr, np.linalg.eigvalsh
PROBE_EVERY_S = 1.0
PROBE_SHARE = 0.08  # of the time between probes, spent probing
_PROBE_CHUNK = 20


def _probe_once(sizes) -> float:
    items, sections, D, loop = sizes
    start = time.perf_counter()
    shape = (sections, D, D)
    # in chunks, so the probe never sets the worker's peak RSS
    for lo in range(0, items, _PROBE_CHUNK):
        n = min(_PROBE_CHUNK, items - lo)
        z = np.empty((n,) + shape, dtype=complex)
        for b in range(n):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=7, spawn_key=(lo + b,))))
            z[b] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q, r = _PROBE_QR(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[..., None, :]
        h = np.broadcast_to(np.eye(D, dtype=complex), (n, D, D)).copy()
        for k in range(sections):
            h = q[:, k] @ h
        _PROBE_EIGVALSH(h @ np.conjugate(np.swapaxes(h, -2, -1)))
    acc = 0
    for i in range(loop):
        acc += i * i % 7
    return time.perf_counter() - start


def probe_s(sizes) -> float:
    """Median of three runs of the reference kernel, seconds."""
    return statistics.median(_probe_once(sizes) for _ in range(3))


class ProbedTimes:
    """Call times, and probes spread over the run: after every stretch of
    calls lasting ``PROBE_EVERY_S`` or more, probes run until they have
    taken ``PROBE_SHARE`` of the stretch (at least one), so a run of 2 s
    solves is probed as densely as a run of 70 ms reports.  Single
    probes and calls both scatter with the host's few-second speed swings;
    the median of all the run's probes (one ref) follows its slower drift,
    and every call is divided by it."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.seconds, self.probes = [], []
        self._probe(0.0)

    def _probe(self, budget: float) -> None:
        start = time.perf_counter()
        self.probes.append(_probe_once(self.sizes))
        while time.perf_counter() - start < budget:
            self.probes.append(_probe_once(self.sizes))
        self._probed_at = time.perf_counter()

    def add(self, seconds: float) -> None:
        self.seconds.append(seconds)

    def maybe_probe(self, force: bool = False) -> None:
        stretch = time.perf_counter() - self._probed_at
        if force or stretch >= PROBE_EVERY_S:
            self._probe(PROBE_SHARE * stretch)

    def ref_s(self) -> float:
        return statistics.median(self.probes)

    def refs(self):
        ref = self.ref_s()
        return [t / ref for t in self.seconds]


def measure(w, runner: Runner, seed: int, seconds: float) -> dict:
    """End-to-end metrics, untraced.  Whole batches run until the next one
    is predicted to overrun ``seconds`` (at least ``MIN_BATCHES``)."""
    times, work, batch_s = ProbedTimes(w.PROBE), 0, []
    first = None
    start = time.perf_counter()
    for batch in w.batches(seed):
        if len(batch_s) >= w.MIN_BATCHES and (
                time.perf_counter() - start + statistics.median(batch_s) > seconds):
            break
        batch_start = time.perf_counter()
        for op in batch:
            times.maybe_probe()
            took, output = runner.run(op)
            times.add(took)
            work += w.work(op)
            if first is None:
                first = (op, output)
        batch_s.append(time.perf_counter() - batch_start)
    times.maybe_probe(force=True)
    if w.REPEAT_FIRST:
        op, output = first
        _, again = runner.run(op)
        # a call that raised is already counted failed
        if output is not None and again is not None and not runner.check(
                "repeat_identical", w.digest(output) == w.digest(again)):
            runner.failed += 1
    refs = times.refs()
    return {
        "work_per_ref": work / sum(refs),
        "call_ref_p50": statistics.median(refs),
        "call_ref_p95": _p95(refs),
        "work_per_s": work / sum(times.seconds),
        "call_ms_p50": 1000.0 * statistics.median(times.seconds),
        "call_ms_p95": 1000.0 * _p95(times.seconds),
        "ref_ms": 1000.0 * times.ref_s(),
        "calls": len(times.seconds),
    }


def measure_traced(w, runner: Runner, seed: int, setup: Tracer):
    """Per-layer metrics: the fixed op list of the seed runs untraced, then
    traced; outputs must match.  The overhead compares the two passes in
    refs, probed before, between and after them."""
    ops = w.fixed_ops(seed)
    p0 = probe_s(w.PROBE)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    plain = [runner.run(op) for op in ops]
    cpu_s, wall_s = _cpu_s() - cpu0, time.perf_counter() - t0
    p1 = probe_s(w.PROBE)

    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.run(op) for op in ops]
    finally:
        tracer.uninstall()
    p2 = probe_s(w.PROBE)
    for (_, a), (_, b) in zip(plain, traced):
        if a is not None and b is not None and not runner.check(
                "trace_matches", w.digest(a) == w.digest(b)):
            runner.failed += 1
    plain_refs = sum(t for t, _ in plain) / (p0 + p1)
    traced_refs = sum(t for t, _ in traced) / (p1 + p2)
    overhead = 100.0 * (traced_refs / plain_refs - 1.0)
    return layer_metrics(tracer, setup, cpu_s, wall_s, overhead), tracer


def provenance(seed: int) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "sdmcap": sdmcap.__version__,
        "seed": seed,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    if not Path(sdmcap.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"sdmcap imported from {sdmcap.__file__}, not {SRC}\n")
        return 2

    w = WORKLOADS[args.workload](args.smoke)
    if args.setup_only:
        w.warm_up()
        return 0

    setup = Tracer()
    if args.trace:
        setup.install()
    try:
        w.warm_up()
    finally:
        setup.uninstall()

    # a traced run repeats every call traced, which subsumes the repeat check
    skip = "repeat_identical" if args.trace else "trace_matches"
    checks = Checks([c for c in w.CHECKS if c != skip])
    runner = Runner(w, checks)
    record = {"workload": w.name, "provenance": provenance(args.seed)}
    if args.trace:
        record["metrics"], tracer = measure_traced(w, runner, args.seed, setup)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"setup": setup.dump(), "measured": tracer.dump()}))
    else:
        record["metrics"] = measure(w, runner, args.seed, args.seconds)
        record["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record.update(attempted=runner.attempted, failed=runner.failed,
                  checks=checks.table)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
