"""End-to-end acceptance checks.

Each test is one numbered criterion; `pytest -v` therefore emits one
pass/fail line per criterion.  Reference numbers are frozen here rather
than recomputed, so regressions in any layer surface as explicit value
mismatches.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from sdmcap import fitting, gue, total, wigner
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.mc import (
    McConfig,
    POWER_CONTROL_TRIAL,
    result_to_json,
    run_ensemble,
    run_ensembles,
)
from tests.reference import capacity_cdf, capacity_pdf, capacity_support, integrate

# standard-normal quantile at p = 0.01, computed independently of the
# package (verified against scipy.stats.norm.ppf elsewhere)
PHI_INV_001 = -2.3263478740408408

D6_BETA = (
    Fraction(322, 3125),
    Fraction(4557, 1250),
    Fraction(-17493, 625),
    Fraction(256221, 3125),
    Fraction(-259308, 3125),
    Fraction(453789, 15625),
)

CASE_SPEC = ChannelSpec(6, 10.0, 5.0)


def _ks_distance(sorted_samples, model_cdf_values):
    n = len(sorted_samples)
    hi = np.abs(model_cdf_values - np.arange(1, n + 1) / n).max()
    lo = np.abs(model_cdf_values - np.arange(n) / n).max()
    return max(hi, lo)


def test_criterion_01_coefficient_derivation():
    gue.derive_coefficients.cache_clear()
    start = time.perf_counter()
    coeffs = gue.derive_coefficients(6)
    elapsed = time.perf_counter() - start
    assert coeffs.beta == D6_BETA
    assert coeffs.alpha == pytest.approx(math.sqrt(14.0 / math.pi), abs=1e-12)
    assert elapsed < 1.0


def test_criterion_02_mean_log_gain():
    start = time.perf_counter()
    coeffs = gue.derive_coefficients(6)
    mu = gue.mean_log_gain(CASE_SPEC, coeffs)
    elapsed = time.perf_counter() - start
    assert mu == pytest.approx(-2.609, abs=0.002)
    assert elapsed < 1.0


def test_criterion_03_per_mode_capacity_stats():
    start = time.perf_counter()
    stats = per_mode_stats(CASE_SPEC)
    elapsed = time.perf_counter() - start
    expected_means = [1.022, 1.653, 2.330, 3.067, 3.887, 4.865]
    expected_sigmas = [0.192, 0.202, 0.217, 0.238, 0.276, 0.362]
    for got, want in zip(stats.cap_means, expected_means):
        assert got == pytest.approx(want, abs=0.002)
    for got, want in zip(stats.cap_sigmas, expected_sigmas):
        assert got == pytest.approx(want, abs=0.002)
    assert elapsed < 5.0


def test_criterion_04_correlation_matrix():
    model = total.CorrelationModel(gamma0=0.43513127, gamma1=3.758373e-5,
                                   D=6, snr_db=10.0)
    expected = [0.091, -0.244, -0.367, -0.412, -0.429]
    for distance, want in enumerate(expected, start=1):
        assert total.correlation(1, 1 + distance, 5.0, model) == pytest.approx(
            want, abs=0.0005)


def test_criterion_05_total_stats():
    stats = per_mode_stats(CASE_SPEC)
    model = total.CorrelationModel(gamma0=0.43513127, gamma1=3.758373e-5,
                                   D=6, snr_db=10.0)
    ts = total.total_stats(stats, model, 5.0)
    assert ts.mu_ct == pytest.approx(16.825, abs=0.003)
    assert ts.sigma_ct == pytest.approx(0.181, abs=0.002)
    two_bins = total.apply_frequency_diversity(ts, 2)
    assert two_bins.sigma_ct == pytest.approx(0.128, abs=0.002)


def test_criterion_06_outage_formula_property():
    value = total.outage_capacity(16.825, 0.181, 0.01)
    assert value == pytest.approx(16.825 + 0.181 * PHI_INV_001, abs=1e-9)
    assert value == pytest.approx(16.404, abs=0.002)

    import random

    rng = random.Random(99)
    for _ in range(20):
        mu = rng.uniform(1.0, 40.0)
        sigma = rng.uniform(1e-3, 3.0)
        p = rng.uniform(1e-7, 1.0 - 1e-7)
        c = total.outage_capacity(mu, sigma, p)
        gauss_cdf = 0.5 * (1.0 + math.erf((c - mu) / (sigma * math.sqrt(2.0))))
        assert gauss_cdf == pytest.approx(p, abs=1e-9)


def test_criterion_07_wigner_cdf_vs_quadrature():
    start = time.perf_counter()
    for sigma in (2.5, 5.0, 7.5):
        for snr_db in (5.0, 10.0, 20.0):
            spec = ChannelSpec(20, snr_db, sigma)
            mu = wigner.mean_log_gain(spec)
            lo, hi = capacity_support(spec, mu)
            margin = 1e-6 * (hi - lo)
            points = np.linspace(lo + margin, hi - margin, 1000)
            cumulative = 0.0
            previous = lo
            for c in points:
                cumulative += integrate(
                    lambda x: capacity_pdf(x, spec, mu),
                    previous, c, tol=1e-12, initial_panels=4)
                previous = c
                assert abs(capacity_cdf(c, spec, mu) - cumulative) <= 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_08_analytic_vs_oracle_variance():
    start = time.perf_counter()
    sigma_grid = [2.5, 5.0, 7.5]
    for D in (4, 8, 12, 40):
        oracle_vars = [r.total_var for r in run_ensembles(
            [McConfig(ChannelSpec(D, 10.0, s), trials=1000, seed=5)
             for s in sigma_grid])]
        model = fitting.fit(D, 10.0, sigma_grid, oracle_vars)
        for s, oracle_var in zip(sigma_grid, oracle_vars):
            a, b = total.variance_terms(
                per_mode_stats(ChannelSpec(D, 10.0, s)).cap_sigmas)
            analytic_var = a + b * model.combined_coefficient(s)
            assert abs(math.log(analytic_var) - math.log(oracle_var)) <= 0.3, \
                f"D={D}, sigma={s}"
    assert time.perf_counter() - start < 300.0


def test_criterion_09_oracle_self_checks():
    result = run_ensemble(McConfig(CASE_SPEC, trials=10_000, seed=31,
                                   power_control=POWER_CONTROL_TRIAL))
    # fixed trace per trial
    linear_sums = (10.0 ** (np.asarray(result.gain_samples) / 10.0)).sum(axis=1)
    assert np.abs(linear_sums - 6.0).max() < 1e-9
    # calibrated ensemble std within 1% of the target
    assert abs(result.ensemble_gain_std_db - 5.0) <= 0.05
    # pooled gain histogram against the analytic ensemble density
    coeffs = gue.derive_coefficients(6)
    mu = gue.mean_log_gain(CASE_SPEC, coeffs)
    samples = np.sort(np.asarray(result.gain_samples).ravel())
    grid = np.linspace(mu - 25.0, mu + 25.0, 4001)
    pdf = np.array([gue.ensemble_pdf(x, CASE_SPEC, coeffs, mu) for x in grid])
    cdf = np.concatenate([[0.0], np.cumsum(
        (pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])
    cdf /= cdf[-1]
    assert _ks_distance(samples, np.interp(samples, grid, cdf)) < 0.03


def test_criterion_10_total_capacity_gaussianity():
    spec = ChannelSpec(20, 10.0, 5.0)
    result = run_ensemble(McConfig(spec, trials=10_000, seed=13))
    totals = np.asarray(result.total_samples)
    mu, sd = totals.mean(), totals.std(ddof=1)
    z = (totals - mu) / sd
    skew = float(np.mean(z**3))
    assert abs(skew) < 0.3
    samples = np.sort(totals)
    model = 0.5 * (1.0 + np.vectorize(math.erf)(
        (samples - mu) / (sd * math.sqrt(2.0))))
    assert _ks_distance(samples, model) < 0.05


def test_criterion_11_frequency_diversity():
    sigma_grid = [2.5, 5.0, 7.5]
    oracle_vars = [r.total_var for r in run_ensembles(
        [McConfig(ChannelSpec(6, 10.0, s), trials=2000, seed=41)
         for s in sigma_grid])]
    model = fitting.fit(6, 10.0, sigma_grid, oracle_vars)
    stats = per_mode_stats(CASE_SPEC)
    analytic = total.total_stats(stats, model, 5.0)
    two_bin = run_ensemble(McConfig(ChannelSpec(6, 10.0, 5.0, freq_bins=2),
                                    trials=1000, seed=42))
    target = analytic.sigma_ct**2 / 2.0
    assert abs(two_bin.total_var - target) <= 0.2 * target


def test_criterion_12_determinism(tmp_path):
    config = McConfig(ChannelSpec(8, 10.0, 5.0), trials=100, seed=77)
    first = result_to_json(run_ensemble(config))
    second = result_to_json(run_ensemble(config))
    assert first == second

    script = (
        "import hashlib\n"
        "from sdmcap.channel import ChannelSpec\n"
        "from sdmcap.mc import McConfig, result_to_json, run_ensemble\n"
        "config = McConfig(ChannelSpec(8, 10.0, 5.0), trials=100, seed=77)\n"
        "payload = result_to_json(run_ensemble(config))\n"
        "print(hashlib.sha256(payload.encode()).hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["SDMCAP_CACHE_DIR"] = str(tmp_path / "cache")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    expected = __import__("hashlib").sha256(first.encode()).hexdigest()
    assert digests == {expected}
