import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmcap import mc
from sdmcap.channel import ChannelSpec
from sdmcap.errors import CalibrationError, EnsembleError, SdmCapError
from sdmcap.mc import (
    McConfig,
    POWER_CONTROL_ENSEMBLE,
    POWER_CONTROL_TRIAL,
    calibrate_section_gain,
    empirical_correlation,
    result_to_csv_rows,
    result_to_json,
    run_ensemble,
    run_ensembles,
)

SPEC_D6 = ChannelSpec(6, 10.0, 5.0)


@pytest.fixture(scope="module")
def small_ensemble():
    return run_ensemble(McConfig(SPEC_D6, trials=400, seed=21))


class TestMcConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, trials=0)
        with pytest.raises(ValueError, match="trials must be >= 2"):
            McConfig(SPEC_D6, trials=1)  # its per-mode deviations would be NaN
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, sections=0)
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, calibration_tol=0.5)
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, power_control="per-section")

    @pytest.mark.parametrize("field, value", [
        ("sections", 3.5), ("sections", True), ("trials", 10.5), ("trials", True),
        ("trials", 10.0), ("calibration_trials", 8.5), ("calibration_trials", True),
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        # such a count failed later, deep in the oracle, as TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McConfig(ChannelSpec(4, 10.0, 3.0), **{field: value})

    def test_freq_bins_falls_back_to_spec(self):
        assert McConfig(ChannelSpec(6, 10.0, 5.0, freq_bins=3)).effective_freq_bins == 3
        assert McConfig(SPEC_D6).effective_freq_bins == 1


class TestHaarUnitary:
    def test_unitarity_and_det(self):
        rng = np.random.default_rng(5)
        for D in (2, 4, 7):
            q, _ = mc._haar_factors(D, 3, [rng])
            for u in q[0]:
                assert np.abs(u @ u.conj().T - np.eye(D)).max() < 1e-12
                assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_eigenvalue_angles_uniform(self):
        q, _ = mc._haar_factors(4, 10_000 // 4, [np.random.default_rng(6)])
        angles = np.angle(np.linalg.eigvals(q[0])).ravel()
        s = np.sort((angles + math.pi) / (2.0 * math.pi))
        n = len(s)
        ks = max(
            np.abs(s - np.arange(1, n + 1) / n).max(),
            np.abs(s - np.arange(n) / n).max(),
        )
        assert ks < 0.02

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            mc._haar_factors(1, 1, [np.random.default_rng(0)])

    @pytest.mark.parametrize("K", [2, 5])
    def test_last_unitary_does_not_move_the_spectrum(self, K):
        # the full chain, the last section's unitary included, has the same
        # spectrum as the chain that leaves it out
        D, g = 6, 1.5
        factors = mc._haar_factors(D, K, [mc._rng(2, t) for t in range(4)])
        z, _ = mc._draw_trial_blocks(D, K, mc._rng(2, 0))
        q, r = np.linalg.qr(z[-1])
        last = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        gains_db = factors[1][0] * g
        gains_db -= gains_db.mean(axis=-1, keepdims=True)
        amp = 10.0 ** (gains_db / 20.0)
        h = np.eye(D)
        for k in range(K):
            u = factors[0][0, k] if k < K - 1 else last
            h = (u * amp[k]) @ h
        full = np.linalg.eigvalsh(h @ h.conj().T)
        np.testing.assert_allclose(mc._section_gains(factors, g)[0], full, rtol=1e-12)

    def test_one_section_makes_no_qr(self, monkeypatch):
        def no_qr(*args, **kwargs):
            raise AssertionError("QR of a one-section channel")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        factors = mc._haar_factors(3, 1, [mc._rng(0, 0)])
        amp2 = 10.0 ** ((factors[1][0, 0] - factors[1][0, 0].mean()) * 2.0 / 10.0)
        np.testing.assert_allclose(mc._section_gains(factors, 2.0)[0], np.sort(amp2),
                                   rtol=1e-14)


def _rounds(monkeypatch):
    """The gains of each ``measure_ensemble_std`` call from now on."""
    rounds = []
    original = mc.measure_ensemble_std

    def spy(*args, **kwargs):
        rounds.append(list(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(mc, "measure_ensemble_std", spy)
    return rounds


class TestCalibration:
    def test_zero_target_gives_zero_gain(self):
        assert calibrate_section_gain(6, 100, [0.0], 50, 0) == ([0.0], [(0, None)])

    def test_hits_target_within_tolerance(self):
        [g], _ = calibrate_section_gain(6, 100, [5.0], 400, seed=1)
        [std] = mc.measure_ensemble_std(6, 100, [g], seed=1, trials=400)
        assert 4.95 <= std <= 5.05

    def test_steps_back_from_a_nan_measurement(self, monkeypatch):
        # at seed 5 the model seed g = 2.6525 measures finite on its
        # 64-trial pilot, which sizes the sample at 400 trials, but loses
        # positivity of the spectrum in one of those and measures NaN; the
        # step halved back towards 0 measures 14.4 dB, and the iteration
        # converges from there
        measured = []
        original = mc.measure_ensemble_std

        def spy(*args, **kwargs):
            stds = original(*args, **kwargs)
            measured.extend(stds)
            return stds

        monkeypatch.setattr(mc, "measure_ensemble_std", spy)
        [g], _ = calibrate_section_gain(4, 100, [41.0], 400, seed=5)
        assert any(math.isnan(v) for v in measured)
        assert abs(measured[-1] - 41.0) <= 0.01 * 41.0
        assert measured[-1:] == original(4, 100, [g], seed=5, trials=400)

    @pytest.mark.parametrize("sigma, seed", [(39.0, 99), (40.0, 40)],
                             ids=["39.0", "40.0"])
    def test_nan_below_a_gain_measured_above_is_halved(self, monkeypatch, sigma, seed):
        # the seed measures above the target and the Newton step just below
        # it NaN: the std is not monotone in the gain there, so the step is
        # halved back towards the seed rather than taken for the limit
        measured = []
        original = mc.measure_ensemble_std

        def spy(*args, **kwargs):
            stds = original(*args, **kwargs)
            measured.extend(zip(args[2], stds))
            return stds

        monkeypatch.setattr(mc, "measure_ensemble_std", spy)
        [g], [(n, _)] = calibrate_section_gain(4, 100, [sigma], 400, seed=seed)
        assert any(math.isnan(std) and any(a > g_nan and s > sigma for a, s in measured[:k])
                   for k, (g_nan, std) in enumerate(measured))
        [std] = original(4, 100, [g], seed=seed, trials=n)
        assert abs(std - sigma) <= 0.01 * sigma

    def test_only_a_nan_just_above_a_gain_measured_below_ends_it(self):
        target, tol = 10.0, 0.01

        def run(measure):
            """The gains one iteration asks for, each measured by ``measure``."""
            it, asked, std = mc._secant(target, 6, 20, tol, 50), [], None
            try:
                while True:
                    asked.append(it.send(std))
                    std = measure(asked[-1])
            except StopIteration as done:
                return asked, done.value

        seed, _ = mc._seed(target, 6, 20)
        # finite below the target up to 1.002 seeds, NaN beyond
        with pytest.raises(CalibrationError, match="positivity limit"):
            run(lambda g: 9.0 * g / seed if g <= 1.002 * seed else math.nan)
        # the seed measures above the target and the Newton step below it
        # NaN: that step is halved back towards the seed, and the secant
        # goes on to the target
        def measure(g):
            return 11.0 * (g / seed) ** 2 if g >= 0.94 * seed else math.nan

        asked, g = run(measure)
        assert math.isnan(measure(asked[1])) and asked[1] < asked[2] < asked[0]
        assert abs(measure(g) - target) <= tol * target

    def test_zero_eigenvalue_measures_nan_without_a_warning(self, monkeypatch):
        original = mc._section_gains

        def with_a_zero(*args, **kwargs):
            lam = original(*args, **kwargs)
            lam[0, 0] = 0.0
            return lam

        monkeypatch.setattr(mc, "_section_gains", with_a_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [std] = mc.measure_ensemble_std(4, 3, [2.0], seed=1, trials=10)
        assert math.isnan(std)

    def test_overflowing_gain_measures_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [std] = mc.measure_ensemble_std(4, 100, [60.0], seed=1, trials=8)
        assert math.isnan(std)

    def test_overflowing_target_is_a_calibration_error(self):
        # every step from the 1000 dB seed overflows the chain until the
        # halving finds the positivity limit, short of the target
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match="positivity limit"):
                calibrate_section_gain(6, 20, [1000.0], 40, 1)

    def test_failing_batches_are_measured_row_by_row(self, monkeypatch):
        # every batch build of more than one row fails: each row is rebuilt
        # from its own stream, and the measurement keeps its bits
        expected = mc.measure_ensemble_std(6, 20, [0.5, 1.0], seed=2, trials=30)
        original = mc._haar_factors

        def batches_fail(D, K, rngs):
            if len(rngs) > 1:
                raise np.linalg.LinAlgError("batch failure")
            return original(D, K, rngs)

        monkeypatch.setattr(mc, "_haar_factors", batches_fail)
        memo = []
        assert mc.measure_ensemble_std(6, 20, [0.5, 1.0], seed=2, trials=30,
                                       memo=memo) == expected
        assert _held_trials(memo) == []

    @pytest.mark.parametrize("bins, power_control", [(1, POWER_CONTROL_ENSEMBLE),
                                                     (2, POWER_CONTROL_TRIAL)])
    def test_failing_chains_are_redone_row_by_row_on_the_built_factors(
            self, monkeypatch, bins, power_control):
        # every chain of more than one row fails: each row is chained from
        # its piece's factors, which are built once, and the spectra keep
        # their bits; 15-trial blocks, so the 30 trials make two pieces
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 15)
        args = (6, 20, bins, 2, [0.5, 1.0], [0, 5], [30, 17], power_control)
        expected = mc._spectra(*args)
        section_gains, haar_factors = mc._section_gains, mc._haar_factors
        builds = []

        def chains_fail(factors, g_db, power_control=POWER_CONTROL_ENSEMBLE):
            if len(factors[1]) > 1:
                raise np.linalg.LinAlgError("chain failure")
            return section_gains(factors, g_db, power_control)

        def counted(D, K, rngs):
            builds.append(len(rngs))
            return haar_factors(D, K, rngs)

        monkeypatch.setattr(mc, "_section_gains", chains_fail)
        monkeypatch.setattr(mc, "_haar_factors", counted)
        spectra, controls = mc._spectra(*args)
        assert sorted(builds) == [15 * bins, 15 * bins]  # one build per piece
        assert len(spectra) == len(controls) == len(expected[0])
        for got, want in zip(spectra + controls, expected[0] + expected[1]):
            assert np.all(np.isfinite(got))
            assert np.array_equal(got, want)

    def test_failure_reports_the_evaluations_made(self):
        # the seed and the Newton step, then two secant steps
        with pytest.raises(CalibrationError, match=r"in 4 evaluations"):
            calibrate_section_gain(6, 20, [5.0], 40, seed=1, tol=1e-12, max_iter=2)

    def test_monotone_in_target(self):
        gains = [
            calibrate_section_gain(6, 100, [t], 200, seed=1)[0][0]
            for t in (2.0, 4.0, 6.0)
        ]
        assert gains[0] < gains[1] < gains[2]

    @pytest.mark.parametrize("D", [2, 3, 6, 20, 40, 100])
    def test_seed_inverts_the_accumulated_mdg_relation(self, D):
        K = 7
        c = (math.log(10.0) / 10.0) ** 2 * (1.0 - 1.0 / D**2) / 12.0
        for sigma in np.geomspace(1e-9, 30.0, 60):
            g0, _ = mc._seed(sigma, D, K)
            xi = g0 * math.sqrt(K * (1.0 - 1.0 / D))
            assert xi * math.sqrt(1.0 + c * xi**2) == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("sigma", [5e-324, 4e-188, 1e-310])
    @pytest.mark.parametrize("D, K", [(2, 1), (6, 20), (20, 5)])
    def test_subnormal_or_tiny_target_is_typed_or_finite(self, D, K, sigma):
        try:
            [g], _ = calibrate_section_gain(D, K, [sigma], 20, seed=1)
        except CalibrationError:
            return
        assert math.isfinite(g)

    def test_seed_within_tolerance_costs_one_evaluation(self, monkeypatch):
        rounds = _rounds(monkeypatch)
        [g], _ = calibrate_section_gain(6, 20, [5.0], 40, seed=4)  # measures 4.960 dB
        assert rounds == [[g]] and g == mc._seed(5.0, 6, 20)[0]

    @pytest.mark.parametrize("D, K, seed, gains_per_round", [
        (4, 100, 5, [3, 3, 1]), (8, 100, 5, [3, 3]), (12, 100, 5, [3, 3]),
        (40, 100, 5, [3]), (20, 5, 1, [3, 1]), (20, 5, 52, [3, 1]),
    ])
    def test_rounds_on_the_sigma_grid(self, monkeypatch, D, K, seed, gains_per_round):
        # criterion 08's links and the benchmark's D = 20 fit at 2.5, 5, 7.5 dB:
        # the seeds on the pilot, then the pass that remakes the seeds'
        # measurements over the larger samples their pilots fixed (none at
        # D = 40 or at D = 20 with 5 sections, whose pilots are precise
        # enough), then the further rounds
        rounds = _rounds(monkeypatch)
        calibrate_section_gain(D, K, [2.5, 5.0, 7.5], 400, seed=seed)
        assert [len(gains) for gains in rounds] == gains_per_round

    @settings(max_examples=30, deadline=None)
    @given(D=st.integers(2, 40), K=st.integers(1, 100),
           sigma=st.floats(0.0, 12.0, exclude_min=True), seed=st.integers(0, 2**32 - 1),
           trials=st.integers(2, 30),
           pc=st.sampled_from([POWER_CONTROL_ENSEMBLE, POWER_CONTROL_TRIAL]))
    def test_gain_remeasures_within_tolerance_or_a_typed_error(self, D, K, sigma, seed,
                                                               trials, pc):
        try:
            [g], _ = calibrate_section_gain(D, K, [sigma], trials, seed, power_control=pc)
        except CalibrationError:
            return
        [std] = mc.measure_ensemble_std(D, K, [g], seed, trials, power_control=pc)
        assert abs(std - sigma) <= 0.01 * sigma


class TestCalibrationSizing:
    """Each sigma's calibration sample is sized by the standard error of its
    own pooled std, never above ``calibration_trials``."""

    @pytest.mark.parametrize("D, K, seed, trials_cal, tol", [
        (20, 5, 1, 400, 0.01), (20, 5, 1, 100, 0.01), (20, 100, 5, 400, 0.01),
        (12, 100, 5, 400, 0.01), (6, 100, 5, 400, 0.01), (2, 100, 5, 400, 0.01),
        (6, 20, 2, 400, 0.05), (6, 20, 2, 30, 0.01),
    ])
    def test_sample_is_capped_or_meets_the_se_target(self, D, K, seed, trials_cal, tol):
        _, sizes = calibrate_section_gain(D, K, [2.5, 5.0, 7.5], trials_cal, seed, tol)
        pilot = min(mc._PILOT_TRIALS, trials_cal)
        for n, se in sizes:
            assert pilot <= n <= trials_cal
            assert n == trials_cal or se <= 0.5 * tol

    def test_sizes_of_the_benchmark_fit_and_criterion_08(self):
        # the pilot suffices at D = 20 with 5 sections and at D = 40 with
        # 100; D = 12 with 100 sections needs about 120-170 trials and D = 6
        # keeps the whole 400-trial sample
        for D, K, seed, lo, hi in [(20, 5, 1, 64, 64), (40, 100, 5, 64, 64),
                                   (12, 100, 5, 100, 200), (6, 100, 5, 400, 400)]:
            _, sizes = calibrate_section_gain(D, K, [2.5, 5.0, 7.5], 400, seed)
            assert all(lo <= n <= hi for n, _ in sizes), (D, K, sizes)

    def test_zero_target_measures_nothing(self):
        assert calibrate_section_gain(6, 20, [0.0, 5.0], 40, 1)[1][0] == (0, None)

    def test_pilot_trials_are_built_once(self, monkeypatch):
        # the pass that remakes a seed's measurement over its larger sample
        # (168 trials) chains the pilot's trials again but builds only the
        # added ones
        D, K = 12, 100
        factored, chained = [], []
        original_measure = mc.measure_ensemble_std
        original_qr = np.linalg.qr
        original_gains = mc._section_gains

        def counted_measure(*args, **kwargs):
            factored.append(0)
            chained.append(0)
            return original_measure(*args, **kwargs)

        def counted_qr(a, *args, **kwargs):
            factored[-1] += a.shape[0]
            return original_qr(a, *args, **kwargs)

        def counted_gains(factors, *args, **kwargs):
            chained[-1] += factors[1].shape[0]
            return original_gains(factors, *args, **kwargs)

        monkeypatch.setattr(mc, "measure_ensemble_std", counted_measure)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(mc, "_section_gains", counted_gains)
        [_], [(n, _)] = calibrate_section_gain(D, K, [5.0], 400, 1)
        pilot = mc._PILOT_TRIALS
        assert pilot < n < 400
        assert factored[:2] == [pilot, n - pilot] and not any(factored[2:])
        assert chained == [pilot] + [n] * (len(chained) - 1)

    def test_remeasured_on_fresh_seeds(self):
        # the std at the calibrated gain scatters over fresh samples of the
        # same size by about the sample's standard error, tol / 2
        tol, target = 0.01, 5.0
        [g], [(n, se)] = calibrate_section_gain(20, 5, [target], 400, 1, tol)
        assert n < 400 and se <= 0.5 * tol
        stds = [mc.measure_ensemble_std(20, 5, [g], seed, n)[0]
                for seed in range(101, 121)]
        assert np.std(stds, ddof=1) / target <= 2.0 * (0.5 * tol)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sizes_hold_for_any_worker_count(self, monkeypatch, workers):
        lone = calibrate_section_gain(20, 5, [2.5, 5.0, 7.5], 400, 52)
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        assert calibrate_section_gain(20, 5, [2.5, 5.0, 7.5], 400, 52) == lone

    def test_grid_member_sizes_equal_lone_sizes(self):
        sigmas = [2.5, 5.0, 7.5]
        gains, sizes = calibrate_section_gain(20, 5, sigmas, 400, 52)
        for s, g, size in zip(sigmas, gains, sizes):
            assert calibrate_section_gain(20, 5, [s], 400, 52) == ([g], [size])

    def test_relative_se_of_independent_values(self):
        # for T x D independent normal values the relative standard error
        # of their std is close to 1 / sqrt(2 T D), whether a control
        # independent of them takes out nothing or none is usable
        rng = np.random.default_rng(3)
        T, D, dof = 400, 8, 4 * 7
        pooled = 3.0 + 2.0 * rng.standard_normal((T, D))
        for control in (rng.chisquare(dof, T), np.full(T, dof)):
            _, se = mc._pooled_std(pooled, control, dof)
            assert se == pytest.approx(1.0 / math.sqrt(2.0 * T * D), rel=0.15)

    def test_relative_se_of_degenerate_samples(self):
        control = np.arange(5.0)
        assert mc._pooled_std(np.ones((1, 4)), control[:1], 3.0) == (0.0, None)
        assert mc._pooled_std(np.full((5, 4), 2.0), control, 3.0) == (0.0, 0.0)
        assert mc._pooled_std(np.array([[1.0, -np.inf]]), control[:1], 3.0)[1] is None
        assert math.isnan(mc._pooled_std(np.array([[1.0, np.nan]] * 5), control, 3.0)[0])

    def test_plain_estimate_without_a_usable_control(self):
        # a constant control, fewer than 3 rows, or a control whose
        # correction leaves no positive variance: the plain sample std
        rng = np.random.default_rng(4)
        pooled = rng.standard_normal((6, 4))
        constant = np.full(6, 3.0)
        plain = mc._pooled_std(pooled, constant, 3.0)
        assert plain[0] == float(pooled.ravel().std(ddof=1)) and plain[1] > 0.0
        # X follows q, and its known mean lies far below the sample's
        overshoot = (pooled * pooled).sum(axis=1)
        assert mc._pooled_std(pooled, overshoot, -100.0) == plain
        two = pooled[:2]
        assert mc._pooled_std(two, overshoot[:2], 3.0) == mc._pooled_std(two, constant[:2], 3.0)
        assert mc._pooled_std(two, constant[:2], 3.0)[0] == float(two.ravel().std(ddof=1))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("sigma", [48.0, 50.0, 52.0, 54.0])
    def test_positivity_limit_ends_in_few_evaluations(self, monkeypatch, seed, sigma):
        # beyond about 45 dB at D = 2 with 100 sections some spectrum of the
        # sample loses positivity; finite and NaN gains then alternate
        # within a percent, and the iteration stops at a bracket of a gain
        # that measures below the target and a NaN gain just above it
        rounds = _rounds(monkeypatch)
        try:
            [g], [(n, _)] = calibrate_section_gain(2, 100, [sigma], 400, seed)
        except CalibrationError as exc:
            bracket = re.search(r"finite at (\S+) dB and NaN at (\S+) dB, after \d+ "
                                r"evaluations", str(exc))
            g_finite, g_nan = map(float, bracket.groups())
            assert 0.0 < g_nan - g_finite < 0.01 * g_finite
            std_finite, std_nan = mc.measure_ensemble_std(2, 100, [g_finite, g_nan],
                                                          seed, 400)
            assert std_finite < sigma and math.isnan(std_nan)
        else:
            assert n == 400
            [std] = mc.measure_ensemble_std(2, 100, [g], seed, n)
            assert abs(std - sigma) <= 0.01 * sigma
        assert len(rounds) <= 31  # 30 evaluations and the pilot's remake


class TestControlVariate:
    """``measure_ensemble_std`` estimates the pooled std with each row's
    spread of unit log-gain draws (``_control``) as a control variate."""

    @pytest.mark.parametrize("D", [2, 6, 20])
    def test_one_section_is_exact(self, D):
        # each row's values are g times its centred unit draws, so
        # q = g^2 X / D and the controlled variance is g^2 (D - 1) / D
        g, rel_se = 1.7, []
        [std] = mc.measure_ensemble_std(D, 1, [g], seed=3, trials=50, rel_se=rel_se)
        assert std == pytest.approx(g * math.sqrt((D - 1) / D), rel=1e-12)
        assert rel_se[0] == pytest.approx(0.0, abs=1e-12)

    def test_standard_error_matches_the_scatter(self):
        # D = 20, K = 5 at the pilot's 64 trials, about the gains of 2.5, 5
        # and 7.5 dB: over 40 fresh seeds each std scatters by its mean
        # estimated standard error, within 30 %
        gains = [1.13, 2.19, 3.13]
        stds, ses = [], []
        for seed in range(201, 241):
            rel_se = []
            stds.append(mc.measure_ensemble_std(20, 5, gains, seed, 64, rel_se=rel_se))
            ses.append(rel_se)
        scatter = np.std(stds, axis=0, ddof=1) / np.mean(stds, axis=0)
        np.testing.assert_allclose(scatter, np.mean(ses, axis=0), rtol=0.3)

    def test_rows_rebuilt_one_by_one_carry_their_control(self, monkeypatch):
        # every batch build fails: each row is rebuilt from its own stream
        # with its control, which is the sum over the sections of its unit
        # draws' squared deviations
        D, K, bins = 6, 20, 2
        args = (D, K, bins, 2, [0.5, 1.0], [0, 5], [30, 17], POWER_CONTROL_ENSEMBLE)
        expected = mc._spectra(*args)
        original = mc._haar_factors

        def batches_fail(D, K, rngs):
            if len(rngs) > 1:
                raise np.linalg.LinAlgError("batch failure")
            return original(D, K, rngs)

        monkeypatch.setattr(mc, "_haar_factors", batches_fail)
        spectra, controls = mc._spectra(*args)
        for got, want in zip(spectra + controls, expected[0] + expected[1]):
            assert np.all(np.isfinite(got)) and np.array_equal(got, want)
        for row, x in enumerate(controls[1]):
            _, unit = mc._draw_trial_blocks(D, K, mc._rng(2, 5 + row // bins, row % bins))
            assert x == pytest.approx(((unit - unit.mean(axis=1, keepdims=True)) ** 2).sum())


def _sha256(result):
    return hashlib.sha256(result_to_json(result).encode()).hexdigest()


def _held_trials(memo, bins=1):
    """Calibration trials whose Haar factors a memo holds, in order.  Entry
    k of the memo holds the factors (q, unit) of build block k, ``bins`` rows
    per trial, or None where the trial pass released it."""
    trials = []
    for k, factors in enumerate(memo):
        if factors is not None:
            q, unit = factors
            rows, K, D = unit.shape
            assert q.shape == (rows, K - 1, D, D)
            size = mc._chunk_size(D, K, bins)
            trials.extend(range(k * size, k * size + rows // bins))
    return trials


# every worker count with the default build block (id: the count alone)
# and with blocks of 1 and 7 trials
WORKERS_AND_BLOCKS = [pytest.param(w, b, id=str(w) if b is None else f"{w}-block{b}")
                      for w in (1, 2, 3) for b in (None, 1, 7)]


def _lone_run_cases():
    """Every digest case at every entry of ``WORKERS_AND_BLOCKS``, but the
    D = 6, K = 100 case at blocks of 1 and 7 trials at 2 workers only: its
    400-trial calibration makes one build per block, seconds per case."""
    for case in ("d20_k5", "d6_k100_trial_2_bins", "d4_k100_rebuilt_chunks"):
        for entry in WORKERS_AND_BLOCKS:
            workers, block = entry.values
            if case != "d6_k100_trial_2_bins" or block is None or workers == 2:
                yield pytest.param(case, workers, block, id=f"{case}-{entry.id}")


def _set_block(monkeypatch, block):
    """Build blocks of ``block`` trials; None keeps the default size."""
    if block is not None:
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: block)


class TestBitExactness:
    """Gains and report digests frozen from one run of the model-seeded
    calibration on the trial stream's leading trials, sized by the standard
    error of their control-variate std, with the last section's unitary
    left out of the chain (numpy 2.4.6, OpenBLAS).  The build block size, the calibration memo
    and the worker count must not move a bit of them.  The digests belong
    to one numpy/LAPACK build: another build may round the QR or
    eigenvalues differently and needs them recorded afresh."""

    def test_d20_k5(self):
        res = run_ensemble(McConfig(ChannelSpec(20, 10.0, 5.0), sections=5,
                                    trials=200, seed=1))
        assert res.section_gain_db.hex() == "0x1.17f79cc8361b5p+1"
        assert res.calibration_trials_used == 64
        assert _sha256(res) == (
            "4c065879a7884078757c76ad3a2a4fe5eb675ab87303dcb8f6ef70beb06f327c")

    def test_d6_k100_trial_power_control(self):
        res = run_ensemble(McConfig(SPEC_D6, sections=100, trials=200, seed=3,
                                    power_control=POWER_CONTROL_TRIAL))
        assert res.section_gain_db.hex() == "0x1.0ba6118856540p-1"
        assert res.calibration_trials_used == 400
        assert _sha256(res) == (
            "dbda0ccb5afa95005b73a86748e3e98751c9340960e3df5668eb44a24a58d8c1")

    def test_memo_budget_exceeded(self, monkeypatch):
        # 7-trial chunks and a memo of three of them: the other chunks of
        # the calibration sample (400 trials: D = 4's pilot asks for more)
        # are rebuilt every round; at 15 dB the model seed misses
        # tolerance, so there are two rounds
        D, K = 4, 100
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 7)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 3 * 7 * K * D * D)
        memos = []
        original = mc.measure_ensemble_std

        def spy(*args, **kwargs):
            memos.append(kwargs["memo"])
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "measure_ensemble_std", spy)
        res = run_ensemble(McConfig(ChannelSpec(D, 10.0, 15.0), sections=K,
                                    trials=150, seed=5))
        assert len(memos) >= 2 and _held_trials(memos[-1]) == list(range(3 * 7))
        assert res.section_gain_db.hex() == "0x1.5c57f1fb31abdp+0"
        assert res.calibration_trials_used == 400
        assert _sha256(res) == (
            "568effc6ddba8c5150a1de38223334ec6fd9b7561e206dc932624e239875be22")

    @pytest.mark.parametrize("budget_chunks", [None, 2, 0])
    def test_memoised_objective_matches_fresh_draws(self, monkeypatch, budget_chunks):
        D, K = 6, 20
        if budget_chunks is not None:
            monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 10)
            monkeypatch.setattr(mc, "_CHUNK_BUDGET", budget_chunks * 10 * K * D * D)
        memo = []
        for g in (0.2, 0.45, 0.9):
            memoised = mc.measure_ensemble_std(D, K, [g], seed=4, trials=45,
                                               memo=memo)
            assert memoised == mc.measure_ensemble_std(D, K, [g], seed=4,
                                                       trials=45)
        # the default block is 91 trials, all held, so the memo holds it whole
        held = 91 if budget_chunks is None else budget_chunks * 10
        assert _held_trials(memo) == list(range(held))

    @pytest.mark.parametrize("workers, block", WORKERS_AND_BLOCKS)
    def test_digests_hold_for_any_worker_count(self, monkeypatch, workers, block):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        _set_block(monkeypatch, block)
        self.test_d20_k5()
        self.test_d6_k100_trial_power_control()
        self.test_memo_budget_exceeded(monkeypatch)


def _grid(case, sigmas=(2.5, 5.0, 7.5)):
    """The configs of one digest case over a sigma grid."""
    if case == "d20_k5":
        return [McConfig(ChannelSpec(20, 10.0, s), sections=5, trials=200, seed=1)
                for s in sigmas]
    if case == "d6_k100_trial_2_bins":
        return [McConfig(ChannelSpec(6, 10.0, s, freq_bins=2), sections=100,
                         trials=100, seed=3, power_control=POWER_CONTROL_TRIAL)
                for s in sigmas]
    return [McConfig(ChannelSpec(4, 10.0, s), sections=100, trials=150, seed=5)
            for s in sigmas]


def _rebuilt_chunks(monkeypatch, D=4, K=100):
    """7-trial chunks and a memo of three of them: the other 55 chunks of a
    400-trial calibration sample are rebuilt every round."""
    monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 7)
    monkeypatch.setattr(mc, "_CHUNK_BUDGET", 3 * 7 * K * D * D)


class TestRunEnsembles:
    """One oracle pass over a sigma grid equals a lone run of each member."""

    @pytest.mark.parametrize("case, workers, block", _lone_run_cases())
    def test_each_member_equals_a_lone_run(self, monkeypatch, case, workers, block):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        _set_block(monkeypatch, block)
        if case == "d4_k100_rebuilt_chunks":
            _rebuilt_chunks(monkeypatch)
        configs = _grid(case)
        lone = [_sha256(run_ensemble(c)) for c in configs]
        assert [_sha256(r) for r in run_ensembles(configs)] == lone

    def test_each_chunk_is_factored_once_per_round_for_the_whole_grid(self, monkeypatch):
        # D = 20, K = 5, seed 1 at a tolerance of 0.5 %: the sigmas' samples
        # take 184, 179 and 171 trials, and the memo holds 10-trial blocks
        # up to trial 180
        D, K, trials, chunk, held, tol = 20, 5, 200, 10, 18, 0.005
        hold = held * chunk
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: chunk)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", hold * (K - 1) * D * D)
        sigmas = (2.5, 5.0, 7.5)
        factored = []  # trials factored per calibration round, then by the trial pass
        widest = []  # the largest sample each round measures
        original_measure = mc.measure_ensemble_std
        original_calibrate = mc.calibrate_section_gain
        original_qr = np.linalg.qr

        def counted_measure(*args, **kwargs):
            factored.append(0)
            widest.append(max(args[4]))
            return original_measure(*args, **kwargs)

        def calibrate_then_count_the_trial_pass(*args, **kwargs):
            gains = original_calibrate(*args, **kwargs)
            factored.append(0)
            return gains

        def counted_qr(a, *args, **kwargs):
            factored[-1] += a.shape[0]
            return original_qr(a, *args, **kwargs)

        monkeypatch.setattr(mc, "measure_ensemble_std", counted_measure)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        lone_rounds = []
        for s in sigmas:
            factored.clear()
            mc.calibrate_section_gain(D, K, [s], 400, seed=1, tol=tol)
            lone_rounds.append(len(factored))
        factored.clear()
        widest.clear()
        monkeypatch.setattr(mc, "calibrate_section_gain",
                            calibrate_then_count_the_trial_pass)
        results = run_ensembles([McConfig(ChannelSpec(D, 10.0, s), sections=K,
                                          trials=trials, seed=1, calibration_tol=tol)
                                 for s in sigmas])
        sizes = [r.calibration_trials_used for r in results]
        rounds = len(factored) - 1
        assert rounds == max(lone_rounds) >= 3 and len(set(lone_rounds)) > 1
        assert min(sizes) < hold < max(sizes) < trials
        # each round builds whole the blocks below the memo's limit that its
        # widest sample touches and the memo lacks, and the trials of that
        # sample beyond the limit; the trial pass builds only trials beyond
        # both the smallest sample and the memo
        expected, top = [], 0  # the memo holds trials [0, top)
        for w in widest:
            whole = max(top, min(-(-w // chunk) * chunk, hold))
            expected.append(whole - top + max(0, w - hold))
            top = whole
        assert factored == expected + [trials - hold] == [70, 114, 0, 20]

    def test_trial_rows_reuse_the_last_calibration_measurement(self, monkeypatch):
        # D = 20, K = 5, two bins at a tolerance of 0.5 %: the sigmas'
        # samples take 86, 84 and 80 trials, so 85 trials reuse all of some
        # and part of others
        D, N, trials = 20, 2, 85
        last, rows = {}, []
        calibrate, aggregate = mc.calibrate_section_gain, mc._aggregate

        def keep_last(*args, spectra, **kwargs):
            out = calibrate(*args, spectra=spectra, **kwargs)
            last.update(spectra)
            return out

        def keep_rows(config, g_db, sized, lam_all, discarded):
            rows.append((g_db, sized[0], lam_all.reshape(-1, D).copy()))
            return aggregate(config, g_db, sized, lam_all, discarded)

        monkeypatch.setattr(mc, "calibrate_section_gain", keep_last)
        monkeypatch.setattr(mc, "_aggregate", keep_rows)
        run_ensembles([McConfig(ChannelSpec(D, 10.0, s, freq_bins=N), sections=5,
                                trials=trials, seed=1, calibration_tol=0.005)
                       for s in (2.5, 5.0, 7.5)])
        assert min(n for _, n, _ in rows) < trials < max(n for _, n, _ in rows)
        for i, (g, n, lam) in enumerate(rows):
            m = min(n, trials) * N
            assert last[i].shape == (n * N, D)
            assert np.array_equal(lam[:m], last[i][:m])
            # the rows a trial pass over every trial would give
            [full], _ = mc._spectra(D, 5, N, 1, [g], [0], [trials], POWER_CONTROL_ENSEMBLE)
            assert np.array_equal(lam, full)

    def test_trials_within_every_sample_are_not_simulated_again(self, monkeypatch):
        # D = 20, K = 5, seed 1: every sample has the pilot's 64 trials
        calibrate = mc.calibrate_section_gain

        def calibrate_then_forbid_factoring(*args, **kwargs):
            out = calibrate(*args, **kwargs)

            def forbidden(*args, **kwargs):
                raise AssertionError("the trial pass factored a matrix")

            monkeypatch.setattr(np.linalg, "qr", forbidden)
            monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
            return out

        monkeypatch.setattr(mc, "calibrate_section_gain", calibrate_then_forbid_factoring)
        results = run_ensembles([dataclasses.replace(c, trials=64) for c in _grid("d20_k5")])
        assert all(r.calibration_trials_used >= r.config.trials for r in results)

    def test_an_empty_trial_pass_inside_a_block_builds_nothing(self, monkeypatch):
        # 7-trial blocks and no memo: every sample's 64 trials end inside
        # block 9, which the empty trial pass must not build
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 7)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 0)
        self.test_trials_within_every_sample_are_not_simulated_again(monkeypatch)

    @pytest.mark.parametrize("change", [
        {"spec": ChannelSpec(4, 10.0, 5.0)},
        {"spec": ChannelSpec(6, 10.0, 5.0, freq_bins=2)},
        {"sections": 21}, {"seed": 1}, {"trials": 11},
        {"power_control": POWER_CONTROL_TRIAL},
        {"calibration_trials": 41}, {"calibration_tol": 0.02},
    ], ids=lambda change: next(iter(change)))
    def test_members_must_share_their_settings(self, change):
        base = McConfig(SPEC_D6, sections=20, trials=10, calibration_trials=40)
        with pytest.raises(ValueError, match="must share"):
            run_ensembles([base, dataclasses.replace(base, **change)])

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError):
            run_ensembles([])

    def test_zero_sigma_and_another_snr_in_one_pass(self):
        configs = [McConfig(ChannelSpec(4, snr, s), sections=20, trials=40, seed=2)
                   for snr, s in ((10.0, 0.0), (20.0, 5.0), (10.0, 5.0))]
        results = run_ensembles(configs)
        assert results[0].section_gain_db == 0.0 and results[0].total_var == 0.0
        assert [_sha256(r) for r in results] == [_sha256(run_ensemble(c))
                                                 for c in configs]

    def test_a_nan_step_does_not_disturb_its_neighbour(self, monkeypatch):
        # the 41 dB calibration measures NaN at its seed (see TestCalibration)
        # while the 5 dB one converges without
        configs = [McConfig(ChannelSpec(4, 10.0, s), sections=100, trials=20, seed=5)
                   for s in (41.0, 5.0)]
        lone = [calibrate_section_gain(4, 100, [s], 400, seed=5)[0][0] for s in (41.0, 5.0)]
        measured = []
        original = mc.measure_ensemble_std

        def spy(*args, **kwargs):
            stds = original(*args, **kwargs)
            measured.extend(stds)
            return stds

        monkeypatch.setattr(mc, "measure_ensemble_std", spy)
        results = run_ensembles(configs)
        assert any(math.isnan(v) for v in measured)
        assert [r.section_gain_db for r in results] == lone
        monkeypatch.undo()
        assert [_sha256(r) for r in results] == [_sha256(run_ensemble(c))
                                                 for c in configs]


def test_calibrating_on_the_trials_does_not_bias_the_total_variance():
    # Reference: ln total_var over seeds 1000-1039 at D = 20, K = 5,
    # sigma = 7.5 dB, 200 trials, with each gain calibrated on its own
    # Philox stream (spawn-key kind 1), which shares no draw with the
    # trials: mean 0.345939, standard error 0.015818 (numpy 2.4.6).  Taking
    # the calibration sample from the reported trials themselves must not
    # move the mean by more than 3 standard errors.
    ref_mean, ref_se = 0.345938644095704, 0.015818171389302586
    logs = [math.log(run_ensemble(McConfig(ChannelSpec(20, 10.0, 7.5), sections=5,
                                           trials=200, seed=seed)).total_var)
            for seed in range(1000, 1040)]
    assert abs(np.mean(logs) - ref_mean) <= 3.0 * ref_se


class TestMapPieces:
    def test_pieces_cover_the_range_in_order(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 3)
        assert mc._map_pieces(lambda a, b: (a, b), 3, 10, 1) == [(3, 5), (5, 7), (7, 10)]

    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(0, 300), length=st.integers(1, 300), size=st.integers(1, 64),
           workers=st.integers(1, 4))
    def test_pieces_are_cut_at_block_boundaries(self, lo, length, size, workers):
        hi = lo + length
        main = threading.get_ident()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_worker_count", lambda: workers)
            pieces = mc._map_pieces(lambda a, b: (a, b, threading.get_ident()), lo, hi, size)
        bounds = [lo] + [b for _, b, _ in pieces]
        assert [(a, b) for a, b, _ in pieces] == list(zip(bounds[:-1], bounds[1:]))
        assert all(a < b for a, b, _ in pieces) and bounds[-1] == hi
        assert all(b % size == 0 for b in bounds[1:-1])
        assert len(pieces) <= min(workers, -(-hi // size) - lo // size)
        if len(pieces) == 1:
            assert pieces[0][2] == main

    @pytest.mark.parametrize("workers, lo, hi", [(1, 0, 10), (4, 5, 6)])
    def test_single_piece_runs_inline(self, monkeypatch, workers, lo, hi):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        main = threading.get_ident()
        assert mc._map_pieces(lambda a, b: threading.get_ident(), lo, hi, 1) == [main]

    def test_caller_runs_the_first_piece_and_the_pool_the_rest(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        main = threading.get_ident()
        first, second = mc._map_pieces(lambda a, b: threading.get_ident(), 0, 4, 1)
        assert first == main != second

    def test_failing_piece_waits_for_the_others(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        finished = []

        def piece(a, b):
            if a == 0:
                raise ValueError("first piece")
            time.sleep(0.2)
            finished.append(a)

        with pytest.raises(ValueError):
            mc._map_pieces(piece, 0, 4, 1)
        assert finished == [2]

    def test_pool_is_made_once(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        mc._map_pieces(lambda a, b: None, 0, 2, 1)
        pool = mc._executor()
        assert mc._map_pieces(lambda a, b: b - a, 0, 5, 1) == [2, 3]
        assert mc._executor() is pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
    def test_forked_child_gets_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        mc._map_pieces(lambda a, b: None, 0, 2, 1)  # the parent's pool exists
        pid = os.fork()
        if pid == 0:  # child: the inherited executor has no threads
            signal.alarm(30)
            ok = False
            try:
                ok = mc._map_pieces(lambda a, b: b - a, 0, 4, 1) == [2, 2]
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_analytic_report_starts_no_thread(self):
        code = (
            "import io, sys, threading\n"
            "from contextlib import redirect_stdout\n"
            "from sdmcap import cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    cli.main(['analytic', '--modes', '6', '--snr-db', '10',\n"
            "              '--sigma-mdg-db', '5'])\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        src = os.path.dirname(os.path.dirname(mc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True, env=env)
        assert out.stdout.split() == ["False", "1"]


class TestCalibrationMemo:
    @pytest.mark.parametrize("budget_chunks", [None, 2])
    def test_each_memoised_chunk_is_factored_once(self, monkeypatch, budget_chunks):
        D, K, trials, chunk = 6, 20, 40, 10
        if budget_chunks is not None:
            monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: chunk)
            monkeypatch.setattr(mc, "_CHUNK_BUDGET", budget_chunks * chunk * K * D * D)
        factored = []  # trials whose Haar factors each evaluation computes
        original_measure = mc.measure_ensemble_std

        def counted_measure(*args, **kwargs):
            factored.append(0)
            return original_measure(*args, **kwargs)

        original_qr = np.linalg.qr

        def counted_qr(a, *args, **kwargs):
            factored[-1] += a.shape[0]
            return original_qr(a, *args, **kwargs)

        monkeypatch.setattr(mc, "measure_ensemble_std", counted_measure)
        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        # 20 dB: the model seed measures 19.47 dB, outside tolerance
        calibrate_section_gain(D, K, [20.0], trials, seed=1)
        n = len(factored)
        assert n >= 2
        if budget_chunks is None:
            # one default block of 91 trials, built whole and held
            assert factored == [91] + [0] * (n - 1)
        else:
            recomputed = trials // chunk - budget_chunks
            assert factored == [trials] + [chunk * recomputed] * (n - 1)

    def test_a_failed_build_ends_the_held_prefix(self, monkeypatch):
        # 10-trial chunks and a budget of three: the second chunk's build
        # fails once, so only the first is held; the next call holds three
        D, K, chunk = 6, 20, 10
        monkeypatch.setattr(mc, "_worker_count", lambda: 1)
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: chunk)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 3 * chunk * K * D * D)
        expected = mc.measure_ensemble_std(D, K, [0.5], seed=3, trials=40)
        original = mc._haar_factors
        builds = itertools.count()

        def second_build_fails(D, K, rngs):
            if len(rngs) > 1 and next(builds) == 1:
                raise np.linalg.LinAlgError("one failure")
            return original(D, K, rngs)

        monkeypatch.setattr(mc, "_haar_factors", second_build_fails)
        memo = []
        assert mc.measure_ensemble_std(D, K, [0.5], seed=3, trials=40, memo=memo) == expected
        assert _held_trials(memo) == list(range(chunk))
        assert mc.measure_ensemble_std(D, K, [0.5], seed=3, trials=40, memo=memo) == expected
        assert _held_trials(memo) == list(range(3 * chunk))

    @pytest.mark.parametrize("block, bins", [(None, 1), (7, 2)])
    def test_memo_holds_whole_blocks_from_trial_0(self, monkeypatch, block, bins):
        # D = 6, K = 20: the 45-trial sample ends inside a block, of the
        # default 91 (one bin) or of 7 trials; the memo holds every block it
        # touches, whole
        D, K, trials = 6, 20, 45
        _set_block(monkeypatch, block)
        size = mc._chunk_size(D, K, bins)
        memo = []
        calibrate_section_gain(D, K, [5.0], trials, seed=1, bins=bins, memo=memo)
        assert trials % size and len(memo) == -(-trials // size)
        assert _held_trials(memo, bins) == list(range(len(memo) * size))

    def test_memo_holds_at_most_one_chunk_budget(self):
        # D = 40, K = 100: 25 trials fill the budget, so it holds three
        # whole 8-trial blocks; trials 24 and 25 are rebuilt
        memo = []
        mc.measure_ensemble_std(40, 100, [0.5], seed=0, trials=26, memo=memo)
        assert _held_trials(memo) == list(range(24))
        assert 24 * (100 - 1) * 40 * 40 <= mc._CHUNK_BUDGET  # K - 1 unitaries

    def test_chunk_above_budget_is_not_held(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 100)  # below one D = 6 trial
        memo = []
        mc.measure_ensemble_std(6, 20, [0.5], seed=0, trials=3, memo=memo)
        assert _held_trials(memo) == []


def test_trial_pass_memory_does_not_grow_with_its_trials(monkeypatch):
    # D = 6, K = 100: a worker holds a block or two whatever its trial
    # count, so ten times the trials peak higher only by the larger output
    monkeypatch.setattr(mc, "_worker_count", lambda: 1)
    D, K = 6, 100

    def peak(trials):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mc._spectra(D, K, 1, 0, [0.5], [0], [trials], POWER_CONTROL_ENSEMBLE)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(40)  # warm-up
        small, large = peak(40), peak(400)
    finally:
        tracemalloc.stop()
    assert large <= small + (400 - 40) * D * 8 + (64 << 10)


def _trial_gains(K, g_db, trial, power_control=POWER_CONTROL_TRIAL):
    """Sorted linear gains of one trial stream of the D = 6 case study."""
    factors = mc._haar_factors(6, K, [mc._rng(0, trial)])
    return mc._section_gains(factors, g_db, power_control)[0]


class TestRunTrial:
    """Single realizations: ``_haar_factors`` and ``_section_gains`` on one
    trial stream."""

    def test_trial_power_control_pins_linear_sum(self):
        assert abs(_trial_gains(100, 0.5, 0).sum() - 6.0) < 1e-9

    def test_ensemble_power_control_pins_log_sum(self):
        lam = _trial_gains(100, 0.5, 0, POWER_CONTROL_ENSEMBLE)
        assert abs(10.0 * np.log10(lam).sum()) < 1e-8

    def test_zero_gain_is_flat(self):
        lam = _trial_gains(20, 0.0, 1)
        assert np.abs(10.0 * np.log10(lam)).max() < 1e-10
        assert np.log2(1.0 + SPEC_D6.snr_linear * lam).sum() == pytest.approx(
            6 * math.log2(11.0), abs=1e-9)

    def test_total_is_sum_of_capacities(self, small_ensemble):
        np.testing.assert_allclose(small_ensemble.total_samples,
                                   small_ensemble.cap_samples.sum(axis=1),
                                   rtol=0, atol=1e-12)

    def test_gains_sorted_ascending(self):
        lam = _trial_gains(100, 0.5, 3)
        assert list(lam) == sorted(lam)


class TestEmpiricalCorrelation:
    def test_diagonal_and_symmetry(self, small_ensemble):
        corr = empirical_correlation(small_ensemble.cap_samples)
        assert np.abs(np.diagonal(corr) - 1.0).max() <= 1e-12
        assert np.abs(corr - corr.T).max() <= 1e-12

    def test_rejects_single_trial(self):
        with pytest.raises(ValueError):
            empirical_correlation(np.ones((1, 4)))

    def test_rejects_zero_variance_mode(self):
        caps = np.random.default_rng(0).standard_normal((10, 3))
        caps[:, 1] = 2.0
        with pytest.raises(SdmCapError):
            empirical_correlation(caps)


class TestRunEnsemble:
    def test_total_mean_is_exact_sample_mean(self, small_ensemble):
        assert small_ensemble.total_mean == float(
            np.mean(small_ensemble.total_samples))

    def test_ensemble_shift_pins_mean_linear_gain(self, small_ensemble):
        lam = 10.0 ** (np.asarray(small_ensemble.gain_samples) / 10.0)
        assert float(lam.mean()) == pytest.approx(1.0, abs=1e-12)
        assert small_ensemble.ensemble_shift_db != 0.0

    def test_trial_mode_keeps_fixed_trace(self):
        res = run_ensemble(McConfig(SPEC_D6, trials=50, seed=4,
                                    power_control=POWER_CONTROL_TRIAL))
        sums = (10.0 ** (np.asarray(res.gain_samples) / 10.0)).sum(axis=1)
        assert np.abs(sums - 6.0).max() < 1e-9
        assert res.ensemble_shift_db == 0.0

    def test_determinism_and_chunk_independence(self, small_ensemble, monkeypatch):
        again = run_ensemble(McConfig(SPEC_D6, trials=400, seed=21))
        assert result_to_json(again) == result_to_json(small_ensemble)
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 7)
        chunked = run_ensemble(McConfig(SPEC_D6, trials=400, seed=21))
        assert result_to_json(chunked) == result_to_json(small_ensemble)

    def test_zero_sigma_shortcut(self):
        res = run_ensemble(McConfig(ChannelSpec(4, 10.0, 0.0), trials=10, seed=0))
        assert res.total_var == 0.0
        assert res.total_mean == pytest.approx(4 * math.log2(11.0), abs=1e-12)

    def test_partly_varying_modes_give_a_total_but_no_report(self):
        # one mode's capacity varies, the other's does not: fit and sweep
        # read only the total variance; the report's correlation is undefined
        res = run_ensemble(McConfig(ChannelSpec(2, 10.0, 1e-15), sections=1, trials=2,
                                    seed=2, calibration_trials=40))
        spread = res.cap_samples.std(axis=0)
        assert np.any(spread == 0.0) and np.any(spread > 0.0)
        assert math.isfinite(res.total_var)
        with pytest.raises(SdmCapError, match="zero variance in a mode"):
            result_to_json(res)

    def test_case_study_capacity_means(self):
        # analytic per-mode means are density modes; the simulated sample
        # means of the upper modes sit slightly above them because the
        # per-mode distributions are right-skewed, so the tolerance here is
        # wider than the per-mode-parameter accuracy itself
        res = run_ensemble(McConfig(SPEC_D6, trials=1000, seed=17))
        expected = [1.022, 1.653, 2.330, 3.067, 3.887, 4.865]
        diffs = np.abs(res.cap_samples.mean(axis=0) - np.array(expected))
        assert diffs.max() < 0.08

    def test_freq_bins_average_reduces_spread(self):
        res1 = run_ensemble(McConfig(SPEC_D6, trials=400, seed=8))
        res2 = run_ensemble(McConfig(ChannelSpec(6, 10.0, 5.0, freq_bins=2),
                                     trials=400, seed=8))
        assert res2.total_var < res1.total_var

    def test_single_bad_draw_is_discarded(self, monkeypatch):
        _calibrated_at(monkeypatch, 0.5)
        original = mc._haar_factors
        state = {"rows": 0}

        def flaky(D, K, rngs):
            if len(rngs) > 1:
                raise np.linalg.LinAlgError("batch failure")
            state["rows"] += 1
            if state["rows"] == 3:
                raise np.linalg.LinAlgError("row failure")
            return original(D, K, rngs)

        monkeypatch.setattr(mc, "_haar_factors", flaky)
        res = run_ensemble(McConfig(SPEC_D6, trials=300, seed=2))
        assert res.discarded_trials == 1
        assert len(res.total_samples) == 299

    def test_csv_rows_keep_their_trial_index_after_a_discard(self, monkeypatch):
        # under per-trial power control each kept trial's row is the one a
        # run without the failure gives that trial
        _calibrated_at(monkeypatch, 0.5)
        config = McConfig(SPEC_D6, trials=300, seed=2, power_control=POWER_CONTROL_TRIAL)
        clean = result_to_csv_rows(run_ensemble(config))
        original = mc._haar_factors
        state = {"rows": 0}

        def flaky(D, K, rngs):
            if len(rngs) > 1:
                raise np.linalg.LinAlgError("batch failure")
            state["rows"] += 1
            if state["rows"] == 3:
                raise np.linalg.LinAlgError("row failure")
            return original(D, K, rngs)

        monkeypatch.setattr(mc, "_haar_factors", flaky)
        res = run_ensemble(config)
        assert len(res.discarded) == res.discarded_trials == 1
        (lost,) = res.discarded
        assert lost < 299  # so that a later row would carry a shifted index
        assert result_to_csv_rows(res) == clean[:lost] + clean[lost + 1:]

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan])
    def test_non_positive_spectrum_is_discarded(self, monkeypatch, bad):
        _calibrated_at(monkeypatch, 0.5)
        original = mc._gains_from_channels
        calls = itertools.count()

        def one_bad_row(h, D, power_control=POWER_CONTROL_ENSEMBLE):
            lam = original(h, D, power_control)
            if next(calls) == 0:
                lam[0, 0] = bad
            return lam

        monkeypatch.setattr(mc, "_gains_from_channels", one_bad_row)
        res = run_ensemble(McConfig(SPEC_D6, trials=300, seed=2))
        assert res.discarded_trials == 1
        assert len(res.total_samples) == 299
        assert np.isfinite(res.gain_samples).all()

    def test_non_positive_spectra_beyond_one_percent_raise(self, monkeypatch):
        _calibrated_at(monkeypatch, 0.5)
        original = mc._gains_from_channels

        def all_bad(h, D, power_control=POWER_CONTROL_ENSEMBLE):
            lam = original(h, D, power_control)
            lam[:, 0] = -1.0
            return lam

        monkeypatch.setattr(mc, "_gains_from_channels", all_bad)
        with pytest.raises(EnsembleError):
            run_ensemble(McConfig(SPEC_D6, trials=50, seed=2))

    def test_too_many_discards_raise(self, monkeypatch):
        _calibrated_at(monkeypatch, 0.5)

        def broken(D, K, rngs):
            raise np.linalg.LinAlgError("always")

        monkeypatch.setattr(mc, "_haar_factors", broken)
        with pytest.raises(EnsembleError):
            run_ensemble(McConfig(SPEC_D6, trials=50, seed=2))


def _calibrated_at(monkeypatch, g_db):
    """Skip calibration: every target gets the per-section gain ``g_db``,
    measured over no trials."""
    def calibrate(D, K, targets, *args, spectra=None, **kwargs):
        if spectra is not None:
            spectra.update((i, np.empty((0, D))) for i in range(len(targets)))
        return [g_db] * len(targets), [(0, None)] * len(targets)

    monkeypatch.setattr(mc, "calibrate_section_gain", calibrate)


def _reject_non_finite(token):
    raise AssertionError(f"non-finite number {token} in the result")


class TestRunEnsembleProperties:
    @settings(max_examples=40, deadline=None)
    @given(D=st.integers(2, 8), sigma=st.floats(0.0, 12.0, exclude_min=True),
           K=st.integers(1, 6), trials=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1),
           pc=st.sampled_from([POWER_CONTROL_ENSEMBLE, POWER_CONTROL_TRIAL]))
    def test_result_is_finite_or_a_typed_error(self, D, sigma, K, trials, seed, pc):
        config = McConfig(ChannelSpec(D, 10.0, sigma), sections=K, trials=trials,
                          seed=seed, calibration_trials=40, power_control=pc)
        try:
            res = run_ensemble(config)
            report = result_to_json(res)
        except SdmCapError:
            return
        json.loads(report, parse_constant=_reject_non_finite)
        assert np.isfinite(res.gain_samples).all()
        assert np.isfinite(res.cap_samples).all()


class TestRunEnsemblesProperties:
    @settings(max_examples=40, deadline=None)
    @given(D=st.integers(2, 8), sigmas=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4),
           K=st.integers(1, 6), trials=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1),
           pc=st.sampled_from([POWER_CONTROL_ENSEMBLE, POWER_CONTROL_TRIAL]))
    def test_grid_equals_lone_runs(self, D, sigmas, K, trials, seed, pc):
        configs = [McConfig(ChannelSpec(D, 10.0, s), sections=K, trials=trials,
                            seed=seed, calibration_trials=40, power_control=pc)
                   for s in sigmas]
        lone = []
        for config in configs:
            try:
                lone.append(result_to_json(run_ensemble(config)))
            except SdmCapError as exc:
                lone.append(type(exc))
        try:
            grid = [result_to_json(r) for r in run_ensembles(configs)]
        except SdmCapError as exc:
            assert type(exc) in lone  # the error a lone run of a member raises
            return
        assert grid == lone


class TestSerialization:
    def test_json_payload_shape(self, small_ensemble):
        payload = json.loads(result_to_json(small_ensemble))
        assert payload["schema"] == 1
        assert payload["config"]["mode_count"] == 6
        assert payload["config"]["power_control"] == POWER_CONTROL_ENSEMBLE
        assert len(payload["per_mode_cap_mean_bits_per_s_per_hz"]) == 6
        assert len(payload["total_samples"]) == 400
        assert payload["calibration_trials_used"] == 400  # D = 6 needs more
        assert 0.0 < payload["calibration_rel_se"] < 0.01
        assert len(payload["gain_histogram"]["edges"]) == \
            len(payload["gain_histogram"]["counts"]) + 1

    def test_histogram_of_a_range_narrower_than_its_bins(self):
        # three adjacent floats cannot hold 80 distinct bin edges
        values = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)])
        hist = mc._histogram(values, 80)
        assert len(hist["edges"]) == 81 and sum(hist["counts"]) == 3
        assert np.all(np.diff(hist["edges"]) > 0)

    def test_csv_rows_shape(self, small_ensemble):
        rows = result_to_csv_rows(small_ensemble)
        assert len(rows) == 400
        assert all(len(r) == 2 * 6 + 2 for r in rows)
        assert rows[0][0] == 0
