import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

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
    run_trial,
)

SPEC_D6 = ChannelSpec(6, 10.0, 5.0)


@pytest.fixture(scope="module")
def small_ensemble():
    return run_ensemble(McConfig(SPEC_D6, trials=400, seed=21))


class TestMcConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, trials=0)
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, sections=0)
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, calibration_tol=0.5)
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, freq_bins=0)
        with pytest.raises(ValueError):
            McConfig(SPEC_D6, power_control="per-section")

    def test_freq_bins_falls_back_to_spec(self):
        assert McConfig(ChannelSpec(6, 10.0, 5.0, freq_bins=3)).effective_freq_bins == 3
        assert McConfig(SPEC_D6, freq_bins=2).effective_freq_bins == 2


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


class TestCalibration:
    def test_zero_target_gives_zero_gain(self):
        assert calibrate_section_gain(ChannelSpec(6, 10.0, 0.0), 100, 50, 0) == 0.0

    def test_hits_target_within_tolerance(self):
        g = calibrate_section_gain(SPEC_D6, 100, 400, seed=1)
        std = mc.measure_ensemble_std(SPEC_D6, 100, g, seed=1, trials=400)
        assert 4.95 <= std <= 5.05

    def test_steps_back_from_a_nan_measurement(self, monkeypatch):
        # the objective crosses 20 dB between g = 1.6 (18.8 dB) and 1.8
        # (22.4 dB); the second secant point, g = 2.6, loses positivity of
        # the spectrum and measures NaN
        spec = ChannelSpec(4, 10.0, 20.0)
        measured = []
        original = mc.measure_ensemble_std

        def spy(*args, **kwargs):
            measured.append(original(*args, **kwargs))
            return measured[-1]

        monkeypatch.setattr(mc, "measure_ensemble_std", spy)
        g = calibrate_section_gain(spec, 100, 400, seed=1)
        assert any(math.isnan(v) for v in measured)
        assert abs(measured[-1] - 20.0) <= 0.01 * 20.0
        assert measured[-1] == original(spec, 100, g, seed=1, trials=400)

    def test_failure_reports_the_evaluations_made(self):
        # two starting points, then two secant steps
        with pytest.raises(CalibrationError, match=r"in 4 evaluations"):
            calibrate_section_gain(SPEC_D6, 20, 40, seed=1, tol=1e-12, max_iter=2)

    def test_monotone_in_target(self):
        gains = [
            calibrate_section_gain(ChannelSpec(6, 10.0, t), 100, 200, seed=1)
            for t in (2.0, 4.0, 6.0)
        ]
        assert gains[0] < gains[1] < gains[2]


def _sha256(result):
    return hashlib.sha256(result_to_json(result).encode()).hexdigest()


def _held_trials(memo):
    """Calibration trials whose Haar factors a memo holds, in order."""
    return sorted(t for lo, hi in memo for t in range(lo, hi))


class TestBitExactness:
    """Values frozen from the kernel that redrew and refactorised the Haar
    sample at every secant step; reusing it must not move a bit.  The
    digests belong to one numpy/LAPACK build: another build may round the
    QR or eigenvalues differently and needs them recorded afresh."""

    def test_d20_k5(self):
        res = run_ensemble(McConfig(ChannelSpec(20, 10.0, 5.0), sections=5,
                                    trials=200, seed=1))
        assert res.section_gain_db.hex() == "0x1.1e3779b97f4a8p+1"
        assert _sha256(res) == (
            "5213dbaaf892dbcec501e91148b10f8255a78582621f64ef665576e29431d0d0")

    def test_d6_k100_trial_power_control(self):
        res = run_ensemble(McConfig(SPEC_D6, sections=100, trials=200, seed=3,
                                    power_control=POWER_CONTROL_TRIAL))
        assert res.section_gain_db.hex() == "0x1.0921b0f6f4e1ap-1"
        assert _sha256(res) == (
            "ab772db3a4bb11687cdd5b9cc375b219cbe89f4d56450ffef393a6ab25d805a4")

    def test_memo_budget_exceeded(self, monkeypatch):
        # 7-trial chunks and a memo of three of them: the other 55 chunks of
        # the 400-trial calibration sample are rebuilt at every secant step
        D, K = 4, 100
        monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 7)
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 3 * 7 * K * D * D)
        memos = []
        original = mc.measure_ensemble_std

        def spy(*args, **kwargs):
            memos.append(kwargs["memo"])
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "measure_ensemble_std", spy)
        res = run_ensemble(McConfig(ChannelSpec(D, 10.0, 5.0), sections=K,
                                    trials=150, seed=5))
        assert len(memos) >= 2 and _held_trials(memos[-1]) == list(range(3 * 7))
        assert res.section_gain_db.hex() == "0x1.1b22093cb434cp-1"
        assert _sha256(res) == (
            "1e4893ae394a50301221ff6c07efbfaceb6acbf78f18cc1fce0a294a061a03f1")

    @pytest.mark.parametrize("budget_chunks", [None, 2, 0])
    def test_memoised_objective_matches_fresh_draws(self, monkeypatch, budget_chunks):
        D, K = 6, 20
        if budget_chunks is not None:
            monkeypatch.setattr(mc, "_chunk_size", lambda D, K, bins: 10)
            monkeypatch.setattr(mc, "_CHUNK_BUDGET", budget_chunks * 10 * K * D * D)
        memo = {}
        for g in (0.2, 0.45, 0.9):
            memoised = mc.measure_ensemble_std(SPEC_D6, K, g, seed=4, trials=45,
                                               memo=memo)
            assert memoised == mc.measure_ensemble_std(SPEC_D6, K, g, seed=4,
                                                       trials=45)
        held = 45 if budget_chunks is None else budget_chunks * 10
        assert _held_trials(memo) == list(range(held))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_digests_hold_for_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        self.test_d20_k5()
        self.test_d6_k100_trial_power_control()
        self.test_memo_budget_exceeded(monkeypatch)


class TestMapPieces:
    def test_pieces_cover_the_range_in_order(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 3)
        assert mc._map_pieces(lambda a, b: (a, b), 3, 10) == [(3, 5), (5, 7), (7, 10)]

    @pytest.mark.parametrize("workers, lo, hi", [(1, 0, 10), (4, 5, 6)])
    def test_single_piece_runs_inline(self, monkeypatch, workers, lo, hi):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        main = threading.get_ident()
        assert mc._map_pieces(lambda a, b: threading.get_ident(), lo, hi) == [main]

    def test_caller_runs_the_first_piece_and_the_pool_the_rest(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        main = threading.get_ident()
        first, second = mc._map_pieces(lambda a, b: threading.get_ident(), 0, 4)
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
            mc._map_pieces(piece, 0, 4)
        assert finished == [2]

    def test_pool_is_made_once(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        mc._map_pieces(lambda a, b: None, 0, 2)
        pool = mc._executor()
        assert mc._map_pieces(lambda a, b: b - a, 0, 5) == [2, 3]
        assert mc._executor() is pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
    def test_forked_child_gets_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        mc._map_pieces(lambda a, b: None, 0, 2)  # the parent's pool exists
        pid = os.fork()
        if pid == 0:  # child: the inherited executor has no threads
            signal.alarm(30)
            ok = False
            try:
                ok = mc._map_pieces(lambda a, b: b - a, 0, 4) == [2, 2]
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
        calibrate_section_gain(SPEC_D6, K, trials, seed=1)
        n = len(factored)
        assert n >= 2
        if budget_chunks is None:
            assert factored == [trials] + [0] * (n - 1)  # one chunk, held
        else:
            recomputed = trials // chunk - budget_chunks
            assert factored == [trials] + [chunk * recomputed] * (n - 1)

    def test_memo_holds_at_most_one_chunk_budget(self):
        # D = 40, K = 100: 25 trials fill the budget; the 26th is rebuilt
        memo = {}
        spec = ChannelSpec(40, 10.0, 5.0)
        mc.measure_ensemble_std(spec, 100, 0.5, seed=0, trials=26, memo=memo)
        held = sum(q.size for q, _ in memo.values())
        assert _held_trials(memo) == list(range(25))
        assert held == 25 * 100 * 40 * 40 <= mc._CHUNK_BUDGET

    def test_chunk_above_budget_is_not_held(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_BUDGET", 100)  # below one D = 6 trial
        memo = {}
        mc.measure_ensemble_std(SPEC_D6, 20, 0.5, seed=0, trials=3, memo=memo)
        assert memo == {}


class TestRunTrial:
    def test_trial_power_control_pins_linear_sum(self):
        g, caps, tot = run_trial(SPEC_D6, 100, 0.5, mc._rng(0, 0, 0))
        assert abs((10.0 ** (np.array(g) / 10.0)).sum() - 6.0) < 1e-9

    def test_ensemble_power_control_pins_log_sum(self):
        g, caps, tot = run_trial(SPEC_D6, 100, 0.5, mc._rng(0, 0, 0),
                                 power_control=POWER_CONTROL_ENSEMBLE)
        assert abs(np.array(g).sum()) < 1e-8

    def test_zero_gain_is_flat(self):
        g, caps, tot = run_trial(SPEC_D6, 20, 0.0, mc._rng(0, 0, 1))
        assert np.abs(np.array(g)).max() < 1e-10
        assert tot == pytest.approx(6 * math.log2(11.0), abs=1e-9)

    def test_total_is_sum_of_capacities(self):
        _, caps, tot = run_trial(SPEC_D6, 100, 0.5, mc._rng(0, 0, 2))
        assert tot == pytest.approx(float(np.sum(caps)), abs=1e-12)

    def test_gains_sorted_ascending(self):
        g, _, _ = run_trial(SPEC_D6, 100, 0.5, mc._rng(0, 0, 3))
        assert list(g) == sorted(g)


class TestEmpiricalCorrelation:
    def test_diagonal_and_symmetry(self, small_ensemble):
        corr = np.array(small_ensemble.cap_correlation)
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

    def test_case_study_capacity_means(self):
        # analytic per-mode means are density modes; the simulated sample
        # means of the upper modes sit slightly above them because the
        # per-mode distributions are right-skewed, so the tolerance here is
        # wider than the per-mode-parameter accuracy itself
        res = run_ensemble(McConfig(SPEC_D6, trials=1000, seed=17))
        expected = [1.022, 1.653, 2.330, 3.067, 3.887, 4.865]
        diffs = np.abs(np.array(res.per_mode_cap_mean) - np.array(expected))
        assert diffs.max() < 0.08

    def test_freq_bins_average_reduces_spread(self):
        res1 = run_ensemble(McConfig(SPEC_D6, trials=400, seed=8))
        res2 = run_ensemble(McConfig(SPEC_D6, trials=400, seed=8, freq_bins=2))
        assert res2.total_var < res1.total_var

    def test_single_bad_draw_is_discarded(self, monkeypatch):
        monkeypatch.setattr(mc, "calibrate_section_gain",
                            lambda *a, **k: 0.5)
        original = mc._batch_gains
        state = {"rows": 0}

        def flaky(spec, K, g_db, rngs, power_control=POWER_CONTROL_ENSEMBLE):
            if len(rngs) > 1:
                raise np.linalg.LinAlgError("batch failure")
            state["rows"] += 1
            if state["rows"] == 3:
                raise np.linalg.LinAlgError("row failure")
            return original(spec, K, g_db, rngs, power_control)

        monkeypatch.setattr(mc, "_batch_gains", flaky)
        res = run_ensemble(McConfig(SPEC_D6, trials=300, seed=2))
        assert res.discarded_trials == 1
        assert len(res.total_samples) == 299

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan])
    def test_non_positive_spectrum_is_discarded(self, monkeypatch, bad):
        monkeypatch.setattr(mc, "calibrate_section_gain",
                            lambda *a, **k: 0.5)
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
        monkeypatch.setattr(mc, "calibrate_section_gain",
                            lambda *a, **k: 0.5)
        original = mc._gains_from_channels

        def all_bad(h, D, power_control=POWER_CONTROL_ENSEMBLE):
            lam = original(h, D, power_control)
            lam[:, 0] = -1.0
            return lam

        monkeypatch.setattr(mc, "_gains_from_channels", all_bad)
        with pytest.raises(EnsembleError):
            run_ensemble(McConfig(SPEC_D6, trials=50, seed=2))

    def test_too_many_discards_raise(self, monkeypatch):
        monkeypatch.setattr(mc, "calibrate_section_gain",
                            lambda *a, **k: 0.5)

        def broken(spec, K, g_db, rngs, power_control=POWER_CONTROL_ENSEMBLE):
            raise np.linalg.LinAlgError("always")

        monkeypatch.setattr(mc, "_batch_gains", broken)
        with pytest.raises(EnsembleError):
            run_ensemble(McConfig(SPEC_D6, trials=50, seed=2))


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
        except SdmCapError:
            return
        json.loads(result_to_json(res), parse_constant=_reject_non_finite)
        assert np.isfinite(res.gain_samples).all()
        assert np.isfinite(res.cap_samples).all()


class TestSerialization:
    def test_json_payload_shape(self, small_ensemble):
        payload = json.loads(result_to_json(small_ensemble))
        assert payload["schema"] == 1
        assert payload["config"]["mode_count"] == 6
        assert payload["config"]["power_control"] == POWER_CONTROL_ENSEMBLE
        assert len(payload["per_mode_cap_mean_bits_per_s_per_hz"]) == 6
        assert len(payload["total_samples"]) == 400
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
