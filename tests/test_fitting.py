import math

import pytest

from sdmcap import fitting
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.errors import FitError
from sdmcap.mc import McConfig, run_ensembles
from sdmcap.total import CorrelationModel, variance_terms

GAMMA0 = 0.43513127
GAMMA1 = 3.758373e-5
GRID = [1.0, 2.5, 5.0, 7.5]

# float.hex of gamma0, gamma1 and the analytic variances that ``fit`` gives
# for fixed synthetic oracle variances on the grid 2.5, 5, 7.5 dB at 10 dB
# SNR, frozen so that a rewrite of the variance formula or of the search
# changes no bit.  Both were last re-frozen when ``variance_terms`` moved
# from adding the D^2 terms of A to a one-pass recurrence, which moved A by
# a few ulps towards its exact value; on the flat minimum of the
# golden-section search gamma0 moved up to 6.1e-11 and gamma1 up to 2.1e-8
# relative, and the variances up to 8.3e-10
FROZEN_FITS = {
    4: ([0.07, 0.27, 0.55], "0x1.0558d420ab8dcp-1", "0x1.67a306f2ff55ep-15",
        ["0x1.1eb851eb851ecp-4", "0x1.03ca3d60ed934p-2", "0x1.21edcd6f01f2bp-1"]),
    20: ([0.075, 0.22, 0.39], "0x1.94007852220bcp-5", "0x1.8dd284baa1691p-14",
         ["0x1.3333333333333p-4", "0x1.d8800bdda1b5bp-3", "0x1.89407b9d45a94p-2"]),
}


def analytic_variances(D, snr_db, sigmas, gamma0, gamma1):
    model = CorrelationModel(gamma0, gamma1, D=D, snr_db=snr_db)
    out = []
    for s in sigmas:
        a, b = variance_terms(per_mode_stats(ChannelSpec(D, snr_db, s)).cap_sigmas)
        out.append(a + b * model.combined_coefficient(s))
    return out


class TestMsle:
    def test_identical_sequences(self):
        assert fitting.msle([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_log_unit(self):
        assert fitting.msle([math.e], [1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_value(self):
        expected = (math.log(4.0) ** 2 + math.log(9.0) ** 2) / 2.0
        assert fitting.msle([4.0, 9.0], [1.0, 1.0]) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(3.375, abs=0.001)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fitting.msle([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fitting.msle([], [])
        with pytest.raises(ValueError):
            fitting.msle([0.0], [1.0])
        with pytest.raises(ValueError):
            fitting.msle([1.0], [-1.0])


class TestFit:
    def test_recovers_synthetic_coefficients(self):
        synth = analytic_variances(6, 10.0, GRID, GAMMA0, GAMMA1)
        model = fitting.fit(6, 10.0, GRID, synth)
        assert model.gamma0 == pytest.approx(GAMMA0, abs=1e-6)
        assert model.gamma1 == pytest.approx(GAMMA1, abs=1e-6)

    def test_positive_gamma1_recovered_as_positive(self):
        synth = analytic_variances(6, 10.0, GRID, 0.4, 2e-4)
        model = fitting.fit(6, 10.0, GRID, synth)
        assert model.gamma1 == pytest.approx(2e-4, rel=1e-6)
        assert model.gamma1 > 0

    def test_idempotent_on_own_predictions(self):
        oracle = [r.total_var for r in run_ensembles(
            [McConfig(ChannelSpec(6, 10.0, s), trials=500, seed=12) for s in GRID])]
        first = fitting.fit(6, 10.0, GRID, oracle)
        predictions = analytic_variances(6, 10.0, GRID,
                                         first.gamma0, first.gamma1)
        second = fitting.fit(6, 10.0, GRID, predictions)
        assert second.gamma0 == pytest.approx(first.gamma0, abs=1e-8)
        assert second.gamma1 == pytest.approx(first.gamma1, abs=1e-8)

    def test_oracle_fit_quality_and_monotonicity(self):
        sigmas = [1.0, 2.5, 5.0]
        oracle = [r.total_var for r in run_ensembles(
            [McConfig(ChannelSpec(6, 10.0, s), trials=1000, seed=3) for s in sigmas])]
        model = fitting.fit(6, 10.0, sigmas, oracle)
        fitted = analytic_variances(6, 10.0, sigmas,
                                    model.gamma0, model.gamma1)
        assert fitting.msle(fitted, oracle) <= 0.05
        # smallest-sigma anchor is matched exactly
        assert fitted[0] == pytest.approx(oracle[0], rel=1e-10)
        # fitted curve increases over grid plus midpoints
        check = sorted(sigmas + [1.75, 3.75])
        curve = analytic_variances(6, 10.0, check, model.gamma0, model.gamma1)
        assert all(b > a for a, b in zip(curve, curve[1:]))

    @pytest.mark.parametrize("D", sorted(FROZEN_FITS))
    def test_frozen_bits(self, D):
        oracle, gamma0, gamma1, variances = FROZEN_FITS[D]
        model = fitting.fit(D, 10.0, [2.5, 5.0, 7.5], oracle)
        assert (model.gamma0.hex(), model.gamma1.hex()) == (gamma0, gamma1)
        got = analytic_variances(D, 10.0, [2.5, 5.0, 7.5], model.gamma0, model.gamma1)
        assert [v.hex() for v in got] == variances

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fitting.fit(6, 10.0, [1.0, 2.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            fitting.fit(6, 10.0, [2.0, 1.0, 3.0], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            fitting.fit(6, 10.0, [1.0, 2.0, 3.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            fitting.fit(6, 10.0, [1.0, 2.0, 3.0], [0.1, -0.2, 0.3])

    def test_fit_error_carries_best_candidate(self, monkeypatch):
        # (A, B) at the check sigmas 1, 1.5, 2, 2.5, 3: B rises from 1.5 to 2,
        # so lowering gamma0 cannot repair the drop there
        terms = iter([(1.0, -0.5), (1.2, -0.5), (0.8, -0.3), (1.5, -0.5), (1.7, -0.5)])
        monkeypatch.setattr(fitting, "variance_terms", lambda cap_sigmas: next(terms))
        with pytest.raises(FitError) as err:
            fitting.fit(6, 10.0, [1.0, 2.0, 3.0], [0.1, 0.26, 0.8])
        best = err.value.best_candidate
        assert (best.D, best.snr_db) == (6, 10.0)
        # the anchored candidate: the smallest-sigma variance matched exactly
        assert 1.0 - 0.5 * best.combined_coefficient(1.0) == pytest.approx(0.1, rel=1e-12)
        g = [best.combined_coefficient(s) for s in (1.5, 2.0)]
        assert 0.8 - 0.3 * g[1] < 1.2 - 0.5 * g[0]


# oracle variances of ``sdmcap fit --modes D --snr-db 30 --sigma-grid
# 2.5,5,7.5 --trials 1000 --seed s`` (100 sections), keyed by (D, s): the
# anchored fit of each is not monotone, so gamma0 is corrected
CORRECTED_FITS = {
    (4, 7): [2.056146360674362e-07, 1.4555502007924246e-05, 0.0006377501001030135],
    (4, 8): [2.3326332552324566e-07, 1.799022063101646e-05, 0.0008570473670571294],
    (20, 8): [2.3028312271573764e-07, 1.8608990780544246e-05, 0.0009151972226671592],
}


def _check_grid(grid):
    return sorted(grid + [0.5 * (lo + hi) for lo, hi in zip(grid, grid[1:])])


def _rises(D, snr_db, sigmas, gamma0, gamma1):
    curve = analytic_variances(D, snr_db, sigmas, gamma0, gamma1)
    return all(b > a for a, b in zip(curve, curve[1:]))


@pytest.mark.parametrize("D, seed", sorted(CORRECTED_FITS))
def test_gamma0_correction_is_minimal(D, seed):
    grid = [2.5, 5.0, 7.5]
    oracle = CORRECTED_FITS[D, seed]
    model = fitting.fit(D, 30.0, grid, oracle)
    check = _check_grid(grid)
    assert _rises(D, 30.0, check, model.gamma0, model.gamma1)
    assert not _rises(D, 30.0, check, math.nextafter(model.gamma0, math.inf), model.gamma1)
    a0, b0 = variance_terms(per_mode_stats(ChannelSpec(D, 30.0, 2.5)).cap_sigmas)
    anchored = (oracle[0] - a0) / b0 - model.gamma1 * 2.5**2.75
    assert model.gamma0 < anchored
    assert list(model.grid_variances) == analytic_variances(
        D, 30.0, grid, model.gamma0, model.gamma1)


def test_gamma0_correction_ends_where_check_points_nearly_coincide():
    # points 1e-12 dB apart: rounding moves the threshold far more than a
    # few ulps off the bound, and the correction still ends on it
    grid = [2.5, 5.0, 5.0 + 1e-12, 7.5]
    v = CORRECTED_FITS[4, 7]
    model = fitting.fit(4, 30.0, grid, [v[0], v[1], v[1], v[2]])
    check = _check_grid(grid)
    assert _rises(4, 30.0, check, model.gamma0, model.gamma1)
    assert not _rises(4, 30.0, check, math.nextafter(model.gamma0, math.inf), model.gamma1)
