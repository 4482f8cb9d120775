import math

import pytest

from sdmcap import total
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.errors import CorrelationRangeError, DegenerateDistributionError
from sdmcap.numerics import integrate

GAMMA0 = 0.43513127
GAMMA1 = 3.758373e-5

# case-study totals (D=6, SNR=10 dB, sigma_mdg=5 dB)
MU_CT = 16.82368071112132  # with the closed-form mean log-gain
SIGMA_CT = 0.18085141008176162
MU_CT_EXACT = 16.950472714838153
OUTAGE_P01 = 16.40295741775506
SIGMA_CT_N2 = 0.12788125845596277


@pytest.fixture(scope="module")
def model():
    return total.CorrelationModel(gamma0=GAMMA0, gamma1=GAMMA1, D=6, snr_db=10.0)


@pytest.fixture(scope="module")
def case_stats():
    return per_mode_stats(ChannelSpec(6, 10.0, 5.0))


class TestCorrelation:
    def test_case_study_off_diagonals(self, model):
        expected = [0.091, -0.244, -0.367, -0.412, -0.429]
        for d, rho in enumerate(expected, start=1):
            assert total.correlation(1, 1 + d, 5.0, model) == pytest.approx(
                rho, abs=5e-4)

    def test_matrix_symmetric_unit_diagonal(self, model):
        m = total.correlation_matrix(6, 5.0, model)
        for i in range(6):
            assert m[i][i] == 1.0
            for j in range(6):
                assert m[i][j] == m[j][i]

    def test_depends_only_on_index_distance(self, model):
        assert total.correlation(2, 4, 5.0, model) == \
            total.correlation(1, 3, 5.0, model)

    def test_computed_once_per_lag(self, monkeypatch):
        # a D = 100 report needs D lag values per use, not D^2 pair values
        D = 100
        stats = per_mode_stats(ChannelSpec(D, 10.0, 5.0))
        model = total.CorrelationModel(gamma0=0.0, gamma1=0.0, D=D, snr_db=10.0)
        expected = [[total.correlation(i, j, 5.0, model) for j in range(1, D + 1)]
                    for i in range(1, D + 1)]
        calls = []
        original = total.correlation

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(total, "correlation", counted)
        assert total.correlation_matrix(D, 5.0, model) == expected
        total.total_stats(stats, model, 5.0)
        assert len(calls) == 2 * D


class TestTotalStats:
    def test_case_study_totals(self, case_stats, model):
        ts = total.total_stats(case_stats, model, 5.0)
        assert ts.mu_ct == pytest.approx(16.825, abs=0.003)
        assert ts.sigma_ct == pytest.approx(0.181, abs=0.002)
        assert ts.mu_ct == pytest.approx(MU_CT, abs=1e-9)
        assert ts.sigma_ct == pytest.approx(SIGMA_CT, abs=1e-9)

    def test_out_of_envelope_correlation_raises(self, case_stats):
        bad = total.CorrelationModel(gamma0=5.0, gamma1=0.0, D=6, snr_db=10.0)
        with pytest.raises(CorrelationRangeError):
            total.total_stats(case_stats, bad, 5.0)

    def test_exact_mean_exceeds_gaussian_sum(self, case_stats):
        spec = ChannelSpec(6, 10.0, 5.0)
        exact = total.exact_total_mean(spec, case_stats)
        assert exact == pytest.approx(MU_CT_EXACT, abs=1e-6)
        assert exact > MU_CT

    def test_exact_mean_degenerate(self):
        spec = ChannelSpec(6, 10.0, 0.0)
        assert total.exact_total_mean(spec, None) == pytest.approx(
            6 * math.log2(11.0), abs=1e-12)


class TestFrequencyDiversity:
    def test_case_study_two_bins(self, case_stats, model):
        ts = total.apply_frequency_diversity(
            total.total_stats(case_stats, model, 5.0), 2)
        assert ts.sigma_ct == pytest.approx(0.128, abs=0.002)
        assert ts.sigma_ct == pytest.approx(SIGMA_CT_N2, abs=1e-9)
        assert ts.mu_ct == pytest.approx(MU_CT, abs=1e-12)
        assert ts.n_bins == 2

    def test_composition(self, case_stats, model):
        ts = total.total_stats(case_stats, model, 5.0)
        once = total.apply_frequency_diversity(ts, 4)
        twice = total.apply_frequency_diversity(
            total.apply_frequency_diversity(ts, 2), 2)
        assert once.sigma_ct == pytest.approx(twice.sigma_ct, abs=1e-14)
        assert once.n_bins == twice.n_bins == 4

    def test_rejects_non_positive_bins(self, case_stats, model):
        ts = total.total_stats(case_stats, model, 5.0)
        with pytest.raises(ValueError):
            total.apply_frequency_diversity(ts, 0)


class TestOutage:
    def test_case_study_value(self):
        assert total.outage_capacity(MU_CT, SIGMA_CT, 0.01) == pytest.approx(
            OUTAGE_P01, abs=1e-9)

    def test_gaussian_cdf_roundtrip(self):
        import random

        rng = random.Random(17)
        for _ in range(20):
            mu = rng.uniform(5.0, 30.0)
            sigma = rng.uniform(0.01, 2.0)
            p = rng.uniform(1e-6, 1.0 - 1e-6)
            c = total.outage_capacity(mu, sigma, p)
            cdf = 0.5 * (1.0 + math.erf((c - mu) / (sigma * math.sqrt(2.0))))
            assert cdf == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-300, 1e-17, 1e-12])
    def test_deep_tail(self, p):
        mu, sigma = 10.0, 0.5
        c = total.outage_capacity(mu, sigma, p)
        cdf = 0.5 * math.erfc(-(c - mu) / (sigma * math.sqrt(2.0)))
        assert cdf == pytest.approx(p, rel=1e-9)

    def test_median_and_degenerate(self):
        assert total.outage_capacity(10.0, 0.5, 0.5) == pytest.approx(10.0)
        assert total.outage_capacity(10.0, 0.0, 0.01) == 10.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            total.outage_capacity(10.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            total.outage_capacity(10.0, -1.0, 0.1)


class TestTotalPdf:
    def test_normalization_and_mode(self, case_stats, model):
        ts = total.total_stats(case_stats, model, 5.0)
        area = integrate(lambda c: total.total_pdf(c, ts),
                         ts.mu_ct - 8 * ts.sigma_ct,
                         ts.mu_ct + 8 * ts.sigma_ct, tol=1e-10)
        assert area == pytest.approx(1.0, abs=1e-9)
        assert total.total_pdf(ts.mu_ct, ts) == pytest.approx(
            1.0 / (ts.sigma_ct * math.sqrt(2 * math.pi)), abs=1e-12)

    def test_degenerate_raises(self):
        ts = total.TotalCapacityStats(mu_ct=10.0, sigma_ct=0.0,
                                      mu_ct_exact=float("nan"))
        with pytest.raises(DegenerateDistributionError):
            total.total_pdf(10.0, ts)
