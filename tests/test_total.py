import decimal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmcap import total
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.errors import CorrelationRangeError

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

    @pytest.mark.parametrize("D", [1, 2, 7])
    def test_rows_share_the_lag_values(self, model, D):
        m = total.correlation_matrix(D, 5.0, model)
        lags = m[0]
        assert type(m) is list and len(m) == D
        assert lags == total.correlation_lags(D, 5.0, model)
        for i in range(D):
            assert all(m[i][j] is lags[abs(i - j)] for j in range(D))

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
        lags, coefficients, exps = [], [], []
        lag, coefficient, exp = (total._correlation_at_lag,
                                 total.CorrelationModel.combined_coefficient, math.exp)
        monkeypatch.setattr(total, "_correlation_at_lag",
                            lambda *args: lags.append(args) or lag(*args))
        monkeypatch.setattr(total.CorrelationModel, "combined_coefficient",
                            lambda *args: coefficients.append(args) or coefficient(*args))
        monkeypatch.setattr(math, "exp", lambda x: exps.append(x) or exp(x))
        assert total.correlation_matrix(D, 5.0, model) == expected
        # D lag values, one decay factor each, from one combined coefficient
        assert (len(lags), len(exps), len(coefficients)) == (D, D, 1)
        total.total_stats(stats, model, 5.0)
        assert len(lags) == D  # the variance takes no pair correlation
        assert len(exps) == D + 1  # and one decay factor, e^-1, for all lags


def _variance_terms_by_loop(cap_sigmas):
    """``total.variance_terms`` as the double loop over (i, j) that the
    one-pass recurrence replaced, adding the D^2 terms in row-major order."""
    D = len(cap_sigmas)
    decay = [math.exp(-d) for d in range(D)]
    a = 0.0
    for i in range(D):
        for j in range(D):
            a += cap_sigmas[i] * cap_sigmas[j] * decay[abs(i - j)]
    total_sigma = sum(cap_sigmas)
    return a, a - total_sigma * total_sigma


def _a_to_60_digits(cap_sigmas):
    """A = sum_ij s_i s_j e^(-|i-j|) in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        s = [decimal.Decimal(v) for v in cap_sigmas]
        decay = [decimal.Decimal(-d).exp() for d in range(len(s))]
        return sum(si * sj * decay[abs(i - j)]
                   for i, si in enumerate(s) for j, sj in enumerate(s))


def _relative_error(a, exact):
    return abs(decimal.Decimal(a) - exact) / exact if exact else abs(a)


# the semicircle points of the bench's analytic grid
_SEMICIRCLE_GRID = [(D, snr, sigma) for D in (12, 20, 40, 100) for snr in (5.0, 10.0, 20.0)
                    for sigma in (1.0, 2.5, 5.0, 7.5, 10.0)]


class TestVarianceTerms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 1e3),
                              st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e)),
                    min_size=1, max_size=200))
    def test_a_within_4e_15_of_60_digits(self, cap_sigmas):
        a, b = total.variance_terms(cap_sigmas)
        assert _relative_error(a, _a_to_60_digits(cap_sigmas)) <= 4e-15
        total_sigma = sum(cap_sigmas)
        assert b == a - total_sigma * total_sigma

    @pytest.mark.parametrize("D", [2, 10, 11, 40, 100])
    def test_fixed_lists_within_4e_15_of_60_digits(self, D):
        cap_sigmas = [0.1 + 0.37 * ((7 * i) % 11) for i in range(D)]
        a = total.variance_terms(cap_sigmas)[0]
        assert _relative_error(a, _a_to_60_digits(cap_sigmas)) <= 4e-15

    def test_case_study_at_least_as_close_as_the_loop(self, case_stats):
        cap_sigmas = case_stats.cap_sigmas
        exact = _a_to_60_digits(cap_sigmas)
        assert _relative_error(total.variance_terms(cap_sigmas)[0], exact) <= \
            _relative_error(_variance_terms_by_loop(cap_sigmas)[0], exact)

    def test_semicircle_grid_at_least_as_close_as_the_loop(self):
        # worst case over the grid: at single points either form may round
        # to the nearer float by chance
        recurrence, loop = [], []
        for D, snr_db, sigma in _SEMICIRCLE_GRID:
            cap_sigmas = per_mode_stats(ChannelSpec(D, snr_db, sigma)).cap_sigmas
            exact = _a_to_60_digits(cap_sigmas)
            recurrence.append(_relative_error(total.variance_terms(cap_sigmas)[0], exact))
            loop.append(_relative_error(_variance_terms_by_loop(cap_sigmas)[0], exact))
        assert max(recurrence) <= max(loop)


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

    def test_composition(self, case_stats, model):
        ts = total.total_stats(case_stats, model, 5.0)
        once = total.apply_frequency_diversity(ts, 4)
        twice = total.apply_frequency_diversity(
            total.apply_frequency_diversity(ts, 2), 2)
        assert once.sigma_ct == pytest.approx(twice.sigma_ct, abs=1e-14)

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
