import decimal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmcap import capacity, gue
from sdmcap.channel import ChannelSpec
from sdmcap.errors import DegenerateDistributionError, UnsupportedOrderError
from tests.reference import capacity_mean_by_bisection
from tests.test_gue import (
    GAIN_MEANS_D6_S5,
    GAIN_SIGMAS_D6_S5,
    MU_LAMBDA_D6_S5,
)

# case-study per-mode capacity parameters (D=6, SNR=10 dB, sigma_mdg=5 dB)
CAP_MEANS_D6 = [1.0223148019, 1.6528932298, 2.3299780718,
                3.0670076825, 3.8867560457, 4.8647308795]
CAP_SIGMAS_D6 = [0.1917240892, 0.2020045197, 0.216673669,
                 0.2380861725, 0.2756121866, 0.3617371671]


class TestCapacityFromGain:
    def test_reference_points(self):
        assert capacity.capacity_from_gain(0.0, 10.0) == pytest.approx(
            math.log2(11.0), abs=1e-12)
        assert capacity.capacity_from_gain(-2.609933123550317, 10.0) == \
            pytest.approx(2.6966290999, abs=1e-9)

    def test_monotone_in_gain(self):
        caps = [capacity.capacity_from_gain(g, 10.0) for g in (-10, -3, 0, 4)]
        assert caps == sorted(caps)

    def test_rejects_non_positive_snr(self):
        with pytest.raises(ValueError):
            capacity.capacity_from_gain(0.0, 0.0)


class TestChannelSpec:
    @pytest.mark.parametrize("field, value", [
        ("mode_count", 6.5), ("mode_count", 6.0), ("mode_count", True),
        ("freq_bins", 1.5), ("freq_bins", 2.0), ("freq_bins", True),
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        # such a count failed later, deep in the analytic path, as TypeError
        counts = {"mode_count": 6, "freq_bins": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ChannelSpec(snr_db=10.0, sigma_mdg_db=5.0, **counts)


@pytest.fixture(scope="module")
def case_study():
    return capacity.per_mode_stats(ChannelSpec(6, 10.0, 5.0))


class TestPerModeStats:
    def test_case_study_values(self, case_study):
        st = case_study
        assert st.method == capacity.METHOD_GUE
        assert st.mu_lambda_db == pytest.approx(MU_LAMBDA_D6_S5, abs=1e-9)
        assert st.gain_means == pytest.approx(GAIN_MEANS_D6_S5, abs=1e-8)
        assert st.gain_sigmas == pytest.approx(GAIN_SIGMAS_D6_S5, abs=1e-8)
        assert st.cap_means == pytest.approx(CAP_MEANS_D6, abs=1e-8)
        assert st.cap_sigmas == pytest.approx(CAP_SIGMAS_D6, abs=1e-8)

    def test_cap_means_are_density_modes(self, case_study):
        st = case_study
        snr = ChannelSpec(6, 10.0, 5.0).snr_linear
        for mu_c, m, s in zip(st.cap_means, st.gain_means, st.gain_sigmas):
            f0 = capacity.per_mode_capacity_pdf(mu_c, m, s, snr)
            assert f0 > capacity.per_mode_capacity_pdf(mu_c - 0.01, m, s, snr)
            assert f0 > capacity.per_mode_capacity_pdf(mu_c + 0.01, m, s, snr)

    def test_vanishing_capacity_density_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(capacity, "per_mode_capacity_pdf", lambda *args: 0.0)
        with pytest.raises(DegenerateDistributionError):
            capacity.per_mode_stats(ChannelSpec(6, 10.0, 5.0))

    # the first sigma_mdg (0.5 dB scan) at which the lowest mode's -6 sigma
    # gain maps to a capacity 2^c - 1 rounds to 0 at, where the capacity-
    # domain bisection raised; the gain-domain solver is defined there, and
    # its only error at these points would be the typed bimodal one
    @pytest.mark.parametrize("D, snr_db, sigma", [
        (2, 0.0, 33.5), (2, 10.0, 35.0), (2, 20.0, 36.5),
        (6, 0.0, 37.5), (6, 10.0, 39.5), (6, 20.0, 41.5),
        (8, 0.0, 38.5), (8, 10.0, 40.5), (8, 20.0, 42.5),
    ])
    def test_gue_range_limit_is_a_typed_error(self, D, snr_db, sigma):
        for s in (sigma - 0.5, sigma):
            _assert_sound_or_bimodal(ChannelSpec(D, snr_db, s))

    def test_auto_dispatch_boundary(self):
        assert capacity.per_mode_stats(
            ChannelSpec(8, 10.0, 3.0)).method == capacity.METHOD_GUE
        assert capacity.per_mode_stats(
            ChannelSpec(9, 10.0, 3.0)).method == capacity.METHOD_WIGNER

    def test_explicit_gue_out_of_range(self):
        with pytest.raises(UnsupportedOrderError):
            capacity.per_mode_stats(ChannelSpec(12, 10.0, 3.0),
                                    method=capacity.METHOD_GUE)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            capacity.per_mode_stats(ChannelSpec(6, 10.0, 3.0), method="mp")

    def test_degenerate_sigma_zero(self):
        st = capacity.per_mode_stats(ChannelSpec(6, 10.0, 0.0))
        c0 = math.log2(11.0)
        assert st.cap_means == (c0,) * 6
        assert st.cap_sigmas == (0.0,) * 6
        assert st.gain_means == (0.0,) * 6

    def test_wigner_track_gain_means_invert_cap_means(self):
        spec = ChannelSpec(16, 10.0, 4.0)
        st = capacity.per_mode_stats(spec)
        assert st.method == capacity.METHOD_WIGNER
        assert st.gain_sigmas == ()
        for g, c in zip(st.gain_means, st.cap_means):
            assert capacity.capacity_from_gain(g, spec.snr_linear) == \
                pytest.approx(c, abs=1e-10)

    def test_capacity_pdf_vanishes_at_non_positive_capacity(self, case_study):
        snr = 10.0
        m, s = case_study.gain_means[0], case_study.gain_sigmas[0]
        assert capacity.per_mode_capacity_pdf(0.0, m, s, snr) == 0.0
        assert capacity.per_mode_capacity_pdf(-1.0, m, s, snr) == 0.0


def _assert_sound_or_bimodal(spec):
    """``per_mode_stats`` gives finite, positive, ascending capacity means and
    positive deviations, or raises the bimodal-density error or, beyond
    100 dB only, the one for means that cross."""
    try:
        stats = capacity.per_mode_stats(spec)
    except DegenerateDistributionError as exc:
        crossed = spec.sigma_mdg_db > 100.0 and "not strictly ascending" in str(exc)
        assert "bimodal" in str(exc) or crossed
        return
    assert all(math.isfinite(v) for v in stats.cap_means + stats.cap_sigmas)
    assert all(a < b for a, b in zip(stats.cap_means, stats.cap_means[1:]))
    assert stats.cap_means[0] > 0.0 and all(s > 0.0 for s in stats.cap_sigmas)


def _modes(D, snr_db, sigma):
    """(gain mean, gain deviation) of each GUE mode of the link."""
    spec = ChannelSpec(D, snr_db, sigma)
    coeffs = gue.derive_coefficients(D)
    mu = gue.mean_log_gain(spec, coeffs)
    means = gue.per_mode_means(spec, coeffs, mu)
    return spec.snr_linear, list(zip(means, gue.per_mode_sigmas(spec, coeffs, mu, means)))


def _pdf_to_60_digits(c, mean_db, sigma_db, snr_linear):
    """``per_mode_capacity_pdf`` as the capacity-domain change of variables,
    in 60-digit decimal arithmetic, where 2^c - 1 cannot cancel."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c, m, s, snr = (decimal.Decimal(v) for v in (c, mean_db, sigma_db, snr_linear))
        ln2, ln10 = decimal.Decimal(2).ln(), decimal.Decimal(10).ln()
        two_c = (c * ln2).exp()
        gain_db = 10 * ((two_c - 1) / snr).ln() / ln10
        jacobian = 10 * ln2 * two_c / (ln10 * (two_c - 1))
        u = (gain_db - m) / s
        gauss = (-u * u / 2).exp() / (s * (2 * decimal.Decimal(math.pi)).sqrt())
        return float(jacobian * gauss)


class TestGainDomainSolver:
    @settings(max_examples=300, deadline=None)
    @given(D=st.integers(2, 8), snr_db=st.floats(-10.0, 30.0),
           sigma=st.floats(1e-6, 45.0))
    def test_finite_ascending_positive_or_bimodal(self, D, snr_db, sigma):
        _assert_sound_or_bimodal(ChannelSpec(D, snr_db, sigma))

    @settings(max_examples=300, deadline=None)
    @given(D=st.one_of(st.integers(2, 8), st.integers(9, 100)),
           snr_db=st.floats(-10.0, 30.0), sigma=st.floats(1e-6, 200.0))
    def test_sound_or_a_typed_error_up_to_200_db(self, D, snr_db, sigma):
        _assert_sound_or_bimodal(ChannelSpec(D, snr_db, sigma))

    # beyond about 130 dB an outer GUE mode's larger gain deviation moves its
    # capacity-density mode, near m - a s^2, below its neighbour's; 0.5 dB
    # below the first such point of a 0.5 dB scan (155.5 dB at D = 8) the
    # means still ascend
    @pytest.mark.parametrize("D, snr_db, sound, crossed", [
        (8, 0.0, 155.0, 200.0), (4, 10.0, 129.0, 129.5)])
    def test_crossing_means_are_a_typed_error(self, D, snr_db, sound, crossed):
        means = capacity.per_mode_stats(ChannelSpec(D, snr_db, sound)).cap_means
        assert all(a < b for a, b in zip(means, means[1:]))
        with pytest.raises(DegenerateDistributionError, match="not strictly ascending"):
            capacity.per_mode_stats(ChannelSpec(D, snr_db, crossed))

    def test_agrees_with_the_capacity_domain_bisection(self):
        # wherever the bisection is defined, the density unimodal and the
        # mean above 1e-3 bit (below, the bisection's absolute 1e-12 shows)
        compared = 0
        for D in range(2, 9):
            for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0):
                for sigma in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0):
                    snr, modes = _modes(D, snr_db, sigma)
                    for m, s in modes:
                        try:
                            c = capacity.per_mode_capacity_mean(m, s, snr)
                            ref = capacity_mean_by_bisection(m, s, snr)
                        except DegenerateDistributionError:
                            continue
                        if ref > 1e-3:
                            compared += 1
                            assert c == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert compared > 900

    @pytest.mark.parametrize("D, snr_db, sigma", [(2, 20.0, 22.5), (3, 30.0, 35.0)])
    def test_bimodal_density_is_a_typed_error(self, D, snr_db, sigma):
        # the capacity-domain bisection returned one of the top mode's three
        # stationary points
        snr, modes = _modes(D, snr_db, sigma)
        m, s = modes[-1]
        assert _sign_changes(lambda c: capacity.per_mode_capacity_pdf(c, m, s, snr),
                             capacity.capacity_from_gain(m - 6.0 * s, snr),
                             capacity.capacity_from_gain(m, snr)) == 3
        with pytest.raises(DegenerateDistributionError, match="bimodal"):
            capacity.per_mode_stats(ChannelSpec(D, snr_db, sigma))

    def test_few_evaluations_per_mode_on_the_bench_grid(self, monkeypatch):
        evals = []
        stationarity, mean = capacity._stationarity, capacity.per_mode_capacity_mean

        def counted_stationarity(*args):
            evals[-1] += 1
            return stationarity(*args)

        def counted_mean(*args):
            evals.append(0)
            return mean(*args)

        monkeypatch.setattr(capacity, "_stationarity", counted_stationarity)
        monkeypatch.setattr(capacity, "per_mode_capacity_mean", counted_mean)
        for D in range(2, 9):
            for snr_db in (5.0, 10.0, 20.0):
                for sigma in (1.0, 2.5, 5.0, 7.5, 10.0):
                    capacity.per_mode_stats(ChannelSpec(D, snr_db, sigma))
        assert len(evals) == 15 * sum(range(2, 9))
        assert max(evals) <= 8

    @pytest.mark.parametrize("sigma", [35.0, 40.0, 45.0])
    def test_capacities_near_zero_bit(self, sigma):
        # the lowest mode at D = 2 sits near 1e-15 bit, where 2^c - 1 cancels
        snr, modes = _modes(2, 0.0, sigma)
        m, s = modes[0]
        c = capacity.per_mode_capacity_mean(m, s, snr)
        assert 0.0 < c < 1e-11
        density = capacity.per_mode_capacity_pdf(c, m, s, snr)
        assert density == pytest.approx(_pdf_to_60_digits(c, m, s, snr), rel=1e-9)
        for side in (1.0 - 1e-3, 1.0 + 1e-3):
            assert density > capacity.per_mode_capacity_pdf(c * side, m, s, snr)
        stats = capacity.per_mode_stats(ChannelSpec(2, 0.0, sigma))
        assert stats.cap_means[0] == c and stats.cap_sigmas[0] > 0.0


def _sign_changes(f, lo, hi, n=20000):
    """How often the slope of ``f`` changes sign on a log-spaced grid over
    [lo, hi]: the stationary points of a density there."""
    grid = [lo * (hi / lo) ** (k / n) for k in range(n + 1)]
    values = [f(c) for c in grid]
    slopes = [b > a for a, b in zip(values, values[1:])]
    return sum(a != b for a, b in zip(slopes, slopes[1:]))
