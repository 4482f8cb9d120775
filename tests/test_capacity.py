import math

import pytest

from sdmcap import capacity
from sdmcap.channel import ChannelSpec
from sdmcap.errors import DegenerateDistributionError, UnsupportedOrderError
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
    # gain maps to a capacity 2^c - 1 rounds to 0 at
    @pytest.mark.parametrize("D, snr_db, sigma", [
        (2, 0.0, 33.5), (2, 10.0, 35.0), (2, 20.0, 36.5),
        (6, 0.0, 37.5), (6, 10.0, 39.5), (6, 20.0, 41.5),
        (8, 0.0, 38.5), (8, 10.0, 40.5), (8, 20.0, 42.5),
    ])
    def test_gue_range_limit_is_a_typed_error(self, D, snr_db, sigma):
        capacity.per_mode_stats(ChannelSpec(D, snr_db, sigma - 0.5))
        with pytest.raises(DegenerateDistributionError, match="gain mean"):
            capacity.per_mode_stats(ChannelSpec(D, snr_db, sigma))

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
