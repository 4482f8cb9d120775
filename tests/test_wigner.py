import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmcap import wigner
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.errors import DegenerateDistributionError
from sdmcap.mc import McConfig, run_ensemble
from sdmcap.numerics import matched_sigma
from tests.reference import (
    capacity_cdf,
    capacity_pdf,
    capacity_support,
    gain_db_from_capacity,
    integrate,
    semicircle_pdf,
)


class TestSemicirclePdf:
    def test_support_and_shape(self):
        assert semicircle_pdf(2.1, 1.0, 0.0) == 0.0
        assert semicircle_pdf(-2.1, 1.0, 0.0) == 0.0
        assert semicircle_pdf(0.0, 1.0, 0.0) == pytest.approx(1.0 / math.pi)

    def test_unit_area_and_variance(self):
        area = integrate(lambda x: semicircle_pdf(x, 3.0, 1.0),
                         1.0 - 6.0, 1.0 + 6.0, tol=1e-10)
        assert area == pytest.approx(1.0, abs=1e-8)
        second = integrate(
            lambda x: (x - 1.0) ** 2 * semicircle_pdf(x, 3.0, 1.0),
            1.0 - 6.0, 1.0 + 6.0, tol=1e-10)
        assert second == pytest.approx(9.0, abs=1e-6)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            semicircle_pdf(0.0, 0.0, 0.0)


class TestCapacityTransform:
    def test_gain_inverts_capacity(self):
        snr = 10.0
        for lam_db in (-6.0, -1.5, 0.0, 2.0):
            c = math.log2(1.0 + snr * 10.0 ** (lam_db / 10.0))
            assert gain_db_from_capacity(c, snr) == pytest.approx(
                lam_db, abs=1e-12)

    def test_cdf_clamps_off_support(self):
        spec = ChannelSpec(20, 10.0, 5.0)
        lo, hi = capacity_support(spec, -2.5)
        assert capacity_cdf(lo - 0.1, spec, -2.5) == 0.0
        assert capacity_cdf(hi + 0.1, spec, -2.5) == 1.0

    def test_cdf_matches_pdf_quadrature(self):
        spec = ChannelSpec(20, 10.0, 5.0)
        mu = -2.5
        lo, hi = capacity_support(spec, mu)
        for q in (0.1, 0.35, 0.6, 0.9):
            c = lo + q * (hi - lo)
            numeric = integrate(
                lambda x: capacity_pdf(x, spec, mu), lo, c, tol=1e-11)
            assert capacity_cdf(c, spec, mu) == pytest.approx(
                numeric, abs=1e-9)

    def test_pdf_integrates_to_one(self):
        spec = ChannelSpec(20, 10.0, 5.0)
        mu = -2.5
        lo, hi = capacity_support(spec, mu)
        area = integrate(lambda c: capacity_pdf(c, spec, mu),
                         lo, hi, tol=1e-10)
        assert area == pytest.approx(1.0, abs=1e-7)


class TestPerModeQuantiles:
    def test_means_sit_at_midpoint_quantiles(self):
        spec = ChannelSpec(12, 10.0, 5.0)
        mu = -2.5
        means = wigner.per_mode_means_from_cdf(
            wigner.snr_gains(spec, wigner.per_mode_gains(spec, mu)))
        assert all(a < b for a, b in zip(means, means[1:]))
        for i, m in enumerate(means, start=1):
            assert capacity_cdf(m, spec, mu) == pytest.approx(
                (i - 0.5) / 12.0, abs=1e-10)

    def test_snr_gains_taken_once_per_link(self, monkeypatch):
        calls = []
        for name in ("snr_gains", "per_mode_means_from_cdf", "per_mode_sigmas_from_pdf"):
            f = getattr(wigner, name)
            monkeypatch.setattr(wigner, name, lambda *args, name=name, f=f:
                                calls.append(name) or f(*args))
        per_mode_stats(ChannelSpec(12, 10.0, 5.0))
        assert sorted(calls) == ["per_mode_means_from_cdf", "per_mode_sigmas_from_pdf",
                                 "snr_gains"]

    def test_sigmas_positive_and_edge_heavy(self):
        spec = ChannelSpec(12, 10.0, 5.0)
        mu = -2.5
        sigmas = wigner.per_mode_sigmas_from_pdf(
            spec, wigner.snr_gains(spec, wigner.per_mode_gains(spec, mu)))
        assert all(s > 0 for s in sigmas)
        # the semicircle density vanishes at the edges, so each edge mode
        # spreads more than its inner neighbour (the capacity Jacobian
        # stretches the top edge hardest)
        assert sigmas[0] > sigmas[1]
        assert sigmas[-1] == max(sigmas)


    def test_vanishing_density_is_a_typed_error(self, monkeypatch):
        # outer modes at the semicircle's edges z = -+1, where it vanishes
        spec = ChannelSpec(12, 10.0, 5.0)
        monkeypatch.setattr(wigner, "_quantile_offsets", _edge_offsets)
        gains = wigner.snr_gains(spec, wigner.per_mode_gains(spec, -2.5))
        with pytest.raises(DegenerateDistributionError):
            wigner.per_mode_sigmas_from_pdf(spec, gains)


def _edge_offsets(D):
    """D quantile offsets spread evenly over [-1, 1], so that the outer two
    sit at the semicircle's edges."""
    return tuple(2.0 * k / (D - 1) - 1.0 for k in range(D))


def _density_to_60_digits(z, gain_db, sigma_db, snr_linear):
    """The ensemble capacity density at a mode with quantile offset ``z`` and
    gain ``gain_db``, 10 ln 2 / (pi sigma ln 10) (1 + 1 / g) sqrt(1 - z^2)
    with g = snr 10^(x / 10), in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        z, x, s, snr = (decimal.Decimal(v) for v in (z, gain_db, sigma_db, snr_linear))
        ln2, ln10 = decimal.Decimal(2).ln(), decimal.Decimal(10).ln()
        g = snr * (x * ln10 / 10).exp()
        scale = 10 * ln2 / (decimal.Decimal(math.pi) * s * ln10)
        return float(scale * (1 + 1 / g) * (1 - z * z).sqrt())


class TestClosedFormModes:
    """Each mode's gain mean, and its deviation from the ensemble capacity
    density in the gain domain, against the capacity-domain references."""

    @pytest.mark.parametrize("D", [9, 12, 20, 40, 100])
    def test_against_the_capacity_domain_density(self, D):
        offsets = wigner._quantile_offsets(D)
        for snr_db in (-10.0, 0.0, 10.0, 30.0):
            for sigma in (0.5, 5.0, 15.0, 50.0):
                spec = ChannelSpec(D, snr_db, sigma)
                stats = per_mode_stats(spec)
                mu = stats.mu_lambda_db
                assert stats.gain_means == tuple(mu + 2.0 * sigma * z for z in offsets)
                for z, x, c, s in zip(offsets, stats.gain_means, stats.cap_means,
                                      stats.cap_sigmas):
                    assert s == pytest.approx(
                        matched_sigma(capacity_pdf(c, spec, mu), D), rel=1e-13, abs=0.0)
                    assert s == pytest.approx(matched_sigma(
                        _density_to_60_digits(z, x, sigma, spec.snr_linear), D),
                        rel=1e-14, abs=0.0)


def _assert_sound_or_degenerate(spec):
    """``per_mode_stats`` gives finite, ascending gain and capacity means,
    positive capacities and finite, positive deviations, or raises
    DegenerateDistributionError."""
    try:
        stats = per_mode_stats(spec)
    except DegenerateDistributionError:
        return
    for means in (stats.gain_means, stats.cap_means):
        assert all(math.isfinite(v) for v in means)
        assert all(a < b for a, b in zip(means, means[1:]))
    assert stats.cap_means[0] > 0.0
    assert all(0.0 < s < math.inf for s in stats.cap_sigmas)


class TestRangeLimit:
    # the lowest modes' SNR gains underflow to 0, which a capacity-to-gain
    # inversion met as a bare math domain error
    @pytest.mark.parametrize("D, snr_db, sigma", [(12, 30.0, 1000.0), (100, 0.0, 840.0)])
    def test_underflowing_gain_is_a_typed_error(self, D, snr_db, sigma):
        with pytest.raises(DegenerateDistributionError):
            per_mode_stats(ChannelSpec(D, snr_db, sigma))

    # the first sigma_mdg (1 dB scan) at which the lowest mode's SNR gain is
    # so far below 1e-308 that its capacity deviation rounds to 0, which was
    # returned as such; 1 dB below, every deviation is finite and positive
    @pytest.mark.parametrize("D, snr_db, sigma", [(12, 0.0, 859.0), (100, 30.0, 808.0)])
    def test_zero_deviation_is_a_typed_error(self, D, snr_db, sigma):
        stats = per_mode_stats(ChannelSpec(D, snr_db, sigma - 1.0))
        assert all(0.0 < s < math.inf for s in stats.cap_sigmas)
        with pytest.raises(DegenerateDistributionError, match="no Gaussian match"):
            per_mode_stats(ChannelSpec(D, snr_db, sigma))

    @settings(max_examples=300, deadline=None)
    @given(D=st.integers(9, 100), snr_db=st.floats(-10.0, 30.0),
           sigma=st.floats(1e-6, 3000.0))
    def test_sound_or_a_typed_error_up_to_3000_db(self, D, snr_db, sigma):
        _assert_sound_or_degenerate(ChannelSpec(D, snr_db, sigma))

    # the I1(2a)/a series overflowed from about 1563.5 dB, so the mean
    # log-gain was -inf and the track reported per-mode gains of -inf dB;
    # from about 5.8e154 dB squaring a raised a bare OverflowError
    @pytest.mark.parametrize("D, snr_db, sigma",
                             [(12, 0.0, 1564.0), (9, 0.0, 3000.0), (12, 0.0, 1e160)])
    def test_overflowing_gain_mean_is_a_typed_error(self, D, snr_db, sigma):
        spec = ChannelSpec(D, snr_db, sigma)
        for call in (lambda: wigner.mean_log_gain(spec), lambda: per_mode_stats(spec)):
            with pytest.raises(DegenerateDistributionError,
                               match=re.escape(f"sigma_mdg_db={sigma} ") + ".*mean log-gain"):
                call()

    @settings(max_examples=300, deadline=None)
    @given(D=st.integers(2, 100), sigma=st.floats(0.0, 1e5))
    def test_mean_log_gain_finite_or_a_typed_error_up_to_1e5_db(self, D, sigma):
        try:
            mu = wigner.mean_log_gain(ChannelSpec(D, 0.0, sigma))
        except DegenerateDistributionError:
            return
        assert math.isfinite(mu)


@pytest.fixture(scope="module")
def d20():
    spec = ChannelSpec(20, 10.0, 5.0)
    return spec, per_mode_stats(spec), run_ensemble(
        McConfig(spec, trials=2000, seed=9))


class TestAgainstOracle:
    def test_d20_means_match_simulated_averages(self, d20):
        spec, stats, result = d20
        diffs = np.abs(result.cap_samples.mean(axis=0)
                       - np.array(stats.cap_means))
        assert diffs.max() < 0.05

    def test_d20_pooled_capacity_histogram(self, d20):
        spec, stats, result = d20
        samples = np.sort(result.cap_samples.ravel())
        lo, hi = capacity_support(spec, stats.mu_lambda_db)
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 4001)
        pdf = np.array([capacity_pdf(c, spec, stats.mu_lambda_db)
                        for c in grid])
        cdf = np.concatenate([[0.0], np.cumsum(
            (pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])
        cdf /= cdf[-1]
        model = np.interp(samples, grid, cdf)
        n = len(samples)
        ks = max(
            np.abs(model - np.arange(1, n + 1) / n).max(),
            np.abs(model - np.arange(n) / n).max(),
        )
        assert ks < 0.02

    def test_d12_sigma_overestimate_is_bounded(self):
        # the deviation estimate is known to be biased high at D = 12;
        # require positivity and order-of-magnitude agreement only
        spec = ChannelSpec(12, 10.0, 5.0)
        stats = per_mode_stats(spec)
        result = run_ensemble(McConfig(spec, trials=2000, seed=9))
        ratio = np.array(stats.cap_sigmas) / result.cap_samples.std(axis=0, ddof=1)
        assert np.all(np.array(stats.cap_sigmas) > 0)
        assert np.all(ratio < 2.0)
        assert np.all(ratio > 0.5)
