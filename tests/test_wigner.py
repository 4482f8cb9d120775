import math

import numpy as np
import pytest

from sdmcap import wigner
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from sdmcap.errors import DegenerateDistributionError
from sdmcap.mc import McConfig, run_ensemble
from tests.reference import capacity_cdf, integrate, semicircle_pdf


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
            assert wigner.gain_db_from_capacity(c, snr) == pytest.approx(
                lam_db, abs=1e-12)

    def test_cdf_clamps_off_support(self):
        spec = ChannelSpec(20, 10.0, 5.0)
        lo, hi = wigner.capacity_support(spec, -2.5)
        assert capacity_cdf(lo - 0.1, spec, -2.5) == 0.0
        assert capacity_cdf(hi + 0.1, spec, -2.5) == 1.0

    def test_cdf_matches_pdf_quadrature(self):
        spec = ChannelSpec(20, 10.0, 5.0)
        mu = -2.5
        lo, hi = wigner.capacity_support(spec, mu)
        for q in (0.1, 0.35, 0.6, 0.9):
            c = lo + q * (hi - lo)
            numeric = integrate(
                lambda x: wigner.capacity_pdf(x, spec, mu), lo, c, tol=1e-11)
            assert capacity_cdf(c, spec, mu) == pytest.approx(
                numeric, abs=1e-9)

    def test_pdf_integrates_to_one(self):
        spec = ChannelSpec(20, 10.0, 5.0)
        mu = -2.5
        lo, hi = wigner.capacity_support(spec, mu)
        area = integrate(lambda c: wigner.capacity_pdf(c, spec, mu),
                         lo, hi, tol=1e-10)
        assert area == pytest.approx(1.0, abs=1e-7)


class TestPerModeQuantiles:
    def test_means_sit_at_midpoint_quantiles(self):
        spec = ChannelSpec(12, 10.0, 5.0)
        mu = -2.5
        means = wigner.per_mode_means_from_cdf(spec, mu)
        assert all(a < b for a, b in zip(means, means[1:]))
        for i, m in enumerate(means, start=1):
            assert capacity_cdf(m, spec, mu) == pytest.approx(
                (i - 0.5) / 12.0, abs=1e-10)

    def test_sigmas_positive_and_edge_heavy(self):
        spec = ChannelSpec(12, 10.0, 5.0)
        mu = -2.5
        means = wigner.per_mode_means_from_cdf(spec, mu)
        sigmas = wigner.per_mode_sigmas_from_pdf(spec, mu, means)
        assert all(s > 0 for s in sigmas)
        # the semicircle density vanishes at the edges, so each edge mode
        # spreads more than its inner neighbour (the capacity Jacobian
        # stretches the top edge hardest)
        assert sigmas[0] > sigmas[1]
        assert sigmas[-1] == max(sigmas)


    def test_vanishing_density_is_a_typed_error(self, monkeypatch):
        spec = ChannelSpec(12, 10.0, 5.0)
        means = wigner.per_mode_means_from_cdf(spec, -2.5)
        monkeypatch.setattr(wigner, "capacity_pdf", lambda *args: 0.0)
        with pytest.raises(DegenerateDistributionError):
            wigner.per_mode_sigmas_from_pdf(spec, -2.5, means)


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
        lo, hi = wigner.capacity_support(spec, stats.mu_lambda_db)
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 4001)
        pdf = np.array([wigner.capacity_pdf(c, spec, stats.mu_lambda_db)
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
