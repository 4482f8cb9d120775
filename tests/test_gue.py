import math
from fractions import Fraction

import numpy as np
import pytest

from sdmcap import gue
from sdmcap.channel import ChannelSpec
from sdmcap.errors import (
    DegenerateDistributionError,
    RootLocalizationError,
    UnsupportedOrderError,
)
from tests.reference import integrate

# published density coefficients for D = 6
BETA_D6 = (
    Fraction(322, 3125),
    Fraction(4557, 1250),
    Fraction(-17493, 625),
    Fraction(256221, 3125),
    Fraction(-259308, 3125),
    Fraction(453789, 15625),
)

MU_LAMBDA_D6_S5 = -2.609933123550317
GAIN_MEANS_D6_S5 = [-9.7225379588, -6.6284966957, -3.9188146585,
                    -1.3010515886, 1.4086304486, 4.5026717117]
GAIN_SIGMAS_D6_S5 = [1.1275952436, 0.8897458038, 0.8136183612,
                     0.8136183612, 0.8897458038, 1.1275952436]


class TestDeriveCoefficients:
    def test_d6_matches_published_values_exactly(self):
        coeffs = gue.derive_coefficients(6)
        assert coeffs.beta == BETA_D6
        assert coeffs.alpha == pytest.approx(math.sqrt(14.0 / math.pi), abs=1e-12)

    @pytest.mark.parametrize("D", range(2, 9))
    def test_unit_area_and_variance_are_exact(self, D):
        coeffs = gue.derive_coefficients(D)
        # (2j - 1)!! / (D+1)^j: the Gaussian moments in units of sqrt(2 pi / (D+1))
        moments = [Fraction(math.factorial(2 * j) // (2**j * math.factorial(j)), (D + 1) ** j)
                   for j in range(D + 1)]
        area = 2 * sum(b * moments[j] for j, b in enumerate(coeffs.beta))
        second = 2 * sum(b * moments[j + 1] for j, b in enumerate(coeffs.beta))
        assert area == second == 1
        assert gue.unit_area_check(coeffs) == gue.unit_variance_check(coeffs) == 1

    @pytest.mark.parametrize("D", [1, 9, 0, -3])
    def test_out_of_range_orders_rejected(self, D):
        with pytest.raises(UnsupportedOrderError):
            gue.derive_coefficients(D)

    def test_numeric_area_and_variance(self):
        coeffs = gue.derive_coefficients(4)
        unit = ChannelSpec(4, 0.0, 1.0)
        pdf = lambda x: gue.ensemble_pdf(x, unit, coeffs, 0.0)
        assert integrate(pdf, -8.0, 8.0, tol=1e-11) == pytest.approx(1.0, abs=1e-9)
        second = integrate(lambda x: x * x * pdf(x), -8.0, 8.0, tol=1e-11)
        assert second == pytest.approx(1.0, abs=1e-8)


class TestEnsemblePdf:
    def test_zero_sigma_is_degenerate(self):
        coeffs = gue.derive_coefficients(3)
        with pytest.raises(DegenerateDistributionError):
            gue.ensemble_pdf(0.0, ChannelSpec(3, 10.0, 0.0), coeffs, 0.0)

    def test_density_is_nonnegative_on_support(self):
        coeffs = gue.derive_coefficients(6)
        spec = ChannelSpec(6, 10.0, 5.0)
        xs = np.linspace(-25.0, 20.0, 500)
        assert all(gue.ensemble_pdf(x, spec, coeffs, -2.61) >= -1e-15 for x in xs)

    def test_matches_sampled_fixed_trace_eigenvalues(self):
        # direct fixed-trace sampler: GUE eigenvalues, per-trial centering,
        # pooled rescaling to the unit-variance shape
        D, trials = 4, 100_000
        rng = np.random.default_rng(2024)
        a = rng.standard_normal((trials, D, D)) + 1j * rng.standard_normal((trials, D, D))
        lam = np.linalg.eigvalsh((a + np.conjugate(np.swapaxes(a, -2, -1))) / 2.0)
        lam -= lam.mean(axis=1, keepdims=True)
        samples = np.sort((lam / lam.std(ddof=1)).ravel())

        coeffs = gue.derive_coefficients(D)
        unit = ChannelSpec(D, 0.0, 1.0)
        pdf = lambda x: gue.ensemble_pdf(x, unit, coeffs, 0.0)
        grid = np.linspace(-4.0, 4.0, 4001)
        vals = np.array([pdf(x) for x in grid])
        cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0
                                               * np.diff(grid))])
        cdf /= cdf[-1]
        model = np.interp(samples, grid, cdf)
        n = len(samples)
        ks = max(
            np.abs(model - np.arange(1, n + 1) / n).max(),
            np.abs(model - np.arange(n) / n).max(),
        )
        assert ks < 0.01


class TestMeanLogGain:
    def test_case_study_value(self):
        spec = ChannelSpec(6, 10.0, 5.0)
        coeffs = gue.derive_coefficients(6)
        mu = gue.mean_log_gain(spec, coeffs)
        assert mu == pytest.approx(-2.609, abs=0.002)
        assert mu == pytest.approx(MU_LAMBDA_D6_S5, abs=1e-9)

    def test_zero_sigma_shortcut(self):
        assert gue.mean_log_gain(ChannelSpec(4, 10.0, 0.0), None) == 0.0

    def test_unit_linear_mean_holds(self):
        spec = ChannelSpec(5, 10.0, 4.0)
        coeffs = gue.derive_coefficients(5)
        mu = gue.mean_log_gain(spec, coeffs)
        linear_mean = integrate(
            lambda x: 10.0 ** (x / 10.0) * gue.ensemble_pdf(x, spec, coeffs, mu),
            mu - 80.0, mu + 80.0, tol=1e-10, initial_panels=64,
        )
        assert linear_mean == pytest.approx(1.0, abs=1e-8)


class TestPerModeStatistics:
    def test_case_study_means_and_sigmas(self):
        spec = ChannelSpec(6, 10.0, 5.0)
        coeffs = gue.derive_coefficients(6)
        means = gue.per_mode_means(spec, coeffs, MU_LAMBDA_D6_S5)
        sigmas = gue.per_mode_sigmas(spec, coeffs, MU_LAMBDA_D6_S5, means)
        assert means == pytest.approx(GAIN_MEANS_D6_S5, abs=1e-8)
        assert sigmas == pytest.approx(GAIN_SIGMAS_D6_S5, abs=1e-8)

    def test_vanishing_density_is_a_typed_error(self, monkeypatch):
        spec = ChannelSpec(6, 10.0, 5.0)
        coeffs = gue.derive_coefficients(6)
        monkeypatch.setattr(gue, "ensemble_pdf", lambda *args: 0.0)
        with pytest.raises(DegenerateDistributionError):
            gue.per_mode_sigmas(spec, coeffs, MU_LAMBDA_D6_S5, GAIN_MEANS_D6_S5)

    def test_means_are_ordered_and_symmetric(self):
        for D in (2, 3, 5, 8):
            spec = ChannelSpec(D, 10.0, 3.0)
            coeffs = gue.derive_coefficients(D)
            mu = gue.mean_log_gain(spec, coeffs)
            means = gue.per_mode_means(spec, coeffs, mu)
            assert len(means) == D
            assert all(a < b for a, b in zip(means, means[1:]))
            # stationary points of the density are symmetric about its mean
            centered = [m - mu for m in means]
            for lo, hi in zip(centered, reversed(centered)):
                assert lo == pytest.approx(-hi, abs=1e-7)

    @pytest.mark.parametrize("beta", [
        (Fraction(1), Fraction(0), Fraction(1)),  # Q(v) = -4 (v^2 - v + 1): complex roots
        (Fraction(1), Fraction(0)),               # Q(v) = -3: no stationary point but 0
    ])
    def test_unlocalizable_stationary_points_raise(self, beta):
        coeffs = gue.GueCoefficients(D=len(beta), alpha=1.0, beta=beta)
        with pytest.raises(RootLocalizationError):
            gue.per_mode_means(ChannelSpec(coeffs.D, 10.0, 3.0), coeffs, 0.0)

    def test_means_are_density_maxima(self):
        spec = ChannelSpec(6, 10.0, 5.0)
        coeffs = gue.derive_coefficients(6)
        means = gue.per_mode_means(spec, coeffs, MU_LAMBDA_D6_S5)
        for m in means:
            f0 = gue.ensemble_pdf(m, spec, coeffs, MU_LAMBDA_D6_S5)
            assert f0 > gue.ensemble_pdf(m - 0.05, spec, coeffs, MU_LAMBDA_D6_S5)
            assert f0 > gue.ensemble_pdf(m + 0.05, spec, coeffs, MU_LAMBDA_D6_S5)
