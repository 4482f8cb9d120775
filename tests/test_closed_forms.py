"""Closed-form analytic path against the adaptive-quadrature reference.

The mean log-gain, the exact total-capacity mean, the GUE stationary points
and the semicircle quantiles are computed from exact formulas.  These tests
hold them to the reference quadrature ``tests.reference.integrate`` over D
in {2..8, 12, 20, 40, 100}, sigma_mdg in [0.5, 15] dB and SNR in [0, 30] dB,
and to per-mode values frozen from the quadrature, root-scan and bisection
implementation.
"""

import math

import pytest

from sdmcap import gue, total
from sdmcap.capacity import per_mode_stats
from sdmcap.channel import ChannelSpec
from tests.reference import integrate, semicircle_pdf

MODES = (2, 3, 4, 5, 6, 7, 8, 12, 20, 40, 100)
SIGMAS = (0.5, 5.0, 15.0)
SNRS = (0.0, 30.0)

# (D, SNR dB, sigma dB) -> per-mode log-gain means, dB (GUE track)
FROZEN_GAIN_MEANS = {
    (2, 10.0, 1.0): [-0.930955495798106, 0.7020376660573754],
    (5, 10.0, 7.5): [-15.48168439084385, -10.119672685270231, -5.344258840846241,
                     -0.5688449964222482, 4.793166709151366],
    (8, 20.0, 10.0): [-23.82817158107343, -18.870696905939294, -14.60406650707638,
                      -10.60605472946852, -6.683477438847325, -2.6854656612394674,
                      1.5811647376234497, 6.538639412757586],
}

# (D, SNR dB, sigma dB) -> {mode index: capacity mean, bit/s/Hz} (semicircle)
FROZEN_CAP_MEANS = {
    (12, 5.0, 2.5): {0: 1.0266367379985657, 1: 1.199068185113204,
                     6: 1.964162391112308, 10: 2.7199086178685805,
                     11: 2.9967070396594306},
    (40, 20.0, 10.0): {0: 0.2547261918680918, 1: 0.3606797094504226,
                       20: 3.988850416109246, 38: 9.347166857688919,
                       39: 9.90308702109585},
    (100, 30.0, 15.0): {0: 0.04557360920805441, 1: 0.06182255059648148,
                        50: 4.726780802252872, 98: 13.699514352615566,
                        99: 14.147594813843519},
    (100, 0.0, 0.5): {0: 0.845285645042015, 1: 0.8519277842840329,
                      50: 0.9965333366533706, 98: 1.1544746181823453,
                      99: 1.1627205878649813},
}


def _unit_density(D):
    """Density of u = (x - mu) / sigma on the track ``per_mode_stats``
    picks for D, with a support outside which it is negligible."""
    if D <= gue.SUPPORTED_MAX:
        coeffs, unit = gue.derive_coefficients(D), ChannelSpec(D, 0.0, 1.0)
        return (lambda u: gue.ensemble_pdf(u, unit, coeffs, 0.0)), (-12.0, 12.0)
    return (lambda u: semicircle_pdf(u, 1.0, 0.0)), (-2.0, 2.0)


@pytest.mark.parametrize("D", MODES)
def test_mean_log_gain_matches_quadrature(D):
    pdf, (lo, hi) = _unit_density(D)
    for sigma in SIGMAS:
        linear_mean = integrate(lambda u: 10.0 ** (sigma * u / 10.0) * pdf(u),
                                lo, hi, tol=1e-12, initial_panels=64)
        stats = per_mode_stats(ChannelSpec(D, 10.0, sigma))
        assert stats.mu_lambda_db == pytest.approx(
            -10.0 * math.log10(linear_mean), abs=1e-9)


@pytest.mark.parametrize("D", MODES)
def test_exact_total_mean_matches_quadrature(D):
    pdf, (lo, hi) = _unit_density(D)
    for sigma in SIGMAS:
        for snr_db in SNRS:
            spec = ChannelSpec(D, snr_db, sigma)
            stats = per_mode_stats(spec)
            snr, mu = spec.snr_linear, stats.mu_lambda_db
            reference = D * integrate(
                lambda u: math.log2(1.0 + snr * 10.0 ** ((sigma * u + mu) / 10.0)) * pdf(u),
                lo, hi, tol=1e-11, initial_panels=64)
            assert total.exact_total_mean(spec, stats) == pytest.approx(
                reference, rel=1e-9)


@pytest.mark.parametrize("point", sorted(FROZEN_GAIN_MEANS))
def test_gue_gain_means_frozen(point):
    stats = per_mode_stats(ChannelSpec(*point))
    assert stats.gain_means == pytest.approx(FROZEN_GAIN_MEANS[point], abs=1e-10)


@pytest.mark.parametrize("point", sorted(FROZEN_CAP_MEANS))
def test_semicircle_cap_means_frozen(point):
    stats = per_mode_stats(ChannelSpec(*point))
    for i, want in FROZEN_CAP_MEANS[point].items():
        assert stats.cap_means[i] == pytest.approx(want, abs=1e-10)
