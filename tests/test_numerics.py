import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmcap.errors import DegenerateDistributionError
from sdmcap.numerics import hermite, inverse_erf, matched_sigma
from tests.reference import QuadratureError, bisect, integrate


class TestHermite:
    def test_first_few_physicists_polynomials(self):
        assert hermite(0) == (Fraction(1),)
        assert hermite(1) == (0, Fraction(2))
        assert hermite(2) == (Fraction(-2), 0, Fraction(4))
        assert hermite(3) == (0, Fraction(-12), 0, Fraction(8))
        assert hermite(4) == (Fraction(12), 0, Fraction(-48), 0, Fraction(16))

    def test_recurrence(self):
        # H_{n+1} = 2x H_n - 2n H_{n-1}, power by power
        for n in range(1, 8):
            h_n, h_prev = hermite(n), hermite(n - 1)
            rhs = tuple(2 * (h_n[p - 1] if p else 0) - 2 * n * (h_prev[p] if p < n else 0)
                        for p in range(n + 2))
            assert hermite(n + 1) == rhs


class TestIntegrate:
    def test_polynomial_is_exact(self):
        assert integrate(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)

    def test_gaussian_integral(self):
        value = integrate(lambda x: math.exp(-x * x), -10.0, 10.0, tol=1e-12)
        assert value == pytest.approx(math.sqrt(math.pi), abs=1e-11)

    def test_budget_exhaustion_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as err:
            integrate(lambda x: abs(x - math.pi / 10) ** -0.5, 0.0, 1.0,
                      tol=1e-14, max_depth=4)
        assert math.isfinite(err.value.best_estimate)


class TestRootFinding:
    def test_bisect_cubic(self):
        root = bisect(lambda x: x**3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-11)


@pytest.mark.parametrize("density, modes", [
    (0.0, 1), (-0.0, 6), (-1e-300, 1), (-2.5, 6),
    (1e-300, 1), (0.0517, 1), (0.0517, 6), (1.0, 8), (3.7, 100),
])
def test_matched_sigma(density, modes):
    if density <= 0:
        with pytest.raises(DegenerateDistributionError):
            matched_sigma(density, modes)
    else:
        assert matched_sigma(density, modes) == 1.0 / (modes * math.sqrt(2.0 * math.pi)
                                                       * density)


@pytest.mark.parametrize("density, modes", [
    (math.inf, 1), (math.nan, 6), (1e308, 100), (1e-320, 1)])
def test_matched_sigma_is_finite_and_positive(density, modes):
    # an infinite or NaN density, or one whose deviation rounds to 0 or to
    # infinity, has no Gaussian match
    with pytest.raises(DegenerateDistributionError):
        matched_sigma(density, modes)


class TestInverseErf:
    @pytest.mark.parametrize("y", [-0.999, -0.5, -1e-6, 0.0, 0.1, 0.9, 0.99999])
    def test_roundtrip(self, y):
        assert math.erf(inverse_erf(y)) == pytest.approx(y, abs=1e-12)

    def test_normal_quantile_value(self):
        # standard-normal quantile at p = 0.01 via sqrt(2) erfinv(2p - 1)
        q = math.sqrt(2.0) * inverse_erf(2.0 * 0.01 - 1.0)
        assert q == pytest.approx(-2.3263478740408408, abs=1e-9)

    @given(st.floats(-0.99999, 0.99999))
    @settings(max_examples=200)
    def test_roundtrip_property(self, y):
        assert math.erf(inverse_erf(y)) == pytest.approx(y, abs=1e-11)

    def test_domain_edges(self):
        with pytest.raises(ValueError):
            inverse_erf(1.0)
        with pytest.raises(ValueError):
            inverse_erf(-1.5)
