import math

import numpy as np
import pytest

from expbands.errors import DomainError, UnsupportedCaseError
from expbands.special import (
    chi2_cdf,
    chi2_quantile,
    f_quantile,
    gamma_cdf,
    gamma_quantile,
    lambert_w0,
    lambert_wm1,
)

# frozen oracle values (independent constructions, see each test)
GAMMA_CDF_7_7 = 0.5502889441513011      # Erlang sum: 1 - e^-7 sum_{k<7} 7^k/k!
CHI2_Q_975_14 = 26.118948045037357      # bisection on gamma_cdf
F_Q_975_2_14 = 4.856697860675169        # closed form 7*((0.025)^(-1/7) - 1)
OMEGA = 0.5671432904097838              # Newton iteration on w*e^w = 1


class TestGammaCdf:
    def test_shape_one_is_exponential(self):
        assert gamma_cdf(1, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_support_boundary(self):
        assert gamma_cdf(1, 0.0) == 0.0
        assert gamma_cdf(3, -2.0) == 0.0

    def test_against_erlang_series_oracle(self):
        # direct series summation of the incomplete gamma integral at
        # integer shape: P(k, x) = 1 - e^-x sum_{j<k} x^j/j!
        oracle = 1.0 - math.exp(-7.0) * sum(7.0**k / math.factorial(k) for k in range(7))
        assert oracle == pytest.approx(GAMMA_CDF_7_7, abs=1e-15)
        assert gamma_cdf(7, 7.0) == pytest.approx(GAMMA_CDF_7_7, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(0.05, 30.0, 200)
        for k in (0.5, 1.0, 3.5, 7.0):
            vals = [gamma_cdf(k, x) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            gamma_cdf(0.0, 1.0)


class TestChi2Quantile:
    def test_two_df_median(self):
        assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_small_beta_limit(self):
        assert chi2_quantile(1e-9, 5) < 1e-3

    def test_against_bisection_oracle(self):
        lo, hi = 0.0, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gamma_cdf(7.0, mid / 2.0) < 0.975:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(CHI2_Q_975_14, abs=1e-12)
        assert chi2_quantile(0.975, 14) == pytest.approx(CHI2_Q_975_14, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 5, 14, 16])
    def test_cdf_quantile_roundtrip(self, k):
        for beta in np.arange(0.01, 1.0, 0.01):
            assert chi2_cdf(chi2_quantile(beta, k), k) == pytest.approx(beta, abs=1e-9)

    def test_monotone_in_beta(self):
        betas = np.linspace(0.01, 0.99, 50)
        for k in (2, 14):
            q = [chi2_quantile(b, k) for b in betas]
            assert all(b > a for a, b in zip(q, q[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 4)
        with pytest.raises(DomainError):
            chi2_quantile(1.0, 4)


class TestFQuantile:
    def test_median_2_2(self):
        # the F(2,2) ratio is symmetric under inversion, so the median is 1
        assert f_quantile(0.5, 2, 2) == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_upper_quantile(self):
        assert 7.0 * ((0.025) ** (-1.0 / 7.0) - 1.0) == pytest.approx(F_Q_975_2_14, abs=1e-14)
        assert f_quantile(0.975, 2, 14) == pytest.approx(F_Q_975_2_14, abs=1e-10)

    def test_monte_carlo_ratio_oracle(self, rng):
        # F(2,14) as a ratio of scaled chi-squares
        reps = 2_000_000
        num = rng.standard_exponential((reps, 1)).sum(axis=1) * 2.0 / 2.0
        den = rng.standard_exponential((reps, 7)).sum(axis=1) * 2.0 / 14.0
        draws = np.sort(num / den)
        mc = draws[int(math.ceil(0.975 * reps)) - 1]
        assert f_quantile(0.975, 2, 14) == pytest.approx(mc, abs=0.06)

    def test_numerator_df_other_than_two_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            f_quantile(0.5, 3, 7)

    def test_upper_tail_blows_up(self):
        assert f_quantile(1.0 - 1e-9, 2, 4) > 1e3


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_branch_point(self):
        x = -math.exp(-1.0)
        assert lambert_w0(x) == pytest.approx(-1.0, abs=1e-7)
        assert lambert_wm1(x) == pytest.approx(-1.0, abs=1e-7)

    def test_omega_constant(self):
        # independent Newton iteration oracle for W0(1)
        w = 1.0
        for _ in range(100):
            w -= (w * math.exp(w) - 1.0) / (math.exp(w) * (1.0 + w))
        assert w == pytest.approx(OMEGA, abs=1e-15)
        assert lambert_w0(1.0) == pytest.approx(OMEGA, abs=1e-12)

    def test_roundtrip_w0(self):
        for x in np.concatenate([np.linspace(-math.exp(-1) + 1e-12, 0.0, 300),
                                 np.geomspace(1e-6, 1e6, 300)]):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))

    def test_roundtrip_wm1(self):
        for x in np.linspace(-math.exp(-1) + 1e-12, -1e-12, 400):
            w = lambert_wm1(x)
            assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))

    def test_branch_ordering(self):
        for x in np.linspace(-math.exp(-1) + 1e-9, -1e-9, 100):
            assert lambert_wm1(x) <= -1.0 <= lambert_w0(x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)
        with pytest.raises(DomainError):
            lambert_wm1(0.1)
        with pytest.raises(DomainError):
            lambert_wm1(-1.0)


def test_gamma_quantile_roundtrip():
    for shape in (0.5, 1.0, 7.0, 49.5):
        for q in (0.01, 0.3, 0.9, 0.999):
            x = gamma_quantile(shape, q)
            assert gamma_cdf(shape, x) == pytest.approx(q, abs=1e-10)
