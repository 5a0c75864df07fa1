import math

import numpy as np
import pytest

from expbands.errors import DomainError
from expbands.regions import split_level
from expbands.special import (
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
            assert gamma_cdf(0.5 * k, 0.5 * chi2_quantile(beta, k)) == pytest.approx(beta, abs=1e-9)

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
        assert f_quantile(0.5, 2) == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_upper_quantile(self):
        assert 7.0 * ((0.025) ** (-1.0 / 7.0) - 1.0) == pytest.approx(F_Q_975_2_14, abs=1e-14)
        assert f_quantile(0.975, 14) == pytest.approx(F_Q_975_2_14, abs=1e-10)

    def test_monte_carlo_ratio_oracle(self, rng):
        # F(2,14) as a ratio of scaled chi-squares
        reps = 2_000_000
        num = rng.standard_exponential((reps, 1)).sum(axis=1) * 2.0 / 2.0
        den = rng.standard_exponential((reps, 7)).sum(axis=1) * 2.0 / 14.0
        draws = np.sort(num / den)
        mc = draws[int(math.ceil(0.975 * reps)) - 1]
        assert f_quantile(0.975, 14) == pytest.approx(mc, abs=0.06)

    def test_upper_tail_blows_up(self):
        assert f_quantile(1.0 - 1e-9, 4) > 1e3


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_branch_point(self):
        x = -math.exp(-1.0)
        assert lambert_w0(x) == pytest.approx(-1.0, abs=1e-7)
        assert lambert_wm1(x) == pytest.approx(-1.0, abs=1e-7)

    def test_roundtrip_w0(self):
        for x in np.linspace(-math.exp(-1) + 1e-12, 0.0, 300):
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
            lambert_w0(1e-300)   # the principal branch is kept on [-1/e, 0]
        with pytest.raises(DomainError):
            lambert_wm1(0.1)
        with pytest.raises(DomainError):
            lambert_wm1(-1.0)


def test_gamma_quantile_roundtrip():
    for shape in (0.5, 1.0, 7.0, 49.5):
        for q in (0.01, 0.3, 0.9, 0.999):
            x = gamma_quantile(shape, q)
            assert gamma_cdf(shape, x) == pytest.approx(q, abs=1e-10)


# independent oracles: scipy and mpmath are test-only, so each check skips
# where they are not installed; every tolerance sits above the measured error
def _production_chi2_levels():
    # both split-level quantiles of each level, at 2m-2 and 2m degrees of freedom
    for m in (2, 3, 5, 8, 13, 20, 50, 100, 200):
        for level in (0.5, 0.9, 0.9025, 0.95, 0.99, 0.999, 0.9999, 0.99999, 0.999999):
            for q in split_level(1.0 - level):
                yield q, 2 * m - 2
                yield q, 2 * m


class TestIndependentOracles:
    def test_gamma_cdf_against_scipy(self):
        sp = pytest.importorskip("scipy.special")
        for a in (1.0, 1.5, 2.0, 3.5, 7.0, 12.5, 25.0, 49.5, 99.0, 150.0, 199.0, 200.0):
            for x in np.union1d(np.geomspace(1e-6, 2e3, 80), a * np.linspace(0.5, 1.5, 21)):
                ref = sp.gammainc(a, x)
                if ref < 0.5:   # measured 2.3e-13 relative
                    assert gamma_cdf(a, x) == pytest.approx(ref, rel=1e-12, abs=1e-300)
                else:           # measured 5.0e-14 absolute
                    assert gamma_cdf(a, x) == pytest.approx(ref, rel=0.0, abs=1e-13)

    def test_chi2_quantile_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for q, k in _production_chi2_levels():
            # ppf below the median, isf above it, so the tail keeps its digits
            ref = stats.chi2.ppf(q, k) if q < 0.5 else stats.chi2.isf(1.0 - q, k)
            assert chi2_quantile(q, k) == pytest.approx(ref, rel=5e-11)   # measured 9.5e-12

    def test_f_quantile_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for k in (2, 4, 14, 98, 389, 398):
            for beta in (1e-12, 1e-10, 2.5e-7, 1e-3, 0.025, 0.5, 0.975, 0.999999):
                assert f_quantile(beta, k) == pytest.approx(stats.f.ppf(beta, 2, k), rel=1e-14)

    def test_lambert_branches_against_mpmath(self):
        # mpmath, not scipy, for branch -1: scipy's lambertw(x, -1) at
        # x = -0.3678794393699223 gives -1.0000000147 against -1.0000989683
        mpmath = pytest.importorskip("mpmath")
        gap = np.concatenate([np.geomspace(1e-16, 1e-8, 40),
                              np.geomspace(1e-8, math.exp(-1), 200)])
        xs = np.concatenate([-math.exp(-1) + gap, -np.geomspace(1e-300, 1e-2, 60)])
        for x in (float(v) for v in xs if v < 0.0):
            # e x + 1 cancels next to -1/e: measured 2.7e-9 there, 4.6e-13 elsewhere
            tol = 1e-12 if x + math.exp(-1) >= 1e-8 else 1e-8
            for branch, w in ((0, lambert_w0), (-1, lambert_wm1)):
                with mpmath.workdps(30):
                    ref = float(mpmath.lambertw(x, branch).real)
                assert w(x) == pytest.approx(ref, rel=tol)
