import math

import numpy as np
import pytest

from expbands.errors import NumericError
from expbands.numerics import brent_root, golden_section, integrate, integrate_panels
from expbands.special import gamma_cdf


class TestBrentRoot:
    @pytest.mark.parametrize("f, a, b, root", [
        (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: x**3 - 2.0, 0.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: math.exp(x) - 1e-8, -40.0, 5.0, math.log(1e-8)),
    ])
    def test_converges(self, f, a, b, root):
        assert brent_root(f, a, b, xtol=1e-14) == pytest.approx(root, abs=1e-12)

    def test_endpoint_root(self):
        assert brent_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0

    def test_unbracketed(self):
        with pytest.raises(NumericError):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_raises_when_iterations_run_out(self):
        with pytest.raises(NumericError):
            brent_root(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=0.0, max_iter=3)


class TestIntegratePanels:
    def test_smooth(self):
        value, err = integrate_panels(np.sin, [0.0, math.pi])
        assert value == pytest.approx(2.0, abs=1e-12) and err <= 1e-11

    def test_kink_at_edge_is_exact(self):
        value, _ = integrate_panels(lambda x: np.abs(x - 0.3), [0.0, 0.3, 1.0], abs_tol=1e-14)
        assert value == pytest.approx(0.045 + 0.245, abs=1e-14)

    def test_refines_narrow_peak(self):
        # a bump far narrower than the single panel is found by refinement
        f = lambda x: np.exp(-0.5 * ((x - 0.37) / 0.01) ** 2)
        value, _ = integrate_panels(f, [0.0, 1.0], abs_tol=1e-12)
        assert value == pytest.approx(0.01 * math.sqrt(2.0 * math.pi), abs=1e-11)

    def test_agrees_with_scalar_integrate(self):
        f = lambda x: math.exp(-x) * math.log1p(x)
        scalar, _ = integrate(f, 0.0, 5.0, abs_tol=1e-13)
        vector, _ = integrate_panels(lambda x: np.exp(-x) * np.log1p(x), [0.0, 2.0, 5.0],
                                     abs_tol=1e-13)
        assert vector == pytest.approx(scalar, abs=1e-12)

    def test_raises_when_panels_run_out(self):
        with pytest.raises(NumericError):
            integrate_panels(lambda x: 1.0 / np.sqrt(x), [0.0, 1.0], abs_tol=1e-14,
                             max_panels=8)

    def test_bad_edges(self):
        with pytest.raises(NumericError):
            integrate_panels(np.sin, [1.0, 0.0])
        with pytest.raises(NumericError):
            integrate_panels(np.sin, [0.0, math.inf])
        with pytest.raises(NumericError):
            integrate_panels(np.sin, [0.0])


class TestGoldenSection:
    def test_interior_maximum(self):
        x, v = golden_section(lambda t: np.sin(t), 0.0, 3.0, maximize=True)
        assert x == pytest.approx(math.pi / 2.0, abs=1e-7)
        assert v == pytest.approx(1.0, abs=1e-14)

    def test_interior_minimum(self):
        x, v = golden_section(lambda t: (t - 0.3) ** 2 + 2.0, -1.0, 4.0)
        assert x == pytest.approx(0.3, abs=1e-7) and v == pytest.approx(2.0, abs=1e-14)

    def test_lanes_with_different_brackets(self):
        # one lane per bracket; peaks of exp(-|t - c|) at c = 0.25, 7.7, -30
        centers = np.array([0.25, 7.7, -30.0])
        lo = np.array([0.0, 5.0, -100.0])
        hi = np.array([1.0, 40.0, 20.0])
        x, v = golden_section(lambda t: np.exp(-np.abs(t - centers)), lo, hi, maximize=True)
        assert x.shape == (3,)
        assert np.allclose(x, centers, rtol=0.0, atol=1e-8)
        assert np.allclose(v, 1.0, atol=1e-8)

    def test_lanes_agree_with_single_lane_searches(self):
        lo, hi = np.array([0.0, 0.0, -2.0]), np.array([1.0, 3.0, 4.0])
        f = lambda t: -(t - 0.6) ** 2
        x, v = golden_section(f, lo, hi, maximize=True)
        for i in range(3):
            xi, vi = golden_section(f, lo[i], hi[i], maximize=True)
            assert (x[i], v[i]) == (float(xi), float(vi))

    def test_maxima_at_endpoints(self):
        lo, hi = np.array([0.0, -3.0]), np.array([2.0, 5.0])
        x, v = golden_section(lambda t: t, lo, hi, maximize=True)
        assert np.array_equal(x, hi) and np.array_equal(v, hi)
        x, v = golden_section(lambda t: t, lo, hi)
        assert np.array_equal(x, lo) and np.array_equal(v, lo)

    def test_bracket_meets_tolerance(self):
        # the returned midpoint is within half the final bracket of the peak
        tol = 1e-6
        x, _ = golden_section(lambda t: -np.abs(t - 1.234), 0.0, 10.0, maximize=True, tol=tol)
        assert abs(float(x) - 1.234) <= tol * (2.0 * 1.234 + 1.0)

    def test_raises_when_rounds_run_out(self):
        with pytest.raises(NumericError):
            golden_section(np.sin, 0.0, 3.0, maximize=True, max_iter=5)


# increasing f on a bracket [a, b], f(a) < 0 < f(b)
ROOT_CASES = {
    "x-cos": (lambda x: x - math.cos(x), 0.0, 1.0),
    "cube": (lambda x: x**3 - 2.0, 0.0, 2.0),
    "exp": (lambda x: math.exp(x) - 1e-8, -40.0, 5.0),
    "log": (lambda x: math.log(x) - 3.0, 1.0, 100.0),
    "tanh": (lambda x: math.tanh(10.0 * (x - 0.3)), -1.0, 1.0),
    "x-exp": (lambda x: x * math.exp(x) - 5.0, 0.0, 3.0),
    "gamma-quantile": (lambda x: gamma_cdf(7.0, x) - 0.9, 0.0, 100.0),
}

# a vectorized integrand and edges at its kinks
INTEGRAL_CASES = {
    "sin": (np.sin, [0.0, math.pi]),
    "exp-log1p": (lambda x: np.exp(-x) * np.log1p(x), [0.0, 2.0, 5.0]),
    "narrow-peak": (lambda x: np.exp(-0.5 * ((x - 0.37) / 0.01) ** 2), [0.0, 1.0]),
    "power": (lambda x: x**2.5, [0.0, 1.0]),
    "lorentz": (lambda x: 1.0 / (1.0 + x * x), [-10.0, 0.0, 10.0]),
    "kink": (lambda x: np.abs(x - 0.3), [0.0, 0.3, 1.0]),
    "gamma-density": (lambda t: np.exp(math.log(7.0) - math.lgamma(6.0) + 5.0 * np.log(7.0 * t)
                                       - 7.0 * t), [1e-3, 0.5, 1.0, 2.0, 4.0, 8.0]),
}


class TestIndependentOracles:
    @pytest.mark.parametrize("case", ROOT_CASES)
    def test_roots_against_scipy_brentq(self, case):
        optimize = pytest.importorskip("scipy.optimize")
        f, a, b = ROOT_CASES[case]
        ref = optimize.brentq(f, a, b, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)
        # measured at most 1.1e-15 relative
        assert brent_root(f, a, b, xtol=1e-14) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("case", INTEGRAL_CASES)
    def test_integrate_panels_against_scipy_quad(self, case):
        quad = pytest.importorskip("scipy.integrate").quad
        f, edges = INTEGRAL_CASES[case]
        ref = sum(quad(lambda x: float(f(np.float64(x))), a, b, epsabs=1e-14, epsrel=1e-13,
                       limit=200)[0] for a, b in zip(edges, edges[1:]))
        value, _ = integrate_panels(f, edges, abs_tol=1e-13)
        assert value == pytest.approx(ref, rel=0.0, abs=1e-13)   # measured 8.9e-15
