import math

import numpy as np
import pytest

from expbands.errors import NumericError
from expbands.numerics import brent_root, integrate, integrate_panels
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
