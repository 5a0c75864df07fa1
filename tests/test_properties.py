"""Standalone property suites: boundary monotonicity and ordering for every
band construction, exhaustiveness of the trapezoid regions, a found
non-comprehensiveness witness for the minimum-area region, trimming
inclusions, the reliability involution, and the marginal transform's
bijection properties.
"""

import numpy as np
import pytest

from expbands.bands import (
    band_b1,
    band_b2,
    band_b3,
    band_b4,
    band_b4_trimmed,
    graph_contained,
    marginal_band,
    marginal_transform_h,
    reliability_band,
)
from expbands.model import LocScale
from expbands.regions import build_c1, build_c2, build_c3

LEVEL = 0.9025
P = 1.0 - LEVEL
CP = -11.587
DP = 0.249


@pytest.fixture(scope="module")
def bands(fluid_est, fluid_scheme):
    base = {
        "b1": band_b1(fluid_est, fluid_scheme, P),
        "b2": band_b2(fluid_est, fluid_scheme, P),
        "b3": band_b3(fluid_est, fluid_scheme, CP, nominal_p=0.127),
        "b4": band_b4(fluid_est, DP, level=LEVEL),
        "b4p": band_b4_trimmed(fluid_est, DP, trimmed=False, level=LEVEL),
        "b4pp": band_b4_trimmed(fluid_est, DP, trimmed=True, level=LEVEL),
    }
    base["marginal-of-b1"] = marginal_band(base["b1"], fluid_scheme.gammas)
    base["reliability-of-b4"] = reliability_band(base["b4"])
    return base


GRID = np.linspace(-25.0, 120.0, 6000)


@pytest.mark.parametrize("kind", ["b1", "b2", "b3", "b4", "b4p", "b4pp",
                                  "marginal-of-b1", "reliability-of-b4"])
def test_boundary_monotonicity_and_ordering(kind, bands):
    band = bands[kind]
    lo = np.asarray(band.lower(GRID))
    hi = np.asarray(band.upper(GRID))
    assert np.all(lo >= -1e-15) and np.all(hi <= 1.0 + 1e-15)
    assert np.all(lo <= hi + 1e-12)
    tol = 1e-12
    if band.increasing:
        assert np.all(np.diff(lo) >= -tol)
        assert np.all(np.diff(hi) >= -tol)
    else:
        assert np.all(np.diff(lo) <= tol)
        assert np.all(np.diff(hi) <= tol)


def test_exhaustiveness_equivalence_c1_c2(fluid_est, fluid_scheme, rng):
    for band, region in ((band_b1(fluid_est, fluid_scheme, P),
                          build_c1(fluid_est, fluid_scheme, P)),
                         (band_b2(fluid_est, fluid_scheme, P),
                          build_c2(fluid_est, fluid_scheme, P))):
        matched = 0
        while matched < 200:
            theta = LocScale(fluid_est.mu_hat - float(rng.uniform(-0.5, 3.0)),
                             float(rng.uniform(2.0, 35.0)))
            inside = bool(region.contains(theta.mu, theta.sigma))
            # stay off the razor edge where a finite grid cannot decide
            shell = bool(region.contains(theta.mu, theta.sigma * 1.01)) != bool(
                region.contains(theta.mu, theta.sigma * 0.99))
            if shell:
                continue
            assert inside == graph_contained(band, theta)
            matched += 1


def test_c3_noncomprehensiveness_witness(fluid_est, fluid_scheme, rng):
    region = build_c3(fluid_est, fluid_scheme, CP)
    for _ in range(20_000):
        mu = fluid_est.mu_hat - rng.uniform(0.0, 2.0, size=2)
        sigma = rng.uniform(region.z_lo, region.z_hi, size=2)
        lo = (min(mu), min(sigma))
        hi = (max(mu), max(sigma))
        if not (region.contains(*lo) and region.contains(*hi)):
            continue
        w = rng.uniform(0.0, 1.0, size=2)
        z = (lo[0] + w[0] * (hi[0] - lo[0]), lo[1] + w[1] * (hi[1] - lo[1]))
        if not region.contains(*z):
            return
    pytest.fail("no comprehensiveness violation found")


def test_trim_inclusion_chain(bands):
    xs = GRID
    for tighter, wider in (("b4pp", "b4p"), ("b4p", "b4")):
        assert np.all(np.asarray(bands[tighter].lower(xs))
                      >= np.asarray(bands[wider].lower(xs)))
        assert np.all(np.asarray(bands[tighter].upper(xs))
                      <= np.asarray(bands[wider].upper(xs)))


def test_reliability_involution(bands):
    for kind in ("b1", "b3", "b4pp"):
        band = bands[kind]
        back = reliability_band(reliability_band(band))
        assert back.kind == band.kind
        assert np.array_equal(np.asarray(back.lower(GRID)),
                              np.asarray(band.lower(GRID)))
        assert np.array_equal(np.asarray(back.upper(GRID)),
                              np.asarray(band.upper(GRID)))


def test_marginal_transform_bijection(rng):
    for _ in range(25):
        size = int(rng.integers(2, 9))
        g = np.sort(rng.uniform(0.5, 25.0, size=size))
        if np.min(np.diff(g)) < 1e-3:
            continue
        g = tuple(float(v) for v in g)
        assert marginal_transform_h(g, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert marginal_transform_h(g, 1.0) == 1.0
        ys = np.linspace(0.0, 0.97, 200)
        h = marginal_transform_h(g, ys)
        # strict increase is checked away from both ends, where H can
        # round to 0 or 1
        live = (h > 1e-8) & (h < 1.0 - 1e-12)
        assert live.sum() > 50
        assert np.all(np.diff(h[live]) > 0)
        assert np.all(np.diff(h) >= -1e-12)
        assert np.all((h >= 0) & (h <= 1))
