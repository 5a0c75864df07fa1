"""Standalone property suites: boundary monotonicity and ordering for every
band construction, exhaustiveness of the trapezoid regions, a found
non-comprehensiveness witness for the minimum-area region, trimming
inclusions, the reliability involution, the marginal transform's
bijection properties, and the location-scale equivariance of every region
and band, its views, metrics and grid.
"""

import math

import numpy as np
import pytest

from expbands.bands import (
    METHODS,
    Band,
    band_b1,
    band_b2,
    band_b3,
    band_b4,
    band_b4_trimmed,
    default_grid,
    graph_contained,
    marginal_band,
    marginal_transform_h,
    reliability_band,
)
from expbands.metrics import band_metrics
from expbands.model import LocScale, MleEstimate
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


BAND_KINDS = ("b1", "b2", "b3", "b4", "b4p", "b4pp")
# mu_hat/sigma_hat from 0.02 to 1e5: at 17 and 1e5 a data-axis location lost
# digits to rounding, and sigma_hat = 1e-3 is below the old grid's 1-unit step
ESTIMATES = ((17.0, 1.0), (1e5, 1.0), (0.19, 8.635), (5.0, 1e-3))


@pytest.fixture(scope="module")
def unit_bands(fluid_scheme):
    return {kind: METHODS[kind].build(MleEstimate(0.0, 1.0), fluid_scheme, LEVEL,
                                      METHODS[kind].constants(fluid_scheme, LEVEL)[0])
            for kind in BAND_KINDS}


def _views(band, gammas):
    return {"cdf": band, "reliability": reliability_band(band),
            "marginal": marginal_band(band, gammas)}


def _build(kind, mu_hat, sigma_hat, scheme):
    return METHODS[kind].build(MleEstimate(mu_hat, sigma_hat), scheme, LEVEL,
                               METHODS[kind].constants(scheme, LEVEL)[0])


@pytest.mark.parametrize("mu_hat, sigma_hat", ESTIMATES)
def test_every_band_is_its_unit_band(mu_hat, sigma_hat, fluid_scheme, unit_bands):
    """Each band at (mu_hat, sigma_hat), in its cdf, reliability and marginal
    views, is the unit band read at (x - mu_hat)/sigma_hat, bit for bit."""
    x = mu_hat + sigma_hat * np.linspace(-3.0, 30.0, 400)
    z = (x - mu_hat) / sigma_hat
    for kind in BAND_KINDS:
        built = _views(_build(kind, mu_hat, sigma_hat, fluid_scheme), fluid_scheme.gammas)
        for view, unit in _views(unit_bands[kind], fluid_scheme.gammas).items():
            assert np.array_equal(built[view].lower(x), unit.lower(z)), (kind, view)
            assert np.array_equal(built[view].upper(x), unit.upper(z)), (kind, view)


@pytest.mark.parametrize("mu_hat, sigma_hat", ESTIMATES)
def test_band_metrics_scale_with_the_estimate(mu_hat, sigma_hat, fluid_scheme, unit_bands):
    """The maximum width is the unit band's, its argmax reads mu_hat +
    sigma_hat x*, and the area is sigma_hat A, to 1 ulp in every view, since
    the metrics run on the unit band itself. Only a marginal area is held to
    1e-14 relative: its quadrature runs to abs_tol/sigma_hat."""
    for kind in BAND_KINDS:
        built = _views(_build(kind, mu_hat, sigma_hat, fluid_scheme), fluid_scheme.gammas)
        for view, unit in _views(unit_bands[kind], fluid_scheme.gammas).items():
            got, ref = band_metrics(built[view]), band_metrics(unit)
            assert got.max_width == ref.max_width, (kind, view)
            x = mu_hat + sigma_hat * ref.width_argmax
            assert abs(got.width_argmax - x) <= math.ulp(x), (kind, view)
            a = sigma_hat * ref.area
            tol = 1e-14 * a if view == "marginal" else math.ulp(a)
            assert got.area == a if math.isinf(a) else abs(got.area - a) <= tol, (kind, view)


@pytest.mark.parametrize("sigma_hat", (1e-4, 1e-3, 1.0, 8.635, 1e3))
def test_default_grid_is_the_unit_grid(sigma_hat, fluid_scheme, unit_bands):
    # the grid used to step on at least one data unit, so at sigma_hat = 1e-3
    # it ran on to 1000 sigma_hat, where the band had long closed
    mu_hat = 0.19
    for kind in BAND_KINDS:
        built = _build(kind, mu_hat, sigma_hat, fluid_scheme)
        for band, unit in ((built, unit_bands[kind]),
                           (marginal_band(built, fluid_scheme.gammas),
                            marginal_band(unit_bands[kind], fluid_scheme.gammas))):
            got, want = (default_grid(band) - mu_hat) / sigma_hat, default_grid(unit)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want))), kind


def _assert_boundary_is_unit(built, ref, mu_hat, sigma_hat):
    got, want = built.boundary(128), ref.boundary(128)
    assert got.shape == want.shape
    # mu to 1e-14 of its terms, the unit location taken at least 1e-2
    # sigma: the ends cancel to 0 at the outer scale edges
    terms = mu_hat + sigma_hat * np.maximum(np.abs(want[:, 0]), 1e-2 * want[:, 1])
    assert np.all(np.abs(got[:, 0] - (mu_hat + sigma_hat * want[:, 0])) <= 1e-14 * terms)
    assert np.allclose(got[:, 1], sigma_hat * want[:, 1], rtol=1e-14, atol=0.0)


def test_c3_boundary_is_its_unit_boundary_near_the_lambert_edge(fluid_scheme):
    # at this estimate an upper T edge taken as sigma_hat/z_lo moved the
    # boundary's T grid by an ulp, and near the Lambert edge, where the ends
    # cancel, mu moved by 1.3 times the bound; the edge now comes from the
    # pivot roots alone
    c_p = METHODS["c3"].constants(fluid_scheme, LEVEL)[0]["c_p"]
    built = build_c3(MleEstimate(1.0, 583.765625), fluid_scheme, c_p)
    _assert_boundary_is_unit(built, build_c3(MleEstimate(0.0, 1.0), fluid_scheme, c_p),
                             1.0, 583.765625)


def test_location_scale_equivariance(fluid_scheme):
    """Every region and band built at (mu_hat, sigma_hat) is the unit one,
    built at (0, 1) with the same constants, read at (x - mu_hat)/sigma_hat:
    its boundaries agree, a band's bit for bit, and so do membership and
    graph containment at the standardized theta, off the boundary."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    kinds = ("c1", "c2", "c3", "c4p", "c4pp", "b1", "b2", "b3", "b4", "b4p", "b4pp")
    constants = {kind: METHODS[kind].constants(fluid_scheme, LEVEL)[0] for kind in kinds}
    unit = {kind: METHODS[kind].build(MleEstimate(0.0, 1.0), fluid_scheme, LEVEL, constants[kind])
            for kind in kinds}
    u = np.linspace(-3.0, 30.0, 200)

    def covers(obj, mu, sigma):
        if isinstance(obj, Band):
            return graph_contained(obj, LocScale(mu, sigma))
        return bool(obj.contains(mu, sigma))

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(kinds), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
           st.floats(-1.0, 0.3), st.floats(0.3, 3.0))
    def check(kind, mu_hat, sigma_hat, a, s):
        built = METHODS[kind].build(MleEstimate(mu_hat, sigma_hat), fluid_scheme, LEVEL,
                                    constants[kind])
        ref = unit[kind]
        if isinstance(built, Band):
            x = mu_hat + sigma_hat * u
            z = (x - mu_hat) / sigma_hat
            assert np.array_equal(built.lower(x), ref.lower(z))
            assert np.array_equal(built.upper(x), ref.upper(z))
        else:
            _assert_boundary_is_unit(built, ref, mu_hat, sigma_hat)
        theta = LocScale(mu_hat + sigma_hat * a, sigma_hat * s)
        std = ((theta.mu - mu_hat) / sigma_hat, theta.sigma / sigma_hat)
        # off the boundary by far more than the standardization's rounding
        d = 1e-9 * (1.0 + mu_hat / sigma_hat)
        verdict = covers(ref, *std)
        assume(all(covers(ref, std[0] + i * d, std[1] * (1.0 + j * d)) == verdict
                   for i in (-1, 1) for j in (-1, 1)))
        assert covers(built, theta.mu, theta.sigma) == verdict

    check()
