import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from expbands.bands import METHODS, event_probability, ks_distance_xy
from expbands.calibration import calibrate_cp, tau_of_p
from expbands.errors import DomainError, InfeasibleLevelError, UnsupportedCaseError
from expbands.metrics import coverage_experiment
from expbands.model import MleEstimate
from expbands.numerics import integrate
from expbands.regions import (
    Event,
    _ks_ends,
    build_c1,
    build_c2,
    build_c3,
    build_c4,
    comprehensive_convex_hull_delta_prob,
    cp_pivot,
    cp_supremum,
    ks_event,
    lambert_interval,
    region_from_dict,
    region_to_dict,
    split_level,
)

LEVEL = 0.9025
P = 1.0 - LEVEL
CP_PAPER = -11.587
DP_PAPER = 0.249


def c3_offset(region, sigma):
    """The minimum-area region's curved edge: the signed location offset from
    mu_hat at scale sigma where its pivot equals c_p."""
    ratio = np.log(region.sigma_hat) - np.log(sigma)
    return ((region.c_p - (region.m + 1) * ratio) * sigma + region.m * region.sigma_hat) / region.n


def h_curve(t, d_p):
    """The sup-distance boundary function h(t) = ln(d_p/|1-t|)(t-1) + t ln(t)
    as the region's slopes evaluate it, read from the first array that
    `_ks_ends` fills."""
    t = np.asarray(t, dtype=float)
    h = np.empty(t.shape)
    next(_ks_ends(t, h, np.empty(t.shape), np.empty(t.shape, bool), None, d_p, 1.0, False))
    return float(h) if h.ndim == 0 else h


def hull_event(c3):
    """The comprehensive convex hull of a minimum-area region, b3's event."""
    return Event(functools.partial(c3._ends, hull=True), (c3.y / c3.m, c3.z / c3.m))


def test_split_level_uniform_allocation():
    q1, q2 = split_level(P)
    assert q1 == pytest.approx(0.025, abs=1e-12)
    assert q2 == pytest.approx(0.975, abs=1e-12)


@pytest.mark.parametrize("p", (0.5, 0.0975, 1e-6, 1e-12))
def test_split_level_keeps_its_digits_as_p_falls(p):
    # 4 q1 (1 - q1) = p: (1 - sqrt(1-p))/2 cancels, losing all digits at p = 1e-12
    q1, q2 = split_level(p)
    assert abs(4.0 * q1 * (1.0 - q1) - p) <= 4.0 * math.ulp(p)
    assert q2 == 1.0 - q1


def test_trapezoid_edges_keep_the_argument_type(fluid_est, fluid_scheme):
    # the bands build their segments from these edges on floats
    c1, c2 = build_c1(fluid_est, fluid_scheme, P), build_c2(fluid_est, fluid_scheme, P)
    assert type(c1.location_edge(c1.q1, 2.0)) is float
    assert type(c2.scale_edge(c2.q2, 0.5)) is float
    assert c1.location_edge(c1.q1, np.array([1.0, 2.0])).shape == (2,)
    assert c2.scale_edge(c2.q2, np.array([0.5])).shape == (1,)


class TestC1:
    def test_corner_membership(self, fluid_est, fluid_scheme):
        region = build_c1(fluid_est, fluid_scheme, P)
        sigma_lo = region.sigma_lo
        corner_mu = float(region.location_edge(region.q2, sigma_lo))
        assert region.contains(corner_mu, sigma_lo)          # boundary counts
        assert not region.contains(corner_mu + 1e-9, sigma_lo)
        assert not region.contains(fluid_est.mu_hat, region.sigma_hi * 1.0001)

    def test_area_quadrature_matches_trapezoid_geometry(self, fluid_est, fluid_scheme):
        region = build_c1(fluid_est, fluid_scheme, P)

        def side_length(sigma: float) -> float:
            return float(region.location_edge(region.q2, sigma)
                         - region.location_edge(region.q1, sigma))

        quad, _ = integrate(side_length, region.sigma_lo, region.sigma_hi, abs_tol=1e-10)
        mean_sides = 0.5 * (side_length(region.sigma_lo) + side_length(region.sigma_hi))
        closed = (region.sigma_hi - region.sigma_lo) * mean_sides
        assert quad == pytest.approx(closed, rel=1e-9)


class TestC2:
    def test_edges_ordered(self, fluid_est, fluid_scheme):
        region = build_c2(fluid_est, fluid_scheme, P)
        assert region.mu_lo < region.mu_hi < fluid_est.mu_hat
        mid = 0.5 * (region.mu_lo + region.mu_hi)
        assert region.scale_edge(region.q2, mid) < region.scale_edge(region.q1, mid)

    def test_membership_between_edges(self, fluid_est, fluid_scheme):
        region = build_c2(fluid_est, fluid_scheme, P)
        mid = 0.5 * (region.mu_lo + region.mu_hi)
        sig = 0.5 * (region.scale_edge(region.q1, mid) + region.scale_edge(region.q2, mid))
        assert region.contains(mid, sig)
        assert not region.contains(region.mu_hi + 1e-6, sig)


class TestC3:
    def test_center_is_member(self, fluid_est, fluid_scheme):
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        # defining statistic equals -m at the MLE, and -8 >= -11.587
        assert region.contains(fluid_est.mu_hat, fluid_est.sigma_hat)

    def test_boundary_function_roots(self, fluid_est, fluid_scheme):
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        assert abs(c3_offset(region, region.z_lo)) <= 1e-9
        assert abs(c3_offset(region, region.z_hi)) <= 1e-9

    def test_thins_out_at_feasibility_edge(self, fluid_est, fluid_scheme):
        # at c_p = -m the defining statistic equals -m at the MLE point, so
        # the MLE sits on the region boundary and the location extent of the
        # region collapses (the scale extent closes further up, at the
        # statistic's supremum (m+1)ln((m+1)/m) - (m+1))
        region = build_c3(fluid_est, fluid_scheme, -8.0 - 1e-9)
        assert region.contains(fluid_est.mu_hat, fluid_est.sigma_hat)
        assert not region.contains(fluid_est.mu_hat - 1e-3, fluid_est.sigma_hat)
        thickness = -min(c3_offset(region, s) for s in
                         np.linspace(region.z_lo, region.z_hi, 200))
        assert 0 < thickness < 0.03
        wide = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        assert region.z_hi - region.z_lo < wide.z_hi - wide.z_lo

    def test_infeasible_constant(self, fluid_est, fluid_scheme):
        with pytest.raises(InfeasibleLevelError):
            build_c3(fluid_est, fluid_scheme, -7.9)

    def test_mu_above_estimate_excluded(self, fluid_est, fluid_scheme):
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        assert not region.contains(fluid_est.mu_hat + 1e-9, 10.0)


class TestC4:
    def test_mle_point_is_member(self, fluid_est):
        region = build_c4(fluid_est, DP_PAPER)
        assert region.contains(fluid_est.mu_hat, fluid_est.sigma_hat)

    def test_h_continuity_at_one(self):
        # numeric limit check of the boundary function at its removable point
        for d in (0.1, 0.249, 0.4):
            assert abs(h_curve(1.0 + 1e-6, d)) <= 1e-4
            assert abs(h_curve(1.0 - 1e-6, d)) <= 1e-4
            assert h_curve(1.0, d) == 0.0

    def test_membership_equals_ks_oracle(self, fluid_est, rng):
        region = build_c4(fluid_est, DP_PAPER)
        mu = fluid_est.mu_hat + rng.normal(0.0, 6.0, size=10_000)
        sigma = rng.uniform(0.5, 40.0, size=10_000)
        member = region.contains(mu, sigma)
        ks = ks_distance_xy((fluid_est.mu_hat - mu) / sigma, fluid_est.sigma_hat / sigma)
        assert np.array_equal(member, ks <= DP_PAPER)

    def test_trimmed_is_subset(self, fluid_est, rng):
        full = build_c4(fluid_est, DP_PAPER, trimmed=False)
        trimmed = build_c4(fluid_est, DP_PAPER, trimmed=True)
        mu = fluid_est.mu_hat + rng.normal(0.0, 6.0, size=10_000)
        sigma = rng.uniform(0.5, 40.0, size=10_000)
        in_trim = trimmed.contains(mu, sigma)
        in_full = full.contains(mu, sigma)
        assert np.all(~in_trim | in_full)
        assert not np.any(in_trim & (mu > fluid_est.mu_hat))
        # the trimmed region drops something real
        assert in_trim.sum() < in_full.sum()

    def test_unbounded_region_rejected(self, fluid_est):
        with pytest.raises(UnsupportedCaseError):
            build_c4(fluid_est, 0.6)

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_path_connected_numerically(self, fluid_est, trimmed):
        # at every scale in the closed range the location slice is a
        # nonempty interval with continuous endpoint curves, which makes the
        # region path-connected (noted numerically; no proof is claimed)
        region = build_c4(fluid_est, DP_PAPER, trimmed=trimmed)
        t = np.linspace(region.t_lo, region.t_hi, 5001)
        lo, hi = region.slopes(t)
        assert np.all(lo <= hi + 1e-12)
        assert np.max(np.abs(np.diff(lo))) < 0.01
        assert np.max(np.abs(np.diff(hi))) < 0.01


def _ks_distance_xy_selects(mu, sigma):
    # the select-based kernel the in-place one replaced, kept verbatim as its oracle
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    u = -np.expm1(-np.maximum(mu, -mu / sigma))
    not_one = sigma != 1.0
    s = np.where(not_one, sigma, 2.0)
    ln_s = np.log(s)
    interior = np.where(s < 1.0, mu > s * ln_s, mu < ln_s)
    # the exponent can overflow only on lanes masked out below
    with np.errstate(over="ignore"):
        v = np.abs(1.0 - s) * np.exp((mu - s * ln_s) / (s - 1.0))
    v = np.where(not_one & interior, v, 0.0)
    out = np.maximum(u, v)
    return out if out.ndim else float(out)


def _ks_distance_xy_capped(mu, sigma):
    # the old formula bounded by 1, which a sup of a difference of two cdfs cannot exceed
    out = np.minimum(_ks_distance_xy_selects(mu, sigma), 1.0)
    return out if out.ndim else float(out)


def _cp_pivot_formula(u, v, m):
    # the one-expression pivot the in-place one replaced, kept verbatim as its oracle
    return (m + 1) * np.log(v / m) - u - v


def _assert_bit_identical(new, old):
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def _pivot_points(rng, size):
    """(mu, sigma) lanes over every branch of the sup-distance kernel: mu
    negative, zero of either sign and positive, from 1e-300 to 1e3 in size;
    sigma at and next to 1, near 1, and from 1e-300 to 1e300, where the
    interior candidate's exponent overflows on masked-out lanes."""
    mu = rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-300.0, 3.0, size)
    mu[: size // 4] = rng.normal(0.0, 2.0, size // 4)
    mu[::13], mu[::17] = 0.0, -0.0
    sigma = 10.0 ** rng.uniform(-300.0, 300.0, size)
    sigma[: size // 3] = rng.uniform(0.2, 5.0, size // 3)
    sigma[::7] = 1.0
    sigma[1::29], sigma[2::29] = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    return mu, sigma


class TestPivotKernels:
    """The in-place kernels equal the formulas they replaced bit for bit,
    sign of zero included, on arrays, broadcasts, 0-d arrays and floats; the
    sup-distance kernel equals its old formula capped at 1."""

    def test_ks_distance_equals_select_formula(self, rng):
        mu, sigma = _pivot_points(rng, 60_000)
        _assert_bit_identical(ks_distance_xy(mu, sigma), _ks_distance_xy_capped(mu, sigma))
        rows, cols = mu[:300, None], sigma[None, :400]
        _assert_bit_identical(ks_distance_xy(rows, cols), _ks_distance_xy_capped(rows, cols))
        _assert_bit_identical(ks_distance_xy(mu[:50], 1.0), _ks_distance_xy_capped(mu[:50], 1.0))
        for x, y in zip(mu[:500].tolist(), sigma[:500].tolist()):
            _assert_bit_identical(ks_distance_xy(x, y), _ks_distance_xy_capped(x, y))
            _assert_bit_identical(ks_distance_xy(np.array(x), np.array(y)),
                                  _ks_distance_xy_capped(np.array(x), np.array(y)))

    def test_ks_distance_equals_select_formula_at_the_edges(self):
        mu = np.array([-np.inf, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e308, np.inf, np.nan])
        sigma = np.array([5e-324, 1e-300, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                          1e300, np.inf, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            new = ks_distance_xy(mu[:, None], sigma[None, :])
            old = _ks_distance_xy_capped(mu[:, None], sigma[None, :])
        _assert_bit_identical(new, old)

    def test_ks_distance_at_most_one_at_huge_scales(self):
        # the interior candidate |1 - sigma| exp(.) rounds above its limit 1
        assert ks_distance_xy(0.0, 1e300) == 1.0
        assert np.max(ks_distance_xy(np.linspace(-50.0, 50.0, 20_001), 1e15)) == 1.0

    def test_ks_distance_working_set(self, rng):
        # the output, two float scratch arrays and boolean masks, at most 32
        # bytes a lane; the select-based form peaked at about 58
        mu, sigma = _pivot_points(rng, 2**14)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ks_distance_xy(mu, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * mu.nbytes

    @pytest.mark.parametrize("m", (2, 8, 100))
    def test_cp_pivot_equals_formula(self, rng, m):
        u = rng.standard_exponential(20_000)
        u[::11] = 0.0
        v = rng.standard_gamma(m - 1.0, 20_000) * 10.0 ** rng.uniform(-3.0, 3.0, 20_000)
        _assert_bit_identical(cp_pivot(u, v, m), _cp_pivot_formula(u, v, m))
        _assert_bit_identical(cp_pivot(u[:300, None], v[None, :200], m),
                              _cp_pivot_formula(u[:300, None], v[None, :200], m))
        _assert_bit_identical(cp_pivot(0.0, v[:40], m), _cp_pivot_formula(0.0, v[:40], m))
        for x, y in zip(u[:500].tolist(), v[:500].tolist()):
            _assert_bit_identical(cp_pivot(x, y, m), _cp_pivot_formula(x, y, m))
            _assert_bit_identical(cp_pivot(np.array(x), np.array(y), m),
                                  _cp_pivot_formula(np.array(x), np.array(y), m))

    def test_kernels_equal_formulas_property(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        mus = st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0))
        sigmas = st.floats(1e-300, 1e300) | st.floats(0.5, 2.0) | st.just(1.0)

        @settings(max_examples=50, deadline=None, database=None)
        @given(st.lists(mus, min_size=1, max_size=8), st.lists(sigmas, min_size=1, max_size=8),
               st.integers(2, 200))
        def check(mu, sigma, m):
            rows, cols = np.array(mu)[:, None], np.array(sigma)[None, :]
            _assert_bit_identical(ks_distance_xy(rows, cols), _ks_distance_xy_capped(rows, cols))
            _assert_bit_identical(ks_distance_xy(mu[0], sigma[0]),
                                  _ks_distance_xy_capped(mu[0], sigma[0]))
            u, v = np.abs(rows), cols
            _assert_bit_identical(cp_pivot(u, v, m), _cp_pivot_formula(u, v, m))
            _assert_bit_identical(cp_pivot(abs(mu[0]), sigma[0], m),
                                  _cp_pivot_formula(abs(mu[0]), sigma[0], m))

        check()


class TestComprehensiveness:
    @staticmethod
    def _ordered_member_pairs(region, mu_hat, rng, count):
        """Member pairs x <= y coordinatewise, as the definition requires."""
        pairs = []
        while len(pairs) < count:
            mu = mu_hat - rng.uniform(0.0, 3.0, size=2)
            sigma = rng.uniform(2.0, 30.0, size=2)
            lo = (min(mu), min(sigma))
            hi = (max(mu), max(sigma))
            if region.contains(*lo) and region.contains(*hi):
                pairs.append((lo, hi))
        return pairs

    @pytest.mark.parametrize("builder", [build_c1, build_c2])
    def test_trapezoids_comprehensive(self, builder, fluid_est, fluid_scheme, rng):
        region = builder(fluid_est, fluid_scheme, P)
        for lo, hi in self._ordered_member_pairs(region, fluid_est.mu_hat, rng, 300):
            w = rng.uniform(0.0, 1.0, size=2)
            z_mu = lo[0] + w[0] * (hi[0] - lo[0])
            z_sigma = lo[1] + w[1] * (hi[1] - lo[1])
            assert region.contains(z_mu, z_sigma)

    def test_c3_not_comprehensive(self, fluid_est, fluid_scheme, rng):
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        found = False
        for _ in range(20_000):
            mu = fluid_est.mu_hat - rng.uniform(0.0, 3.0, size=2)
            sigma = rng.uniform(region.z_lo, region.z_hi, size=2)
            lo = (min(mu), min(sigma))
            hi = (max(mu), max(sigma))
            if not (region.contains(*lo) and region.contains(*hi)):
                continue
            w = rng.uniform(0.0, 1.0, size=2)
            z_mu = lo[0] + w[0] * (hi[0] - lo[0])
            z_sigma = lo[1] + w[1] * (hi[1] - lo[1])
            if not region.contains(z_mu, z_sigma):
                found = True
                break
        assert found, "no comprehensiveness violation found for the minimum-area region"


class TestHullProbability:
    def test_notch_collapses_at_statistic_supremum(self):
        # the pivot interval [y, z] closes exactly where the defining
        # statistic attains its supremum c_max = (m+1)ln((m+1)/m) - (m+1),
        # the branch point of the Lambert argument (evaluated here through
        # the raw special functions; the region guard is cp_supremum itself,
        # so lambert_interval accepts these constants as well)
        from expbands.special import lambert_w0
        m = 8
        c_max = (m + 1) * math.log((m + 1) / m) - (m + 1)
        for eps, gap_bound in ((1e-2, 1.0), (1e-4, 0.1), (1e-6, 0.01)):
            cp = c_max - eps
            arg = -(m / (m + 1)) * math.exp(cp / (m + 1))
            y = -(m + 1) * lambert_w0(arg)
            z = m * math.exp(1 + cp / (m + 1))
            assert 0 < z - y < gap_bound
        # near c = -m, just below the supremum, the notch probability is
        # already far below its value at the worked example's constant
        assert (comprehensive_convex_hull_delta_prob(8, -8.0 - 1e-6)
                < 0.1 * comprehensive_convex_hull_delta_prob(8, CP_PAPER))

    def test_matches_closed_form(self):
        for m, cp in ((2, -10.0), (8, CP_PAPER), (25, -28.0)):
            closed = tau_of_p(m, 0.0, cp) - 1.0
            quad = comprehensive_convex_hull_delta_prob(m, cp)
            assert quad == pytest.approx(closed, abs=1e-6)

    def test_m2_at_ninety_percent_matches_table(self):
        # the m=2 entry of the published level table: tau = 91.1%
        cp = calibrate_cp(2, 0.10, reps=400_000, seed=3).value
        excess = comprehensive_convex_hull_delta_prob(2, cp)
        assert excess == pytest.approx(0.011, abs=0.002)


class TestFeasibilityBound:
    """The region is nonempty for every c_p below the pivot's supremum
    (m+1)(ln((m+1)/m) - 1), about -7.94 at m=8, not only below -m."""

    def test_supremum_value(self):
        assert cp_supremum(8) == pytest.approx(9 * (math.log(9 / 8) - 1))
        assert -8.0 < cp_supremum(8) < -7.9

    def test_between_minus_m_and_supremum(self, fluid_est, fluid_scheme):
        closed = tau_of_p(8, 0.0, -7.97) - 1.0
        quad = comprehensive_convex_hull_delta_prob(8, -7.97)
        assert quad == pytest.approx(closed, abs=1e-6)
        region = build_c3(fluid_est, fluid_scheme, -7.97)
        assert region.z_lo < region.z_hi
        # the pivot's mode V = m+1 sits at sigma = m sigma_hat/(m+1)
        assert region.contains(fluid_est.mu_hat, fluid_est.sigma_hat * 8 / 9)

    @pytest.mark.parametrize("m", (2, 8, 100))
    def test_just_above_supremum_raises(self, m):
        for c in (cp_supremum(m), cp_supremum(m) + 1e-9, -m + 0.5):
            with pytest.raises(InfeasibleLevelError):
                lambert_interval(m, c)
        lambert_interval(m, cp_supremum(m) - 1e-9)


def within(interval, z, t):
    """lo <= z <= hi elementwise, (lo, hi) = interval(t)."""
    lo, hi = interval(t)
    return (lo <= z) & (z <= hi)


def _predicates(est, scheme):
    """Every select-free predicate with the interval it reduces, and the T
    where the interval changes form: each region type's, at the bundled
    estimate, and the registry events', which read the same methods at
    scale n, sup-distance events at d >= 0.5 included."""
    n = scheme.effective_n
    c1, c2, c3 = build_c1(est, scheme, P), build_c2(est, scheme, P), build_c3(est, scheme, CP_PAPER)
    c4, c4pp = build_c4(est, DP_PAPER), build_c4(est, DP_PAPER, trimmed=True)
    hull = hull_event(c3)
    out = {"c1": (c1.interval, c1.covers, c1.edges),
           "c2": (c2.interval, c2.covers, c2.edges),
           "c3": (c3.interval, c3.covers, c3.edges),
           "c3-hull": (hull.interval, hull.covers, hull.edges),
           "c4": (c4.slopes, c4.covers, c4.event(n).edges + (c4.t_hi,)),
           "c4-trimmed": (c4pp.slopes, c4pp.covers, c4pp.event(n).edges + (c4pp.t_hi,))}
    for name, ev in (("c4-event", c4.event(n)), ("c4-trimmed-event", c4pp.event(n)),
                     (f"ks-{DP_PAPER}", ks_event(DP_PAPER, n)), ("ks-0.6", ks_event(0.6, n))):
        out[name] = (ev.interval, ev.covers, ev.edges)
    return out


def _switch_ts(edges):
    # every edge, switch point and 1, one ulp either side, and T across 1e-300..1e300
    ts = np.array(sorted({e for e in (*edges, 1.0) if 0.0 < e < math.inf}))
    wide = 10.0 ** np.linspace(-300.0, 300.0, 61)
    return np.concatenate([ts, np.nextafter(ts, 0.0), np.nextafter(ts, math.inf), wide])


def _assert_same_verdicts(new, old):
    assert np.shape(new) == np.shape(old)
    assert np.asarray(new).dtype == bool
    assert np.array_equal(new, old)


@pytest.fixture(scope="module")
def predicates(fluid_est, fluid_scheme):
    return _predicates(fluid_est, fluid_scheme)


class TestCovers:
    """covers(z, t) counts the same lanes as the select form it replaced,
    lo(t) <= z <= hi(t) on the interval's values (`within`, kept as the
    oracle): on pivot draws, at and next to every switch and edge T, at
    z = +-0, +-inf and exactly at and next to each end, and on floats,
    0-d arrays and broadcast shapes."""

    NAMES = ("c1", "c2", "c3", "c3-hull", "c4", "c4-trimmed", "c4-event", "c4-trimmed-event",
             f"ks-{DP_PAPER}", "ks-0.6")

    @pytest.mark.parametrize("name", NAMES)
    def test_random_pivot_lanes(self, predicates, fluid_scheme, rng, name):
        interval, covers, _ = predicates[name]
        m = fluid_scheme.m
        z = rng.standard_exponential(100_000) * 4.0
        t = rng.standard_gamma(m - 1.0, 100_000) / m
        t[::3] = 10.0 ** rng.uniform(-300.0, 300.0, t[::3].size)
        z[::5] = -z[::5]
        _assert_same_verdicts(covers(z, t), within(interval, z, t))
        assert 0 < np.count_nonzero(covers(z, t)) < z.size

    @pytest.mark.parametrize("name", NAMES)
    def test_switches_ends_and_zeros(self, predicates, name):
        interval, covers, edges = predicates[name]
        t = _switch_ts(edges)
        lo, hi = (np.broadcast_to(e, t.shape) for e in interval(t))
        ends = np.concatenate([lo, hi])
        with np.errstate(over="ignore"):   # c1's empty hi, the most negative float, steps to -inf
            below, above = np.nextafter(ends, -math.inf), np.nextafter(ends, math.inf)
        z = np.concatenate([[0.0, -0.0, math.inf, -math.inf], ends, below, above])
        # every z at every t: a broadcast (z, t) grid holds each end at its own t
        _assert_same_verdicts(covers(z[:, None], t[None, :]), within(interval, z[:, None], t[None, :]))
        _assert_same_verdicts(covers(z[:7, None, None], t[None, :, None]),
                              within(interval, z[:7, None, None], t[None, :, None]))
        for zi, ti in zip(z[::7].tolist(), np.resize(t, z[::7].size).tolist()):
            for args in ((zi, ti), (np.array(zi), np.array(ti)), (zi, np.array([ti, ti]))):
                _assert_same_verdicts(covers(*args), within(interval, *args))

    def test_covers_equals_within_property(self, predicates):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        zs = st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0)) | st.floats(allow_nan=False)
        ts = st.floats(1e-300, 1e300) | st.floats(0.05, 5.0)

        @settings(max_examples=100, deadline=None, database=None)
        @given(st.sampled_from(self.NAMES), st.lists(zs, min_size=1, max_size=6),
               st.lists(ts, min_size=1, max_size=6))
        def check(name, z, t):
            interval, covers, _ = predicates[name]
            rows, cols = np.array(z)[:, None], np.array(t)[None, :]
            _assert_same_verdicts(covers(rows, cols), within(interval, rows, cols))
            _assert_same_verdicts(covers(z[0], t[0]), within(interval, z[0], t[0]))

        check()

    @pytest.mark.parametrize("name", NAMES)
    def test_working_set(self, predicates, fluid_scheme, rng, name):
        # the result, two boolean and two float scratch arrays: at most 19
        # bytes a lane, where the select form peaked at 33 (sup-distance)
        interval, covers, _ = predicates[name]
        z = rng.standard_exponential(2**14)
        t = rng.standard_gamma(fluid_scheme.m - 1.0, 2**14) / fluid_scheme.m
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            covers(z, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * z.size


# hits of each kind at 10^6 replicates, seed 29, level 0.9025 on the bundled
# scheme, as the select form counted them
PINNED_HITS = {"c1": 902440, "c2": 902714, "c3": 902673, "c4p": 902190, "c4pp": 902190,
               "b1": 902440, "b2": 902714, "b3": 902536, "b4": 902190, "b4p": 902190,
               "b4pp": 902190}


@pytest.mark.parametrize("kind", sorted(PINNED_HITS))
def test_coverage_counts_pinned(fluid_scheme, std_theta, kind):
    k, _ = METHODS[kind].constants(fluid_scheme, LEVEL)
    rep = coverage_experiment(kind, std_theta, fluid_scheme, LEVEL, 10**6, 29, **k)
    assert round(rep.coverage * 10**6) == PINNED_HITS[kind]


# each kind's exact event probability on the bundled scheme, as float.hex, and
# the sha256 of each region's JSON at the bundled estimate and level 0.9025, as
# the per-class interval forms gave them (numpy 2.4, AVX-512 x86-64): a new way
# of evaluating the same ends must reproduce them bit for bit
PINNED_PROBABILITIES = {
    0.8: {"c1": "0x1.9999999999977p-1", "c2": "0x1.9999999999978p-1",
          "c3": "0x1.9999999999972p-1", "c4p": "0x1.99999999999dfp-1",
          "c4pp": "0x1.99999999999dfp-1", "b1": "0x1.9999999999977p-1",
          "b2": "0x1.9999999999978p-1", "b3": "0x1.9999999999986p-1",
          "b4": "0x1.99999999999dfp-1", "b4p": "0x1.99999999999dfp-1",
          "b4pp": "0x1.99999999999dfp-1"},
    0.9025: {"c1": "0x1.ce147ae147abap-1", "c2": "0x1.ce147ae147abcp-1",
             "c3": "0x1.ce147ae147ab9p-1", "c4p": "0x1.ce147ae147ae1p-1",
             "c4pp": "0x1.ce147ae147ae1p-1", "b1": "0x1.ce147ae147abap-1",
             "b2": "0x1.ce147ae147abcp-1", "b3": "0x1.ce147ae147ab8p-1",
             "b4": "0x1.ce147ae147ae1p-1", "b4p": "0x1.ce147ae147ae1p-1",
             "b4pp": "0x1.ce147ae147ae1p-1"},
    0.95: {"c1": "0x1.e666666666640p-1", "c2": "0x1.e666666666640p-1",
           "c3": "0x1.e66666666663ep-1", "c4p": "0x1.e666666666666p-1",
           "c4pp": "0x1.e666666666666p-1", "b1": "0x1.e666666666640p-1",
           "b2": "0x1.e666666666640p-1", "b3": "0x1.e66666666665ep-1",
           "b4": "0x1.e666666666666p-1", "b4p": "0x1.e666666666666p-1",
           "b4pp": "0x1.e666666666666p-1"},
}
PINNED_REGION_SHA256 = {
    "c1": "8f614b2fec1cafd3708eb90686eccec8f46c53f043996eeb06356fbcb39981e2",
    "c2": "c7e961896d9c8da022d67c5ab2b94db914380013dedbc4fe67db4f2ba77b1852",
    "c3": "25a56780bb9339a3b0d9826f287958d1f6dfcd89bda775fe2158dbb33c54d855",
    "c4p": "7a0b20608bd6b569fd6f53671376b77d03caecd6fad11cc324e85392f4199dc8",
    "c4pp": "45d0f57672dad77398266f650560e62f7d8519dd0206dd5b079b5f06481dd6cb",
}


@pytest.mark.parametrize("level", sorted(PINNED_PROBABILITIES))
def test_event_probabilities_pinned(fluid_scheme, level):
    got = {kind: event_probability(kind, fluid_scheme, level,
                                   METHODS[kind].constants(fluid_scheme, level)[0]).hex()
           for kind in METHODS}
    assert got == PINNED_PROBABILITIES[level]


@pytest.mark.parametrize("kind", sorted(PINNED_REGION_SHA256))
def test_region_json_pinned(fluid_est, fluid_scheme, kind):
    k, _ = METHODS[kind].constants(fluid_scheme, LEVEL)
    doc = region_to_dict(METHODS[kind].build(fluid_est, fluid_scheme, LEVEL, k))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_REGION_SHA256[kind]


@pytest.fixture(scope="module")
def events(fluid_est, fluid_scheme):
    """Every event: each region type's own, at the bundled estimate, and each
    registry method's, at its exact constants for level 0.9025."""
    c3 = build_c3(fluid_est, fluid_scheme, CP_PAPER)
    out = {"c1": build_c1(fluid_est, fluid_scheme, P).event,
           "c2": build_c2(fluid_est, fluid_scheme, P).event, "c3": c3.event,
           "c3-hull": hull_event(c3), "c4": build_c4(fluid_est, DP_PAPER).event(),
           "c4-trimmed": build_c4(fluid_est, DP_PAPER, trimmed=True).event()}
    for kind, method in METHODS.items():
        out[f"registry-{kind}"] = method.event(fluid_scheme, LEVEL,
                                               method.constants(fluid_scheme, LEVEL)[0])
    return out


EVENT_NAMES = ("c1", "c2", "c3", "c3-hull", "c4", "c4-trimmed",
               *(f"registry-{kind}" for kind in METHODS))


class TestEventDescription:
    """An event's ends: exactly one lower end and then one upper end, each a
    tuple of terms, where a term is a float, an array shaped like t or a
    switch (mask, inside, outside) of two such terms."""

    @pytest.mark.parametrize("name", EVENT_NAMES)
    def test_one_lower_then_one_upper_end(self, events, name):
        t = np.array([1e-3, 0.3, 0.9, 1.0, 1.3, 9.0, 1e3])
        f, g = np.empty(t.shape), np.empty(t.shape)
        mask, b = np.empty(t.shape, bool), np.empty(t.shape, bool)

        def is_value(x):
            if isinstance(x, float):
                return True
            return isinstance(x, np.ndarray) and x.shape == t.shape and x.dtype == float

        ends = 0
        for terms in events[name].ends(t, f, g, mask, b):
            ends += 1
            assert type(terms) is tuple and len(terms) >= 1
            for x in terms:
                if type(x) is tuple:
                    switch, inside, outside = x
                    assert switch.shape == t.shape and switch.dtype == bool
                    assert is_value(inside) and is_value(outside)
                else:
                    assert is_value(x)
        assert ends == 2

    @pytest.mark.parametrize("name", EVENT_NAMES)
    def test_interval_reduces_each_end_before_the_next(self, events, name):
        # the oracle reduces each end as soon as it is yielded: lo the max and
        # hi the min of the terms, a switch read with np.where
        t = np.geomspace(0.05, 20.0, 101)
        ref = []
        for terms in events[name].ends(t, np.empty(t.shape), np.empty(t.shape),
                                       np.empty(t.shape, bool), np.empty(t.shape, bool)):
            values = [np.where(*x) if type(x) is tuple else np.broadcast_to(x, t.shape)
                      for x in terms]
            ref.append((np.max if not ref else np.min)(values, axis=0))
        lo, hi = events[name].interval(t)
        assert np.array_equal(np.broadcast_to(lo, t.shape), ref[0])
        assert np.array_equal(np.broadcast_to(hi, t.shape), ref[1])
        assert np.array_equal(events[name].covers(ref[0], t), ref[0] <= ref[1])


@pytest.mark.parametrize("t", (0.3, 0.9, 1.0, 1.3, 9.0))
def test_interval_of_a_float_equals_its_array_form(events, t):
    # a scale ratio given as a Python float takes the same branch of each end
    for name, event in events.items():
        for end, ends in zip(event.interval(t), event.interval(np.array([t]))):
            assert float(end) == float(np.broadcast_to(ends, (1,))[0]), name


class TestEquivarianceAndExport:
    @pytest.mark.parametrize("build", [
        lambda est, scheme: build_c1(est, scheme, P),
        lambda est, scheme: build_c2(est, scheme, P),
        lambda est, scheme: build_c3(est, scheme, CP_PAPER),
        lambda est, scheme: build_c4(est, DP_PAPER),
        lambda est, scheme: build_c4(est, DP_PAPER, trimmed=True),
    ])
    def test_membership_equivariance_power_of_two(self, build, fluid_est, fluid_scheme, rng):
        region = build(fluid_est, fluid_scheme)
        for _ in range(10):
            b = 2.0 ** int(rng.integers(-4, 5))
            est_b = MleEstimate(b * fluid_est.mu_hat, b * fluid_est.sigma_hat)
            region_b = build(est_b, fluid_scheme)
            mu = fluid_est.mu_hat - float(rng.uniform(0, 3))
            sigma = float(rng.uniform(1.0, 30.0))
            assert bool(region.contains(mu, sigma)) == bool(
                region_b.contains(b * mu, b * sigma))

    @pytest.mark.parametrize("method", ["c1", "c2", "c3", "c4", "c4_trimmed"])
    def test_json_roundtrip(self, method, fluid_est, fluid_scheme, rng):
        region = {
            "c1": lambda: build_c1(fluid_est, fluid_scheme, P),
            "c2": lambda: build_c2(fluid_est, fluid_scheme, P),
            "c3": lambda: build_c3(fluid_est, fluid_scheme, CP_PAPER),
            "c4": lambda: build_c4(fluid_est, DP_PAPER),
            "c4_trimmed": lambda: build_c4(fluid_est, DP_PAPER, trimmed=True),
        }[method]()
        doc = region_to_dict(region, points=128)
        back = region_from_dict(doc)
        assert back == region
        boundary = np.asarray(doc["boundary"])
        assert boundary.shape[1] == 2
        assert np.all(boundary[:, 1] > 0)
        mu = fluid_est.mu_hat - rng.uniform(0, 3, size=200)
        sigma = rng.uniform(1.0, 30.0, size=200)
        assert np.array_equal(region.contains(mu, sigma), back.contains(mu, sigma))

    def test_boundary_point_count(self, fluid_est, fluid_scheme):
        region = build_c1(fluid_est, fluid_scheme, P)
        assert len(region.boundary(512)) >= 512

    def test_malformed_document(self):
        with pytest.raises(DomainError):
            region_from_dict({"type": "c9", "constants": {}})
