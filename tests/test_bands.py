import math
from fractions import Fraction

import numpy as np
import pytest

from expbands.bands import (
    METHODS,
    ExpCdfSegment,
    band_b1,
    band_b2,
    band_b3,
    band_b4,
    band_b4_trimmed,
    band_from_dict,
    band_rows,
    band_to_dict,
    coverage_indicator,
    default_grid,
    graph_contained,
    ks_distance,
    ks_distance_grid,
    ks_distance_xy,
    marginal_band,
    marginal_transform_h,
    reliability_band,
    trim_band,
)
from expbands.calibration import exact_dp, exact_p_of_tau
from expbands.errors import DomainError
from expbands.metrics import max_width
from expbands.model import CensoringScheme, LocScale, MleEstimate, mle, simulate_mles, simulate_sample
from expbands.regions import build_c1, build_c2, build_c3, build_c4, lower_slope, upper_slope
from expbands.streams import batch_generator

LEVEL = 0.9025
P = 1.0 - LEVEL
CP_PAPER = -11.587
NOMINAL_P_PAPER = 1.0 - 0.873
DP_PAPER = 0.249
# one unit withdrawn at every second failure, m = 100, n = 150
SESSION_SCHEME = CensoringScheme(n=150, m=100, removals=tuple(i % 2 for i in range(100)))


@pytest.fixture(scope="module")
def all_bands(fluid_est, fluid_scheme):
    return {
        "b1": band_b1(fluid_est, fluid_scheme, P),
        "b2": band_b2(fluid_est, fluid_scheme, P),
        "b3": band_b3(fluid_est, fluid_scheme, CP_PAPER, nominal_p=NOMINAL_P_PAPER),
        "b4": band_b4(fluid_est, DP_PAPER, level=LEVEL),
        "b4p": band_b4_trimmed(fluid_est, DP_PAPER, trimmed=False, level=LEVEL),
        "b4pp": band_b4_trimmed(fluid_est, DP_PAPER, trimmed=True, level=LEVEL),
    }


class TestClosedFormBands:
    def test_b1_lower_zero_left_of_first_location(self, all_bands, fluid_est, fluid_scheme):
        region = build_c1(fluid_est, fluid_scheme, P)
        start = float(region.location_edge(region.q2, region.sigma_lo))
        band = all_bands["b1"]
        assert band.lower(start) == 0.0
        assert band.lower(start - 5.0) == 0.0
        assert band.lower(start + 1e-6) > 0.0

    def test_b1_branches_agree_at_split(self, all_bands, fluid_est):
        band = all_bands["b1"]
        for boundary in (band.lower, band.upper):
            left_seg, right_seg = boundary.segments
            split = boundary.breaks[0]
            assert split == fluid_est.mu_hat
            assert float(left_seg.evaluate(np.asarray(split))) == pytest.approx(
                float(right_seg.evaluate(np.asarray(split))), abs=1e-12)

    def test_b1_boundary_values_at_split(self, all_bands, fluid_est, fluid_scheme):
        # at the split both branches give 1 - q^(1/n) regardless of scale
        band = all_bands["b1"]
        n = fluid_scheme.n
        assert band.lower(fluid_est.mu_hat) == pytest.approx(1 - 0.975 ** (1 / n), abs=1e-12)
        assert band.upper(fluid_est.mu_hat) == pytest.approx(1 - 0.025 ** (1 / n), abs=1e-12)

    def test_b2_branches_agree_at_split(self, all_bands, fluid_est, fluid_scheme):
        band = all_bands["b2"]
        split = fluid_est.mu_hat + fluid_scheme.m * fluid_est.sigma_hat / fluid_scheme.n
        for boundary in (band.lower, band.upper):
            assert boundary.breaks[0] == pytest.approx(split, abs=1e-12)
            left, right = boundary.segments
            assert float(left.evaluate(np.asarray(split))) == pytest.approx(
                float(right.evaluate(np.asarray(split))), abs=1e-12)

    def test_b3_envelope_scale_decreasing_and_branch_cases(self, fluid_est, fluid_scheme):
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        m, n = fluid_scheme.m, fluid_scheme.n

        def env_scale(x):
            return (n * (fluid_est.mu_hat - x) + m * fluid_est.sigma_hat) / (m + 1)

        xs = np.linspace(-20, 20, 50)
        scales = env_scale(xs)
        assert np.all(np.diff(scales) < 0)
        assert env_scale(-50.0) > region.z_hi     # small x: principal-branch case
        assert env_scale(50.0) < region.z_lo      # large x: lower-branch case

    def test_b3_upper_continuous_at_branch_joins(self, all_bands):
        band = all_bands["b3"]
        for bp in band.upper.breaks:
            assert band.upper(bp - 1e-9) == pytest.approx(band.upper(bp + 1e-9), abs=1e-9)

    def test_b3_envelope_kink_splits_its_panel(self, all_bands):
        # the envelope is 0 up to its one kink and rises after it, so the
        # kink is a breakpoint that metrics split panels at
        band = all_bands["b3"]
        (kink,) = band.upper.segments[1].kinks()
        x_enter, x_exit = band.upper.breaks
        assert x_enter < kink < x_exit
        assert kink in band.breakpoints()
        assert band.upper(kink - 1e-9) == 0.0
        assert band.upper(kink + 1e-6) > 0.0

    def test_b3_upper_envelope_against_brute_force(self, all_bands, fluid_est, fluid_scheme):
        # the upper boundary is the sup of the cdf over the region; compare
        # with a dense sample of region boundary points (extrema live there)
        band = all_bands["b3"]
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        sigmas = np.linspace(region.z_lo, region.z_hi, 10_000)
        mus = fluid_est.mu_hat + region.g(sigmas)
        for x in (-2.0, 0.5, 3.0, 8.0, 20.0):
            f_curve = np.max(LocScale(0, 1).cdf((x - mus) / sigmas))
            f_line = np.max(LocScale(0, 1).cdf((x - fluid_est.mu_hat) / sigmas))
            brute = max(f_curve, f_line)
            assert band.upper(x) >= brute - 1e-9
            assert band.upper(x) == pytest.approx(brute, abs=1e-6)

    def test_b3_lower_is_principal_branch_cdf(self, all_bands, fluid_est, fluid_scheme):
        band = all_bands["b3"]
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        xs = np.linspace(-5, 60, 101)
        expected = LocScale(fluid_est.mu_hat, region.z_hi).cdf(xs)
        assert np.allclose(band.lower(xs), expected, atol=1e-12)

    def test_b4_constant_width_and_center(self, all_bands, fluid_est):
        band = all_bands["b4"]
        assert band.upper(fluid_est.mu_hat) == pytest.approx(DP_PAPER, abs=1e-12)
        fitted = LocScale(fluid_est.mu_hat, fluid_est.sigma_hat)
        xs = np.linspace(fluid_est.mu_hat, fluid_est.mu_hat + 60, 500)
        f = fitted.cdf(xs)
        inner = (f >= DP_PAPER) & (f <= 1 - DP_PAPER)
        widths = band.upper(xs[inner]) - band.lower(xs[inner])
        assert np.allclose(widths, 2 * DP_PAPER, atol=1e-12)
        assert graph_contained(band, fitted)


class TestKsDistance:
    def test_identical_parameters(self):
        assert ks_distance(LocScale(0.0, 1.0)) == 0.0

    def test_pure_shift(self):
        for mu in (0.1, 0.7, 2.0):
            assert ks_distance(LocScale(mu, 1.0)) == pytest.approx(
                -math.expm1(-mu), abs=1e-12)

    def test_closed_form_equals_grid_supremum(self, rng):
        mus = rng.normal(0.0, 1.0, size=500)
        sigmas = rng.uniform(0.2, 5.0, size=500)
        for mu, sigma in zip(mus, sigmas):
            closed = float(ks_distance_xy(mu, sigma))
            grid = ks_distance_grid(mu, sigma, points=100_000)
            assert abs(closed - grid) <= 1e-5
            assert closed >= grid - 1e-12  # the grid can only undershoot

    def test_symmetric_under_relabeling(self, rng):
        # sup |F_theta - F_std| = sup |F_std - F_theta| in relative coords
        for _ in range(100):
            mu, sigma = float(rng.normal()), float(rng.uniform(0.3, 3.0))
            direct = float(ks_distance_xy(mu, sigma))
            swapped = float(ks_distance_xy(-mu / sigma, 1.0 / sigma))
            assert direct == pytest.approx(swapped, abs=1e-12)


def _envelope_oracle(est: MleEstimate, d_p: float, trimmed: bool, xs: np.ndarray):
    """Brute-force trimmed band: at each x the extrema of F_theta(x) over a
    dense grid of scale ratios t on [t_lo, t_hi] (65,536 linear and 65,536
    geometric points plus the corner scales), with the location at the
    region's lower or upper slope for that t."""
    region = build_c4(est, d_p, trimmed=trimmed)
    t = np.concatenate([np.linspace(region.t_lo, region.t_hi, 65_536),
                        np.geomspace(region.t_lo, region.t_hi, 65_536),
                        [region.t_lo, region.t_hi, region.t_zero_lower,
                         1.0 - d_p, 1.0 / (1.0 - d_p)]])
    t = t[(t >= region.t_lo) & (t <= region.t_hi)]
    lo_slope = lower_slope(t, d_p)
    if trimmed:
        lo_slope = np.maximum(lo_slope, 0.0)
    hi_slope = upper_slope(t, d_p)
    lower, upper = np.empty_like(xs), np.empty_like(xs)
    for i, x in enumerate(xs):
        beta = (x - est.mu_hat) / est.sigma_hat
        upper[i] = -math.expm1(-max(float(np.max(beta * t + hi_slope)), 0.0))
        lower[i] = -math.expm1(-max(float(np.min(beta * t + lo_slope)), 0.0))
    return lower, upper


def _m100_estimate() -> MleEstimate:
    scheme = CensoringScheme(150, 100, tuple(i % 2 for i in range(100)))
    return mle(simulate_sample(LocScale(1.0, 4.0), scheme, batch_generator(1009, 0)))


class TestTrimmedBands:
    def test_nested_in_parent_everywhere(self, all_bands):
        xs = np.linspace(-12, 90, 4001)
        b4 = all_bands["b4"]
        for kind in ("b4p", "b4pp"):
            trimmed = all_bands[kind]
            assert np.all(trimmed.lower(xs) >= b4.lower(xs))
            assert np.all(trimmed.upper(xs) <= b4.upper(xs))

    def test_double_trim_nesting(self, all_bands):
        xs = np.linspace(-12, 90, 4001)
        assert np.all(all_bands["b4pp"].lower(xs) >= all_bands["b4p"].lower(xs))
        assert np.all(all_bands["b4pp"].upper(xs) <= all_bands["b4p"].upper(xs))

    @pytest.mark.parametrize("sample", ["bundled", "m100"])
    @pytest.mark.parametrize("trimmed", [False, True])
    def test_closed_form_matches_brute_force_envelope(self, sample, trimmed, fluid_est):
        est = fluid_est if sample == "bundled" else _m100_estimate()
        for d_p in (0.05, 0.1, 0.249, 0.4, 0.45):
            band = band_b4_trimmed(est, d_p, trimmed=trimmed)
            bps = np.asarray(band.breakpoints())
            xs = np.concatenate([np.linspace(est.mu_hat - 2.0 * est.sigma_hat,
                                             bps.max() + est.sigma_hat, 61), bps])
            lower, upper = _envelope_oracle(est, d_p, trimmed, xs)
            # the envelope of a finite grid can only fall inside the band
            assert np.all(band.upper(xs) >= upper - 1e-15), d_p
            assert np.all(band.lower(xs) <= lower + 1e-15), d_p
            assert np.allclose(band.upper(xs), upper, rtol=0.0, atol=1e-8), d_p
            assert np.allclose(band.lower(xs), lower, rtol=0.0, atol=1e-8), d_p

    def test_every_boundary_is_three_exponential_pieces(self, all_bands):
        for kind in ("b4p", "b4pp"):
            for boundary in (all_bands[kind].lower, all_bands[kind].upper):
                assert len(boundary.segments) == 3
                assert all(type(seg) is ExpCdfSegment for seg in boundary.segments)

    def test_width_ties_parent(self, all_bands):
        # b4p keeps both of the parent's F_hat +- d_p segments over a common
        # stretch of x, so its maximum width is the parent's 2 d_p
        w_b4, _ = max_width(all_bands["b4"])
        w_b4p, _ = max_width(all_bands["b4p"])
        w_b4pp, _ = max_width(all_bands["b4pp"])
        assert w_b4p == pytest.approx(w_b4, rel=0.0, abs=1e-15)
        assert w_b4pp <= w_b4p

    def test_far_left_upper_vanishes(self, all_bands, fluid_est):
        x_far = fluid_est.mu_hat - 30 * fluid_est.sigma_hat
        assert all_bands["b4pp"].upper(x_far) == 0.0
        assert all_bands["b4p"].upper(x_far) == 0.0
        assert all_bands["b4"].upper(x_far) == pytest.approx(DP_PAPER, abs=1e-12)

    def test_trimmed_segments_agree_at_joins(self, all_bands):
        for kind in ("b4p", "b4pp"):
            band = all_bands[kind]
            for boundary in (band.lower, band.upper):
                for i, bp in enumerate(boundary.breaks):
                    left, right = boundary.segments[i], boundary.segments[i + 1]
                    assert float(left.evaluate(np.asarray(bp))) == pytest.approx(
                        float(right.evaluate(np.asarray(bp))), abs=1e-12)

    def test_upper_trim_touches_parent_where_attainable(self, all_bands, fluid_est):
        # the trimmed band coincides with the parent on a middle zone (and
        # genuinely separates from it further out)
        band = all_bands["b4p"]
        b4 = all_bands["b4"]
        x_touch = fluid_est.mu_hat + 0.44 * fluid_est.sigma_hat
        assert band.upper(x_touch) == b4.upper(x_touch)
        assert band.lower(x_touch) == b4.lower(x_touch)
        x_apart = fluid_est.mu_hat + 1.4 * fluid_est.sigma_hat
        assert band.upper(x_apart) < b4.upper(x_apart) - 1e-3

    @pytest.mark.parametrize("trimmed", [False, True])
    def test_boundaries_match_point_cloud_envelope(self, trimmed, fluid_est, rng):
        # independent oracle: the band at x must envelope F_theta(x) over a
        # dense point cloud of region members (sup/inf attained on the
        # boundary arcs, but the cloud does not assume that)
        region = build_c4(fluid_est, DP_PAPER, trimmed=trimmed)
        band = band_b4_trimmed(fluid_est, DP_PAPER, trimmed=trimmed, level=LEVEL)
        t = rng.uniform(region.t_lo, region.t_hi, size=40_000)
        lo, hi = region.slopes(t)
        w = rng.uniform(0.0, 1.0, size=t.size)
        slope = lo + w * (hi - lo)          # interior members
        edge_t = np.concatenate([t[:2000], t[:2000]])
        edge_slope = np.concatenate([lo[:2000], hi[:2000]])  # boundary members
        t_all = np.concatenate([t, edge_t])
        s_all = np.concatenate([slope, edge_slope])
        sigma = fluid_est.sigma_hat / t_all
        mu = fluid_est.mu_hat - sigma * s_all
        for x in (-1.0, 0.5, 2.0, 5.0, 9.0, 14.0, 25.0):
            f = np.clip(-np.expm1(-np.maximum((x - mu) / sigma, 0.0)), 0.0, 1.0)
            assert float(band.upper(x)) >= f.max() - 1e-12
            assert float(band.lower(x)) <= f.min() + 1e-12
            # the envelope is tight at cloud resolution
            assert float(band.upper(x)) <= f.max() + 0.002
            assert float(band.lower(x)) >= f.min() - 0.002

    def test_region_and_band_agree(self, fluid_est):
        # both entry points produce identical trimmed bands
        region = build_c4(fluid_est, DP_PAPER, trimmed=True)
        direct = trim_band(band_b4(fluid_est, DP_PAPER, level=LEVEL), region)
        helper = band_b4_trimmed(fluid_est, DP_PAPER, trimmed=True, level=LEVEL)
        xs = np.linspace(-5, 60, 500)
        assert np.array_equal(direct.lower(xs), helper.lower(xs))
        assert np.array_equal(direct.upper(xs), helper.upper(xs))


def _clearly_decided(indicator, theta: LocScale, margin: float = 0.005) -> bool:
    """A parameter point is skipped when the exact membership indicator flips
    within a `margin` relative perturbation: right at the boundary the band
    violation shrinks below any finite grid's resolution."""
    base = bool(indicator(theta.mu, theta.sigma))
    for dmu in (-1.0, 0.0, 1.0):
        for dsg in (1.0 - margin, 1.0, 1.0 + margin):
            probe = bool(indicator(theta.mu + dmu * margin * theta.sigma,
                                   theta.sigma * dsg))
            if probe != base:
                return False
    return True


class TestContainmentIdentities:
    def test_exhaustive_equality_c1_c2(self, fluid_est, fluid_scheme, rng):
        # graph containment in the induced band is equivalent to region
        # membership for the exhaustive trapezoids; the 2048-point grid check
        # is validated against the exact membership criterion away from a
        # 0.5% boundary shell
        cases = {
            "b1": (band_b1(fluid_est, fluid_scheme, P), build_c1(fluid_est, fluid_scheme, P)),
            "b2": (band_b2(fluid_est, fluid_scheme, P), build_c2(fluid_est, fluid_scheme, P)),
        }
        for kind, (band, region) in cases.items():
            inside_n = outside_n = 0
            for _ in range(1000):
                theta = LocScale(fluid_est.mu_hat - float(rng.uniform(-0.5, 3.0)),
                                 float(rng.uniform(2.0, 35.0)))
                if not _clearly_decided(region.contains, theta):
                    continue
                inside = bool(region.contains(theta.mu, theta.sigma))
                contained = graph_contained(band, theta)
                assert inside == contained, f"{kind} mismatch at {theta}"
                inside_n += inside
                outside_n += not inside
            assert inside_n > 100 and outside_n > 100

    def test_b3_containment_equals_hull_membership(self, fluid_est, fluid_scheme, rng):
        band = band_b3(fluid_est, fluid_scheme, CP_PAPER, nominal_p=NOMINAL_P_PAPER)
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        checked = 0
        for _ in range(1000):
            theta = LocScale(fluid_est.mu_hat - float(rng.uniform(-0.2, 2.0)),
                             float(rng.uniform(2.0, 30.0)))
            if not _clearly_decided(region.hull_contains, theta):
                continue
            in_hull = bool(region.hull_contains(theta.mu, theta.sigma))
            assert in_hull == graph_contained(band, theta)
            checked += 1
        assert checked > 800

    def test_b3_strictly_inflates_over_region(self, fluid_est, fluid_scheme, rng):
        # a parameter in the hull notch: outside the region, graph inside
        band = band_b3(fluid_est, fluid_scheme, CP_PAPER, nominal_p=NOMINAL_P_PAPER)
        region = build_c3(fluid_est, fluid_scheme, CP_PAPER)
        found = False
        for _ in range(5000):
            theta = LocScale(fluid_est.mu_hat - float(rng.uniform(0.0, 1.0)),
                             float(rng.uniform(region.z_lo, region.z_hi)))
            if region.contains(theta.mu, theta.sigma):
                continue
            if graph_contained(band, theta):
                found = True
                break
        assert found, "no witness of the band covering beyond the region"

    def test_b4_family_containment_equals_ks_pivot(self, fluid_est, rng):
        b4 = band_b4(fluid_est, DP_PAPER, level=LEVEL)
        b4p = band_b4_trimmed(fluid_est, DP_PAPER, trimmed=False, level=LEVEL)
        for _ in range(300):
            theta = LocScale(fluid_est.mu_hat - float(rng.uniform(-0.5, 2.0)),
                             float(rng.uniform(3.0, 25.0)))
            pivot_ok = float(ks_distance_xy((fluid_est.mu_hat - theta.mu) / theta.sigma,
                                            fluid_est.sigma_hat / theta.sigma)) <= DP_PAPER
            assert pivot_ok == graph_contained(b4, theta)
            assert pivot_ok == graph_contained(b4p, theta)

    @pytest.mark.parametrize("removals, d_p", [
        ((0, 0, 3, 0, 3, 0, 0, 5), None),   # the bundled scheme's d_p at LEVEL
        ((0, 0, 7), 0.5056),                # m = 3, n = 10: d_p >= 0.5 at level 0.9
        ((0, 0, 7), 0.9),
        ((0, 3), 0.9),
    ], ids=("bundled", "m3-half", "m3-wide", "m2-wide"))
    def test_ks_events_equal_pivot_oracle(self, removals, d_p):
        # the b4-family events compare S with the slopes at T; the oracle is
        # the closed-form sup distance at (S, T), replicate by replicate
        scheme = CensoringScheme(len(removals) + sum(removals), len(removals), removals)
        if d_p is None:
            d_p = exact_dp(scheme.m, scheme.n, P)
        theta = LocScale(1.5, 2.0)
        mu_hats, sigma_hats = simulate_mles(theta, scheme, 100_000, seed=23)
        pivot_ok = ks_distance_xy((mu_hats - theta.mu) / theta.sigma,
                                  sigma_hats / theta.sigma) <= d_p
        assert 0 < np.count_nonzero(pivot_ok) < pivot_ok.size
        for kind in ("b4", "b4p", "b4pp"):
            events = coverage_indicator(kind, mu_hats, sigma_hats, theta, scheme,
                                        level=LEVEL, d_p=d_p)
            assert np.array_equal(events, pivot_ok), kind

    def test_coverage_indicator_matches_graph_check(self, fluid_scheme, std_theta):
        mu_hats, sigma_hats = simulate_mles(std_theta, fluid_scheme, 200, seed=31)
        for kind, kw in (("b1", {}), ("b2", {}), ("b3", {"c_p": CP_PAPER}),
                         ("b4", {"d_p": DP_PAPER})):
            fast = coverage_indicator(kind, mu_hats, sigma_hats, std_theta,
                                      fluid_scheme, level=LEVEL, **kw)
            for i in range(200):
                est = MleEstimate(float(mu_hats[i]), float(sigma_hats[i]))
                if kind == "b1":
                    band = band_b1(est, fluid_scheme, P)
                elif kind == "b2":
                    band = band_b2(est, fluid_scheme, P)
                elif kind == "b3":
                    band = band_b3(est, fluid_scheme, CP_PAPER)
                else:
                    band = band_b4(est, DP_PAPER)
                assert bool(fast[i]) == graph_contained(band, std_theta), (kind, i)

    @pytest.mark.parametrize("mu_hat, sigma_hat", [
        (0.012703729819693685, 1.6426913791045665),
        (0.08746343837563962, 1.629822387377922),
    ])
    def test_right_tail_escape_beyond_grid(self, fluid_scheme, std_theta, mu_hat, sigma_hat):
        # F leaves b1 through the upper boundary near 18 sigma, far beyond the
        # quantile grid and by less than the grid tolerance there; the exact
        # order of the exponential tails at +inf decides it
        est = MleEstimate(mu_hat, sigma_hat)
        band = band_b1(est, fluid_scheme, 0.1)
        assert not graph_contained(band, std_theta)
        fast = coverage_indicator("b1", np.array([mu_hat]), np.array([sigma_hat]), std_theta,
                                  fluid_scheme, level=0.9)
        assert not fast[0]

    def test_registry_events_match_built_objects(self, fluid_scheme, std_theta):
        # each registry entry's exact event agrees, replicate by replicate,
        # with membership in (or graph containment by) what its builder returns
        mu_hats, sigma_hats = simulate_mles(std_theta, fluid_scheme, 40, seed=17)
        by_constant = {None: {}, "c_p": {"c_p": CP_PAPER}, "p_of_tau": {"c_p": CP_PAPER},
                       "d_p": {"d_p": DP_PAPER}}
        for kind, method in METHODS.items():
            constants = by_constant[method.constant]
            fast = coverage_indicator(kind, mu_hats, sigma_hats, std_theta, fluid_scheme,
                                      level=LEVEL, **constants)
            for i in range(mu_hats.size):
                est = MleEstimate(float(mu_hats[i]), float(sigma_hats[i]))
                built = method.build(est, fluid_scheme, LEVEL, constants)
                if kind.startswith("c"):
                    slow = bool(built.contains(std_theta.mu, std_theta.sigma))
                else:
                    slow = graph_contained(built, std_theta)
                assert bool(fast[i]) == slow, (kind, i)


    @pytest.mark.parametrize("outside", (True, False))
    def test_b1_witness_at_left_location_edge(self, fluid_est, fluid_scheme, outside):
        # at mu_hat every left-edge cdf of c1 touches the upper boundary; a
        # point 1e-9 sigma beyond the edge pokes out there by less than the
        # old grid check's slack, which called it contained
        p = 0.0975
        region, band = build_c1(fluid_est, fluid_scheme, p), band_b1(fluid_est, fluid_scheme, p)
        sigma = 0.5 * (region.sigma_lo + region.sigma_hi)
        mu = float(region.location_edge(region.q1, sigma)) + (-1e-9 if outside else 1e-9) * sigma
        assert bool(region.contains(mu, sigma)) is not outside
        assert graph_contained(band, LocScale(mu, sigma)) is not outside

    @pytest.mark.parametrize("outside", (True, False))
    def test_b3_witness_at_curved_boundary(self, fluid_est, fluid_scheme, outside):
        # below the scale of the curve's minimum, away from the hull notch, a
        # point 1e-8 sigma left of c3's curved boundary leaves the hull; its
        # cdf crosses the envelope only near the x whose envelope scale is sigma
        nominal_p, c_p = exact_p_of_tau(fluid_scheme.m, LEVEL)
        region = build_c3(fluid_est, fluid_scheme, c_p)
        band = band_b3(fluid_est, fluid_scheme, c_p, nominal_p=nominal_p)
        sigma = 0.5 * (region.z_lo + region.m * region.sigma_hat / region.z)
        mu = region.mu_hat + region.g(sigma) + (-1e-8 if outside else 1e-8) * sigma
        assert bool(region.hull_contains(mu, sigma)) is not outside
        assert graph_contained(band, LocScale(mu, sigma)) is not outside

    @pytest.mark.parametrize("complete", (False, True), ids=("bundled", "complete8"))
    def test_containment_equals_events_on_every_replicate(self, fluid_scheme, std_theta,
                                                          complete):
        # no boundary shell is skipped: the panel decision is exact. The
        # complete sample has (m + 1)/n > 1, the bundled scheme below 1
        scheme = CensoringScheme.complete(8) if complete else fluid_scheme
        nominal_p, c_p = exact_p_of_tau(scheme.m, LEVEL)
        constants = {"c_p": c_p, "d_p": exact_dp(scheme.m, scheme.n, P)}
        mu_hats, sigma_hats = simulate_mles(std_theta, scheme, 600, seed=43)
        for kind in ("b1", "b2", "b3", "b4", "b4p", "b4pp"):
            fast = coverage_indicator(kind, mu_hats, sigma_hats, std_theta, scheme,
                                      level=LEVEL, **constants)
            assert 0 < np.count_nonzero(fast) < fast.size
            for i in range(fast.size):
                est = MleEstimate(float(mu_hats[i]), float(sigma_hats[i]))
                band = METHODS[kind].build(est, scheme, LEVEL, constants)
                assert graph_contained(band, std_theta) == bool(fast[i]), (kind, i)

    def test_transformed_bands_rejected(self, all_bands, fluid_scheme, std_theta):
        for band in (reliability_band(all_bands["b1"]),
                     marginal_band(all_bands["b1"], fluid_scheme.gammas)):
            with pytest.raises(DomainError):
                graph_contained(band, std_theta)


class TestReliability:
    def test_involution(self, all_bands):
        for kind, band in all_bands.items():
            rel = reliability_band(band)
            back = reliability_band(rel)
            assert back.kind == band.kind
            xs = np.linspace(-5, 70, 200)
            assert np.array_equal(back.lower(xs), band.lower(xs))
            assert np.array_equal(back.upper(xs), band.upper(xs))

    def test_pointwise_reflection(self, all_bands, rng):
        band = all_bands["b1"]
        rel = reliability_band(band)
        xs = rng.uniform(-10, 60, size=200)
        assert np.allclose(rel.upper(xs), 1.0 - band.lower(xs), atol=1e-15)
        assert np.allclose(rel.lower(xs), 1.0 - band.upper(xs), atol=1e-15)
        assert not rel.increasing and rel.level == band.level

    def test_reliability_of_constant_width_band(self, all_bands, fluid_est):
        rel = reliability_band(all_bands["b4"])
        xs = np.linspace(fluid_est.mu_hat + 1, fluid_est.mu_hat + 20, 50)
        fitted = LocScale(fluid_est.mu_hat, fluid_est.sigma_hat)
        mid = 1.0 - fitted.cdf(xs)
        ok = (mid >= DP_PAPER) & (mid <= 1 - DP_PAPER)
        assert np.allclose(rel.upper(xs[ok]) - mid[ok], DP_PAPER, atol=1e-12)
        assert np.allclose(mid[ok] - rel.lower(xs[ok]), DP_PAPER, atol=1e-12)


class TestMarginalTransform:
    def test_endpoints(self, fluid_scheme, rng):
        for _ in range(20):
            g = tuple(sorted(rng.uniform(0.5, 20.0, size=6)) )
            if len(set(g)) < 6:
                continue
            assert marginal_transform_h(g, 0.0) == pytest.approx(0.0, abs=1e-9)
            assert marginal_transform_h(g, 1.0) == 1.0

    def test_strictly_increasing(self, fluid_scheme):
        g = fluid_scheme.gammas
        ys = np.linspace(0.0, 0.98, 401)   # strictness saturates in float64
        h = marginal_transform_h(g, ys)    # beyond (1-y)^min(g) ~ ulp
        assert np.all(np.diff(h) > 0)
        tail = marginal_transform_h(g, np.linspace(0.98, 1.0, 51))
        assert np.all(np.diff(tail) >= 0) and tail[-1] == 1.0

    def test_single_coefficient_reduces_to_minimum_law(self, rng):
        # the first failure of n units has cdf 1 - (1-y)^n on the y-scale
        n = 7
        ys = np.linspace(0.0, 1.0, 11)
        direct = marginal_transform_h((float(n),), ys)
        assert np.allclose(direct, 1.0 - (1.0 - ys) ** n, atol=1e-12)
        draws = rng.exponential(size=(200_000, n)).min(axis=1)
        for q in (0.3, 1.0):
            y = -math.expm1(-q)
            mc = float(np.mean(draws <= q))
            assert marginal_transform_h((float(n),), y) == pytest.approx(mc, abs=0.005)

    def test_matches_exact_mixture_at_m100(self):
        # every coefficient of a censoring scheme is an integer, so the signed
        # mixture 1 - H(y) = sum_i c_i (1 - y)^gamma_i, c_i = prod_{j != i}
        # gamma_j / (gamma_j - gamma_i), is exact in rationals at a double y
        g = [int(v) for v in SESSION_SCHEME.gammas]
        coef = [math.prod(Fraction(gj, gj - gi) for gj in g if gj != gi) for gi in g]
        for y in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999):
            tail = sum(c * (1 - Fraction(y)) ** gi for c, gi in zip(coef, g))
            h = marginal_transform_h(SESSION_SCHEME.gammas, y)
            assert abs(Fraction(h) - (1 - tail)) <= Fraction(1e-12) * (1 - tail), y
            assert abs(Fraction(1.0 - h) - tail) <= Fraction(1e-12) * tail, y

    @pytest.mark.parametrize("gamma", [(3.0, 3.0), (2.0, 2.0, 2.0)])
    def test_tied_coefficients_give_erlang(self, gamma):
        # S is then Erlang(r, gamma): H(y) = P(Pois(gamma s) >= r), s = -log(1 - y),
        # and 1 - H(y) = exp(-gamma s) sum_{j<r} (gamma s)^j / j!
        r, rate = len(gamma), gamma[0]
        for y in np.linspace(0.0, 1.0, 41)[1:-1]:
            x = -rate * math.log1p(-y)
            terms = [1.0]
            for j in range(1, r + 200):
                terms.append(terms[-1] * x / j)
            below, above = (math.exp(-x) * math.fsum(t) for t in (terms[:r], terms[r:]))
            h = marginal_transform_h(gamma, y)
            assert h == pytest.approx(above if above < 0.5 else 1.0 - below, rel=1e-13, abs=0), y

    @pytest.mark.parametrize("scheme", [SESSION_SCHEME, CensoringScheme.complete(150)],
                             ids=["session", "complete-150"])
    def test_nondecreasing_up_to_last_double(self, scheme):
        ys = np.sort(np.concatenate([np.linspace(0.0, 1.0, 2001), 1.0 - np.logspace(-3, -16, 400),
                                     [1.0 - 2.0 ** -53]]))
        h = marginal_transform_h(scheme.gammas, ys)
        assert np.all(np.diff(h) >= 0.0)
        assert h[0] == 0.0 and h[-1] == 1.0

    def test_reliability_band_refused(self, all_bands, fluid_scheme):
        # H maps cdf values: the reflection comes after the transform
        with pytest.raises(DomainError):
            marginal_band(reliability_band(all_bands["b1"]), fluid_scheme.gammas)

    def test_marginal_band_metadata_and_monotonicity(self, all_bands, fluid_scheme):
        band = marginal_band(all_bands["b1"], fluid_scheme.gammas)
        assert band.level == all_bands["b1"].level
        assert band.kind == "marginal-of-b1"
        xs = np.linspace(-5, 70, 500)
        lo, hi = band.lower(xs), band.upper(xs)
        assert np.all(np.diff(lo) >= -1e-12) and np.all(np.diff(hi) >= -1e-12)
        assert np.all(lo <= hi + 1e-12)

    def test_transform_matches_simulated_last_failure(self, fluid_scheme, std_theta):
        # H composed with the baseline cdf must be the distribution of the
        # last observed failure; simulate it via spacings and KS-compare
        g = np.asarray(fluid_scheme.gammas)
        rng = batch_generator(613, 0)
        draws = np.sort((rng.standard_exponential((100_000, fluid_scheme.m)) / g
                         ).sum(axis=1))
        n = draws.size
        f = marginal_transform_h(fluid_scheme.gammas, std_theta.cdf(draws))
        ecdf = np.arange(1, n + 1) / n
        d = max(np.max(np.abs(ecdf - f)), np.max(np.abs(ecdf - 1.0 / n - f)))
        assert d < 1.63 / math.sqrt(n)  # KS acceptance at the 1% level

    def test_marginal_band_coverage(self, fluid_scheme, std_theta):
        # the pushed band covers the last-failure cdf at the base level;
        # containment of H(F_theta) between H(lower) and H(upper) is
        # equivalent to base containment because H is strictly increasing
        # (asserted above), which keeps the check away from H's flat ends
        reps = 10_000
        mu_hats, sigma_hats = simulate_mles(std_theta, fluid_scheme, reps, seed=77)
        hits = 0
        for i in range(reps):
            est = MleEstimate(float(mu_hats[i]), float(sigma_hats[i]))
            base = band_b1(est, fluid_scheme, 0.10)
            pushed = marginal_band(base, fluid_scheme.gammas)
            assert pushed.level == base.level
            hits += graph_contained(base, std_theta)
        assert hits / reps == pytest.approx(0.90, abs=0.01)


class TestSerialization:
    def test_roundtrip_all_kinds(self, all_bands):
        xs = np.linspace(-10, 80, 1500)
        for kind, band in all_bands.items():
            back = band_from_dict(band_to_dict(band))
            assert back.kind == band.kind and back.level == band.level
            assert np.array_equal(back.lower(xs), band.lower(xs))
            assert np.array_equal(back.upper(xs), band.upper(xs))

    def test_roundtrip_transformed(self, all_bands, fluid_scheme):
        band = reliability_band(marginal_band(all_bands["b4"], fluid_scheme.gammas))
        back = band_from_dict(band_to_dict(band))
        xs = np.linspace(-10, 80, 500)
        assert np.array_equal(back.lower(xs), band.lower(xs))
        assert not back.increasing

    def test_rows(self, all_bands):
        rows = band_rows(all_bands["b1"], [0.0, 1.0, 2.0])
        assert len(rows) == 3
        for x, lo, hi in rows:
            assert 0.0 <= lo <= hi <= 1.0

    def test_malformed(self):
        with pytest.raises(DomainError):
            band_from_dict({"kind": "b1"})


class TestDefaultGrid:
    def test_grid_spans_breakpoints_and_decays(self, all_bands):
        for kind in ("b1", "b2", "b3", "b4p", "b4pp"):
            band = all_bands[kind]
            xs = default_grid(band, points=256)
            assert len(xs) == 256
            assert xs[0] <= min(band.breakpoints())
            assert band.width(xs[-1]) < 1e-6

    def test_constant_width_band_grid_capped(self, all_bands, fluid_est):
        xs = default_grid(all_bands["b4"], points=128)
        clip_to_one = fluid_est.mu_hat - fluid_est.sigma_hat * math.log(DP_PAPER)
        assert xs[-1] == pytest.approx(clip_to_one, abs=1e-9)
