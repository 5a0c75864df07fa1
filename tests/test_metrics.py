import json
import math
import warnings

import numpy as np
import pytest

from expbands.bands import (
    METHODS,
    band_b1,
    band_b3,
    band_b4,
    band_b4_trimmed,
    coverage_indicator,
    ks_distance_xy,
    marginal_band,
    reliability_band,
)
from expbands.calibration import exact_dp, exact_p_of_tau, ks_cdf
from expbands.cli import _DEFAULTS, main
from expbands.errors import DomainError
from expbands.metrics import (
    area,
    band_metrics,
    coverage_experiment,
    max_width,
)
from expbands.model import (CensoringScheme, LocScale, ProgressiveSample, load_insulating_fluid,
                            mle, simulate_mles, simulate_sample, write_sample_csv)
from expbands.streams import BATCH_SIZE

LEVEL = 0.9025
P = 1.0 - LEVEL
CP_PAPER = -11.587
DP_PAPER = 0.249


# the bench `session` workload's generated scheme: one unit withdrawn at every
# second failure, m = 100, n = 150
SESSION_SCHEME = CensoringScheme(n=150, m=100, removals=tuple(i % 2 for i in range(100)))


def _sample(name: str) -> ProgressiveSample:
    if name == "fluid":
        return load_insulating_fluid()
    if name.startswith("session-"):
        sigma = float(name.split("-")[1])
        return simulate_sample(LocScale(2.0, sigma), SESSION_SCHEME, np.random.default_rng(int(sigma)))
    m = int(name[1:])
    return simulate_sample(LocScale(1.0, 2.0), CensoringScheme.type2_right(m + 8, m),
                           np.random.default_rng(m))


def _bands(sample: ProgressiveSample, level: float,
           kinds=("b1", "b2", "b3", "b4", "b4p", "b4pp")) -> dict:
    est, scheme = mle(sample), sample.scheme
    nominal_p, c_p = exact_p_of_tau(scheme.m, level)
    constants = {"c_p": c_p, "nominal_p": nominal_p,
                 "d_p": exact_dp(scheme.m, int(scheme.effective_n), 1.0 - level)}
    return {kind: METHODS[kind].build(est, scheme, level, constants)
            for kind in kinds}


@pytest.fixture(scope="module")
def b4(fluid_est):
    return band_b4(fluid_est, DP_PAPER, level=LEVEL)


@pytest.fixture(scope="module")
def b3(fluid_est, fluid_scheme):
    return band_b3(fluid_est, fluid_scheme, CP_PAPER, nominal_p=0.127)


class TestMaxWidth:
    def test_b4_width_is_exactly_two_d(self, b4):
        w, _ = max_width(b4)
        assert w == pytest.approx(2 * DP_PAPER, abs=1e-12)

    def test_argmax_at_least_random_points(self, b4, b3, rng):
        for band in (b4, b3):
            w, argx = max_width(band)
            xs = rng.uniform(-20, 100, size=100)
            assert np.all(w >= band.width(xs) - 1e-12)
            assert w == pytest.approx(float(band.width(argx)), abs=1e-12)

    def test_reliability_width_unchanged(self, b3):
        w_base, _ = max_width(b3)
        w_rel, _ = max_width(reliability_band(b3))
        assert w_rel == pytest.approx(w_base, abs=1e-12)

    @pytest.mark.parametrize("kind", ("b4", "b4p"))
    def test_plateau_argmax_is_its_left_end(self, fluid_est, fluid_scheme, kind):
        # the width is 2 d_p wherever d_p <= F_hat <= 1 - d_p; a one-ulp move
        # of d_p must not move the reported point along that plateau
        d_p = exact_dp(fluid_scheme.m, fluid_scheme.n, P)
        widths = []
        for d in (np.nextafter(d_p, 0.0), d_p, np.nextafter(d_p, 1.0)):
            band = METHODS[kind].build(fluid_est, fluid_scheme, LEVEL, {"d_p": float(d)})
            w, argx = max_width(band)
            left = fluid_est.mu_hat - fluid_est.sigma_hat * math.log1p(-d)
            assert argx == pytest.approx(left, rel=1e-14) and argx == pytest.approx(2.665, abs=1e-3)
            assert w == pytest.approx(2 * d, rel=1e-15)
            widths.append(w)
        assert widths[1] == widths[2]

    def test_marginal_width_generic_path(self, fluid_est, fluid_scheme):
        band = marginal_band(band_b1(fluid_est, fluid_scheme, P), fluid_scheme.gammas)
        w, argx = max_width(band)
        assert 0 < w < 1
        xs = np.linspace(-5, 80, 3000)
        assert w >= np.max(band.width(xs)) - 1e-6


class TestMaxWidthOracle:
    @pytest.mark.parametrize("name, level", [
        ("fluid", 0.8), ("fluid", 0.9025), ("m3", 0.8), ("m12", 0.9025),
        ("session-1", 0.9025), ("session-7", 0.8), ("session-20", 0.9025)])
    def test_at_least_dense_grid_maximum(self, name, level):
        sample = _sample(name)
        est = mle(sample)
        bands = _bands(sample, level)
        bands["marginal-b1"] = marginal_band(bands["b1"], sample.scheme.gammas)
        xs = est.mu_hat + est.sigma_hat * np.linspace(-5.0, 60.0, 200_001)
        for kind, band in bands.items():
            w, argx = max_width(band)
            grid = np.concatenate([xs, band.breakpoints()])
            assert w >= float(np.max(band.width(grid))) - 1e-12, kind
            assert math.isfinite(argx)
            assert float(band.width(argx)) == pytest.approx(w, abs=1e-12), kind

    def test_metrics_rows_scale_equivariant(self, tmp_path):
        # a change of time unit leaves max width alone and scales the area
        sample = _sample("session-1")
        rows = []
        for name, xs in (("unit", sample.x), ("scaled", [3.0 + 10.0 * x for x in sample.x])):
            data = tmp_path / f"{name}.csv"
            write_sample_csv(ProgressiveSample(sample.scheme, xs), data)
            assert main(["metrics", "--data", str(data), "--level", "0.9025",
                         "--output-dir", str(tmp_path / name)]) == 0
            rows.append(json.loads((tmp_path / name / "metrics.json").read_text())["rows"])
        for unit, scaled in zip(*rows):
            assert scaled["max_width"] == pytest.approx(unit["max_width"], abs=1e-12)
            assert scaled["area_infinite"] == unit["area_infinite"]
            if not unit["area_infinite"]:
                assert scaled["area"] == pytest.approx(10.0 * unit["area"], rel=1e-9)


class TestArea:
    def test_b4_structurally_infinite(self, b4):
        a, _ = area(b4)
        assert math.isinf(a)

    def test_b3_area_stable_under_tolerance_halving(self, b3):
        a1, err1 = area(b3, abs_tol=1e-8)
        a2, _ = area(b3, abs_tol=5e-9)
        assert abs(a1 - a2) <= max(err1, 1e-9)

    def test_reliability_area_unchanged(self, b3):
        a_base, _ = area(b3)
        a_rel, _ = area(reliability_band(b3))
        assert a_rel == pytest.approx(a_base, abs=1e-9)

    def test_trimmed_band_area_against_dense_trapezoid(self, fluid_est):
        band = band_b4_trimmed(fluid_est, DP_PAPER, trimmed=True, level=LEVEL)
        a, _ = area(band)
        xs = np.linspace(-40, 600, 400_001)
        brute = float(np.trapezoid(band.width(xs), xs))
        assert a == pytest.approx(brute, rel=2e-4)

    def test_marginal_band_area_closed_tail(self, fluid_est, fluid_scheme):
        band = marginal_band(band_b1(fluid_est, fluid_scheme, P), fluid_scheme.gammas)
        a, err = area(band)
        xs = np.linspace(-40, 900, 400_001)
        brute = float(np.trapezoid(band.width(xs), xs))
        assert a == pytest.approx(brute, rel=1e-3)

    @pytest.mark.parametrize("name, level", [("fluid", 0.9025), ("m3", 0.95)])
    def test_b3_area_against_quad(self, name, level):
        band = _bands(_sample(name), level, ("b3",))["b3"]
        a, err = area(band)
        assert abs(a - _quad_area(band)) <= err + 1e-12

    def test_marginal_b4p_area_against_quad(self, fluid_sample):
        band = marginal_band(_bands(fluid_sample, LEVEL, ("b4p",))["b4p"],
                             fluid_sample.scheme.gammas)
        a, err = area(band)
        assert abs(a - _quad_area(band)) <= err + 1e-12

    def test_session_marginal_b1_area_against_quad(self):
        # at m = 100 the marginal transform's right tail is a long Poisson sum
        sample = _sample("session-7")
        band = marginal_band(_bands(sample, LEVEL, ("b1",))["b1"], sample.scheme.gammas)
        a, err = area(band)
        assert math.isfinite(a) and a > 0
        assert abs(a - _quad_area(band)) <= err + 1e-10 * a

    def test_band_metrics_struct(self, b3):
        bm = band_metrics(b3)
        assert bm.max_width > 0 and bm.area > 0 and bm.quadrature_error_estimate >= 0


def _quad_area(band) -> float:
    # independent oracle: scipy's adaptive quadrature over the same panels,
    # the unbounded right tail included; the width is 0 left of them
    quad = pytest.importorskip("scipy.integrate").quad
    edges = sorted(set(band.breakpoints()))
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # quad's roundoff notices at this tolerance
        for a, b in zip(edges, edges[1:] + [math.inf]):
            total += quad(lambda x: float(band.width(x)), a, b, epsabs=1e-14, epsrel=1e-14,
                          limit=200)[0]
    return total


class TestCoverage:
    def test_deterministic(self, fluid_scheme, std_theta):
        a = coverage_experiment("c1", std_theta, fluid_scheme, 0.9, 20_000, seed=3)
        b = coverage_experiment("c1", std_theta, fluid_scheme, 0.9, 20_000, seed=3)
        assert a.coverage == b.coverage

    @pytest.mark.parametrize("kind", METHODS)
    def test_fused_count_matches_indicator_arrays(self, fluid_scheme, kind):
        # the exact method counts per batch; across batch boundaries it
        # must agree with the events on the full MLE arrays
        theta, reps = LocScale(2.0, 3.0), 8 * BATCH_SIZE + 5
        constants = {"c_p": CP_PAPER, "d_p": DP_PAPER}
        rep = coverage_experiment(kind, theta, fluid_scheme, 0.9, reps, seed=12, **constants)
        events = coverage_indicator(kind, *simulate_mles(theta, fluid_scheme, reps, 12), theta,
                                    fluid_scheme, level=0.9, **constants)
        assert rep.coverage == np.count_nonzero(events) / reps

    def test_default_run_uses_every_worker(self, fluid_scheme, std_theta, pivot_pool):
        # the command line's default replicates span 4 batches, one pool
        # task each, and the coverage does not depend on the worker count
        def run(workers: int) -> tuple[float, int]:
            pool = pivot_pool(workers)
            rep = coverage_experiment("c1", std_theta, fluid_scheme, 0.9,
                                      _DEFAULTS["replicates"], seed=8)
            return rep.coverage, pool.tasks

        (pooled, tasks), (alone, one) = run(2), run(1)
        assert _DEFAULTS["replicates"] == 100_000 and tasks == one == 4
        assert pooled == alone

    def test_b4_runs_where_the_region_is_unbounded(self, std_theta):
        # the b4 event needs no region, so it runs at d_p >= 0.5, which
        # build_c4 refuses; its frequency estimates the exact pivot cdf
        scheme, reps, d_p = CensoringScheme.type2_right(10, 3), 40_000, 0.5056
        rep = coverage_experiment("b4", std_theta, scheme, 0.9, reps, seed=6, d_p=d_p)
        mu_hats, sigma_hats = simulate_mles(std_theta, scheme, reps, 6)
        assert rep.coverage == np.count_nonzero(ks_distance_xy(mu_hats, sigma_hats) <= d_p) / reps
        assert abs(rep.coverage - ks_cdf(3, 10, d_p)) <= 4 * rep.std_error

    def test_exact_matches_grid_method(self, fluid_scheme, std_theta):
        for kind, kw in (("c1", {}), ("b1", {}), ("c3", {"c_p": CP_PAPER}),
                         ("b3", {"c_p": CP_PAPER}), ("b4", {"d_p": DP_PAPER}),
                         ("b4p", {"d_p": DP_PAPER}), ("b4pp", {"d_p": DP_PAPER}),
                         ("c4pp", {"d_p": DP_PAPER})):
            fast = coverage_experiment(kind, std_theta, fluid_scheme, 0.873,
                                       300, seed=8, **kw)
            slow = coverage_experiment(kind, std_theta, fluid_scheme, 0.873,
                                       300, seed=8, method="grid", **kw)
            assert fast.coverage == slow.coverage, kind

    def test_trimmed_band_grid_coverage_close(self, fluid_scheme, std_theta):
        # the grid path rebuilds the optimization-backed band per replicate
        fast = coverage_experiment("b4p", std_theta, fluid_scheme, 0.9, 200,
                                   seed=8, d_p=DP_PAPER)
        slow = coverage_experiment("b4p", std_theta, fluid_scheme, 0.9, 200,
                                   seed=8, d_p=DP_PAPER, method="grid")
        assert abs(fast.coverage - slow.coverage) <= 0.01

    def test_report_fields(self, fluid_scheme):
        rep = coverage_experiment("b4", LocScale(2.0, 3.0), fluid_scheme, 0.9,
                                  5_000, seed=4, d_p=DP_PAPER)
        assert rep.band_kind == "b4" and rep.replicates == 5_000
        assert rep.theta == (2.0, 3.0)
        assert 0.85 < rep.coverage < 0.95
        assert rep.std_error == pytest.approx(
            math.sqrt(rep.coverage * (1 - rep.coverage) / 5_000), rel=1e-9)
        assert rep.constants == {"d_p": DP_PAPER}

    def test_unknown_kind_and_missing_constants(self, fluid_scheme, std_theta):
        with pytest.raises(DomainError):
            coverage_experiment("b9", std_theta, fluid_scheme, 0.9, 10, seed=1)
        with pytest.raises(DomainError):
            coverage_experiment("c3", std_theta, fluid_scheme, 0.9, 10, seed=1)
