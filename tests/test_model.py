import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from expbands.calibration import (
    calibrate_cp,
    calibrate_dp,
    draw_cp_statistic,
    draw_ks_statistic,
    p_of_tau,
)
from expbands.errors import (
    DegenerateSampleError,
    DomainError,
    InvalidSchemeError,
    InvalidTransformError,
    ParseError,
)
from expbands.model import (
    CensoringScheme,
    GeneralizedScheme,
    LocScale,
    MonotoneTransform,
    ProgressiveSample,
    g_transform,
    load_insulating_fluid,
    map_pivots,
    mle,
    read_sample_csv,
    simulate_mles,
    simulate_sample,
    umvue,
    write_sample_csv,
)
from expbands.regions import cp_pivot, ks_distance_xy
from expbands.streams import BATCH_SIZE, batch_generator


class TestScheme:
    def test_table4_gammas(self, fluid_scheme):
        assert fluid_scheme.gammas == (19.0, 18.0, 17.0, 13.0, 12.0, 8.0, 7.0, 6.0)

    def test_complete_sample(self):
        scheme = CensoringScheme.complete(6)
        assert scheme.gammas == (6.0, 5.0, 4.0, 3.0, 2.0, 1.0)

    def test_type2_right_censoring(self):
        scheme = CensoringScheme(n=10, m=3, removals=(0, 0, 7))
        assert scheme.gammas == (10.0, 9.0, 8.0)
        assert scheme == CensoringScheme.type2_right(10, 3)

    def test_gammas_positive_nonincreasing_start_at_n(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 12))
            extra = rng.multinomial(int(rng.integers(0, 20)), np.ones(m) / m)
            scheme = CensoringScheme(n=m + int(extra.sum()), m=m, removals=tuple(extra))
            g = scheme.gammas
            assert g[0] == scheme.n
            assert all(a > 0 for a in g)
            assert all(a >= b for a, b in zip(g, g[1:]))

    def test_invalid_schemes(self):
        with pytest.raises(InvalidSchemeError):
            CensoringScheme(n=5, m=3, removals=(0, 0, 0))   # sum != n - m
        with pytest.raises(InvalidSchemeError):
            CensoringScheme(n=5, m=1, removals=(4,))        # m must exceed 1
        with pytest.raises(InvalidSchemeError):
            CensoringScheme(n=5, m=3, removals=(0, -1, 3))
        with pytest.raises(InvalidSchemeError):
            GeneralizedScheme(gamma=(3.0, 0.0))

    def test_generalized_scheme_effective_n(self):
        scheme = GeneralizedScheme(gamma=(7.5, 3.0, 1.2))
        assert scheme.m == 3
        assert scheme.effective_n == 7.5


class TestMle:
    def test_table4_golden(self, fluid_sample):
        est = mle(fluid_sample)
        assert abs(est.mu_hat - 0.19) <= 1e-12
        assert abs(est.sigma_hat - 8.635) <= 1e-12

    def test_two_point_hand_example(self):
        sample = ProgressiveSample(CensoringScheme(2, 2, (0, 0)), (1.0, 3.0))
        est = mle(sample)
        assert est.mu_hat == 1.0
        assert est.sigma_hat == 1.0  # (1/2) * gamma_2 * (3 - 1) with gamma_2 = 1

    def test_equivariance_exact_power_of_two_scale(self, fluid_sample, rng):
        base = mle(fluid_sample)
        for _ in range(25):
            b = 2.0 ** int(rng.integers(-8, 9))
            scaled = ProgressiveSample(fluid_sample.scheme,
                                       tuple(b * x for x in fluid_sample.x))
            est = mle(scaled)
            assert est.mu_hat == b * base.mu_hat
            assert est.sigma_hat == b * base.sigma_hat

    def test_equivariance_general_shift_scale(self, fluid_sample, rng):
        base = mle(fluid_sample)
        for _ in range(25):
            a = float(rng.normal(0, 10))
            b = float(rng.uniform(0.1, 10))
            moved = ProgressiveSample(fluid_sample.scheme,
                                      tuple(a + b * x for x in fluid_sample.x))
            est = mle(moved)
            assert est.mu_hat == a + b * base.mu_hat  # exact: mu_hat is a data value
            assert est.sigma_hat == pytest.approx(b * base.sigma_hat, rel=1e-12)

    def test_degenerate_sample(self):
        sample = ProgressiveSample(CensoringScheme(3, 3, (0, 0, 0)), (2.0, 2.0, 2.0))
        with pytest.raises(DegenerateSampleError):
            mle(sample)

    def test_overflowing_spacings_rejected(self):
        # finite times whose weighted spacings overflow gave sigma_hat = inf
        sample = ProgressiveSample(CensoringScheme(4, 3, (0, 0, 1)), (0.0, 1e308, 1.7e308))
        with pytest.raises(DegenerateSampleError):
            mle(sample)

    def test_ties_allowed(self):
        sample = ProgressiveSample(CensoringScheme(3, 3, (0, 0, 0)), (1.0, 1.0, 2.0))
        est = mle(sample)
        assert est.sigma_hat > 0

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            ProgressiveSample(CensoringScheme(3, 3, (0, 0, 0)), (2.0, 1.0, 3.0))


class TestUmvue:
    def test_table4_values(self, fluid_est, fluid_scheme):
        mu_t, sigma_t = umvue(fluid_est, fluid_scheme)
        assert sigma_t == pytest.approx(8 * 8.635 / 7, abs=1e-12)
        assert mu_t == pytest.approx(0.19 - sigma_t / 19, abs=1e-12)

    def test_factor_limits(self):
        est_like = mle(ProgressiveSample(CensoringScheme(2, 2, (0, 0)), (0.0, 2.0)))
        _, sigma_t = umvue(est_like, CensoringScheme(2, 2, (0, 0)))
        assert sigma_t == 2 * est_like.sigma_hat  # m = 2 doubles the scale
        big = CensoringScheme.complete(500)
        x = tuple(np.sort(np.random.default_rng(1).exponential(size=500)))
        est_big = mle(ProgressiveSample(big, x))
        _, sigma_big = umvue(est_big, big)
        assert sigma_big == pytest.approx(est_big.sigma_hat, rel=3e-3)


# every public entry point that takes a replicate count: reps -> draws
REPLICATE_ENTRY_POINTS = {
    "simulate_mles": lambda reps: simulate_mles(LocScale(0.0, 1.0),
                                                load_insulating_fluid().scheme, reps, 1),
    "draw_cp_statistic": lambda reps: draw_cp_statistic(8, reps, 1),
    "draw_ks_statistic": lambda reps: draw_ks_statistic(8, 19, reps, 1),
    "calibrate_cp": lambda reps: calibrate_cp(8, 0.1, reps, 1),
    "calibrate_dp": lambda reps: calibrate_dp(8, 19, 0.1, reps, 1),
    "p_of_tau": lambda reps: p_of_tau(8, 0.9, reps, 1),
}


def _ks_p_value(d: float, n: float) -> float:
    """Asymptotic Kolmogorov p-value of a KS distance d at effective size n."""
    lam = d * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
                     for k in range(1, 101))


# the seeded batched samplers, keyed by name: (scheme, replicates) -> arrays
BATCHED_DRAWS = {
    "simulate_mles": lambda scheme, reps: simulate_mles(LocScale(0.0, 1.0), scheme, reps, 5),
    "draw_cp_statistic": lambda scheme, reps: (draw_cp_statistic(scheme.m, reps, 5),),
    "draw_ks_statistic": lambda scheme, reps: (draw_ks_statistic(scheme.m, scheme.n, reps, 5),),
}


def _serial_pivots(m: int, reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z, T) drawn one batch after another on the calling thread: per batch
    its replicates' Z from the batch's Z stream, then their T from its T
    stream, and nothing more."""
    zs, ts = [], []
    for first in range(0, reps, BATCH_SIZE):
        count, b = min(BATCH_SIZE, reps - first), first // BATCH_SIZE
        zs.append(batch_generator(seed, b, 0).standard_exponential(count))
        ts.append(batch_generator(seed, b, 1).standard_gamma(m - 1.0, count) / m)
    return np.concatenate(zs), np.concatenate(ts)


# the same draws as BATCHED_DRAWS (simulate_mles at theta = (0, 1)), from the
# serial pivots by the same formulas
SERIAL_DRAWS = {
    "simulate_mles": lambda scheme, z, t: (z / scheme.effective_n, t),
    "draw_cp_statistic": lambda scheme, z, t: (cp_pivot(z, scheme.m * t, scheme.m),),
    "draw_ks_statistic": lambda scheme, z, t: (ks_distance_xy(z / scheme.n, t),),
}


class _WorkerFailure(Exception):
    pass


def _draw_three_batches(seed: int) -> np.ndarray:
    return draw_cp_statistic(8, 3 * BATCH_SIZE, seed)


class TestSimulation:
    def test_sample_sorted_and_above_location(self, fluid_scheme, rng):
        theta = LocScale(2.0, 3.0)
        sample = simulate_sample(theta, fluid_scheme, rng)
        assert all(b >= a for a, b in zip(sample.x, sample.x[1:]))
        assert sample.x[0] > theta.mu

    def test_seed_determinism(self, fluid_scheme):
        theta = LocScale(0.0, 1.0)
        a = simulate_mles(theta, fluid_scheme, 10_000, seed=5)
        b = simulate_mles(theta, fluid_scheme, 10_000, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("draw", BATCHED_DRAWS)
    def test_batching_invariance(self, fluid_scheme, draw):
        # a longer run extends a shorter one replicate-for-replicate, inside
        # one batch and across batches
        for short_reps, long_reps in ((5_000, 10_000), (BATCH_SIZE - 3, 2 * BATCH_SIZE + 5)):
            short = BATCHED_DRAWS[draw](fluid_scheme, short_reps)
            long = BATCHED_DRAWS[draw](fluid_scheme, long_reps)
            for a, b in zip(short, long):
                assert np.array_equal(a, b[:short_reps])

    # runs ending inside the first half batch, at the edges of the first batch,
    # and after 5 and 33 batches (the last holding 17 replicates)
    @pytest.mark.parametrize("reps", (1, 4095, 4096, 4097, BATCH_SIZE - 1, BATCH_SIZE,
                                      BATCH_SIZE + 1, 4 * BATCH_SIZE + 17,
                                      32 * BATCH_SIZE + 17))
    @pytest.mark.parametrize("draw", BATCHED_DRAWS)
    def test_threaded_draws_match_serial_reference(self, fluid_scheme, draw, reps):
        threaded = BATCHED_DRAWS[draw](fluid_scheme, reps)
        serial = SERIAL_DRAWS[draw](fluid_scheme, *_serial_pivots(fluid_scheme.m, reps, 5))
        for a, b in zip(threaded, serial):
            assert np.array_equal(a, b)

    def test_map_pivots_results_in_task_order(self):
        # one call per batch, the last holding the rest
        reps = 2 * BATCH_SIZE + 3
        bounds = map_pivots(8, reps, 1, lambda batch, z, t: (batch.start, batch.stop, z.size))
        assert bounds == [(0, BATCH_SIZE, BATCH_SIZE), (BATCH_SIZE, 2 * BATCH_SIZE, BATCH_SIZE),
                          (2 * BATCH_SIZE, reps, 3)]

    def test_worker_count_does_not_change_draws(self, pivot_pool):
        reps = 3 * BATCH_SIZE + 11
        pivot_pool(1)
        alone = draw_cp_statistic(8, reps, 9)
        pooled = pivot_pool(2)
        assert np.array_equal(draw_cp_statistic(8, reps, 9), alone)
        assert pooled.tasks == 4

    def test_worker_exception_reaches_caller(self):
        def fail_late(batch, z, t):
            if batch.start >= 2 * BATCH_SIZE:
                raise _WorkerFailure(batch.start)

        with pytest.raises(_WorkerFailure):
            map_pivots(8, 4 * BATCH_SIZE, 1, fail_late)

    def test_forked_child_draws(self):
        # a forked child inherits the parent's pool object but none of its
        # threads; it must not queue work that no thread will run
        expected = _draw_three_batches(3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            drawn = pool.apply_async(_draw_three_batches, (3,)).get(timeout=60)
        assert np.array_equal(drawn, expected)

    def test_concurrent_callers_share_the_pool(self):
        # more calling threads than cores, switching often: each caller
        # still gets exactly its own serial draws
        seeds = range(6)
        expected = {seed: _draw_three_batches(seed) for seed in seeds}
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=lambda s=seed: got.__setitem__(
                s, _draw_three_batches(s))) for seed in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[seed], expected[seed]) for seed in seeds)

    @pytest.mark.parametrize("call, reps", [
        pytest.param(call, reps, id=name if reps == 0 else f"{name}-negative")
        for reps in (0, -1) for name, call in REPLICATE_ENTRY_POINTS.items()])
    def test_zero_replicates_is_a_domain_error(self, call, reps):
        with pytest.raises(DomainError):
            call(reps)

    def test_location_estimate_mean(self, fluid_scheme):
        # mu_hat - mu is exponential with mean sigma/n
        reps = 400_000
        mu_hats, _ = simulate_mles(LocScale(0.0, 1.0), fluid_scheme, reps, seed=17)
        se = (1.0 / 19.0) / math.sqrt(reps)
        assert abs(mu_hats.mean() - 1.0 / 19.0) <= 3 * se

    def test_whole_batch_generator_is_not_a_pivot_stream(self):
        # SeedSequence((5, 3)) and SeedSequence((5, 3, 0)) have one state:
        # the whole-batch generator (PCG64) would repeat batch 3's Z stream
        # if both used one bit generator
        whole = batch_generator(5, 3).standard_exponential(5)
        assert not np.any(whole == batch_generator(5, 3, 0).standard_exponential(5))
        assert isinstance(batch_generator(5, 3).bit_generator, np.random.PCG64)
        assert all(isinstance(batch_generator(5, 3, s).bit_generator, np.random.SFC64)
                   for s in (0, 1))

    def test_spacings_pivot_ks(self, fluid_scheme):
        # normalized spacings of simulated samples are standard exponential
        reps = 100_000
        g = np.asarray(fluid_scheme.gammas)
        rng = np.random.Generator(np.random.PCG64(881))   # independent of `streams`
        e = rng.standard_exponential((reps, fluid_scheme.m))
        x = np.cumsum(e / g, axis=1)
        spacings = np.diff(np.concatenate([np.zeros((reps, 1)), x], axis=1), axis=1) * g
        pooled = np.sort(spacings.ravel())
        n = pooled.size
        ecdf = np.arange(1, n + 1) / n
        f = -np.expm1(-pooled)
        d = max(np.max(np.abs(ecdf - f)), np.max(np.abs(ecdf - 1.0 / n - f)))
        assert _ks_p_value(d, n) > 0.001

    @pytest.mark.parametrize("scheme", (
        load_insulating_fluid().scheme,
        GeneralizedScheme((7.5, 6.0, 2.5, 2.2, 1.0)),
    ), ids=("progressive", "generalized"))
    def test_pivot_mles_match_simulated_samples(self, scheme):
        # the (Z, T) pivot draws behind simulate_mles have the law of the
        # MLE of samples built from m weighted spacings, for any gammas
        theta = LocScale(1.5, 2.0)
        reps = 20_000
        rng = np.random.Generator(np.random.Philox(4242))
        fitted = [mle(simulate_sample(theta, scheme, rng)) for _ in range(reps)]
        mu_hats, sigma_hats = simulate_mles(theta, scheme, reps, seed=4243)
        for direct, pivot in ((np.array([e.mu_hat for e in fitted]), mu_hats),
                              (np.array([e.sigma_hat for e in fitted]), sigma_hats)):
            both = np.concatenate([direct, pivot])
            d = np.max(np.abs(np.searchsorted(np.sort(direct), both, side="right")
                              - np.searchsorted(np.sort(pivot), both, side="right"))) / reps
            assert _ks_p_value(d, reps / 2) > 0.001

    def test_pivotality_of_estimators(self, fluid_scheme):
        reps = 200_000
        mu0, sg0 = simulate_mles(LocScale(0.0, 1.0), fluid_scheme, reps, seed=23)
        mu1, sg1 = simulate_mles(LocScale(5.0, 3.0), fluid_scheme, reps, seed=29)
        piv0 = np.sort(mu0)            # (mu_hat - mu)/sigma at (0, 1)
        piv1 = np.sort((mu1 - 5.0) / 3.0)
        for q in (0.1, 0.5, 0.9):
            i = int(q * reps)
            spread = 4.0 * np.std(piv0[max(i - 500, 0):i + 500]) / math.sqrt(reps) * 50
            assert abs(piv0[i] - piv1[i]) <= max(spread, 2e-3)
        rat0, rat1 = np.sort(sg0), np.sort(sg1 / 3.0)
        for q in (0.1, 0.5, 0.9):
            i = int(q * reps)
            assert abs(rat0[i] - rat1[i]) <= 5e-3


class TestTransforms:
    def test_identity(self, fluid_sample):
        assert g_transform(fluid_sample, MonotoneTransform("identity")).x == fluid_sample.x

    def test_log_small_example(self):
        sample = ProgressiveSample(CensoringScheme(3, 3, (0, 0, 0)),
                                   (1.0, math.e, math.e ** 2))
        assert g_transform(sample, MonotoneTransform("log")).x == pytest.approx(
            (0.0, 1.0, 2.0), abs=1e-15)

    def test_pareto_reduces_to_exponential_of_logs(self, fluid_scheme, rng):
        exp_sample = simulate_sample(LocScale(0.5, 2.0), fluid_scheme, rng)
        pareto = ProgressiveSample(fluid_scheme, tuple(math.exp(v) for v in exp_sample.x))
        est_transf = mle(g_transform(pareto, MonotoneTransform("log")))
        est_direct = mle(ProgressiveSample(fluid_scheme,
                                           tuple(math.log(v) for v in pareto.x)))
        assert est_transf == est_direct

    def test_non_monotone_table_rejected(self):
        # "table" is no transform kind: only closed forms are left
        with pytest.raises(InvalidTransformError):
            MonotoneTransform("table")
        with pytest.raises(InvalidTransformError):
            MonotoneTransform("bogus")

    def test_log_requires_positive(self, fluid_scheme):
        sample = ProgressiveSample(fluid_scheme, (-1.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        with pytest.raises(InvalidTransformError):
            g_transform(sample, MonotoneTransform("log"))


class TestCsv:
    def test_roundtrip(self, fluid_sample, tmp_path):
        path = tmp_path / "sample.csv"
        write_sample_csv(fluid_sample, path)
        back = read_sample_csv(path)
        assert back == fluid_sample

    def test_byte_order_mark_read_as_plain_file(self, fluid_sample, tmp_path):
        # a spreadsheet export leads with a UTF-8 byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_sample_csv(fluid_sample, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_sample_csv(marked) == read_sample_csv(plain) == fluid_sample

    def test_n_inferred(self, fluid_sample):
        assert fluid_sample.scheme.n == fluid_sample.scheme.m + sum(
            fluid_sample.scheme.removals)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,r\n1.0,0\n2.0,0\n")
        with pytest.raises(ParseError):
            read_sample_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,removed\n1.0,0\nxyz,0\n")
        with pytest.raises(ParseError):
            read_sample_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_sample_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("bad", ("inf", "-inf", "nan"))
    def test_non_finite_time(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,removed\n1.0,0\n{bad},0\n")
        with pytest.raises(ParseError):
            read_sample_csv(path)


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_sample_rejects_non_finite_times(bad):
    with pytest.raises(DomainError):
        ProgressiveSample(CensoringScheme.complete(2), (1.0, bad))
