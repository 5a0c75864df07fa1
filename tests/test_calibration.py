import json
import math

import numpy as np
import pytest

from expbands import calibration
from expbands.calibration import (
    CalibrationCache,
    CalibrationKey,
    band_level,
    calibrate_cp,
    calibrate_dp,
    cp_tail,
    draw_cp_statistic,
    draw_ks_statistic,
    empirical_quantile,
    exact_cp,
    exact_dp,
    exact_p_of_tau,
    ks_cdf,
    p_of_tau,
    tau_of_p,
)
from expbands.errors import CacheIntegrityError, CalibrationError, DomainError
from expbands.numerics import integrate
from expbands.reproduce import reproduce_paper
from expbands.regions import _h_scalar, c4_scale_limits, cp_supremum
from expbands.special import gamma_cdf, gamma_logpdf


def _sorted_quantile_and_se(draws: np.ndarray, q: float) -> tuple[float, float]:
    """Quantile and sectioning standard error by full sorts: the reference
    for the selection in calibrate_cp/calibrate_dp."""
    k, size = 100, draws.size // 100
    idx = min(max(math.ceil(q * size) - 1, 0), size - 1)
    qs = np.sort(draws[:k * size].reshape(k, size), axis=1)[:, idx]
    return empirical_quantile(np.sort(draws), q), float(np.std(qs, ddof=1) / math.sqrt(k))


@pytest.mark.parametrize("reps", (4_097, 100_003))
@pytest.mark.parametrize("p", (0.05, 0.5, 0.9))
def test_selected_quantiles_match_sorted_reference(p, reps):
    cp = calibrate_cp(8, p, reps, seed=6)
    assert (cp.value, cp.mc_std_error) == _sorted_quantile_and_se(
        draw_cp_statistic(8, reps, seed=6), p)
    dp = calibrate_dp(8, 19, p, reps, seed=6)
    assert (dp.value, dp.mc_std_error) == _sorted_quantile_and_se(
        draw_ks_statistic(8, 19, reps, seed=6), 1.0 - p)


def test_monte_carlo_calibrators_pinned():
    # values and sectioning errors of the select-based pivot kernels at 10^6
    # draws: the in-place kernels reproduce every draw bit for bit
    dp = calibrate_dp(8, 19, 0.0975, 10**6, seed=3)
    assert (dp.value, dp.mc_std_error) == (0.24906049184094978, 0.00023431127290775397)
    cp = calibrate_cp(8, 0.0975, 10**6, seed=3)
    assert (cp.value, cp.mc_std_error) == (-11.969393854809564, 0.0045959610140161354)
    tau = p_of_tau(8, 0.9025, 10**6, seed=3)
    assert (tau.value, tau.mc_std_error) == (0.12697530266698648, 0.003914643293640567)
    assert tau.extra == {"c": -11.587908058130843, "c_std_error": 0.003914643293640567}


class TestCpQuantile:
    def test_monotone_in_p_on_same_draws(self):
        draws = np.sort(draw_cp_statistic(8, 100_000, seed=1))
        qs = [empirical_quantile(draws, p) for p in (0.05, 0.1, 0.2, 0.5, 0.8)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_deterministic(self):
        a = calibrate_cp(5, 0.10, reps=50_000, seed=9)
        b = calibrate_cp(5, 0.10, reps=50_000, seed=9)
        assert a.value == b.value and a.mc_std_error == b.mc_std_error

    def test_seed_changes_value(self):
        a = calibrate_cp(5, 0.10, reps=50_000, seed=9)
        b = calibrate_cp(5, 0.10, reps=50_000, seed=10)
        assert a.value != b.value

    def test_statistic_below_supremum(self):
        m = 6
        draws = draw_cp_statistic(m, 50_000, seed=2)
        c_max = (m + 1) * math.log((m + 1) / m) - (m + 1)
        assert np.max(draws) < c_max

    def test_key_records_m_only(self):
        res = calibrate_cp(5, 0.10, reps=10_000, seed=9)
        assert res.key.n == 0 and res.key.kind == "c_p"

    def test_std_error_sane(self):
        res = calibrate_cp(8, 0.10, reps=200_000, seed=4)
        assert 0 < res.mc_std_error < 0.1


class TestDpQuantile:
    def test_in_unit_interval(self):
        for m, n in ((2, 2), (8, 19), (20, 50)):
            res = calibrate_dp(m, n, 0.10, reps=50_000, seed=6)
            assert 0.0 < res.value < 1.0

    def test_n_limit_is_pure_scale_error(self):
        # as n grows (m fixed) the location pivot vanishes but the scale-error
        # term activates fully, so the constant RISES toward the quantile of
        # |1-T| exp(-T ln T / (T-1)); computed here as an independent limit
        near = calibrate_dp(8, 19, 0.10, reps=400_000, seed=11)
        far = calibrate_dp(8, 190, 0.10, reps=400_000, seed=11)
        huge = calibrate_dp(8, 19_000, 0.10, reps=400_000, seed=11)
        assert near.value < far.value < huge.value
        rng = np.random.Generator(np.random.Philox(5150))
        t = rng.standard_exponential((400_000, 7)).sum(axis=1) / 8.0
        with np.errstate(all="ignore"):
            v_inf = np.abs(1.0 - t) * np.exp(-t * np.log(t) / (t - 1.0))
        v_inf = np.where(t == 1.0, 0.0, v_inf)
        limit = np.sort(v_inf)[int(math.ceil(0.9 * v_inf.size)) - 1]
        assert huge.value == pytest.approx(limit, abs=0.005)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            calibrate_dp(1, 5, 0.10, reps=100, seed=0)
        with pytest.raises(DomainError):
            calibrate_dp(8, 5, 0.10, reps=100, seed=0)
        with pytest.raises(DomainError):
            calibrate_dp(8, 19, 1.0, reps=100, seed=0)


class TestExactLevel:
    def test_exceeds_nominal_everywhere(self):
        for m in (2, 3, 5, 8, 25, 100):
            draws = np.sort(draw_cp_statistic(m, 200_000, seed=m))
            for p in (0.05, 0.10, 0.20):
                c = empirical_quantile(draws, p)
                assert tau_of_p(m, p, c) > 1.0 - p

    def test_p_of_tau_fixed_point(self):
        res = p_of_tau(8, 0.9025, reps=400_000, seed=21)
        assert tau_of_p(8, res.value, res.extra["c"]) == pytest.approx(0.9025, abs=1e-4)

    def test_p_of_tau_unattainable_target(self):
        with pytest.raises(CalibrationError):
            p_of_tau(8, 1e-9, reps=10_000, seed=21)

    def test_tau_large_m_log_space(self):
        # the closed form stays finite far beyond factorial overflow
        draws = np.sort(draw_cp_statistic(400, 20_000, seed=5))
        c = empirical_quantile(draws, 0.10)
        tau = tau_of_p(400, 0.10, c)
        assert 0.90 < tau < 1.0


class TestCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cache.jsonl")
        res = calibrate_cp(4, 0.10, reps=10_000, seed=3)
        cache.put(res)
        assert cache.get(res.key) == res

    def test_missing_key_is_none(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cache.jsonl")
        key = CalibrationKey("c_p", m=4, n=0, level=0.1, reps=10, seed=0)
        assert cache.get(key) is None

    def test_distinct_seeds_distinct_entries(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cache.jsonl")
        r1 = calibrate_cp(4, 0.10, reps=10_000, seed=3)
        r2 = calibrate_cp(4, 0.10, reps=10_000, seed=4)
        cache.put(r1)
        cache.put(r2)
        assert cache.get(r1.key) == r1
        assert cache.get(r2.key) == r2

    def test_get_or_compute_hits_cache(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cache.jsonl")
        key = CalibrationKey("c_p", m=4, n=0, level=0.10)
        first = cache.get_or_compute(key)
        lines_before = (tmp_path / "cache.jsonl").read_text().count("\n")
        second = cache.get_or_compute(key)
        lines_after = (tmp_path / "cache.jsonl").read_text().count("\n")
        assert first == second and lines_before == lines_after == 1
        assert first.value == exact_cp(4, 0.10)
        assert first.mc_std_error == 0.0 and first.extra == {"method": "exact"}

    def test_monte_carlo_record_not_served_for_exact_key(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CalibrationCache(path)
        mc = calibrate_cp(4, 0.10, reps=10_000, seed=3)
        cache.put(mc)
        exact = cache.get_or_compute(CalibrationKey("c_p", m=4, n=0, level=0.10))
        assert exact.value == exact_cp(4, 0.10) != mc.value
        assert cache.get(mc.key) == mc      # the old record still parses
        assert path.read_text().count("\n") == 2

    def test_monte_carlo_key_not_computed(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cache.jsonl")
        with pytest.raises(CalibrationError):
            cache.get_or_compute(CalibrationKey("c_p", m=4, n=0, level=0.10,
                                                reps=10_000, seed=3))
        assert not (tmp_path / "cache.jsonl").exists()

    def test_corrupt_store(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": {"kind": "c_p"}, "value"::: garbage\n')
        with pytest.raises(CacheIntegrityError):
            CalibrationCache(path).get(
                CalibrationKey("c_p", m=4, n=0, level=0.1, reps=10, seed=0))

    def test_torn_final_line_skipped_then_cut(self, tmp_path):
        # a crash mid-append leaves a final line without its newline
        path = tmp_path / "cache.jsonl"
        cache = CalibrationCache(path)
        first = cache.get_or_compute(CalibrationKey("c_p", m=4, n=0, level=0.10))
        with path.open("a") as fh:
            fh.write('{"key": {"kind": "c_p", "m": 5, "n": 0, "lev')
        key = CalibrationKey("c_p", m=5, n=0, level=0.10)
        second = cache.get_or_compute(key)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and all(json.loads(line) for line in lines)
        assert cache.get(first.key) == first and cache.get(key) == second

    def test_corrupt_terminated_final_line_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CalibrationCache(path).get_or_compute(CalibrationKey("c_p", m=4, n=0, level=0.10))
        with path.open("a") as fh:
            fh.write('{"key": {"kind": "c_p", "m": 5\n')
        with pytest.raises(CacheIntegrityError):
            CalibrationCache(path).get(CalibrationKey("c_p", m=5, n=0, level=0.10))

    def test_bad_key_kind(self):
        with pytest.raises(DomainError):
            CalibrationKey("zeta", m=4, n=0, level=0.1, reps=10, seed=0)

    def test_p_of_tau_through_cache(self, tmp_path):
        cache = CalibrationCache(tmp_path / "cache.jsonl")
        key = CalibrationKey("p_of_tau", m=8, n=0, level=0.9025)
        res = cache.get_or_compute(key)
        p, c = exact_p_of_tau(8, 0.9025)
        assert res.value == p and res.extra == {"method": "exact", "c": c}
        assert cache.get(key) == res


# ---------------------------------------------------------------------------
# exact calibration against the Monte-Carlo oracles
# ---------------------------------------------------------------------------

ORACLE_REPS = 200_000
# (m, n) grid over m in {2, 8, 100} and n in {m, 19, 50} with n >= m
KS_GRID = [(2, 2), (2, 19), (2, 50), (8, 8), (8, 19), (8, 50), (100, 100)]
# the (m, n) pairs of the paper's d-constant grid (Table 3), level 90%
TABLE3_GRID = [(m, n) for m in (3, 4, 5, 10, 15, 20, 50)
               for n in (3, 4, 5, 10, 15, 20, 50) if n >= m]
TABLE_M = (2, 3, 4, 5, 10, 25, 50, 100)


def _oracle_seed(*parts) -> int:
    return int(np.random.SeedSequence([7321, *(int(round(1000 * x)) for x in parts)])
               .generate_state(1)[0])


class TestExactCp:
    @pytest.mark.parametrize("m", (2, 8, 100))
    @pytest.mark.parametrize("p", (0.05, 0.127, 0.5))
    def test_within_4se_of_monte_carlo(self, m, p):
        mc = calibrate_cp(m, p, reps=ORACLE_REPS, seed=_oracle_seed(m, p))
        assert abs(exact_cp(m, p) - mc.value) <= 4 * mc.mc_std_error

    @pytest.mark.parametrize("m", (2, 8, 100, 400))
    def test_tail_at_quantile(self, m):
        for p in (1e-4, 0.1, 0.9):
            assert cp_tail(m, exact_cp(m, p)) == pytest.approx(1.0 - p, abs=1e-12)

    def test_paper_constant(self):
        assert exact_cp(8, 0.127) == pytest.approx(-11.587, abs=2e-3)

    def test_tail_limits(self):
        for m in (2, 8, 100):
            assert cp_tail(m, cp_supremum(m)) == 0.0
            assert cp_tail(m, cp_supremum(m) - 1e-6) < 1e-6
            assert cp_tail(m, -700.0 * (m + 1)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", (2, 100))
    @pytest.mark.parametrize("c", (-1e4, -1e6))
    def test_level_one_where_lambert_argument_underflows(self, m, c):
        # regression: below about -745(m+1) the Lambert argument underflows
        # to -0.0 and lambert_wm1 used to raise DomainError
        assert cp_tail(m, c) == 1.0
        assert band_level(m, c) == 1.0

    def test_tail_decreasing(self):
        cs = np.linspace(-30.0, cp_supremum(8) - 1e-9, 200)
        tails = [cp_tail(8, c) for c in cs]
        assert all(b < a for a, b in zip(tails, tails[1:]))


class TestExactPOfTau:
    @pytest.mark.parametrize("m", (2, 8, 100))
    @pytest.mark.parametrize("tau", (0.90, 0.95))
    def test_within_4se_of_monte_carlo(self, m, tau):
        seed = _oracle_seed(m, tau)
        mc = p_of_tau(m, tau, reps=ORACLE_REPS, seed=seed)
        p, c = exact_p_of_tau(m, tau)
        assert abs(c - mc.extra["c"]) <= 4 * mc.extra["c_std_error"]
        # the exact region level is the share of pivot draws at or below c
        draws = draw_cp_statistic(m, ORACLE_REPS, seed)
        share = float(np.mean(draws <= c))
        assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / ORACLE_REPS)

    @pytest.mark.parametrize("m", TABLE_M)
    def test_fixed_point(self, m):
        for tau in (0.5, 0.90, 0.9025, 0.99):
            p, c = exact_p_of_tau(m, tau)
            assert band_level(m, c) == pytest.approx(tau, abs=1e-12)
            assert tau_of_p(m, p, c) == pytest.approx(tau, abs=1e-12)
            assert exact_cp(m, p) == pytest.approx(c, abs=1e-9)

    def test_worked_example(self):
        p, c = exact_p_of_tau(8, 0.9025)
        assert 1.0 - p == pytest.approx(0.873, abs=5e-4)
        assert c == pytest.approx(-11.587, abs=2e-3)


class TestExactTables:
    # exact level (pct) of the band whose region has level 90% / 95%
    TABLE1 = {0.90: (91.1, 91.7, 92.0, 92.2, 92.5, 92.6, 92.6, 92.5),
              0.95: (95.6, 95.9, 96.1, 96.2, 96.5, 96.5, 96.5, 96.4)}
    # region level (pct) and constant that give the band exact level tau
    TABLE2 = {0.90: ((88.8, 88.0, 87.6, 87.4, 86.9, 86.8, 86.9, 87.0),
                     (-9.784, -8.372, -8.542, -9.116, -13.385, -28.025, -52.924, -102.878)),
              0.95: ((94.4, 93.9, 93.6, 93.4, 93.1, 93.0, 93.1, 93.1),
                     (-11.906, -9.807, -9.737, -10.191, -14.272, -28.806, -53.684, -103.614))}

    def test_table1_to_its_rounding(self):
        for level, taus in self.TABLE1.items():
            for m, expected in zip(TABLE_M, taus):
                p = 1.0 - level
                tau = tau_of_p(m, p, exact_cp(m, p))
                assert tau == pytest.approx(band_level(m, exact_cp(m, p)), abs=1e-12)
                assert abs(100 * tau - expected) <= 0.05 + 1e-9, (m, level)

    def test_table2_to_its_rounding(self):
        # the region levels match to the printed digit; the printed constants
        # carry the simulation error of the paper's own calibration
        for tau, (levels, cs) in self.TABLE2.items():
            for m, level, c_paper in zip(TABLE_M, levels, cs):
                p, c = exact_p_of_tau(m, tau)
                assert abs(100 * (1.0 - p) - level) <= 0.05 + 1e-9, (m, tau)
                assert abs(c - c_paper) <= 0.03, (m, tau)


def _ks_cdf_by_pieces(m: int, n: int, d: float) -> float:
    """P(pivot <= d) split by hand: on [t_zero_lower, 1/(1-d)] the location
    range is [0, -ln(1-d)] (a Gamma-cdf difference), and the two curved
    pieces are integrated by the scalar adaptive quadrature."""
    t1, tzl, _, tzu = c4_scale_limits(d)
    top = 1.0 / (1.0 - d)
    inside = 1.0 - (1.0 - d) ** n

    def dens(t):
        return m * math.exp(gamma_logpdf(m - 1, m * t))

    middle = inside * (gamma_cdf(m - 1, m * top) - gamma_cdf(m - 1, m * tzl))
    left, _ = integrate(lambda t: dens(t) * (math.exp(-n * _h_scalar(t, d)) - (1.0 - d) ** n),
                        t1, tzl, abs_tol=1e-13)
    right, _ = integrate(lambda t: dens(t) * (1.0 - math.exp(-n * _h_scalar(t, d))),
                         top, tzu, abs_tol=1e-13)
    return middle + left + right


class TestExactDp:
    @pytest.mark.parametrize("p", (0.01, 0.05, 0.10, 0.5, 0.9))
    def test_root_against_piecewise_quadrature(self, p):
        for m, n in TABLE3_GRID + KS_GRID:
            d = exact_dp(m, n, p)
            assert _ks_cdf_by_pieces(m, n, d) == pytest.approx(1.0 - p, abs=1e-10), (m, n)

    def test_table3_solves_take_few_quadratures(self, monkeypatch):
        # count an uncached solve: the memoized exact_dp answers a repeat
        # without any quadrature; Brent takes 10 to 15 on this grid
        calls = []
        kernel = calibration.ks_cdf
        monkeypatch.setattr(calibration, "ks_cdf",
                            lambda *args: calls.append(args) or kernel(*args))
        for m, n in TABLE3_GRID:
            calls.clear()
            exact_dp.__wrapped__(m, n, 0.10)
            assert 1 <= len(calls) <= 15, (m, n, len(calls))

    @pytest.mark.parametrize("k", (1, 2, 64, 4096))
    def test_cdf_just_below_one_half(self, k):
        # the scale range's lower end t1 tends to 0 as d rises to 0.5 and
        # falls under the 1e-14 root bracket about 1e-13 below it
        d = 0.5 - k * 2.0**-54   # k ulps below 0.5
        assert 0.0 <= c4_scale_limits(d)[0] < 1e-12
        for m, n in ((8, 19), (50, 50)):
            assert ks_cdf(m, n, d) == pytest.approx(ks_cdf(m, n, 0.5), abs=1e-11)

    @pytest.mark.parametrize("m, n", ((10, 500), (200, 1000), (50, 50)))
    def test_median_where_the_bracket_midpoint_is_near_one_half(self, m, n):
        assert ks_cdf(m, n, exact_dp(m, n, 0.5)) == pytest.approx(0.5, abs=1e-11)

    @pytest.mark.parametrize("m, n", KS_GRID)
    @pytest.mark.parametrize("p", (0.05, 0.10))
    def test_within_4se_of_monte_carlo(self, m, n, p):
        mc = calibrate_dp(m, n, p, reps=ORACLE_REPS, seed=_oracle_seed(m, n, p))
        assert abs(exact_dp(m, n, p) - mc.value) <= 4 * mc.mc_std_error

    @pytest.mark.parametrize("m, n", KS_GRID)
    def test_cdf_against_piecewise_quadrature(self, m, n):
        for d in (0.05, 0.249, 0.45, 0.5, 0.7):
            assert ks_cdf(m, n, d) == pytest.approx(_ks_cdf_by_pieces(m, n, d), abs=1e-10)

    def test_cdf_at_quantile(self):
        for m, n in KS_GRID:
            for p in (0.01, 0.10, 0.5):
                assert ks_cdf(m, n, exact_dp(m, n, p)) == pytest.approx(1.0 - p, abs=1e-11)

    def test_cdf_increasing(self):
        ds = np.linspace(0.01, 0.95, 60)
        values = [ks_cdf(8, 19, d) for d in ds]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert 0.0 < values[0] and values[-1] < 1.0

    def test_worked_example(self):
        assert exact_dp(8, 19, 0.0975) == pytest.approx(0.249231, abs=1e-6)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            exact_dp(1, 5, 0.10)
        with pytest.raises(DomainError):
            exact_dp(8, 5, 0.10)
        with pytest.raises(DomainError):
            exact_dp(8, 19, 1.0)


# each exact kernel, the kernel evaluation it repeats, and a call of it
MEMOIZED = [(exact_cp, "cp_tail", (8, 0.127)),
            (exact_p_of_tau, "cp_tail", (8, 0.9025)),
            (exact_dp, "ks_cdf", (8, 19, 0.0975))]


class TestMemo:
    """The exact kernels are memoized per process: a repeat call is served
    without recomputation, with the uncached value, and bad input is never
    cached."""

    @pytest.mark.parametrize("kernel, inner, args", MEMOIZED)
    def test_repeat_call_evaluates_nothing(self, monkeypatch, kernel, inner, args):
        calls = []
        original = getattr(calibration, inner)
        monkeypatch.setattr(calibration, inner,
                            lambda *a: calls.append(a) or original(*a))
        kernel.cache_clear()
        first = kernel(*args)
        assert calls
        calls.clear()
        assert kernel(*args) == first
        assert calls == []

    @pytest.mark.parametrize("kernel, inner, args", MEMOIZED)
    def test_memoized_value_is_the_uncached_value(self, kernel, inner, args):
        kernel(*args)
        # a float's repr round-trips, so equal reprs are equal bits
        assert repr(kernel(*args)) == repr(kernel.__wrapped__(*args))

    @pytest.mark.parametrize("kernel, args", [
        (exact_dp, (8, 19, 1.0)), (exact_dp, (8, 5, 0.1)), (exact_dp, (1, 5, 0.1)),
        (exact_cp, (8, 0.0)), (exact_cp, (1, 0.1)),
        (exact_p_of_tau, (8, 1.0)), (exact_p_of_tau, (1, 0.9))])
    def test_bad_input_raises_on_every_call(self, kernel, args):
        for _ in range(3):
            with pytest.raises(DomainError):
                kernel(*args)

    def test_report_identical_from_the_memo_and_after_clearing_it(self):
        first = reproduce_paper(20_000, 7).markdown()
        assert reproduce_paper(20_000, 7).markdown() == first
        for kernel, _, _ in MEMOIZED:
            kernel.cache_clear()
        assert reproduce_paper(20_000, 7).markdown() == first

    @pytest.mark.parametrize("kernel, inner, args", MEMOIZED)
    @pytest.mark.parametrize("wrap", (np.array, np.float64), ids=("0d-array", "numpy-scalar"))
    def test_numpy_arguments_share_the_float_entry(self, monkeypatch, kernel, inner, args, wrap):
        # a 0-d array is unhashable: the memo keys it (and a NumPy scalar)
        # as its float, so it neither raises nor solves again
        kernel.cache_clear()
        expected = kernel(*args)
        calls = []
        original = getattr(calibration, inner)
        monkeypatch.setattr(calibration, inner, lambda *a: calls.append(a) or original(*a))
        assert repr(kernel(args[0], *map(wrap, args[1:]))) == repr(expected)
        assert calls == []
        with pytest.raises(DomainError):
            kernel(args[0], *map(wrap, args[1:-1]), wrap(1.0))
