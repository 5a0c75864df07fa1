"""Data-independent calibration constants.

Exact calibration: the log-likelihood pivot behind the minimum-area region
has a closed-form tail, so its quantile c_p, the exact level of the induced
band and the inverse of that level are one-dimensional root finds; the
sup-distance pivot behind the KS-type bands has a cdf that is a smooth
one-dimensional integral over the scale ratio, so its quantile d_p is the
Brent root of a panel quadrature of that integral.

Monte-Carlo calibration: quantiles of draws of the same two pivots, and the
level inversion along one draw set. Both pivots are functions of the
independent pair Z ~ Exp(1) and T ~ Gamma(m-1)/m, so every draw is one
kernel (`regions.cp_pivot`, `regions.ks_distance_xy`, each evaluated in
place in its output with no select) applied, one half batch at a time, to
the contiguous Z and T arrays that `model.map_pivots` draws on its thread
pool (per batch, one `standard_exponential` call for Z and one
`standard_gamma(m-1)`/m call for T, each on its own stream).
Quantiles are order statistics taken by selection (`ndarray.partition`),
not by a full sort, except along the level inversion, which reads the
whole quantile curve. Every Monte-Carlo result carries a sectioning
standard error and a provenance key with its size and seed. These
samplers are the independent oracle for the exact kernels.

The three exact kernels (`exact_cp`, `exact_dp`, `exact_p_of_tau`) are
memoized per process in bounded LRU caches (`cache_clear()` empties one)
that key a NumPy scalar or 0-d array argument as the number it holds; bad
input raises afresh on every call. A method's exact constant is keyed by
`CalibrationKey.exact`, solved by `exact_constant` and unpacked by
`CalibrationResult.constants`. A JSON-lines cache records the exact
constants the command line uses, with their provenance, across processes.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import CacheIntegrityError, CalibrationError, DomainError
from .model import check_replicates, map_pivots
from .numerics import brent_root, integrate_panels
from .regions import Event, cp_pivot, cp_supremum, ks_distance_xy, ks_event, lambert_interval
from .special import check_probability, gamma_cdf
from .streams import BATCH_SIZE

_SECTIONS = 100


@dataclass(frozen=True)
class CalibrationKey:
    """Identity of a calibration constant. `n` is the scheme's effective n
    (gamma_1, a float that need not be whole), or 0 for constants that only
    depend on m; `level` is the defining probability of the constant.
    `reps` and `seed` size a Monte-Carlo estimate; both are None for an
    exact constant."""

    kind: str       # "c_p" | "d_p" | "p_of_tau"
    m: int
    n: float
    level: float
    reps: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("c_p", "d_p", "p_of_tau"):
            raise DomainError(f"unknown calibration kind {self.kind!r}")
        if self.reps is not None and self.reps < 1:
            raise DomainError("reps must be >= 1")

    @classmethod
    def exact(cls, kind: str, m: int, n: float, level: float) -> CalibrationKey:
        """The exact constant's key at confidence level `level`: c_p and d_p
        are keyed by p = 1 - level, p_of_tau by the level; only d_p reads n."""
        return cls(kind, m=m, n=float(n) if kind == "d_p" else 0,
                   level=level if kind == "p_of_tau" else 1.0 - level)


@dataclass(frozen=True)
class CalibrationResult:
    value: float
    mc_std_error: float
    key: CalibrationKey
    extra: dict | None = None

    @property
    def constants(self) -> dict:
        """The builder's constant: d_p, or c_p (for p_of_tau, its c)."""
        if self.key.kind == "d_p":
            return {"d_p": self.value}
        return {"c_p": self.extra["c"] if self.key.kind == "p_of_tau" else self.value}

    def record(self) -> dict:
        """The result as a cache line and as an output's provenance."""
        return {"key": asdict(self.key), "value": self.value,
                "mc_std_error": self.mc_std_error, "extra": self.extra}


def _order_index(q: float, n: int) -> int:
    """Index ceil(q * n) - 1 of the q-quantile among n sorted draws, clamped."""
    return min(max(int(math.ceil(q * n)) - 1, 0), n - 1)


def empirical_quantile(sorted_draws: np.ndarray, q: float) -> float:
    """Order statistic at index ceil(q * N): no interpolation."""
    return float(sorted_draws[_order_index(q, sorted_draws.shape[0])])


def _select_quantile(draws: np.ndarray, q: float) -> float:
    """`empirical_quantile` of unsorted draws by selection; reorders `draws`
    in place."""
    idx = _order_index(q, draws.shape[0])
    draws.partition(idx)
    return float(draws[idx])


def _section_std_error(draws: np.ndarray, q: float) -> float:
    """Quantile standard error by sectioning the raw (unsorted) draws into
    100 batches."""
    n = draws.shape[0]
    k = min(_SECTIONS, n)
    size = n // k
    if size < 2:
        return float("nan")
    idx = _order_index(q, size)
    qs = [np.partition(section, idx)[idx] for section in draws[:k * size].reshape(k, size)]
    return float(np.std(qs, ddof=1) / math.sqrt(k))


def _draw(m: int, reps: int, seed: int, pivot) -> np.ndarray:
    # pivot(z, t) on every batch of `map_pivots`, in replicate order, half a
    # batch at a time: the kernels' output and scratch arrays set the
    # samplers' peak memory, which whole batches raise by about 0.5 MB
    out = np.empty(check_replicates(reps))
    half = BATCH_SIZE // 2

    def fill(batch: slice, z: np.ndarray, t: np.ndarray) -> None:
        for i in range(0, z.size, half):
            out[batch][i:i + half] = pivot(z[i:i + half], t[i:i + half])

    map_pivots(m, reps, seed, fill)
    return out


def draw_cp_statistic(m: int, reps: int, seed: int) -> np.ndarray:
    """Draws of the log-likelihood pivot W = (m+1) ln(T) - m T - Z, the
    `cp_pivot` at the (Z, T) of `map_pivots`."""
    if m < 2:
        raise DomainError("need m >= 2")
    return _draw(m, reps, seed, lambda z, t: cp_pivot(z, m * t, m))


def draw_ks_statistic(m: int, n: int, reps: int, seed: int) -> np.ndarray:
    """Draws of the sup-distance pivot: `ks_distance_xy` at (Z/n, T) from
    `map_pivots`."""
    if m < 2 or n < m:
        raise DomainError("need m >= 2 and n >= m")
    return _draw(m, reps, seed, lambda z, t: ks_distance_xy(z / n, t))


def _quantile_result(raw: np.ndarray, q: float, key: CalibrationKey) -> CalibrationResult:
    # the sectioning error first: the selection reorders raw
    se = _section_std_error(raw, q)
    return CalibrationResult(value=_select_quantile(raw, q), mc_std_error=se, key=key)


def calibrate_cp(m: int, p: float, reps: int, seed: int) -> CalibrationResult:
    """p-quantile of the log-likelihood pivot; depends only on p and m."""
    p = check_probability(p, "p", open_interval=True)
    return _quantile_result(draw_cp_statistic(m, reps, seed), p,
                            CalibrationKey("c_p", m=m, n=0, level=p, reps=reps, seed=seed))


def calibrate_dp(m: int, n: int, p: float, reps: int, seed: int) -> CalibrationResult:
    """(1-p)-quantile of the sup-distance pivot for the KS-type band."""
    p = check_probability(p, "p", open_interval=True)
    return _quantile_result(draw_ks_statistic(m, n, reps, seed), 1.0 - p,
                            CalibrationKey("d_p", m=m, n=n, level=p, reps=reps, seed=seed))


def _inverse_square_gap(m: int, c: float, a: float, b: float) -> float:
    """e^c m^(m+1) / (2 Gamma(m-1)) (a^-2 - b^-2), the v^-3 integral shared
    by the region's tail and the hull notch; the factorial-scale factor is
    evaluated in log space."""
    log_lead = c + (m + 1) * math.log(m) - math.lgamma(m - 1) - math.log(2.0)
    return math.exp(log_lead - 2.0 * math.log(a)) - math.exp(log_lead - 2.0 * math.log(b))


def _hull_notch(m: int, c: float) -> float:
    """Probability of the notch between the minimum-area region with
    constant c and its comprehensive convex hull, in closed form."""
    _, _, y, z = lambert_interval(m, c)
    term1 = _inverse_square_gap(m, c, y, z)
    term2 = (z / (m + 1)) ** (m - 1) * (gamma_cdf(m - 1, (m + 1) * y / z)
                                        - gamma_cdf(m - 1, m + 1.0))
    return term1 + term2


def tau_of_p(m: int, p: float, c_p: float) -> float:
    """Exact level of the minimum-area band when its region has level 1-p
    with constant c_p: 1-p plus the probability of the hull notch, in closed
    form."""
    p = check_probability(p, "p")
    return 1.0 - p + _hull_notch(m, c_p)


# ---------------------------------------------------------------------------
# exact calibration
# ---------------------------------------------------------------------------

def _level_is_one(m: int, c: float) -> bool:
    """Below about -745(m+1) the Lambert argument -(m/(m+1)) e^(c/(m+1))
    underflows to -0.0 and the pivot's roots run off to 0 and infinity;
    the region's and the band's level there is 1 to double precision."""
    return (m / (m + 1.0)) * math.exp(c / (m + 1.0)) == 0.0


def cp_tail(m: int, c: float) -> float:
    """P(W >= c) for the log-likelihood pivot W = (m+1) ln(V/m) - V - Z,
    V ~ Gamma(m-1) and Z standard exponential, independent: the level of
    the minimum-area region with constant c.

    With v- < v+ the roots of (m+1) ln(v/m) - v = c (the two Lambert W
    branches of `lambert_interval`), integrating out Z gives
    G(v+) - G(v-) - e^c m^(m+1) / (2 Gamma(m-1)) (v-^-2 - v+^-2), G the
    Gamma(m-1) cdf; 0 at and above the pivot's supremum.
    """
    if not c < cp_supremum(m):
        return 0.0
    if _level_is_one(m, c):
        return 1.0
    w0, wm1, _, _ = lambert_interval(m, c)
    v_lo, v_hi = -(m + 1.0) * w0, -(m + 1.0) * wm1
    return (gamma_cdf(m - 1, v_hi) - gamma_cdf(m - 1, v_lo)
            - _inverse_square_gap(m, c, v_lo, v_hi))


def band_level(m: int, c: float) -> float:
    """Exact level of the minimum-area band with constant c: the region's
    level P(W >= c) plus the hull notch (tau_of_p at the exact p)."""
    if not c < cp_supremum(m):
        return 0.0
    if _level_is_one(m, c):
        return 1.0
    return cp_tail(m, c) + _hull_notch(m, c)


def _solve_level(level_at, target: float, m: int) -> float:
    """The constant c at which a level that falls from 1 (c -> -inf) to 0
    (c at the pivot's supremum) equals target: Brent's method on a bracket
    widened downward from the supremum."""
    hi = cp_supremum(m)
    step = m + 1.0
    lo = hi - step
    while level_at(lo) < target:
        step *= 2.0
        lo = hi - step
        if lo < -700.0 * (m + 1):   # e^(c/(m+1)) would underflow
            raise CalibrationError(f"no constant attains level {target} at m={m}")
    return brent_root(lambda c: level_at(c) - target, lo, hi, xtol=1e-12)


def _memoized(solve):
    """`functools.lru_cache(maxsize=1024)` of `solve` that keys (and solves)
    a NumPy scalar or 0-d array argument as its `item()`. `__wrapped__` is
    the uncached solve; `cache_clear()` empties the memo."""
    cached = functools.lru_cache(maxsize=1024)(solve)
    kernel = functools.wraps(solve)(lambda *args, **kwargs: cached(*(
        a.item() if isinstance(a, np.ndarray | np.generic) and a.ndim == 0 else a
        for a in args), **kwargs))
    kernel.cache_clear = cached.cache_clear
    return kernel


@_memoized
def exact_cp(m: int, p: float) -> float:
    """p-quantile of the log-likelihood pivot: the root of P(W >= c) = 1-p."""
    p = check_probability(p, "p", open_interval=True)
    return _solve_level(lambda c: cp_tail(m, c), 1.0 - p, m)


@_memoized
def exact_p_of_tau(m: int, tau: float) -> tuple[float, float]:
    """Region level and constant that give the minimum-area band exact
    level tau: one root find in c, then p = 1 - P(W >= c). Returns (p, c)."""
    tau = check_probability(tau, "tau", open_interval=True)
    c = _solve_level(lambda c: band_level(m, c), tau, m)
    return 1.0 - cp_tail(m, c), c


def interval_probability(m: int, event: Event) -> float:
    """P(lo(T) <= Z <= hi(T)) for a coverage event (`regions.Event`), to
    1e-12: the integral of f_T(t) (e^{-lo+} - e^{-hi+})_+, (lo, hi) =
    interval(t), with Z ~ Exp(1) and T ~ Gamma(m-1)/m independent. Its
    panels run between the edges and the powers of two between them, so the
    Gamma density cannot hide between nodes."""
    interval, edges = event.interval, event.edges
    log_norm = math.log(m) - math.lgamma(m - 1)

    def integrand(t):
        lo, hi = interval(t)
        inside = np.maximum(np.exp(-np.maximum(lo, 0.0)) - np.exp(-np.maximum(hi, 0.0)), 0.0)
        return np.exp(log_norm + (m - 2) * np.log(m * t) - m * t) * inside

    powers = [2.0**k for k in range(-60, 61) if min(edges) < 2.0**k < max(edges)]
    return integrate_panels(integrand, sorted(set(edges).union(powers)), abs_tol=1e-12)[0]


def ks_cdf(m: int, n: float, d: float) -> float:
    """P(pivot <= d) for the sup-distance pivot, 0 < d < 1, to 1e-12: the
    pivot is within d exactly when (S, T) = ((mu_hat-mu)/sigma,
    sigma_hat/sigma) lies in the sup-distance region, so this is the
    `interval_probability` of `regions.ks_event`, the KS-family case of
    `bands.event_probability`."""
    if m < 2 or n < m:
        raise DomainError("need m >= 2 and n >= m")
    return interval_probability(m, ks_event(d, n))


@_memoized
def exact_dp(m: int, n: float, p: float) -> float:
    """(1-p)-quantile of the sup-distance pivot: the root of
    ks_cdf(d) = 1-p on [1e-9, 1 - 1e-9] by Brent's method, to 1e-12.
    Eight to eleven quadratures per solve at p = 0.9 on the paper's
    d-constant grid, ten to fifteen at its p = 0.1.
    """
    p = check_probability(p, "p", open_interval=True)
    return brent_root(lambda d: ks_cdf(m, n, d) - (1.0 - p), 1e-9, 1.0 - 1e-9, xtol=1e-12)


def exact_constant(key: CalibrationKey) -> CalibrationResult:
    """The exact constant a key names: c_p or d_p at p = key.level, or
    p_of_tau at tau = key.level with its c in `extra`."""
    extra: dict = {"method": "exact"}
    if key.kind == "c_p":
        value = exact_cp(key.m, key.level)
    elif key.kind == "d_p":
        value = exact_dp(key.m, key.n, key.level)
    else:
        value, extra["c"] = exact_p_of_tau(key.m, key.level)
    return CalibrationResult(value=value, mc_std_error=0.0, key=key, extra=extra)


def p_of_tau(m: int, tau: float, reps: int, seed: int) -> CalibrationResult:
    """Invert the exact-level formula: find p (and the matching constant c)
    such that the minimum-area band has exact level tau.

    One fixed Monte-Carlo draw set provides the empirical quantile function
    p -> c_p, along which the level is monotone in p; bisection then solves
    for p. Returns p as the value with c in `extra`.
    """
    tau = check_probability(tau, "tau", open_interval=True)
    raw = draw_cp_statistic(m, reps, seed)
    p, c = invert_level_on_draws(m, tau, np.sort(raw))
    se_c = _section_std_error(raw, p)
    key = CalibrationKey("p_of_tau", m=m, n=0, level=tau, reps=reps, seed=seed)
    return CalibrationResult(value=p, mc_std_error=se_c, key=key,
                             extra={"c": c, "c_std_error": se_c})


def invert_level_on_draws(m: int, tau: float, sorted_draws: np.ndarray) -> tuple[float, float]:
    """Bisection for p along the empirical quantile curve of one draw set."""

    def level_at(p: float) -> float:
        c = empirical_quantile(sorted_draws, p)
        if c >= cp_supremum(m):
            return 0.0  # beyond feasibility the band level is vacuous
        return tau_of_p(m, p, c)

    lo, hi = 1e-6, 1.0 - 1e-6
    # the level decreases in p; make sure tau is inside the attainable range
    if not (level_at(hi) <= tau <= level_at(lo)):
        raise CalibrationError(
            f"target level {tau} outside attainable range at m={m}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if level_at(mid) > tau:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    # a large residual means the target sat below the attainable floor and
    # the bisection only chased the feasibility edge
    if abs(level_at(p) - tau) > 1e-3:
        raise CalibrationError(
            f"no region level attains band level {tau} at m={m}: "
            f"closest achievable is {level_at(p):.6f}")
    return p, empirical_quantile(sorted_draws, p)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class CalibrationCache:
    """Append-only JSON-lines store of calibration constants.

    One record per line; lookups are bit-exact on the full key, so a
    Monte-Carlo record (with its size and seed) never answers for the exact
    constant of the same kind, m, n and level. A missing key returns None; a
    corrupt line raises CacheIntegrityError, except an unterminated final
    line that does not parse: that is an append cut short by a crash, which
    lookups skip. `put` cuts off any unterminated final line before it
    appends, so a torn tail never glues onto the next record.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _iter_records(self):
        if not self.path.exists():
            return
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                    record = CalibrationResult(
                        value=float(doc["value"]),
                        mc_std_error=float(doc["mc_std_error"]),
                        key=CalibrationKey(**doc["key"]),
                        extra=doc.get("extra"))
                except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                    if not line.endswith("\n"):
                        return
                    raise CacheIntegrityError(
                        f"{self.path}:{lineno}: corrupt cache record: {exc}") from exc
                yield record

    def get(self, key: CalibrationKey) -> CalibrationResult | None:
        found = None
        for rec in self._iter_records():
            if rec.key == key:
                found = rec
        return found

    def put(self, result: CalibrationResult) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            fh.seek(0)
            data = fh.read()
            fh.truncate(data.rfind(b"\n") + 1)
            fh.write((json.dumps(result.record()) + "\n").encode())
            fh.flush()
            os.fsync(fh.fileno())

    def get_or_compute(self, key: CalibrationKey) -> CalibrationResult:
        """The stored record for an exact key, else the exact constant,
        which is then stored. Exact constants carry no Monte-Carlo size or
        seed and no sampling error."""
        if key.reps is not None or key.seed is not None:
            raise CalibrationError(f"only exact constants are computed here, got {key}")
        cached = self.get(key)
        if cached is not None:
            return cached
        result = exact_constant(key)
        self.put(result)
        return result
