"""Exact confidence regions for the exponential location-scale parameter.

Five constructions from one progressively type-II censored sample:

* two trapezoids obtained by splitting the level uniformly across a pair of
  independent pivots (one with horizontal scale cuts, one with vertical
  location cuts),
* the minimum-area region based on the joint pivot, whose scale range is
  delimited by the two real Lambert W branches,
* the sup-distance region (all parameters whose cdf stays within d of the
  fitted cdf) and its trimmed variant restricted to locations below the
  first failure time.

At each T = sigma_hat/sigma a region holds the (mu, sigma) whose
Z = n(mu_hat - mu)/sigma lies in one interval [lo(T), hi(T)], closed-form
and broadcast over numpy arrays. Each region type describes the two ends
once, in one generator (`_ends`, `_ks_ends`): lo is the max of its terms
and hi the min of its terms, where a term is a constant, an array of T,
or a switch at fixed T (a scale cut, 1 - d_p and 1/(1 - d_p), the hull's
chord range) between two of them. With the T where the interval changes
form, the description is a coverage event (`Event`) of `bands.METHODS`,
and `Event` evaluates it two ways. `interval(t)` selects among the terms,
for the quadrature and the boundary polylines, where lanes are few.
`covers(z, t)`, which every membership test but C1's and every coverage
count reads, compares z with each term and combines the comparisons with
the switch masks by `&` and `|`, in place in two float and three boolean
arrays. It selects no values: T falls on both sides of every switch, so a
select runs on a random mask, and on a 32,768-lane batch `np.where` took
about 107 us where a comparison took 6-9 us and a boolean `&` 2 us (2-vCPU
Xeon, numpy 2.4). The floats it compares are the ones `interval` selects,
so it counts what lo(T) <= Z <= hi(T) on the selected values counts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import DomainError, InfeasibleLevelError, UnsupportedCaseError
from .model import MleEstimate, Scheme
from .numerics import brent_root, integrate
from .special import (
    chi2_quantile,
    check_probability,
    f_quantile,
    gamma_logpdf,
    lambert_w0,
    lambert_wm1,
)


def split_level(p: float) -> tuple[float, float]:
    """Uniform allocation of an overall level 1-p to two pivots and their
    tails: q1 = (1 - sqrt(1-p))/2, written p/(2(1 + sqrt(1-p))) so that it
    keeps its digits as p -> 0, and q2 = 1 - q1."""
    p = check_probability(p, "p", open_interval=True)
    q1 = p / (2.0 * (1.0 + math.sqrt(1.0 - p)))
    return q1, 1.0 - q1


# ---------------------------------------------------------------------------
# pivots and boundary curves (broadcast over estimates and parameter points)
# ---------------------------------------------------------------------------

def cp_pivot(u, v, m):
    """The log-likelihood pivot W = (m+1) ln(v/m) - u - v at
    u = n(mu_hat - mu)/sigma ~ Exp(1) and v = m sigma_hat/sigma ~ Gamma(m-1),
    independent (vectorized). The minimum-area region is u >= 0, W >= c_p.
    Evaluated in place in its output, in the formula's operation order."""
    out = np.empty(np.broadcast_shapes(np.shape(u), np.shape(v)))
    np.divide(v, m, out=out)
    np.log(out, out=out)
    np.multiply(m + 1, out, out=out)
    np.subtract(out, u, out=out)
    np.subtract(out, v, out=out)
    return out if out.ndim else out[()]


def _ks_ends(t, h, tail, below, b, d_p, n, trimmed):
    """n times the sup-distance region's slopes at t as an event's ends
    (`Event`): the lower one is n h(t) below 1 - d_p and n t ln(1 - d_p)
    above, and at least 0 if trimmed; the upper one is -n ln(1 - d_p) up to
    1/(1 - d_p) and n h(t) beyond. The boundary function
    h(t) = ln(d_p/|1-t|)(t-1) + t ln(t), with h(1) = 0, is evaluated once,
    in place in h (tail scratch)."""
    np.subtract(t, 1.0, out=tail)   # u = t - 1
    np.abs(tail, out=h)
    np.maximum(h, 1e-300, out=h)
    np.divide(d_p, h, out=h)
    np.log(h, out=h)
    np.multiply(h, tail, out=h)
    np.log(t, out=tail)
    np.multiply(t, tail, out=tail)
    np.add(h, tail, out=h)
    np.multiply(n, h, out=h)
    ln1md = math.log(1.0 - d_p)
    np.multiply(t, ln1md, out=tail)
    np.multiply(n, tail, out=tail)
    lower = (np.less(t, 1.0 - d_p, out=below), h, tail)
    yield (lower, 0.0) if trimmed else (lower,)
    yield (np.less_equal(t, 1.0 / (1.0 - d_p), out=below), n * -ln1md, h),


def ks_slopes(t, d_p, n=1.0):
    """The lower and upper slopes (l(t), o(t)) of the sup-distance region,
    times n: at scale ratio t it is l(t) <= (mu_hat - mu)/sigma <= o(t)."""
    return Event(partial(_ks_ends, d_p=d_p, n=n, trimmed=False), ()).interval(t)


def ks_distance_xy(mu, sigma):
    """sup_x |F_(mu, sigma)(x) - F_(0,1)(x)| in closed form (vectorized). At
    (Z/n, T) it is the sup-distance pivot behind the KS-type bands.

    The sup is u = 1 - exp(-max(mu, -mu/sigma)), at least +0, or the interior
    candidate v = |1 - sigma| exp((mu - sigma ln sigma)/(sigma - 1)) where the
    interior test (mu > sigma ln sigma below sigma = 1, mu < ln sigma above)
    holds, whichever is larger, capped at 1, which v can round above at huge
    sigma. Evaluated in place in the output and two scratch arrays, with no
    select: a lane outside the interior keeps u whatever its candidate (which
    may overflow there), and at sigma = 1 the candidate is 0 on the interior
    lanes (mu < 0) and 0 or NaN elsewhere."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = np.empty(np.broadcast_shapes(mu.shape, sigma.shape))
    # u, clipped at +0: at mu = +0 the max picks -mu/sigma = -0.0
    np.negative(mu, out=out)
    np.divide(out, sigma, out=out)
    np.maximum(mu, out, out=out)
    np.negative(out, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.maximum(out, 0.0, out=out)
    a = np.log(sigma, out=np.empty_like(out))          # ln sigma, then |sigma - 1|
    v = np.multiply(sigma, a, out=np.empty_like(out))  # sigma ln sigma, then v
    below = sigma < 1.0
    interior = (mu > v) & below | (mu < a) & ~below
    # sigma = 1 divides by zero, and only lanes outside the interior overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.subtract(mu, v, out=v)
        np.subtract(sigma, 1.0, out=a)
        np.divide(v, a, out=v)
        np.exp(v, out=v)
        np.abs(a, out=a)
        np.multiply(a, v, out=v)
    np.maximum(out, v, out=out, where=interior)
    np.minimum(out, 1.0, out=out)
    return out if out.ndim else float(out)


def _h_scalar(t: float, d_p: float) -> float:
    # the sup-distance boundary function h at one float t != 1, in math-module
    # arithmetic for the root solves
    return math.log(d_p / abs(1.0 - t)) * (t - 1.0) + t * math.log(t)


def _h_deriv(t: float, d_p: float) -> float:
    # h'(t) = ln(d t/(1-t)) on (0,1), ln(d) + ln(t/(t-1)) on (1,inf)
    if t < 1.0:
        return math.log(d_p * t / (1.0 - t))
    return math.log(d_p) + math.log(t / (t - 1.0))


class Event(namedtuple("Event", "ends edges")):
    """A coverage event lo(T) <= Z <= hi(T), described once and evaluated
    two ways. ends(t, f, g, mask, b) is a generator that fills two float and
    two boolean arrays (b is scratch) and yields the terms of lo, then those
    of hi: lo is the max of its terms and hi the min of its terms, and a
    term is a float, an array shaped like t that stays valid until the next
    end, or a switch (mask, inside, outside), inside where the mask holds.
    edges are the T where the interval changes form."""

    __slots__ = ()

    def interval(self, t):
        """(lo, hi) at t, by maxima, minima and selects of the terms, each a
        new array, or a numpy float for scalar t or a constant end."""
        shape = np.shape(t)
        ends = []
        for fold, terms in zip((np.maximum, np.minimum), self.ends(
                t, np.empty(shape), np.empty(shape), np.empty(shape, bool), np.empty(shape, bool))):
            end = reduce(fold, [np.where(*x) if type(x) is tuple else x for x in terms])
            ends.append(np.array(end)[()])
        return tuple(ends)

    def covers(self, z, t):
        """lo(t) <= z <= hi(t) broadcast over (z, t), by comparisons of z with
        every term: a max is at most z when each term is, and on booleans
        where(m, X, Y) is (X >= m) & (Y | m). Returns out[()], the array
        itself, or a numpy bool for scalar z and t."""
        shape = np.broadcast_shapes(np.shape(z), np.shape(t))
        out, mask, b = (np.empty(shape, dtype=bool) for _ in range(3))
        out.fill(True)
        f, g = np.empty(np.shape(t)), np.empty(np.shape(t))
        for lower, terms in zip((True, False), self.ends(t, f, g, mask, b)):
            def ok(x):
                return np.less_equal(x, z, out=b) if lower else np.less_equal(z, x, out=b)
            for x in terms:
                if type(x) is tuple:
                    on, inside, outside = x
                    out &= np.greater_equal(ok(inside), on, out=b)
                    out &= np.logical_or(ok(outside), on, out=b)
                else:
                    out &= ok(x)
        return out[()]


def _trace(mu_hat, sigma_hat, interval, scale, ts, points):
    # boundary polyline: mu = mu_hat - sigma Z/scale at both ends Z of interval(T),
    # sigma = sigma_hat/T, at points // 2 T over [min ts, max ts] and at the T in ts
    # a sorted set, not np.union1d, whose np.unique imports numpy.ma
    t = np.array(sorted({*np.linspace(min(ts), max(ts), max(points // 2, 2)).tolist(), *ts}))
    sig = sigma_hat / t
    lo, hi = interval(t)
    return np.vstack([np.column_stack([mu_hat - sig * hi / scale, sig]),
                      np.column_stack([mu_hat - sig * lo / scale, sig])[::-1]])


class _PivotRegion:
    """A region that holds (mu, sigma) exactly when Z = n(mu_hat - mu)/sigma
    lies in the interval of its `event` at T = sigma_hat/sigma, empty
    outside the outer edges."""

    @property
    def event(self) -> Event:
        return Event(self._ends, self.edges)

    def interval(self, t):
        return self.event.interval(t)

    def covers(self, z, t):
        return self.event.covers(z, t)

    def contains(self, mu, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return self.covers(self.n * (self.mu_hat - np.asarray(mu, dtype=float)) / sigma,
                           self.sigma_hat / sigma)

    def boundary(self, points: int = 512) -> np.ndarray:
        return _trace(self.mu_hat, self.sigma_hat, self.interval, self.n, self.edges, points)


# ---------------------------------------------------------------------------
# region types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrapezoidRegionC1(_PivotRegion):
    """Trapezoid with horizontal scale cuts and diagonal location edges."""

    mu_hat: float
    sigma_hat: float
    n: float
    m: int
    q1: float
    q2: float
    chi2_q1: float  # chi-square quantiles at 2m-2 df
    chi2_q2: float

    @property
    def sigma_lo(self) -> float:
        return 2.0 * self.m * self.sigma_hat / self.chi2_q2

    @property
    def sigma_hi(self) -> float:
        return 2.0 * self.m * self.sigma_hat / self.chi2_q1

    def location_edge(self, q: float, sigma):
        """The location edge mu_hat + sigma ln(q)/n at quantile q1 or q2."""
        out = self.mu_hat + np.asarray(sigma) * math.log(q) / self.n
        return out if out.ndim else float(out)

    def contains(self, mu, sigma):
        # in (mu, sigma), so that the corners are members exactly
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        return ((self.location_edge(self.q1, sigma) <= mu)
                & (mu <= self.location_edge(self.q2, sigma))
                & (self.sigma_lo <= sigma) & (sigma <= self.sigma_hi))

    def _ends(self, t, f, g, cut, b):
        # [-ln q2, -ln q1] inside the scale cut, the edges, written into cut
        # (b scratch); empty outside it, where hi is the most negative float
        yield -math.log(self.q2),
        t_lo, t_hi = self.edges
        np.less_equal(t_lo, t, out=cut)
        np.logical_and(cut, np.less_equal(t, t_hi, out=b), out=cut)
        yield (cut, -math.log(self.q1), -np.finfo(float).max),

    @property
    def edges(self) -> tuple[float, float]:
        return self.chi2_q1 / (2 * self.m), self.chi2_q2 / (2 * self.m)


@dataclass(frozen=True)
class TrapezoidRegionC2(_PivotRegion):
    """Trapezoid with vertical location cuts and diagonal scale edges."""

    mu_hat: float
    sigma_hat: float
    n: float
    m: int
    q1: float
    q2: float
    f_q1: float    # F(2, 2m-2) quantiles
    f_q2: float
    chi2_q1: float  # chi-square quantiles at 2m df
    chi2_q2: float

    @property
    def mu_hi(self) -> float:
        return self.mu_hat - self.m * self.sigma_hat * self.f_q1 / ((self.m - 1) * self.n)

    @property
    def mu_lo(self) -> float:
        return self.mu_hat - self.m * self.sigma_hat * self.f_q2 / ((self.m - 1) * self.n)

    def scale_edge(self, q: float, mu):
        """The scale edge 2(n(mu_hat - mu) + m sigma_hat)/chi2_q at q1 or q2."""
        x = self.chi2_q1 if q == self.q1 else self.chi2_q2
        out = 2.0 * (self.n * (self.mu_hat - np.asarray(mu)) + self.m * self.sigma_hat) / x
        return out if out.ndim else float(out)

    def _ends(self, t, ray, level, mask, b):
        # at q1, then at q2 in the same arrays: the location cut's ray Z = a f T,
        # a = m/(m-1), and the scale edge's level chi2/2 - m T, where Z + m T
        # is chi2/2; the edges are where they meet
        for f, chi2 in ((self.f_q1, self.chi2_q1), (self.f_q2, self.chi2_q2)):
            np.multiply(self.m / (self.m - 1.0) * f, t, out=ray)
            np.multiply(self.m, t, out=level)
            yield ray, np.subtract(chi2 / 2, level, out=level)

    @property
    def edges(self) -> tuple[float, ...]:
        a = self.m / (self.m - 1.0)
        return tuple(sorted(w / (a * f + self.m) for w in (self.chi2_q1 / 2, self.chi2_q2 / 2)
                            for f in (self.f_q1, self.f_q2)))


@dataclass(frozen=True)
class MinAreaRegionC3(_PivotRegion):
    """Smallest-area region based on the joint pivot; locations below the
    first failure, scales between the two Lambert W roots."""

    mu_hat: float
    sigma_hat: float
    n: float
    m: int
    c_p: float
    z_lo: float   # scale at the lower Lambert branch
    z_hi: float   # scale at the principal branch
    y: float      # pivot value m*sigma_hat/z_hi
    z: float      # pivot value at the boundary-curve minimum

    def _ends(self, t, v, hi, on, b, hull=False):
        """Z >= 0 and `cp_pivot` at (Z, v = m T) at least c_p: Z at most
        (m+1) ln T - m T - c_p, in place in hi (v = m T); the edges are the
        Lambert roots, where it crosses 0. For the comprehensive convex hull,
        the induced band's event, it rises to the chord ((m+1)/z - 1) v, the
        tangent at v = z, on y <= v <= z, written into on (b scratch)."""
        np.multiply(self.m, t, out=v)
        np.log(t, out=hi)
        np.multiply(self.m + 1, hi, out=hi)
        np.subtract(hi, v, out=hi)
        np.subtract(hi, self.c_p, out=hi)
        yield 0.0,
        if not hull:
            yield hi,
            return
        np.less_equal(self.y, v, out=on)
        np.logical_and(on, np.less_equal(v, self.z, out=b), out=on)
        yield (on, np.multiply((self.m + 1) / self.z - 1.0, v, out=v), hi),

    @property
    def edges(self) -> tuple[float, float]:
        # both from the pivot roots alone, so the T grid does not move with sigma_hat
        return self.y / self.m, -(self.m + 1) * lambert_interval(self.m, self.c_p)[1] / self.m


@dataclass(frozen=True)
class KsRegionC4:
    """Sup-distance region: all (mu, sigma) whose cdf stays within d_p of
    the fitted cdf; `trimmed` additionally enforces mu <= mu_hat."""

    mu_hat: float
    sigma_hat: float
    d_p: float
    trimmed: bool
    t_lo: float       # smallest sigma_hat/sigma in the region
    t_hi: float       # largest sigma_hat/sigma in the region
    t_zero_lower: float  # where the lower slope crosses zero
    t_zero_upper: float  # where the upper slope crosses zero

    def event(self, n: float = 1.0) -> Event:
        """The region's event at scale n: n S, S = (mu_hat - mu)/sigma, lies
        in n times the slopes at T = sigma_hat/sigma (`_ks_ends`), with edges
        the scale limits, 1 - d_p, 1 and 1/(1 - d_p)."""
        d = self.d_p
        return Event(partial(_ks_ends, d_p=d, n=n, trimmed=self.trimmed), (
            self.t_lo, self.t_zero_lower, 1.0 - d, 1.0, 1.0 / (1.0 - d), self.t_zero_upper))

    def slopes(self, t, n=1.0):
        return self.event(n).interval(t)

    def covers(self, z, t, n=1.0):
        return self.event(n).covers(z, t)

    def contains(self, mu, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return self.covers((self.mu_hat - np.asarray(mu, dtype=float)) / sigma,
                           self.sigma_hat / sigma)

    def boundary(self, points: int = 512) -> np.ndarray:
        return _trace(self.mu_hat, self.sigma_hat, self.slopes, 1.0, (self.t_lo, self.t_hi),
                      points)


Region = TrapezoidRegionC1 | TrapezoidRegionC2 | MinAreaRegionC3 | KsRegionC4


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_c1(est: MleEstimate, scheme: Scheme, p: float) -> TrapezoidRegionC1:
    q1, q2 = split_level(p)
    m = scheme.m
    return TrapezoidRegionC1(
        mu_hat=est.mu_hat, sigma_hat=est.sigma_hat, n=scheme.effective_n, m=m,
        q1=q1, q2=q2,
        chi2_q1=chi2_quantile(q1, 2 * m - 2), chi2_q2=chi2_quantile(q2, 2 * m - 2))


def build_c2(est: MleEstimate, scheme: Scheme, p: float) -> TrapezoidRegionC2:
    q1, q2 = split_level(p)
    m = scheme.m
    return TrapezoidRegionC2(
        mu_hat=est.mu_hat, sigma_hat=est.sigma_hat, n=scheme.effective_n, m=m,
        q1=q1, q2=q2,
        f_q1=f_quantile(q1, 2 * m - 2), f_q2=f_quantile(q2, 2 * m - 2),
        chi2_q1=chi2_quantile(q1, 2 * m), chi2_q2=chi2_quantile(q2, 2 * m))


def cp_supremum(m: int) -> float:
    """Supremum (m+1)(ln((m+1)/m) - 1) of the log-likelihood pivot
    (m+1) ln(V/m) - V, attained at V = m+1. The minimum-area region is
    nonempty, and the Lambert W argument of its scale range at least -1/e,
    exactly for constants c_p below it. Raises DomainError for m < 2."""
    if m < 2:
        raise DomainError("need m >= 2")
    return (m + 1.0) * (math.log((m + 1.0) / m) - 1.0)


def lambert_interval(m: int, c_p: float) -> tuple[float, float, float, float]:
    """Roots and pivot constants of the minimum-area boundary: returns
    (w0, wm1, y, z) where w0/wm1 are the Lambert W values at the shared
    argument, y = -(m+1) w0, and z = m exp(1 + c_p/(m+1)). The pivot range
    of the region runs between the roots y and -(m+1) wm1 of
    (m+1) ln(V/m) - V = c_p."""
    if not c_p < cp_supremum(m):
        raise InfeasibleLevelError(
            f"need c_p < {cp_supremum(m):.6g} (the pivot's supremum) for a nonempty "
            f"region, got c_p={c_p} at m={m}")
    arg = -(m / (m + 1.0)) * math.exp(c_p / (m + 1.0))
    w0 = lambert_w0(arg)
    wm1 = lambert_wm1(arg)
    y = -(m + 1.0) * w0
    z = m * math.exp(1.0 + c_p / (m + 1.0))
    return w0, wm1, y, z


def build_c3(est: MleEstimate, scheme: Scheme, c_p: float) -> MinAreaRegionC3:
    m = scheme.m
    w0, wm1, y, z = lambert_interval(m, c_p)
    scale = m * est.sigma_hat / (m + 1.0)
    return MinAreaRegionC3(
        mu_hat=est.mu_hat, sigma_hat=est.sigma_hat, n=scheme.effective_n, m=m,
        c_p=c_p, z_lo=-scale / wm1, z_hi=-scale / w0, y=y, z=z)


def c4_scale_limits(d_p: float) -> tuple[float, float, float, float]:
    """Scale ratios t = sigma_hat/sigma that delimit the sup-distance region
    for 0 < d_p < 1: returns (t1, t_zero_lower, t2, t_zero_upper), where
    t1 < t2 are the ends of its scale range (the lower and upper slopes
    meet there; t1 = 0 for d_p >= 0.5 and where it falls below 1e-14, as it
    does within about 1e-13 below 0.5, and t2 = inf where the range is
    unbounded or ends beyond 1e12), and the lower slope on (0, 1) and the
    upper slope on (1, inf) cross zero at t_zero_lower and t_zero_upper.
    Below t1 the lower slope exceeds the upper one, so a t1 of 0 adds only
    empty scale ratios to the range."""
    ln1md = math.log(1.0 - d_p)
    hi = 1.0 / (1.0 - d_p)

    def h(t):
        return _h_scalar(t, d_p)

    def root_above(g):
        # root of g beyond hi, where g > 0, bracketed by doubling; inf past 1e12
        ceiling = 2.0 * hi
        while g(ceiling) > 0:
            ceiling *= 2.0
            if ceiling > 1e12:
                return math.inf
        return brent_root(g, hi, ceiling)

    def meet(t):
        return h(t) + ln1md   # > 0 below t1, ln((1-d_p)/d_p) at 0+

    t1 = brent_root(meet, 1e-14, 1.0 - d_p) if d_p < 0.5 and meet(1e-14) > 0 else 0.0
    t2 = root_above(lambda t: h(t) - t * ln1md) if d_p < 0.5 else math.inf
    t_zero_lower = brent_root(h, max(t1, 1e-14), 1.0 - d_p)
    t_zero_upper = root_above(h)
    return t1, t_zero_lower, t2, t_zero_upper


def build_c4(est: MleEstimate, d_p: float, trimmed: bool = False) -> KsRegionC4:
    d_p = check_probability(d_p, "d_p", open_interval=True)
    if d_p >= 0.5:
        raise UnsupportedCaseError(
            f"d_p={d_p} >= 0.5 yields an unbounded region; not supported")
    t1, t_zero_lower, t2, t_zero_upper = c4_scale_limits(d_p)
    if math.isinf(t2):
        raise InfeasibleLevelError(f"no finite scale range for d_p={d_p}")
    t_hi = t_zero_upper if trimmed else t2
    return KsRegionC4(mu_hat=est.mu_hat, sigma_hat=est.sigma_hat, d_p=d_p,
                      trimmed=trimmed, t_lo=t1, t_hi=t_hi,
                      t_zero_lower=t_zero_lower, t_zero_upper=t_zero_upper)


def ks_event(d_p: float, n: float) -> Event:
    """The KS-type bands' event: `KsRegionC4.event` for every 0 < d_p < 1."""
    d_p = check_probability(d_p, "d_p", open_interval=True)
    t1, t_zero_lower, t2, t_zero_upper = c4_scale_limits(d_p)
    return KsRegionC4(mu_hat=0.0, sigma_hat=1.0, d_p=d_p, trimmed=False, t_lo=t1, t_hi=t2,
                      t_zero_lower=t_zero_lower, t_zero_upper=t_zero_upper).event(n)


# ---------------------------------------------------------------------------
# hull probability oracle
# ---------------------------------------------------------------------------

def comprehensive_convex_hull_delta_prob(m: int, c_p: float) -> float:
    """Probability of the notch between the minimum-area region and its
    comprehensive convex hull, evaluated as a nested double integral of the
    pivot densities with adaptive Gauss-Kronrod panels, to 1e-9 inside and
    1e-8 outside.

    Serves as the independent oracle for the closed-form excess
    tau - (1 - p) of the induced band's exact level.
    """
    _, _, y, z = lambert_interval(m, c_p)

    def outer(v: float) -> float:
        a = float(cp_pivot(0.0, v, m)) - c_p   # the u at which W = c_p
        b = ((m + 1.0) / z - 1.0) * v
        if b <= a:
            return 0.0
        inner_val, _ = integrate(lambda u: math.exp(-u), a, b, abs_tol=1e-9)
        return inner_val * math.exp(gamma_logpdf(m - 1.0, v))

    val, _ = integrate(outer, y, z, abs_tol=1e-8)
    return val


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_REGION_TAGS = {
    TrapezoidRegionC1: "c1",
    TrapezoidRegionC2: "c2",
    MinAreaRegionC3: "c3",
    KsRegionC4: "c4",
}


def region_to_dict(region: Region, points: int = 512) -> dict:
    """JSON-ready description: type tag, defining constants, and a polyline
    discretization of the boundary."""
    constants = {k: v for k, v in region.__dict__.items()}
    return {
        "type": _REGION_TAGS[type(region)],
        "constants": constants,
        "boundary": region.boundary(points).tolist(),
    }


def region_from_dict(doc: dict) -> Region:
    classes = {tag: cls for cls, tag in _REGION_TAGS.items()}
    try:
        cls = classes[doc["type"]]
        return cls(**doc["constants"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed region document: {exc}") from exc
