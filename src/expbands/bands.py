"""Confidence bands for the exponential cdf under progressive type-II
censoring, plus the sup-distance statistic that powers the KS-type bands.

Six constructions: two from the trapezoid regions, one from the
minimum-area region, the constant-width KS band, and its two trimmed
variants: the extrema of the cdf over the sup-distance regions, in closed
form. Each band is location-scale equivariant, so a `Band` holds the cdf
boundaries of its unit band, built at (0, 1), and the estimate it reads
them at, `loc` and `scale`; a reliability (1 - cdf) or last-observation
marginal band is the same band shown through one pointwise monotone map
(`Band.push`), H for a marginal band, then the reflection for a
reliability one.

Boundaries are pieces: (possibly offset and clipped) exponential cdfs and
the analytic upper envelope of the unit minimum-area region. Their
breakpoints cut the unit axis into panels, then the right tail, on each of
which a piece is constant or live. The band metrics and `graph_contained`,
the exact containment of a cdf graph, walk these panels (`_panels`), and
each piece type answers for itself there: its value where it is constant
(`constant`), the one point where it minus a live cdf can turn (`turn`),
the width's interior maximum over the lower cdf (`peak`) and its integral
where it is live (`integral`).

`METHODS` is the one table of the paper's regions (c1-c4pp) and bands
(b1-b4pp): per method, the calibration constant it needs and its exact
value at a scheme and level (`Method.constants`), its builder and its
exact coverage event, one interval of the pivots (`regions.Event`) whose
ends the region type describes once: `Event.interval` evaluates them for
the one quadrature that integrates it (`event_probability`), and
`Event.covers` for every count. `covers` selects no values, because a
select on the random switch masks of a batch of pivots cost more than the
comparisons it feeds: about 107 us against 6-9 us on 32,768 lanes (see
`regions`). The CLI, the coverage experiments and the paper
reproduction all dispatch through it.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibrationKey, cp_tail, exact_constant, interval_probability, tau_of_p
from .errors import DomainError, NumericError
from .model import LocScale, MleEstimate, Scheme, _std_cdf
from .numerics import brent_root
from .regions import (
    Event,
    KsRegionC4,
    Region,
    _h_deriv,
    build_c1,
    build_c2,
    build_c3,
    build_c4,
    ks_distance_xy,  # re-exported: the sup-distance pivot beside its grid oracle
    ks_event,
    ks_slopes,
)
from .special import check_probability

_UNIT = MleEstimate(0.0, 1.0)   # bands and coverage events are built at the unit estimate

# ---------------------------------------------------------------------------
# boundary segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpCdfSegment:
    """clip(F_(loc, scale)(x) + offset, 0, 1); offset 0 is a plain cdf."""

    loc: float
    scale: float
    offset: float = 0.0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        f = _std_cdf((np.asarray(x, dtype=float) - self.loc) / self.scale)
        return np.clip(f + self.offset, 0.0, 1.0)

    def value(self, x: float) -> float:
        """`evaluate` at one float x, in math-module arithmetic."""
        z = max((x - self.loc) / self.scale, 0.0)
        return min(max(-math.expm1(-z) + self.offset, 0.0), 1.0)

    def kinks(self) -> tuple[float, ...]:
        pts = [self.loc]
        if self.offset > 0.0:
            pts.append(self.loc - self.scale * math.log(self.offset))      # clips to 1
        elif self.offset < 0.0:
            pts.append(self.loc - self.scale * math.log1p(self.offset))    # leaves 0
        return tuple(pts)

    def constant(self, a: float, b: float) -> float | None:
        """The value on the panel (a, b) where it is constant there (left of
        the location, or clipped); None where it is live."""
        if b <= self.loc:
            return self.value(-math.inf)
        if self.offset > 0.0 and a >= self.kinks()[1]:
            return 1.0
        if self.offset < 0.0 and b <= self.kinks()[1]:
            return 0.0
        return None

    def turn(self, f: ExpCdfSegment) -> float | None:
        """The stationary point of f - self, both live exponential cdfs;
        None when the difference is monotone (equal scales)."""
        s_l, s_u = self.scale, f.scale
        if s_l == s_u:
            return None
        num = math.log(s_l / s_u) + f.loc / s_u - self.loc / s_l
        den = 1.0 / s_u - 1.0 / s_l
        return num / den

    def peak(self, lo: ExpCdfSegment, a: float, b: float) -> float | None:
        """The candidate interior maximum of the width self - lo: its one
        stationary point."""
        return lo.turn(self)

    def integral(self, a: float, b: float) -> float:
        """The integral over a panel [a, b] on which the piece is live."""
        z_a, z_b = (a - self.loc) / self.scale, (b - self.loc) / self.scale
        return (1.0 + self.offset) * (b - a) - self.scale * (math.exp(-z_a) - math.exp(-z_b))


@dataclass(frozen=True)
class MinAreaEnvelopeSegment:
    """Upper envelope of the unit minimum-area region where the extremizing
    scale is interior: at each x the cdf is evaluated at the boundary point
    whose scale is s = (m - n x) / (m + 1), at location
    ((c_p + (m + 1) ln s) s + m) / n. It is 0 up to its kink, the x of scale
    exp(-1 - c_p/(m + 1)), and rises after it."""

    m: int
    n: float
    c_p: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scale = np.maximum(self.scale_at(x), 1e-300)
        loc = ((self.c_p + (self.m + 1) * np.log(scale)) * scale + self.m) / self.n
        return _std_cdf((x - loc) / scale)

    value = evaluate   # at one float x too

    def x_at_scale(self, scale: float) -> float:
        """The x whose extremizing scale is `scale`."""
        return (self.m - (self.m + 1) * scale) / self.n

    def scale_at(self, x):
        """The extremizing scale at x, the inverse of `x_at_scale`."""
        return (self.m - self.n * x) / (self.m + 1)

    def kinks(self) -> tuple[float, ...]:
        return (self.x_at_scale(math.exp(-1.0 - self.c_p / (self.m + 1))),)

    def constant(self, a: float, b: float) -> float | None:
        """0 on a panel (a, b) left of the kink; None where it is live."""
        return 0.0 if b <= self.kinks()[0] else None

    def turn(self, f: ExpCdfSegment) -> float:
        """Where self - f can change sign: log((1 - f)/(1 - self)) is a
        constant plus al (s/sigma - ln s), al = (m + 1)/n, least at the
        scale s = sigma of f."""
        return self.x_at_scale(f.scale)

    def peak(self, lo: ExpCdfSegment, a: float, b: float) -> float | None:
        """Interior maximum on the panel (a, b) of self - lo, for b3's plain
        lower cdf lo (location lam, scale zeta); None if there is none.
        1 - self = K s^al, al = (m + 1)/n, K = e^((m + 1 + c_p)/n), and the
        scale s falls linearly in x. With u = beta s, beta = (m + 1)/(n zeta),
        the width falls exactly where g(u) = u - (al - 1) ln u - L > 0, L
        below. For al <= 1 (every censored sample) g rises in u: no interior
        maximum. For al > 1 it is g's one root below u = al - 1, where g
        falls in u."""
        m, n = self.m, self.n
        al, beta = (m + 1) / n, (m + 1) / (n * lo.scale)
        big_l = ((m + 1 + self.c_p) / n + math.log(al) - al * math.log(beta)
                 + (m / n - lo.loc) / lo.scale)

        def g(u: float) -> float:
            return u - (al - 1.0) * math.log(u) - big_l

        u_lo, u_hi = beta * self.scale_at(b), min(beta * self.scale_at(a), al - 1.0)
        if not (0.0 < u_lo < u_hi and g(u_hi) < 0.0 < g(u_lo)):   # u_hi <= 0 if al <= 1
            return None
        # the width is flat at its maximum, so a relative 1e-12 in u is ample
        return self.x_at_scale(brent_root(g, u_lo, u_hi, xtol=1e-12 * u_hi) / beta)

    def integral(self, a: float, b: float) -> float:
        """The integral over a panel [a, b] on which the piece is live, from
        the primitive x + (m + 1)/(n + m + 1) s (1 - self): 1 - self = K s^al
        with s linear in x (see `peak`)."""
        s_a, s_b = self.scale_at(a), self.scale_at(b)
        return (b - a) - (self.m + 1) / (self.n + self.m + 1) * float(
            s_a * (1.0 - self.value(a)) - s_b * (1.0 - self.value(b)))


Segment = ExpCdfSegment | MinAreaEnvelopeSegment


@dataclass(frozen=True)
class PiecewiseBoundary:
    """One band boundary: segments separated by interior breakpoints."""

    segments: tuple[Segment, ...]
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.breaks) != len(self.segments) - 1:
            raise DomainError("need exactly one breakpoint between consecutive segments")
        if any(b2 < b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise DomainError("breakpoints must be nondecreasing")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.empty_like(xv)
        idx = np.searchsorted(self.breaks, xv, side="right")
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if np.any(mask):
                out[mask] = seg.evaluate(xv[mask])
        return float(out[0]) if scalar else out

    def breakpoints(self) -> tuple[float, ...]:
        pts = set(self.breaks)
        for seg in self.segments:
            pts.update(seg.kinks())
        return tuple(sorted(pts))


@dataclass(frozen=True)
class Band:
    """Evaluable confidence band with level and construction provenance.

    It holds the cdf boundaries of the unit band and reads them at
    (x - loc)/scale, (loc, scale) the estimate, and shows them through
    `push`: H of the last-observation marginal transform when `gammas` (its
    coefficients) is set, then 1 - . when the band is not increasing (a
    reliability band), where the boundaries swap. Both maps are monotone, so
    the shown band has the cdf band's level."""

    kind: str
    cdf_lower: PiecewiseBoundary
    cdf_upper: PiecewiseBoundary
    level: float | None
    loc: float
    scale: float
    provenance: dict = field(default_factory=dict)
    gammas: tuple[float, ...] | None = None
    increasing: bool = True

    def push(self, y):
        """The shown values of cdf values y."""
        if self.gammas is not None:
            y = marginal_transform_h(self.gammas, y)
        return y if self.increasing else 1.0 - y

    def lower(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return self.push((self.cdf_lower if self.increasing else self.cdf_upper)(u))

    def upper(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return self.push((self.cdf_upper if self.increasing else self.cdf_lower)(u))

    def width(self, x):
        return self.upper(x) - self.lower(x)

    def breakpoints(self) -> tuple[float, ...]:
        """The unit boundaries' breakpoints, the panels' edges, on the data axis."""
        return tuple(sorted({self.loc + self.scale * p.a for p in _panels(self)}))


# ---------------------------------------------------------------------------
# closed-form bands
# ---------------------------------------------------------------------------

def band_b1(est: MleEstimate, scheme: Scheme, p: float) -> Band:
    """Band induced by the scale-cut trapezoid; exact level 1-p."""
    region = build_c1(_UNIT, scheme, p)
    edge, s_lo, s_hi = region.location_edge, region.sigma_lo, region.sigma_hi
    lower = PiecewiseBoundary(
        (ExpCdfSegment(edge(region.q2, s_lo), s_lo), ExpCdfSegment(edge(region.q2, s_hi), s_hi)),
        breaks=(0.0,))
    upper = PiecewiseBoundary(
        (ExpCdfSegment(edge(region.q1, s_hi), s_hi), ExpCdfSegment(edge(region.q1, s_lo), s_lo)),
        breaks=(0.0,))
    return Band("b1", lower, upper, level=1.0 - p, loc=est.mu_hat, scale=est.sigma_hat,
                provenance={"m": scheme.m, "n": region.n, "q1": region.q1, "q2": region.q2})


def band_b2(est: MleEstimate, scheme: Scheme, p: float) -> Band:
    """Band induced by the location-cut trapezoid; exact level 1-p."""
    region = build_c2(_UNIT, scheme, p)
    m, n = scheme.m, scheme.effective_n
    mu_lo, mu_hi, scale = region.mu_lo, region.mu_hi, region.scale_edge
    lower = PiecewiseBoundary(
        (ExpCdfSegment(mu_hi, scale(region.q1, mu_hi)),
         ExpCdfSegment(mu_lo, scale(region.q1, mu_lo))),
        breaks=(m / n,))
    upper = PiecewiseBoundary(
        (ExpCdfSegment(mu_lo, scale(region.q2, mu_lo)),
         ExpCdfSegment(mu_hi, scale(region.q2, mu_hi))),
        breaks=(m / n,))
    return Band("b2", lower, upper, level=1.0 - p, loc=est.mu_hat, scale=est.sigma_hat,
                provenance={"m": m, "n": n, "q1": region.q1, "q2": region.q2})


def band_b3(est: MleEstimate, scheme: Scheme, c_p: float,
            nominal_p: float | None = None) -> Band:
    """Band induced by the minimum-area region.

    The upper boundary follows the region's lower Lambert scale for large x,
    the interior envelope in between, and the principal-branch scale for
    small x; the lower boundary is the cdf at the principal-branch scale.
    When the nominal region level 1-p is supplied the band's exact
    (strictly larger) level is computed and stored as the band level.
    """
    region = build_c3(_UNIT, scheme, c_p)
    m, n = scheme.m, scheme.effective_n
    envelope = MinAreaEnvelopeSegment(m, n, c_p)
    # the (decreasing) envelope scale crosses the interval ends here
    upper = PiecewiseBoundary(
        (ExpCdfSegment(0.0, region.z_hi), envelope, ExpCdfSegment(0.0, region.z_lo)),
        breaks=(envelope.x_at_scale(region.z_hi), envelope.x_at_scale(region.z_lo)))
    lower = PiecewiseBoundary((ExpCdfSegment(0.0, region.z_hi),))
    level = None if nominal_p is None else tau_of_p(m, nominal_p, c_p)
    prov = {"m": m, "n": n, "c_p": c_p,
            "nominal_level_1mp": None if nominal_p is None else 1.0 - nominal_p}
    return Band("b3", lower, upper, level=level, loc=est.mu_hat, scale=est.sigma_hat,
                provenance=prov)


def band_b4(est: MleEstimate, d_p: float, level: float | None = None) -> Band:
    """Constant-width KS-type band: fitted cdf plus/minus d_p, clipped."""
    d_p = check_probability(d_p, "d_p", open_interval=True)
    lower = PiecewiseBoundary((ExpCdfSegment(0.0, 1.0, offset=-d_p),))
    upper = PiecewiseBoundary((ExpCdfSegment(0.0, 1.0, offset=+d_p),))
    return Band("b4", lower, upper, level=level, loc=est.mu_hat, scale=est.sigma_hat,
                provenance={"d_p": d_p})


# ---------------------------------------------------------------------------
# sup-distance statistic
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _std_quantiles(points: int) -> tuple[np.ndarray, np.ndarray]:
    # the (mu, sigma)-free half of `ks_distance_grid`: standard quantiles, cdf there
    x = -np.log1p(-np.linspace(0.5 / points, 1.0 - 0.5 / points, points // 2))
    f = _std_cdf(x)
    x.flags.writeable = f.flags.writeable = False   # cached: shared by every caller
    return x, f


def ks_distance_grid(mu: float, sigma: float, points: int = 100_000) -> float:
    """Brute-force oracle: supremum of |F_(mu,sigma) - F_(0,1)| on a dense
    quantile-spaced grid of both distributions (the standard quantiles x,
    mu + sigma x, 0 and mu); the half at x is kept across calls."""
    x, f_x = _std_quantiles(points)
    xs = np.concatenate([mu + sigma * x, [0.0, mu]])
    return float(max(np.max(np.abs(_std_cdf((x - mu) / sigma) - f_x)),
                     np.max(np.abs(_std_cdf((xs - mu) / sigma) - _std_cdf(xs)))))


# ---------------------------------------------------------------------------
# trimmed KS bands
# ---------------------------------------------------------------------------

def trim_band(b4: Band, region: KsRegionC4) -> Band:
    """Trim the constant-width band to the union of cdf graphs over the
    sup-distance region: at each x the boundaries are the extrema of
    F_theta(x) = 1 - exp(-(beta t + s)) over the region's scale ratios
    t = sigma_hat/sigma in [t_lo, t_hi], with beta = (x - mu_hat)/sigma_hat,
    the unit x, and s between the lower and upper slopes at t.

    The slopes are h(t) on a concave (upper, t > 1) or convex (lower,
    t < 1) arc and linear in t elsewhere, so each extremum sits at a corner
    scale or at the arc's stationary point. That point, t* = q/(q - 1) for
    the upper and q/(1 + q) for the lower boundary with q = exp(-beta)/d_p,
    gives exactly the parent's F_hat(x) +- d_p. Each boundary is therefore
    three exponential-cdf pieces: the cdf at one corner scale, the
    parent's segment, and the cdf at the other corner, joined where the
    stationary point reaches an end of its arc (h'(t*) = -beta).
    """
    d_p = region.d_p
    t_lo, t_hi = region.t_lo, region.t_hi
    (lower_lo, lower_hi), (upper_lo, upper_hi) = (
        s.tolist() for s in ks_slopes(np.array([t_lo, t_hi]), d_p))

    def cdf_at(t: float, slope: float) -> ExpCdfSegment:
        # F_theta at scale ratio t and standardized location slope
        return ExpCdfSegment(-slope / t, 1.0 / t)

    upper = PiecewiseBoundary(
        (cdf_at(t_lo, upper_lo), b4.cdf_upper.segments[0], cdf_at(t_hi, upper_hi)),
        breaks=(0.0, -_h_deriv(t_hi, d_p)))
    if region.trimmed:
        # past t_zero_lower the trimmed lower slope is 0
        left, beta_left = cdf_at(region.t_zero_lower, 0.0), -_h_deriv(region.t_zero_lower, d_p)
    else:
        left, beta_left = cdf_at(t_hi, lower_hi), -math.log(1.0 - d_p)
    lower = PiecewiseBoundary(
        (left, b4.cdf_lower.segments[0], cdf_at(t_lo, lower_lo)),
        breaks=(beta_left, -_h_deriv(t_lo, d_p)))

    kind = "b4pp" if region.trimmed else "b4p"
    prov = dict(b4.provenance)
    prov.update({"d_p": d_p, "t_lo": t_lo, "t_hi": t_hi})
    return Band(kind, lower, upper, level=b4.level, loc=b4.loc, scale=b4.scale, provenance=prov)


def band_b4_trimmed(est: MleEstimate, d_p: float, trimmed: bool,
                    level: float | None = None) -> Band:
    """Convenience: build the KS band and trim it over the matching region."""
    return trim_band(band_b4(est, d_p, level=level), build_c4(_UNIT, d_p, trimmed=trimmed))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def reliability_band(band: Band) -> Band:
    """Band for the reliability function 1 - F: boundaries swap and reflect.
    Applying the transform twice returns the original band."""
    kind = (f"reliability-of-{band.kind}" if band.increasing
            else band.kind.removeprefix("reliability-of-"))
    return dataclasses.replace(band, kind=kind, provenance=dict(band.provenance),
                               increasing=not band.increasing)


_CHAIN_TAIL = 2.0 ** -55   # chain mass left where its table stops: 1 - it rounds to 1
_WEIGHT_BLOCK = 1 << 16    # Poisson weights built per block, in elements


@functools.lru_cache(maxsize=16)
def _marginal_chain(gamma: tuple[float, ...]) -> tuple[float, np.ndarray]:
    """The standardized last observation S = sum_j E_j / gamma_j is the time
    to pass phases left at rates gamma_j. Uniformized at Lam = max gamma, a
    step moves phase j on with probability gamma_j / Lam. Returns Lam and the
    rows (a_k, b_k): the probability of absorption within k steps, and the
    mass still in the phases, summed from the phase vector, up to the first
    b_k <= _CHAIN_TAIL. Tied coefficients are fine."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 1 or g.size < 1 or not np.all(g > 0):
        raise DomainError("coefficients must be a nonempty vector of positive numbers")
    lam = float(g.max())
    move, stay, phases = g / lam, (lam - g) / lam, np.eye(1, g.size)[0]
    rows = [(0.0, 1.0)]
    while rows[-1][1] > _CHAIN_TAIL:
        if len(rows) > 1 << 20:
            raise NumericError("marginal transform needs over 2^20 uniformization steps")
        moved = phases * move
        phases *= stay
        phases[1:] += moved[:-1]
        rows.append((rows[-1][0] + moved[-1], phases.sum()))
    table = np.array(rows)
    table.flags.writeable = False   # cached: shared by every caller
    return lam, table


@functools.lru_cache(maxsize=4)
def _log_factorials(size: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(size)])


def _poisson_mix(rate: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """sum_k Pois(k; rate_i) tables[k] for each rate_i >= 0, every column
    carried at its last value past the end. The weights are >= 0, so with
    nonnegative tables nothing cancels. A rate r takes the k within 10
    standard deviations plus 20 of r, leaving out under e^-50 of the weight
    on either side. A column still under 2^-20 of its last value up to some
    k* gains relatively from the far upper tail, so there the k run on to
    the same reach of max(r, k*). Rates go in ascending blocks of at most
    _WEIGHT_BLOCK weights; rates whose k all lie past the end take the last
    row."""
    size, order = tables.shape[0], np.argsort(rate)
    r = np.maximum(rate[order], np.finfo(float).tiny)
    top = np.maximum(r, np.argmax(tables >= 2.0 ** -20 * tables[-1], axis=0).max())
    lo = np.maximum(r - 10.0 * np.sqrt(r) - 20.0, 0.0).astype(int)
    hi = np.ceil(top + 10.0 * np.sqrt(top) + 20.0).astype(int)   # both nondecreasing
    log_fact = _log_factorials(1 << int(hi.max(initial=0)).bit_length())
    out, i, stop = np.empty((r.size, tables.shape[1])), 0, np.searchsorted(lo, size - 1)
    out[order[stop:]] = tables[-1]
    while i < stop:   # the most rows whose common k-range fits in a block
        ends = hi[i:min(stop, i + _WEIGHT_BLOCK // (hi[i] - lo[i] + 1) + 1)]
        n = max(1, int(np.searchsorted((ends - lo[i] + 1) * np.arange(1, ends.size + 1),
                                       _WEIGHT_BLOCK, side="right")))
        k, rb = np.arange(lo[i], hi[i + n - 1] + 1), r[i:i + n, None]
        w = np.log(rb) * k - rb - log_fact[k]
        out[order[i:i + n]] = np.exp(w, out=w) @ tables[np.minimum(k, size - 1)]
        i += n
    return out


def marginal_transform_h(gamma: Sequence[float], y):
    """Distribution transform mapping baseline cdf values to the cdf of the
    last observed failure time, H(y) = P(S <= s) with s = -log(1 - y) (see
    `_marginal_chain`). With a Poisson(Lam s) number of chain steps,
    H = sum_k Pois(k) a_k and 1 - H = sum_k Pois(k) b_k, sums of positive
    terms; H comes from the first below 1/2 and from the second above.
    H(0) = 0 and H(1) = 1 exactly."""
    lam, table = _marginal_chain(tuple(float(v) for v in gamma))
    y = np.asarray(y, dtype=float)
    if np.any((y < -1e-12) | (y > 1.0 + 1e-12)):
        raise DomainError("transform argument must lie in [0, 1]")
    out = np.clip(np.atleast_1d(y), 0.0, 1.0)
    live = (out > 0.0) & (out < 1.0)
    below, above = _poisson_mix(-lam * np.log1p(-out[live]), table).T
    out[live] = np.where(below < 0.5, below, 1.0 - above)
    out = out.reshape(y.shape)
    return out if out.ndim else float(out)


def marginal_band(band: Band, gamma: Sequence[float]) -> Band:
    """Push a baseline-cdf band through the marginal transform; the level is
    unchanged because the transform is a monotone bijection. H maps baseline
    cdf values, so a reliability band (reflect after the transform) and a
    band that is already marginal are refused."""
    if not band.increasing:
        raise DomainError("the marginal transform maps a cdf band; apply it before the "
                          "reliability reflection")
    if band.gammas is not None:
        raise DomainError("the band is already marginal; the marginal transform maps a "
                          "baseline cdf band")
    g = tuple(float(v) for v in gamma)
    _marginal_chain(g)   # validate coefficients eagerly
    return dataclasses.replace(band, kind=f"marginal-of-{band.kind}",
                               provenance=dict(band.provenance), gammas=g)


# ---------------------------------------------------------------------------
# panels and containment
# ---------------------------------------------------------------------------

# the gap (a, b) between consecutive unit edges (b = inf on the right tail) and the
# lower and upper pieces of the unit cdf band on it
_Panel = namedtuple("_Panel", "a b lower upper")


def _panels(band: Band, extra: tuple[float, ...] = ()) -> list[_Panel]:
    # every piece has a kink at its location, so there is at least one edge
    edges = sorted(set(band.cdf_lower.breakpoints()).union(band.cdf_upper.breakpoints(), extra))
    lower, upper = band.cdf_lower, band.cdf_upper
    panels = []
    for a, b in zip(edges, edges[1:] + [math.inf]):
        lo = lower.segments[bisect.bisect_right(lower.breaks, a)]
        up = upper.segments[bisect.bisect_right(upper.breaks, a)]
        panels.append(_Panel(a, b, lo, up))
    return panels


def _gaps(piece: Segment, f: ExpCdfSegment, a: float, b: float) -> list[float]:
    """piece - F where its sign on the panel [a, b] is decided: at both ends,
    at the one interior point where it can turn (`turn`), and at +inf on the
    tail. At +inf the difference tends to the piece's offset, or for a plain
    cdf takes the sign of F's survival minus the piece's: the larger scale,
    then location, has the slower tail."""
    level = piece.constant(a, b)
    turn = piece.turn(f)
    xs = [x for x in (a, b, turn) if x is not None and a <= x <= b and x < math.inf]
    gaps = [(piece.value(x) if level is None else level) - f.value(x) for x in xs]
    if b == math.inf:
        f_tail, p_tail = (f.scale, f.loc), (piece.scale, piece.loc)
        gaps.append(piece.offset or float(f_tail > p_tail) - float(f_tail < p_tail))
    return gaps


def graph_contained(band: Band, theta: LocScale) -> bool:
    """Whether the graph of F_theta, shown as the band shows its cdf
    boundaries (`Band.push`), lies between the band's boundaries, decided
    exactly, with no grid and no tolerance. `push` is strictly monotone, so
    that is the unit cdf band's containment of F at the standardized theta:
    on each panel between the band's unit breakpoints and its location, F
    is 0 or live, and `_gaps` reads each piece minus F where its sign is
    decided. Left of the first edge all three curves are constant."""
    f = ExpCdfSegment((theta.mu - band.loc) / band.scale, theta.sigma / band.scale)
    return all(max(_gaps(p.lower, f, p.a, p.b)) <= 0.0 <= min(_gaps(p.upper, f, p.a, p.b))
               for p in _panels(band, (f.loc,)))


def default_grid(band: Band, points: int = 1024) -> np.ndarray:
    """Default x-grid loc + scale u, u found on the unit band: from -1 to
    the last structural breakpoint, extended until the band width falls
    below 1e-6 with the lower boundary within 1e-6 of its right limit
    (skipped where the width does not vanish at infinity). A marginal band
    is about 0 at its cdf boundaries' breakpoints, where its width is tiny too."""
    unit = dataclasses.replace(band, loc=0.0, scale=1.0)
    end = max(0.0, _panels(band)[-1].a)
    limit = unit.lower(math.inf)
    if unit.width(math.inf) <= 1e-6:
        step = end + 1.0
        for _ in range(80):
            if unit.width(end) < 1e-6 and abs(unit.lower(end) - limit) <= 1e-6:
                break
            end += step
            step *= 1.5
    return band.loc + band.scale * np.linspace(-1.0, end, points)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SEGMENT_TAGS = {ExpCdfSegment: "expcdf", MinAreaEnvelopeSegment: "minarea_envelope"}
_SEGMENT_CLASSES = {tag: cls for cls, tag in _SEGMENT_TAGS.items()}


def _boundary_to_dict(boundary: PiecewiseBoundary) -> dict:
    return {"segments": [{"type": _SEGMENT_TAGS[type(s)], **dataclasses.asdict(s)}
                         for s in boundary.segments],
            "breaks": list(boundary.breaks)}


def _boundary_from_dict(doc: dict) -> PiecewiseBoundary:
    # an unknown segment type is a KeyError, a missing or unknown field a TypeError
    return PiecewiseBoundary(
        tuple(_SEGMENT_CLASSES[s["type"]](**{k: v for k, v in s.items() if k != "type"})
              for s in doc["segments"]),
        tuple(doc["breaks"]))


def band_to_dict(band: Band) -> dict:
    """JSON-ready description with kind, level, and all constants: the unit
    cdf boundaries, the estimate they are read at (`loc`, `scale`) and the
    map that shows them (`gammas`, `increasing`); it round-trips exactly."""
    return {"kind": band.kind, "level": band.level, "provenance": band.provenance,
            "loc": band.loc, "scale": band.scale,
            "lower": _boundary_to_dict(band.cdf_lower), "upper": _boundary_to_dict(band.cdf_upper),
            "gammas": None if band.gammas is None else list(band.gammas),
            "increasing": band.increasing}


def band_from_dict(doc: dict) -> Band:
    """The band `band_to_dict` describes; DomainError for a malformed
    document, such as one without `loc` and `scale` (from before them)."""
    try:
        gammas = doc.get("gammas")
        loc, scale = float(doc["loc"]), float(doc["scale"])
        if not (math.isfinite(loc) and 0.0 < scale < math.inf):
            raise ValueError(f"need a finite loc and a finite scale > 0, got {loc}, {scale}")
        return Band(kind=doc["kind"], cdf_lower=_boundary_from_dict(doc["lower"]),
                    cdf_upper=_boundary_from_dict(doc["upper"]), level=doc["level"],
                    loc=loc, scale=scale, provenance=dict(doc.get("provenance", {})),
                    gammas=None if gammas is None else tuple(float(g) for g in gammas),
                    increasing=bool(doc.get("increasing", True)))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed band document: {exc}") from exc


def band_rows(band: Band, xs: Sequence[float]) -> list[tuple[float, float, float]]:
    """(x, lower, upper) rows for CSV export."""
    xs = np.asarray(xs, dtype=float)
    lo = np.asarray(band.lower(xs), dtype=float)
    hi = np.asarray(band.upper(xs), dtype=float)
    return list(zip(xs.tolist(), lo.tolist(), hi.tolist()))


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    """A region or band of the paper: the calibration constant it needs
    (None, "c_p", "d_p", or "p_of_tau": the c_p whose band level is the
    requested one), its builder build(est, scheme, level, constants), and
    its exact coverage event event(scheme, level, constants), which checks
    the constants as the builder does and returns a `regions.Event`, one
    description of the ends of an interval of Z = n(mu_hat - mu)/sigma at
    each T = sigma_hat/sigma: the object built from an estimate covers
    (mu, sigma) exactly when Z lies in it, as `Event.interval` selects it
    and `Event.covers` counts it. Both read c_p or d_p from `constants`, as
    `Method.constants` returns them."""

    constant: str | None
    build: Callable[..., Region | Band]
    event: Callable[..., Event]

    def constants(self, scheme: Scheme, level: float, lookup=exact_constant) -> tuple[dict, list]:
        """The method's exact constants at (scheme, level) and the calibration
        results they come from, as `lookup` (a cache, say) answers their key."""
        if self.constant is None:
            return {}, []
        result = lookup(CalibrationKey.exact(self.constant, scheme.m, scheme.effective_n, level))
        return result.constants, [result]


def _region_event(region: str):
    # a region, and c1's and c2's bands, cover when the region holds the pivots
    def event(scheme, level, k):
        built = METHODS[region].build(_UNIT, scheme, level, k)
        return built.event(scheme.effective_n) if isinstance(built, KsRegionC4) else built.event
    return event


def _b3_event(scheme, level, k):
    # b3 covers exactly when the region's comprehensive convex hull holds the pivots
    region = build_c3(_UNIT, scheme, k["c_p"])
    return Event(functools.partial(region._ends, hull=True), region.edges + (region.z / region.m,))


def _ks_event(scheme, level, k):
    # unlike build_c4, the KS-type bands' event holds for every d_p < 1
    return ks_event(k["d_p"], scheme.effective_n)


def _trimmed(trimmed: bool):
    return lambda est, sch, lv, k: band_b4_trimmed(est, k["d_p"], trimmed=trimmed, level=lv)


METHODS: dict[str, Method] = {
    "c1": Method(None, lambda est, sch, lv, k: build_c1(est, sch, 1.0 - lv), _region_event("c1")),
    "c2": Method(None, lambda est, sch, lv, k: build_c2(est, sch, 1.0 - lv), _region_event("c2")),
    "c3": Method("c_p", lambda est, sch, lv, k: build_c3(est, sch, k["c_p"]), _region_event("c3")),
    "c4p": Method("d_p", lambda est, sch, lv, k: build_c4(est, k["d_p"]), _region_event("c4p")),
    "c4pp": Method("d_p", lambda est, sch, lv, k: build_c4(est, k["d_p"], True),
                   _region_event("c4pp")),
    "b1": Method(None, lambda est, sch, lv, k: band_b1(est, sch, 1.0 - lv), _region_event("c1")),
    "b2": Method(None, lambda est, sch, lv, k: band_b2(est, sch, 1.0 - lv), _region_event("c2")),
    # b3's nominal p = 1 - P(W >= c_p): bit for bit the p of exact_p_of_tau
    "b3": Method("p_of_tau", lambda est, sch, lv, k: band_b3(
        est, sch, k["c_p"], nominal_p=1.0 - cp_tail(sch.m, k["c_p"])), _b3_event),
    "b4": Method("d_p", lambda est, sch, lv, k: band_b4(est, k["d_p"], level=lv), _ks_event),
    "b4p": Method("d_p", _trimmed(False), _ks_event),
    "b4pp": Method("d_p", _trimmed(True), _ks_event),
}


def method_constants(kind: str, c_p: float | None = None,
                     d_p: float | None = None) -> tuple[Method, dict]:
    """The registry entry of a region or band and the constants it reads;
    DomainError for an unknown kind or a missing constant."""
    method = METHODS.get(kind)
    if method is None:
        raise DomainError(f"unknown coverage kind {kind!r}")
    constants = {k: v for k, v in (("c_p", c_p), ("d_p", d_p)) if v is not None}
    need = "c_p" if method.constant == "p_of_tau" else method.constant
    if need is not None and need not in constants:
        raise DomainError(f"{kind} coverage needs the calibration constant {need}")
    return method, constants


def coverage_indicator(kind: str, mu_hats: np.ndarray, sigma_hats: np.ndarray,
                       theta: LocScale, scheme: Scheme, *, level: float,
                       c_p: float | None = None, d_p: float | None = None) -> np.ndarray:
    """Vectorized exact coverage events, one per replicate estimate: the
    registry's event at the pivots Z = n(mu_hat - mu)/sigma and
    T = sigma_hat/sigma of each estimate. The test suite checks each event
    against region membership or graph containment."""
    method, constants = method_constants(kind, c_p, d_p)
    est = MleEstimate(np.asarray(mu_hats, dtype=float), np.asarray(sigma_hats, dtype=float))
    return method.event(scheme, level, constants).covers(
        scheme.effective_n * (est.mu_hat - theta.mu) / theta.sigma, est.sigma_hat / theta.sigma)


def event_probability(kind: str, scheme: Scheme, level: float, constants: dict) -> float:
    """Exact probability of a registry event, one panel quadrature over T
    to 1e-12 (`calibration.interval_probability`): the level for c1/c2 and
    their bands, 1 - p for c3 at exact_cp(m, p), band_level(m, c_p) for b3
    and ks_cdf(m, n, d_p) for the KS family."""
    method, _ = method_constants(kind, constants.get("c_p"), constants.get("d_p"))
    return interval_probability(scheme.m, method.event(scheme, level, constants))
