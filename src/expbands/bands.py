"""Confidence bands for the exponential cdf under progressive type-II
censoring, plus the sup-distance statistic that powers the KS-type bands.

Six constructions: two from the trapezoid regions, one from the
minimum-area region, the constant-width KS band, and its two trimmed
variants: the extrema of the cdf over the sup-distance regions, in closed
form. Reliability (1 - cdf) and last-observation marginal transforms are
monotone push-forwards of any band (the marginal one of a cdf band).

Boundaries are pieces: (possibly offset and clipped) exponential cdfs and
the analytic upper envelope of the minimum-area region. Their breakpoints
cut the line into panels, then the right tail, on each of which a piece
is constant or live. The band metrics and `graph_contained`, the exact
containment of a cdf graph, walk these panels (`_panels`).

`METHODS` is the one table of the paper's regions (c1-c4pp) and bands
(b1-b4pp): per method, the calibration constant it needs, its builder and
its exact coverage event. The CLI, the coverage experiments and the
paper reproduction all dispatch through it.
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

from .calibration import tau_of_p
from .errors import DomainError, NumericError
from .model import LocScale, MleEstimate, Scheme
from .regions import (
    KsRegionC4,
    Region,
    _c3_offset,
    _h_deriv,
    build_c1,
    build_c2,
    build_c3,
    build_c4,
    ks_distance_xy,
    ks_slopes,
    lower_slope,
    upper_slope,
)
from .special import check_probability

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
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        f = -np.expm1(-np.maximum(z, 0.0))
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

    def limit_left(self) -> float:
        return min(max(self.offset, 0.0), 1.0)

    def limit_right(self) -> float:
        return min(1.0 + self.offset, 1.0)


@dataclass(frozen=True)
class MinAreaEnvelopeSegment:
    """Upper envelope of the minimum-area region where the extremizing scale
    is interior: at each x the cdf is evaluated at the boundary point whose
    scale is (n (mu_hat - x) + m sigma_hat) / (m + 1). It is 0 up to its
    kink, the x of scale sigma_hat exp(-1 - c_p/(m + 1)), and rises after
    it."""

    mu_hat: float
    sigma_hat: float
    m: int
    n: float
    c_p: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scale = (self.n * (self.mu_hat - x) + self.m * self.sigma_hat) / (self.m + 1)
        scale = np.maximum(scale, 1e-300)
        offset = _c3_offset(scale, self.sigma_hat, self.m, self.n, self.c_p)
        z = (x - self.mu_hat - offset) / scale
        return -np.expm1(-np.maximum(z, 0.0))

    value = evaluate   # at one float x too

    def x_at_scale(self, scale: float) -> float:
        """The x whose extremizing scale is `scale`."""
        return self.mu_hat + (self.m * self.sigma_hat - (self.m + 1) * scale) / self.n

    def kinks(self) -> tuple[float, ...]:
        return (self.x_at_scale(self.sigma_hat * math.exp(-1.0 - self.c_p / (self.m + 1))),)


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

    def limit_left(self) -> float:
        return self.segments[0].limit_left()

    def limit_right(self) -> float:
        return self.segments[-1].limit_right()


@dataclass(frozen=True)
class ReflectedBoundary:
    """1 - base(x); turns a cdf envelope into a reliability envelope."""

    base: "Boundary"

    def __call__(self, x):
        return 1.0 - self.base(x)

    def breakpoints(self) -> tuple[float, ...]:
        return self.base.breakpoints()

    def limit_left(self) -> float:
        return 1.0 - self.base.limit_left()

    def limit_right(self) -> float:
        return 1.0 - self.base.limit_right()


@dataclass(frozen=True)
class MarginalBoundary:
    """H(base(x)) for the strictly increasing last-observation marginal
    transform H of the risk coefficients (see `marginal_transform_h`)."""

    base: "Boundary"
    gammas: tuple[float, ...]

    def __call__(self, x):
        return marginal_transform_h(self.gammas, self.base(x))

    def breakpoints(self) -> tuple[float, ...]:
        return self.base.breakpoints()

    def limit_left(self) -> float:
        return float(marginal_transform_h(self.gammas, self.base.limit_left()))

    def limit_right(self) -> float:
        return float(marginal_transform_h(self.gammas, self.base.limit_right()))


Boundary = PiecewiseBoundary | ReflectedBoundary | MarginalBoundary


@dataclass(frozen=True)
class Band:
    """Evaluable confidence band with level and construction provenance."""

    kind: str
    lower: Boundary
    upper: Boundary
    level: float | None
    provenance: dict = field(default_factory=dict)
    increasing: bool = True

    def width(self, x):
        return self.upper(x) - self.lower(x)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.lower.breakpoints()) | set(self.upper.breakpoints())))


# ---------------------------------------------------------------------------
# closed-form bands
# ---------------------------------------------------------------------------

def band_b1(est: MleEstimate, scheme: Scheme, p: float) -> Band:
    """Band induced by the scale-cut trapezoid; exact level 1-p."""
    region = build_c1(est, scheme, p)
    mu_hat, n = est.mu_hat, scheme.effective_n
    s_lo, s_hi = region.sigma_lo, region.sigma_hi

    def loc(q: float, sigma: float) -> float:
        return mu_hat + sigma * math.log(q) / n

    lower = PiecewiseBoundary(
        (ExpCdfSegment(loc(region.q2, s_lo), s_lo), ExpCdfSegment(loc(region.q2, s_hi), s_hi)),
        breaks=(mu_hat,))
    upper = PiecewiseBoundary(
        (ExpCdfSegment(loc(region.q1, s_hi), s_hi), ExpCdfSegment(loc(region.q1, s_lo), s_lo)),
        breaks=(mu_hat,))
    prov = {"mu_hat": est.mu_hat, "sigma_hat": est.sigma_hat, "m": scheme.m, "n": n,
            "q1": region.q1, "q2": region.q2}
    return Band("b1", lower, upper, level=1.0 - p, provenance=prov)


def band_b2(est: MleEstimate, scheme: Scheme, p: float) -> Band:
    """Band induced by the location-cut trapezoid; exact level 1-p."""
    region = build_c2(est, scheme, p)
    m, n = scheme.m, scheme.effective_n
    split = est.mu_hat + m * est.sigma_hat / n
    mu_lo, mu_hi = region.mu_lo, region.mu_hi

    def scale(chi2: float, mu: float) -> float:
        return 2.0 * (n * (est.mu_hat - mu) + m * est.sigma_hat) / chi2

    lower = PiecewiseBoundary(
        (ExpCdfSegment(mu_hi, scale(region.chi2_q1, mu_hi)),
         ExpCdfSegment(mu_lo, scale(region.chi2_q1, mu_lo))),
        breaks=(split,))
    upper = PiecewiseBoundary(
        (ExpCdfSegment(mu_lo, scale(region.chi2_q2, mu_lo)),
         ExpCdfSegment(mu_hi, scale(region.chi2_q2, mu_hi))),
        breaks=(split,))
    prov = {"mu_hat": est.mu_hat, "sigma_hat": est.sigma_hat, "m": m, "n": n,
            "q1": region.q1, "q2": region.q2}
    return Band("b2", lower, upper, level=1.0 - p, provenance=prov)


def band_b3(est: MleEstimate, scheme: Scheme, c_p: float,
            nominal_p: float | None = None) -> Band:
    """Band induced by the minimum-area region.

    The upper boundary follows the region's lower Lambert scale for large x,
    the interior envelope in between, and the principal-branch scale for
    small x; the lower boundary is the cdf at the principal-branch scale.
    When the nominal region level 1-p is supplied the band's exact
    (strictly larger) level is computed and stored as the band level.
    """
    region = build_c3(est, scheme, c_p)
    m, n = scheme.m, scheme.effective_n
    mu_hat, sigma_hat = est.mu_hat, est.sigma_hat
    envelope = MinAreaEnvelopeSegment(mu_hat, sigma_hat, m, n, c_p)
    # the (decreasing) envelope scale crosses the interval ends here
    upper = PiecewiseBoundary(
        (ExpCdfSegment(mu_hat, region.z_hi), envelope, ExpCdfSegment(mu_hat, region.z_lo)),
        breaks=(envelope.x_at_scale(region.z_hi), envelope.x_at_scale(region.z_lo)))
    lower = PiecewiseBoundary((ExpCdfSegment(mu_hat, region.z_hi),))
    level = None if nominal_p is None else tau_of_p(m, nominal_p, c_p)
    prov = {"mu_hat": mu_hat, "sigma_hat": sigma_hat, "m": m, "n": n,
            "c_p": c_p, "nominal_level_1mp": None if nominal_p is None else 1.0 - nominal_p}
    return Band("b3", lower, upper, level=level, provenance=prov)


def band_b4(est: MleEstimate, d_p: float, level: float | None = None) -> Band:
    """Constant-width KS-type band: fitted cdf plus/minus d_p, clipped."""
    d_p = check_probability(d_p, "d_p", open_interval=True)
    lower = PiecewiseBoundary((ExpCdfSegment(est.mu_hat, est.sigma_hat, offset=-d_p),))
    upper = PiecewiseBoundary((ExpCdfSegment(est.mu_hat, est.sigma_hat, offset=+d_p),))
    prov = {"mu_hat": est.mu_hat, "sigma_hat": est.sigma_hat, "d_p": d_p}
    return Band("b4", lower, upper, level=level, provenance=prov)


# ---------------------------------------------------------------------------
# sup-distance statistic
# ---------------------------------------------------------------------------

def ks_distance(theta_rel: LocScale) -> float:
    """Sup distance between the cdf at relative coordinates (mu, sigma) and
    the standard exponential cdf."""
    return float(ks_distance_xy(theta_rel.mu, theta_rel.sigma))


def ks_distance_grid(mu: float, sigma: float, points: int = 100_000) -> float:
    """Brute-force oracle: supremum of |F_(mu,sigma) - F_(0,1)| on a dense
    quantile-spaced grid of both distributions."""
    q = np.linspace(0.5 / points, 1.0 - 0.5 / points, points // 2)
    xs = np.concatenate([-np.log1p(-q), mu - sigma * np.log1p(-q), [0.0, mu]])
    f_std = -np.expm1(-np.maximum(xs, 0.0))
    f_rel = -np.expm1(-np.maximum((xs - mu) / sigma, 0.0))
    return float(np.max(np.abs(f_rel - f_std)))


# ---------------------------------------------------------------------------
# trimmed KS bands
# ---------------------------------------------------------------------------

def trim_band(b4: Band, region: KsRegionC4) -> Band:
    """Trim the constant-width band to the union of cdf graphs over the
    sup-distance region: at each x the boundaries are the extrema of
    F_theta(x) = 1 - exp(-(beta t + s)) over the region's scale ratios
    t = sigma_hat/sigma in [t_lo, t_hi], with beta = (x - mu_hat)/sigma_hat
    and s between the lower and upper slopes at t.

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
    mu_hat, sigma_hat = region.mu_hat, region.sigma_hat
    t_lo, t_hi = region.t_lo, region.t_hi

    def cdf_at(t: float, slope: float) -> ExpCdfSegment:
        # F_theta at scale ratio t and standardized location slope
        return ExpCdfSegment(mu_hat - slope * sigma_hat / t, sigma_hat / t)

    def x_at(beta: float) -> float:
        return mu_hat + sigma_hat * beta

    upper = PiecewiseBoundary(
        (cdf_at(t_lo, float(upper_slope(t_lo, d_p))), b4.upper.segments[0],
         cdf_at(t_hi, float(upper_slope(t_hi, d_p)))),
        breaks=(mu_hat, x_at(-_h_deriv(t_hi, d_p))))
    if region.trimmed:
        # past t_zero_lower the trimmed lower slope is 0
        left, beta_left = cdf_at(region.t_zero_lower, 0.0), -_h_deriv(region.t_zero_lower, d_p)
    else:
        left, beta_left = cdf_at(t_hi, float(lower_slope(t_hi, d_p))), -math.log(1.0 - d_p)
    lower = PiecewiseBoundary(
        (left, b4.lower.segments[0], cdf_at(t_lo, float(lower_slope(t_lo, d_p)))),
        breaks=(x_at(beta_left), x_at(-_h_deriv(t_lo, d_p))))

    kind = "b4pp" if region.trimmed else "b4p"
    prov = dict(b4.provenance)
    prov.update({"d_p": d_p, "t_lo": t_lo, "t_hi": t_hi})
    return Band(kind, lower, upper, level=b4.level, provenance=prov)


def band_b4_trimmed(est: MleEstimate, d_p: float, trimmed: bool,
                    level: float | None = None) -> Band:
    """Convenience: build the KS band and trim it over the matching region."""
    b4 = band_b4(est, d_p, level=level)
    region = build_c4(est, d_p, trimmed=trimmed)
    return trim_band(b4, region)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def reliability_band(band: Band) -> Band:
    """Band for the reliability function 1 - F: boundaries swap and reflect.
    Applying the transform twice returns the original band."""
    if (isinstance(band.lower, ReflectedBoundary)
            and isinstance(band.upper, ReflectedBoundary)
            and band.kind.startswith("reliability-of-")):
        return Band(band.kind[len("reliability-of-"):], band.upper.base, band.lower.base,
                    band.level, dict(band.provenance), increasing=True)
    return Band(f"reliability-of-{band.kind}",
                lower=ReflectedBoundary(band.upper),
                upper=ReflectedBoundary(band.lower),
                level=band.level, provenance=dict(band.provenance), increasing=False)


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
    unchanged because the transform is a monotone bijection. H maps cdf
    values, so a reliability band is refused: reflect after the transform."""
    if not band.increasing:
        raise DomainError("the marginal transform maps a cdf band; apply it before the "
                          "reliability reflection")
    g = tuple(float(v) for v in gamma)
    _marginal_chain(g)   # validate coefficients eagerly
    return Band(f"marginal-of-{band.kind}",
                lower=MarginalBoundary(band.lower, g),
                upper=MarginalBoundary(band.upper, g),
                level=band.level, provenance=dict(band.provenance),
                increasing=band.increasing)


# ---------------------------------------------------------------------------
# panels and containment
# ---------------------------------------------------------------------------

# the gap (a, b) between consecutive edges (b = inf on the right tail), the lower and
# upper pieces on it (of the base for a marginal band), and whether it is numeric
_Panel = namedtuple("_Panel", "a b lower upper numeric")


def _panels(band: Band, extra: tuple[float, ...] = ()) -> list[_Panel]:
    # every piece has a kink at its location, so there is at least one edge
    edges = sorted(set(band.breakpoints()).union(extra))
    marginal = isinstance(band.lower, MarginalBoundary)
    lower, upper = (band.lower.base, band.upper.base) if marginal else (band.lower, band.upper)
    panels = []
    for a, b in zip(edges, edges[1:] + [math.inf]):
        lo = lower.segments[bisect.bisect_right(lower.breaks, a)]
        up = upper.segments[bisect.bisect_right(upper.breaks, a)]
        numeric = marginal or not (isinstance(lo, ExpCdfSegment) and isinstance(up, ExpCdfSegment))
        panels.append(_Panel(a, b, lo, up, numeric))
    return panels


def _stationary_point(lo: ExpCdfSegment, up: ExpCdfSegment) -> float | None:
    """Interior stationary point of (up - lo) when both are live exponential
    pieces; None when the difference is monotone."""
    s_l, s_u = lo.scale, up.scale
    if s_l == s_u:
        return None
    num = math.log(s_l / s_u) + up.loc / s_u - lo.loc / s_l
    den = 1.0 / s_u - 1.0 / s_l
    return num / den


def _constant(seg: Segment, a: float, b: float) -> float | None:
    """A piece's value on the panel (a, b) where it is constant there (left
    of its location or kink, or clipped); None where it is live."""
    if isinstance(seg, MinAreaEnvelopeSegment):
        return 0.0 if b <= seg.kinks()[0] else None
    if b <= seg.loc:
        return seg.limit_left()
    if seg.offset > 0.0 and a >= seg.kinks()[1]:
        return 1.0
    if seg.offset < 0.0 and b <= seg.kinks()[1]:
        return 0.0
    return None


def _gaps(piece: Segment, f: ExpCdfSegment, a: float, b: float) -> list[float]:
    """piece - F where its sign on the panel [a, b] is decided: at both ends,
    at the one interior point where it can turn, and at +inf on the tail.
    Two live exponential cdfs differ by a function with one stationary point
    at most. Against the minimum-area envelope, whose scale s falls linearly
    in x, log((1 - F)/(1 - envelope)) is a constant plus a (s/sigma - ln s),
    a = (m + 1)/n, least at s = sigma. At +inf the difference tends to the
    piece's offset, or for a plain cdf takes the sign of F's survival minus
    the piece's: the larger scale, then location, has the slower tail."""
    level = _constant(piece, a, b)
    turn = (piece.x_at_scale(f.scale) if isinstance(piece, MinAreaEnvelopeSegment)
            else _stationary_point(piece, f))
    xs = [x for x in (a, b, turn) if x is not None and a <= x <= b and x < math.inf]
    gaps = [(piece.value(x) if level is None else level) - f.value(x) for x in xs]
    if b == math.inf:
        f_tail, p_tail = (f.scale, f.loc), (piece.scale, piece.loc)
        gaps.append(piece.offset or float(f_tail > p_tail) - float(f_tail < p_tail))
    return gaps


def graph_contained(band: Band, theta: LocScale) -> bool:
    """Whether the graph of F_theta lies between the band's boundaries,
    decided exactly, with no grid and no tolerance: on each panel between the
    band's breakpoints and theta.mu, F_theta is 0 or live, and `_gaps` reads
    each piece minus F_theta where its sign is decided. Left of the first
    edge all three curves are constant. Reliability and marginal bands raise
    DomainError."""
    if not band.increasing or isinstance(band.lower, MarginalBoundary):
        raise DomainError("containment check expects a cdf band, not a reliability or marginal one")
    f = ExpCdfSegment(theta.mu, theta.sigma)
    return all(max(_gaps(p.lower, f, p.a, p.b)) <= 0.0 <= min(_gaps(p.upper, f, p.a, p.b))
               for p in _panels(band, (theta.mu,)))


def default_grid(band: Band, points: int = 1024) -> np.ndarray:
    """Default x-grid: from one fitted scale left of the fitted location to
    the last structural breakpoint, extended until the band width falls
    below 1e-6 (skipped where the width does not vanish at infinity)."""
    prov = band.provenance
    try:
        start = float(prov["mu_hat"]) - float(prov["sigma_hat"])
    except KeyError:
        start = min(band.breakpoints())
    end = max(band.breakpoints())
    end = max(end, start + 1e-6)
    if band.upper.limit_right() - band.lower.limit_right() <= 1e-6:
        step = max(end - start, 1.0)
        for _ in range(80):
            if band.width(end) < 1e-6:
                break
            end += step
            step *= 1.5
    return np.linspace(start, end, points)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SEGMENT_TAGS = {ExpCdfSegment: "expcdf", MinAreaEnvelopeSegment: "minarea_envelope"}


def _segment_to_dict(seg: Segment) -> dict:
    if type(seg) not in _SEGMENT_TAGS:
        raise DomainError(f"cannot serialize segment type {type(seg).__name__}")
    return {"type": _SEGMENT_TAGS[type(seg)], **dataclasses.asdict(seg)}


def _segment_from_dict(doc: dict) -> Segment:
    classes = {tag: cls for cls, tag in _SEGMENT_TAGS.items()}
    if doc.get("type") not in classes:
        raise DomainError(f"unknown segment type {doc.get('type')!r}")
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k != "type"}
    try:
        return classes[doc["type"]](**params)
    except TypeError as exc:
        raise DomainError(f"malformed segment document: {exc}") from exc


def _boundary_to_dict(boundary: Boundary) -> dict:
    if isinstance(boundary, PiecewiseBoundary):
        return {"segments": [_segment_to_dict(s) for s in boundary.segments],
                "breaks": list(boundary.breaks)}
    if isinstance(boundary, ReflectedBoundary):
        return {"transform": "reflect", "base": _boundary_to_dict(boundary.base)}
    if isinstance(boundary, MarginalBoundary):
        return {"transform": "marginal", "gammas": list(boundary.gammas),
                "base": _boundary_to_dict(boundary.base)}
    raise DomainError(f"cannot serialize boundary type {type(boundary).__name__}")


def _boundary_from_dict(doc: dict) -> Boundary:
    if "transform" in doc:
        base = _boundary_from_dict(doc["base"])
        if doc["transform"] == "reflect":
            return ReflectedBoundary(base)
        if doc["transform"] == "marginal":
            return MarginalBoundary(base, tuple(doc["gammas"]))
        raise DomainError(f"unknown boundary transform {doc['transform']!r}")
    return PiecewiseBoundary(
        segments=tuple(_segment_from_dict(s) for s in doc["segments"]),
        breaks=tuple(doc["breaks"]))


def band_to_dict(band: Band) -> dict:
    """JSON-ready description with kind, level, and all constants; the
    boundary representation round-trips to identical evaluations."""
    return {"kind": band.kind, "level": band.level, "increasing": band.increasing,
            "provenance": band.provenance,
            "lower": _boundary_to_dict(band.lower), "upper": _boundary_to_dict(band.upper)}


def band_from_dict(doc: dict) -> Band:
    try:
        return Band(kind=doc["kind"], lower=_boundary_from_dict(doc["lower"]),
                    upper=_boundary_from_dict(doc["upper"]), level=doc["level"],
                    provenance=dict(doc.get("provenance", {})),
                    increasing=bool(doc.get("increasing", True)))
    except (KeyError, TypeError) as exc:
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
    its exact coverage event event(est, scheme, level, constants, theta),
    which broadcasts over estimates held as arrays. Both read c_p (b3 also
    an optional nominal_p) or d_p from `constants`."""

    constant: str | None
    build: Callable[..., Region | Band]
    event: Callable[..., np.ndarray]


def _inside(region: str, hull: bool = False):
    # exhaustive regions and their bands cover exactly when the parameter
    # lies in the region; b3 when it lies in the region's convex hull
    def event(est, scheme, level, k, theta):
        built = METHODS[region].build(est, scheme, level, k)
        return (built.hull_contains if hull else built.contains)(theta.mu, theta.sigma)
    return event


def _ks_pivot(est, scheme, level, k, theta):
    # the KS-type bands cover exactly when the sup-distance pivot is within
    # d_p, that is when S = (mu_hat - mu)/sigma lies between the slopes at
    # T = sigma_hat/sigma; unlike build_c4, this holds for every d_p < 1
    lo, hi = ks_slopes(est.sigma_hat / theta.sigma, k["d_p"])
    s = (est.mu_hat - theta.mu) / theta.sigma
    return (lo <= s) & (s <= hi)


def _trimmed(trimmed: bool):
    return lambda est, sch, lv, k: band_b4_trimmed(est, k["d_p"], trimmed=trimmed, level=lv)


METHODS: dict[str, Method] = {
    "c1": Method(None, lambda est, sch, lv, k: build_c1(est, sch, 1.0 - lv), _inside("c1")),
    "c2": Method(None, lambda est, sch, lv, k: build_c2(est, sch, 1.0 - lv), _inside("c2")),
    "c3": Method("c_p", lambda est, sch, lv, k: build_c3(est, sch, k["c_p"]), _inside("c3")),
    "c4p": Method("d_p", lambda est, sch, lv, k: build_c4(est, k["d_p"]), _inside("c4p")),
    "c4pp": Method("d_p", lambda est, sch, lv, k: build_c4(est, k["d_p"], True),
                   _inside("c4pp")),
    "b1": Method(None, lambda est, sch, lv, k: band_b1(est, sch, 1.0 - lv), _inside("c1")),
    "b2": Method(None, lambda est, sch, lv, k: band_b2(est, sch, 1.0 - lv), _inside("c2")),
    "b3": Method("p_of_tau", lambda est, sch, lv, k: band_b3(
        est, sch, k["c_p"], nominal_p=k.get("nominal_p")), _inside("c3", hull=True)),
    "b4": Method("d_p", lambda est, sch, lv, k: band_b4(est, k["d_p"], level=lv), _ks_pivot),
    "b4p": Method("d_p", _trimmed(False), _ks_pivot),
    "b4pp": Method("d_p", _trimmed(True), _ks_pivot),
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
    registry's event on the region its builder returns for all replicates
    at once. The test suite checks each event against graph containment."""
    method, constants = method_constants(kind, c_p, d_p)
    return method.event(MleEstimate(mu_hats, sigma_hats), scheme, level, constants, theta)
