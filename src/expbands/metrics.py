"""Band metrics (maximum width, area) and Monte-Carlo coverage experiments.

Width maximization and area integration split the x-axis at every boundary
breakpoint so each panel has a fixed analytic character: exponential-cdf
pairs get closed-form stationary points and integrals, and the
minimum-area envelope panel falls back to a scan, refined by one
vectorized golden-section search over all such panels, and to adaptive
quadrature. Tails beyond the outermost breakpoints are handled in closed
form, so a band is reported as having infinite area only on structural
grounds (its width does not vanish at infinity), never through numeric
divergence. Coverage experiments read the method registry of `bands`; the
exact method counts each task's coverage events where `model.map_pivots`
draws them, so no replicate-length array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bands as _bands
from .bands import (
    Band,
    ExpCdfSegment,
    MarginalBoundary,
    PiecewiseBoundary,
    _plain_exp,
    reliability_band,
)
from .errors import DomainError, NumericError
from .model import (LocScale, MleEstimate, Scheme, check_replicates, map_pivots,
                    mles_from_pivots, simulate_mles)
from .numerics import golden_section, integrate
from .special import check_probability

_WIDTH_FLOOR = 1e-12
# replicate batches per exact coverage task: 131,072 replicates amortize the
# per-call cost of the registry's events, while the one-batch tasks of the
# array-filling samplers keep the worker threads' temporary arrays small
_COVERAGE_TASK_BATCHES = 32


@dataclass(frozen=True)
class BandMetrics:
    max_width: float
    width_argmax: float
    area: float                      # math.inf for structurally unbounded bands
    quadrature_error_estimate: float


@dataclass(frozen=True)
class CoverageReport:
    band_kind: str
    nominal_level: float
    replicates: int
    coverage: float
    std_error: float
    seed: int
    theta: tuple[float, float]
    constants: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# panel helpers
# ---------------------------------------------------------------------------

def _segment_at(boundary: PiecewiseBoundary, x: float):
    idx = int(np.searchsorted(boundary.breaks, x, side="right"))
    return boundary.segments[idx]


def _panel_edges(band: Band) -> list[float]:
    pts = sorted(set(band.breakpoints()))
    if not pts:
        raise NumericError("band has no breakpoints to anchor panels")
    return pts


def _exp_state(seg: ExpCdfSegment, a: float, b: float) -> str:
    """Clip state of an offset exponential segment on a kink-free panel."""
    mid = 0.5 * (a + b)
    val = float(seg.evaluate(np.asarray(mid)))
    if val <= 0.0:
        return "zero"
    if val >= 1.0:
        return "one"
    if mid < seg.loc:
        return "const"   # flat at clip(offset) left of the location
    return "live"


def _stationary_point(lo: ExpCdfSegment, up: ExpCdfSegment) -> float | None:
    """Interior stationary point of (up - lo) when both are live exponential
    pieces; None when the difference is monotone."""
    s_l, s_u = lo.scale, up.scale
    if s_l == s_u:
        return None
    num = math.log(s_l / s_u) + up.loc / s_u - lo.loc / s_l
    den = 1.0 / s_u - 1.0 / s_l
    return num / den


# ---------------------------------------------------------------------------
# maximum width
# ---------------------------------------------------------------------------

def max_width(band: Band) -> tuple[float, float]:
    """Supremum of upper - lower and the x where it is attained."""
    # metrics are invariant under the reliability reflection: undo it
    band = band if band.increasing else reliability_band(band)
    if isinstance(band.lower, MarginalBoundary) or isinstance(band.upper, MarginalBoundary):
        return _max_width_generic(band)
    edges = _panel_edges(band)
    span = max(edges[-1] - edges[0], 1.0)
    candidates: list[tuple[float, float]] = []

    def consider(x: float):
        candidates.append((float(band.width(x)), float(x)))

    for x in edges:
        consider(x)

    # structural limits at +-inf
    wl = band.upper.limit_left() - band.lower.limit_left()
    wr = band.upper.limit_right() - band.lower.limit_right()
    candidates.append((wl, edges[0] - span))
    candidates.append((wr, edges[-1] + span))

    panels = ([(edges[0] - 2.0 * span, edges[0])]
              + list(zip(edges, edges[1:]))
              + [(edges[-1], edges[-1] + 4.0 * span)])
    brackets: list[tuple[float, float]] = []   # scan maxima to refine
    for a, b in panels:
        lo_seg = _segment_at(band.lower, 0.5 * (a + b))
        up_seg = _segment_at(band.upper, 0.5 * (a + b))
        analytic = (isinstance(lo_seg, ExpCdfSegment) and isinstance(up_seg, ExpCdfSegment)
                    and _exp_state(lo_seg, a, b) == "live" and _exp_state(up_seg, a, b) == "live")
        if analytic:
            x_star = _stationary_point(lo_seg, up_seg)
            if x_star is not None and a < x_star < b:
                consider(x_star)
            continue
        xs = np.linspace(a, b, 65)
        w = band.width(xs)
        i = int(np.argmax(w))
        consider(xs[i])
        left = xs[max(i - 1, 0)]
        right = xs[min(i + 1, len(xs) - 1)]
        if right > left:
            brackets.append((left, right))
    if brackets:
        lo, hi = np.asarray(brackets).T
        x_ref, _ = golden_section(band.width, lo, hi, maximize=True)
        for x in x_ref:
            consider(x)

    best_w, best_x = max(candidates)
    return best_w, best_x


def _max_width_generic(band: Band) -> tuple[float, float]:
    edges = _panel_edges(band)
    span = max(edges[-1] - edges[0], 1.0)
    xs = np.linspace(edges[0] - span, edges[-1] + 2.0 * span, 8193)
    xs = np.sort(np.concatenate([xs, np.asarray(edges)]))
    w = band.width(xs)
    i = int(np.argmax(w))
    left, right = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    x_ref, w_ref = golden_section(band.width, left, right, maximize=True)
    if w_ref >= w[i]:
        return float(w_ref), float(x_ref)
    return float(w[i]), float(xs[i])


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def _segment_integral(seg, a: float, b: float,
                      abs_tol: float = 1e-9) -> tuple[float, float]:
    """Integral of one boundary segment over [a, b] (no kinks inside);
    returns (value, error estimate)."""
    if isinstance(seg, ExpCdfSegment):
        state = _exp_state(seg, a, b)
        if state == "zero":
            return 0.0, 0.0
        if state == "one":
            return b - a, 0.0
        if state == "const":
            return float(seg.evaluate(np.asarray(0.5 * (a + b)))) * (b - a), 0.0
        off = min(max(seg.offset, -1.0), 1.0)
        return _exp_integral(seg, b) - _exp_integral(seg, a) + off * (b - a), 0.0
    # the minimum-area envelope
    return integrate(lambda x: float(seg.evaluate(np.asarray(x))), a, b, abs_tol=abs_tol)


def _exp_integral(seg: ExpCdfSegment, x: float) -> float:
    """Integral of the unclipped exponential cdf of `seg` over (-inf, x]."""
    if x <= seg.loc:
        return 0.0
    z = (x - seg.loc) / seg.scale
    return (x - seg.loc) + seg.scale * (math.exp(-z) - 1.0)


def _tail_pair(band: Band, end: int) -> tuple[ExpCdfSegment, ExpCdfSegment]:
    """(lower, upper) outermost segments, left (end 0) or right (end -1), of
    the band or of a marginal band's base; both must be plain exponential
    cdfs."""
    lower, upper = band.lower, band.upper
    if isinstance(lower, MarginalBoundary):
        lower, upper = lower.base, upper.base
    lo, up = lower.segments[end], upper.segments[end]
    if not (_plain_exp(lo) and _plain_exp(up)):
        raise NumericError("tail is not an exponential pair; cannot integrate")
    return lo, up


def _mixture_integral(gammas, seg: ExpCdfSegment, x: float, upper_tail: bool = False) -> float:
    """Integral of H(F_seg) over (-inf, x], or of 1 - H(F_seg) over [x, inf)
    with `upper_tail`: the marginal transform H of an exponential cdf is a
    signed mixture of exponentials, so both are closed-form."""
    g, sign, log_coef = _bands.marginal_mixture(gammas)
    terms = sign * np.exp(log_coef) * (seg.scale / g)
    z = (x - seg.loc) / seg.scale
    if upper_tail:
        return float(np.sum(terms * np.exp(-g * z)))
    if x <= seg.loc:
        return 0.0
    return float((x - seg.loc) - np.sum(terms * (1.0 - np.exp(-g * z))))


def _left_tail_area(band: Band, b: float) -> tuple[float, float]:
    lo, up = _tail_pair(band, 0)
    if isinstance(band.lower, MarginalBoundary):
        g = band.lower.gammas
        return _mixture_integral(g, up, b) - _mixture_integral(g, lo, b), 0.0
    return _exp_integral(up, b) - _exp_integral(lo, b), 0.0


def _right_tail_area(band: Band, a: float) -> tuple[float, float]:
    lo, up = _tail_pair(band, -1)
    if isinstance(band.lower, MarginalBoundary):
        g = band.lower.gammas
        return (_mixture_integral(g, lo, a, upper_tail=True)
                - _mixture_integral(g, up, a, upper_tail=True)), 0.0
    if a < lo.loc or a < up.loc:
        raise NumericError("tail start precedes a boundary location")
    val = (lo.scale * math.exp(-(a - lo.loc) / lo.scale)
           - up.scale * math.exp(-(a - up.loc) / up.scale))
    return val, 0.0


def area(band: Band, abs_tol: float = 1e-9) -> tuple[float, float]:
    """Integral of the band width over the whole real line; returns
    (area, error estimate). Structurally unbounded bands (width not
    vanishing at infinity) report math.inf."""
    band = band if band.increasing else reliability_band(band)
    wl = band.upper.limit_left() - band.lower.limit_left()
    wr = band.upper.limit_right() - band.lower.limit_right()
    if wl > _WIDTH_FLOOR or wr > _WIDTH_FLOOR:
        return math.inf, 0.0
    edges = _panel_edges(band)
    total, err = _left_tail_area(band, edges[0])
    for a, b in zip(edges, edges[1:]):
        for boundary, sgn in ((band.upper, 1.0), (band.lower, -1.0)):
            if isinstance(boundary, MarginalBoundary):
                v, e = _marginal_panel_integral(boundary, a, b, abs_tol)
            else:
                seg = _segment_at(boundary, 0.5 * (a + b))
                v, e = _segment_integral(seg, a, b, abs_tol=abs_tol)
            total += sgn * v
            err += e
    tail, tail_err = _right_tail_area(band, edges[-1])
    return total + tail, err + tail_err


def _marginal_panel_integral(boundary: MarginalBoundary, a: float, b: float,
                             abs_tol: float) -> tuple[float, float]:
    seg = _segment_at(boundary.base, 0.5 * (a + b))
    if _plain_exp(seg):
        g = boundary.gammas
        return _mixture_integral(g, seg, b) - _mixture_integral(g, seg, a), 0.0
    return integrate(lambda x: float(boundary(x)), a, b,
                     abs_tol=max(abs_tol, 1e-8), limit=2000)


def band_metrics(band: Band) -> BandMetrics:
    w, argx = max_width(band)
    a, err = area(band)
    return BandMetrics(max_width=w, width_argmax=argx, area=a,
                       quadrature_error_estimate=err)


# ---------------------------------------------------------------------------
# coverage experiments
# ---------------------------------------------------------------------------

COVERAGE_KINDS = tuple(_bands.METHODS)


def coverage_experiment(kind: str, theta: LocScale, scheme: Scheme, level: float,
                        replicates: int, seed: int, *, c_p: float | None = None,
                        d_p: float | None = None, method: str = "exact") -> CoverageReport:
    """Simulate samples, rebuild the object per replicate, and report the
    frequency of covering the true parameter (regions) or the true cdf graph
    (bands); deterministic in (seed, replicates).

    method "exact" uses the registry's closed-form coverage events (region
    membership, hull membership, sup-distance pivot); method "grid" builds
    each replicate's region or band through the registry and checks region
    membership or graph containment on a grid, as an independent cross-check.
    """
    entry, constants = _bands.method_constants(kind, c_p, d_p)
    level = check_probability(level, "level", open_interval=True)
    check_replicates(replicates)
    if method not in ("exact", "grid"):
        raise DomainError(f"unknown coverage method {method!r}")
    if method == "exact":
        def count(batch: slice, z: np.ndarray, t: np.ndarray) -> int:
            mu_hats, sigma_hats = mles_from_pivots(theta, scheme, z, t)
            return int(np.count_nonzero(_bands.coverage_indicator(
                kind, mu_hats, sigma_hats, theta, scheme, level=level, **constants)))

        hits = sum(map_pivots(scheme.m, replicates, seed, count, _COVERAGE_TASK_BATCHES))
    else:
        mu_hats, sigma_hats = simulate_mles(theta, scheme, replicates, seed)
        hits = 0
        for mh, sh in zip(mu_hats, sigma_hats):
            built = entry.build(MleEstimate(float(mh), float(sh)), scheme, level, constants)
            if isinstance(built, Band):
                hits += _bands.graph_contained(built, theta)
            else:
                hits += bool(built.contains(theta.mu, theta.sigma))
    cov = hits / replicates
    se = math.sqrt(max(cov * (1.0 - cov), 1e-12) / replicates)
    return CoverageReport(band_kind=kind, nominal_level=level, replicates=replicates,
                          coverage=cov, std_error=se, seed=seed,
                          theta=(theta.mu, theta.sigma), constants=constants)
