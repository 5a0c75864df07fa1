"""Band metrics (maximum width, area) and Monte-Carlo coverage experiments.

Both metrics walk the panels (`bands._panels`) of the unit band, which a
band reads at (x - loc)/scale: its maximum width is the band's, its argmax
x* is loc + scale x*, and its area times scale is the band's. Left of the
first breakpoint every piece is constant, so the width there is its left
limit and adds no area to a band of finite area. On every panel of a cdf
band the width is monotone or turns once, at the upper piece's `peak`: in
closed form for two exponential cdfs, one root find away against the
minimum-area envelope. Its integral is elementary (each piece's
`integral`), the right tail included. Only marginal bands are numeric: the
width is scanned at 65 points per panel (the right tail in the quantiles
of its last exponential piece, so the scan follows the data's scale), and
the two scan steps around each panel's best point are rescanned, one
vectorized width call a round, until every bracket is within 1e-10
relative. The area comes from one panel quadrature, except on the right
tail, whose area is a positive-term Poisson sum over the marginal
transform's uniformized chain. Infinite area is reported only on
structural grounds (the width does not vanish at infinity). Coverage
experiments read the method registry of `bands`; the exact method counts
each batch of pivots with the event's `covers`, which compares Z with each
piece of the interval's ends and combines booleans instead of selecting
values: on a 32,768-lane batch a select took about 107 us and a
comparison 6-9 us (see `regions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bands as _bands
from .bands import Band, ExpCdfSegment, _marginal_chain, _panels, _poisson_mix
from .errors import DomainError, NumericError
from .model import LocScale, MleEstimate, Scheme, check_replicates, map_pivots, simulate_mles
from .numerics import integrate_panels
from .special import check_probability

_WIDTH_FLOOR = 1e-12
_SCAN_POINTS = 65   # per marginal panel and scan: each rescan shrinks the bracket 32-fold
_SCAN_ROUNDS = 12   # scans per marginal panel, the first included, before NumericError
_SCAN_TOL = 1e-10   # a bracket ends within this times max(1, |lo| + |hi|)
_PLATEAU_ULPS = 4   # widths this close to the maximum count as attaining it


@dataclass(frozen=True)
class BandMetrics:
    max_width: float
    width_argmax: float
    area: float                      # math.inf for structurally unbounded bands
    quadrature_error_estimate: float  # 0.0 for every cdf band: only marginal areas are numeric


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


def _cdf_band(band: Band) -> Band:
    # the unit cdf band: metrics are invariant under the reliability
    # reflection, so undo it, and read the band at (loc, scale) = (0, 1)
    return replace(band, increasing=True, loc=0.0, scale=1.0)


# ---------------------------------------------------------------------------
# maximum width
# ---------------------------------------------------------------------------

def max_width(band: Band) -> tuple[float, float]:
    """Supremum of upper - lower and the x where it is attained; a limit at
    -inf or +inf is reported at a finite stand-in x, one breakpoint span
    beyond the outermost breakpoint. Where the width is flat at its maximum,
    the smallest x within a few ulps of it is reported, so that rounding of
    equal widths does not move the point along the plateau."""
    unit = _cdf_band(band)
    panels = _panels(unit)
    first, last = panels[0].a, panels[-1].a
    span = last - first
    candidates = [(unit.width(-math.inf), first - span), (unit.width(math.inf), last + span)]
    probes = [p.a for p in panels]
    if band.gammas is not None:
        # scan each panel, the right tail where its slower last piece's survival
        # falls by 2^(-k/4), then rescan the two steps around each best point
        xs = np.asarray([np.linspace(p.a, p.b, _SCAN_POINTS) if p.b < math.inf else
                         p.a + max(p.lower.scale, p.upper.scale) * (math.log(2.0) / 4.0)
                         * np.arange(_SCAN_POINTS) for p in panels])
        rows = np.arange(len(panels))
        for _ in range(_SCAN_ROUNDS):
            i = np.argmax(unit.width(xs), axis=1)
            probes += xs[rows, i].tolist()
            lo, hi = xs[rows, np.maximum(i - 1, 0)], xs[rows, np.minimum(i + 1, _SCAN_POINTS - 1)]
            if np.all(hi - lo <= _SCAN_TOL * np.maximum(1.0, np.abs(lo) + np.abs(hi))):
                break
            xs = np.linspace(lo, hi, _SCAN_POINTS, axis=1)
        else:
            raise NumericError(f"marginal width scan did not reach tol {_SCAN_TOL:.0e} "
                               f"in {_SCAN_ROUNDS} rounds")
    else:
        for p in panels:
            # the width is monotone unless both pieces are live, and then its
            # one stationary point or interior maximum is the only candidate
            x_star = p.upper.peak(p.lower, p.a, p.b)
            if x_star is not None and p.a < x_star < p.b:
                probes.append(x_star)
    candidates += zip(unit.width(np.asarray(probes, dtype=float)).tolist(), map(float, probes))
    top = max(w for w, _ in candidates)
    x = min(x for w, x in candidates if w >= top - _PLATEAU_ULPS * math.ulp(top))
    return top, band.loc + band.scale * x


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def _piece_integral(seg: _bands.Segment, a: float, b: float) -> float:
    # a piece on a panel is constant or live (`Segment.integral`)
    level = seg.constant(a, b)
    return seg.integral(a, b) if level is None else level * (b - a)


def _tail_area(tail: _bands._Panel, gammas) -> float:
    """Integral of the width over the right tail [a, inf), where both pieces
    are plain exponential cdfs past their locations, or their push-forwards
    by the marginal transform H with coefficients `gammas`. A piece (loc mu,
    scale sigma) contributes sigma E[(S - z)^+], z = (a - mu)/sigma, where S
    is the time of `bands._marginal_chain`, Exp(1) for a plain band (one
    coefficient 1): E[(S - z)^+] = (1/Lam) sum_k b_k P(Pois(Lam z) <= k), a
    sum of positive terms, taken here as sum_j Pois(j; Lam z) sum_{k>=j} b_k."""
    lo, up = tail.lower, tail.upper
    if not all(isinstance(s, ExpCdfSegment) and s.offset == 0.0 for s in (lo, up)):
        raise NumericError("tail is not an exponential pair; cannot integrate")
    lam, table = _marginal_chain(gammas or (1.0,))
    z = np.array([(tail.a - lo.loc) / lo.scale, (tail.a - up.loc) / up.scale])
    e_l, e_u = _poisson_mix(lam * z, np.cumsum(table[::-1, 1])[::-1, None])[:, 0] / lam
    return float(lo.scale * e_l - up.scale * e_u)


def area(band: Band, abs_tol: float = 1e-9) -> tuple[float, float]:
    """Integral of the band width over the whole real line; returns (area,
    error estimate), the unit band's integrated to abs_tol/scale. Structurally
    unbounded bands (width not vanishing at infinity) report math.inf."""
    unit = _cdf_band(band)
    if unit.width(-math.inf) > _WIDTH_FLOOR or unit.width(math.inf) > _WIDTH_FLOOR:
        return math.inf, 0.0
    *panels, tail = _panels(unit)
    total = err = 0.0
    if unit.gammas is None:
        for p in panels:
            total += _piece_integral(p.upper, p.a, p.b)
            total -= _piece_integral(p.lower, p.a, p.b)
    elif panels:   # a marginal band: one quadrature over its finite panels
        edges = [p.a for p in panels] + [tail.a]
        total, err = integrate_panels(unit.width, edges, abs_tol=abs_tol / band.scale)
    return band.scale * (total + _tail_area(tail, unit.gammas)), band.scale * err


def band_metrics(band: Band) -> BandMetrics:
    w, argx = max_width(band)
    a, err = area(band)
    return BandMetrics(max_width=w, width_argmax=argx, area=a,
                       quadrature_error_estimate=err)


# ---------------------------------------------------------------------------
# coverage experiments
# ---------------------------------------------------------------------------

def coverage_experiment(kind: str, theta: LocScale, scheme: Scheme, level: float,
                        replicates: int, seed: int, *, c_p: float | None = None,
                        d_p: float | None = None, method: str = "exact") -> CoverageReport:
    """Simulate samples, rebuild the object per replicate, and report the
    frequency of covering the true parameter (regions) or the true cdf graph
    (bands); deterministic in (seed, replicates).

    method "exact" builds the registry's coverage event once, an interval
    of the pivots that does not depend on theta, and counts where it holds
    (`Event.covers`) in each batch as `model.map_pivots` draws it; method
    "grid" (a name the benchmark passes) builds each replicate's region or
    band and checks region membership or `bands.graph_contained`, an
    independent exact decision.
    """
    entry, constants = _bands.method_constants(kind, c_p, d_p)
    level = check_probability(level, "level", open_interval=True)
    check_replicates(replicates)
    if method not in ("exact", "grid"):
        raise DomainError(f"unknown coverage method {method!r}")
    if method == "exact":
        covers = entry.event(scheme, level, constants).covers
        hits = sum(map_pivots(scheme.m, replicates, seed,
                              lambda batch, z, t: int(np.count_nonzero(covers(z, t)))))
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
