"""Band metrics (maximum width, area) and Monte-Carlo coverage experiments.

Both metrics walk the band's panels (`bands._panels`). Left of the first
breakpoint every piece is constant, so the width there is its left limit
and adds no area to a band of finite area. Where both pieces are
exponential cdfs the width is monotone or has one stationary point and its
integral is elementary, so both metrics are closed form there, the right
tail included. Panels holding the minimum-area envelope or a marginal
boundary are numeric: the width is scanned, then refined by one vectorized
golden-section search (the marginal right tail is scanned in the quantiles
of its last exponential piece, so the scan follows the data's scale), and
the area comes from panel quadrature, except on the marginal right tail, a
signed mixture of exponentials. Infinite area is reported only on
structural grounds (the width does not vanish at infinity). Coverage
experiments read the method registry of `bands`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bands as _bands
from .bands import (
    Band,
    ExpCdfSegment,
    _constant,
    _panels,
    _stationary_point,
    reliability_band,
)
from .errors import DomainError, NumericError
from .model import (LocScale, MleEstimate, Scheme, check_replicates, map_pivots,
                    mles_from_pivots, simulate_mles)
from .numerics import golden_section, integrate_panels
from .special import check_probability

_WIDTH_FLOOR = 1e-12
_SCAN_POINTS = 65   # per numeric panel, before the golden-section refinement
_PLATEAU_ULPS = 4   # widths this close to the maximum count as attaining it


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


def _cdf_band(band: Band) -> Band:
    # metrics are invariant under the reliability reflection: undo it
    return band if band.increasing else reliability_band(band)


# ---------------------------------------------------------------------------
# maximum width
# ---------------------------------------------------------------------------

def max_width(band: Band) -> tuple[float, float]:
    """Supremum of upper - lower and the x where it is attained; a limit at
    -inf or +inf is reported at a finite stand-in x, one breakpoint span
    beyond the outermost breakpoint. Where the width is flat at its maximum,
    the smallest x within a few ulps of it is reported, so that rounding of
    equal widths does not move the point along the plateau."""
    band = _cdf_band(band)
    panels = _panels(band)
    first, last = panels[0].a, panels[-1].a
    span = last - first
    candidates = [(band.upper.limit_left() - band.lower.limit_left(), first - span),
                  (band.upper.limit_right() - band.lower.limit_right(), last + span)]
    probes = [p.a for p in panels]
    scans = []
    for p in panels:
        if not p.numeric:
            # the width is monotone unless both pieces are live, and then
            # its one stationary point is the only interior candidate
            x_star = _stationary_point(p.lower, p.upper)
            if x_star is not None and p.a < x_star < p.b:
                probes.append(x_star)
        elif p.b < math.inf:
            scans.append(np.linspace(p.a, p.b, _SCAN_POINTS))
        else:
            # where the slower last piece's survival falls by 2^(-k/4)
            scale = max(p.lower.scale, p.upper.scale)
            scans.append(p.a + scale * (math.log(2.0) / 4.0) * np.arange(_SCAN_POINTS))
    if scans:
        xs = np.asarray(scans)
        i = np.argmax(band.width(xs), axis=1)
        rows = np.arange(len(scans))
        probes.extend(xs[rows, i])
        x_ref, _ = golden_section(band.width, xs[rows, np.maximum(i - 1, 0)],
                                  xs[rows, np.minimum(i + 1, _SCAN_POINTS - 1)], maximize=True)
        probes.extend(x_ref)
    candidates += ((float(band.width(x)), float(x)) for x in probes)
    top = max(w for w, _ in candidates)
    return top, min(x for w, x in candidates if w >= top - _PLATEAU_ULPS * math.ulp(top))


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def _piece_integral(seg: ExpCdfSegment, a: float, b: float) -> float:
    """Integral of one exponential piece over a panel [a, b], on which it is
    constant (left of its location, or clipped) or live."""
    level = _constant(seg, a, b)
    if level is not None:
        return level * (b - a)
    z_a, z_b = (a - seg.loc) / seg.scale, (b - seg.loc) / seg.scale
    return (1.0 + seg.offset) * (b - a) - seg.scale * (math.exp(-z_a) - math.exp(-z_b))


def _tail_area(tail: _bands._Panel, gammas) -> tuple[float, float]:
    """Integral of the width over the right tail [a, inf), where both pieces
    are plain exponential cdfs past their locations, or their push-forwards
    by the marginal transform H with coefficients `gammas`; returns (value,
    error bound). 1 - H(y) is a signed mixture of powers of 1 - y (see
    `bands.marginal_mixture`), so both are closed form; the mixture's
    cancellation is summed in extended precision, and its rounding bound is
    the error bound."""
    lo, up = tail.lower, tail.upper
    if not all(isinstance(s, ExpCdfSegment) and s.offset == 0.0 for s in (lo, up)):
        raise NumericError("tail is not an exponential pair; cannot integrate")
    z_l, z_u = (tail.a - lo.loc) / lo.scale, (tail.a - up.loc) / up.scale
    if gammas is None:
        return lo.scale * math.exp(-z_l) - up.scale * math.exp(-z_u), 0.0
    g, sign, log_coef = (v.astype(np.longdouble) for v in _bands.marginal_mixture(gammas))
    terms = sign * np.exp(log_coef) / g * (lo.scale * np.exp(-g * z_l) - up.scale * np.exp(-g * z_u))
    return float(terms.sum()), float(g.size * np.finfo(np.longdouble).eps * np.abs(terms).sum())


def area(band: Band, abs_tol: float = 1e-9) -> tuple[float, float]:
    """Integral of the band width over the whole real line; returns
    (area, error estimate). Structurally unbounded bands (width not
    vanishing at infinity) report math.inf."""
    band = _cdf_band(band)
    wl = band.upper.limit_left() - band.lower.limit_left()
    wr = band.upper.limit_right() - band.lower.limit_right()
    if wl > _WIDTH_FLOOR or wr > _WIDTH_FLOOR:
        return math.inf, 0.0
    *panels, tail = _panels(band)
    total = err = 0.0
    runs: list[list[float]] = []   # edges of each run of adjacent numeric panels
    for p in panels:
        if not p.numeric:
            total += _piece_integral(p.upper, p.a, p.b)
            total -= _piece_integral(p.lower, p.a, p.b)
        elif runs and runs[-1][-1] == p.a:
            runs[-1].append(p.b)
        else:
            runs.append([p.a, p.b])
    for run in runs:
        v, e = integrate_panels(band.width, run, abs_tol=abs_tol / len(runs))
        total += v
        err += e
    v, e = _tail_area(tail, getattr(band.lower, "gammas", None))
    if e > abs_tol:
        raise NumericError(f"marginal tail mixture cancels: rounding bound {e:.1e} "
                           f"above tol {abs_tol:.1e}")
    return total + v, err + e


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

    method "exact" counts the registry's closed-form coverage events (region
    membership, hull membership, sup-distance pivot) of each batch as
    `model.map_pivots` draws it; method "grid" (a name the benchmark passes)
    builds each replicate's region or band and checks region membership or
    `bands.graph_contained`, an independent exact decision.
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

        hits = sum(map_pivots(scheme.m, replicates, seed, count))
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
