"""Shared numerical kernels: adaptive Gauss-Kronrod (G7/K15) quadrature and
Brent's bracketed root finder.

`integrate_panels` is the production quadrature: it integrates a
vectorized integrand on all live panels at once and halves each panel
until its share of the absolute tolerance is met. The scalar `integrate`
bisects the interval with the largest error estimate instead; it is kept
only as the reference kernel of `regions.comprehensive_convex_hull_delta_prob`
and of the test oracles. Non-convergence raises NumericError with
diagnostics instead of returning a silently bad value. The same holds for
the root finder: it meets its bracket tolerance or raises.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from .errors import NumericError

# 15-point Kronrod nodes on [-1, 1] with Kronrod weights, and the embedded
# 7-point Gauss weights (zero where the node is Kronrod-only).
_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_WK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_WG = (
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
)
_EPS = 2.220446049250313e-16
_BISECTIONS = 400


def _kronrod_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kron = 0.0
    for xi, wk, wg in zip(_NODES, _WK, _WG):
        fx = f(mid + half * xi)
        kron += wk * fx
        gauss += wg * fx
    kron *= half
    gauss *= half
    err = (200.0 * abs(kron - gauss)) ** 1.5
    return kron, err


def integrate_panels(f: Callable[[np.ndarray], np.ndarray], edges,
                     abs_tol: float = 1e-11, max_panels: int = 4096) -> tuple[float, float]:
    """Integrate a vectorized f over [edges[0], edges[-1]] with one G7/K15
    rule per panel between consecutive edges; returns (value, error
    estimate).

    Every round evaluates f once, on the nodes of all live panels together,
    accepts each panel whose error estimate is within its share of abs_tol
    (the share halves with each split, so the accepted estimates sum to at
    most abs_tol) and halves the rest. Place the edges at the integrand's
    kinks so that each panel is smooth. Raises NumericError once more than
    `max_panels` panels are live.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) < 0):
        raise NumericError(f"need at least two finite, nondecreasing edges, got {edges}")
    lo, hi = edges[:-1], edges[1:]
    nodes, wk, wg = np.asarray(_NODES), np.asarray(_WK), np.asarray(_WG)
    share = abs_tol / lo.size
    value = error = 0.0
    while lo.size:
        if lo.size > max_panels:
            raise NumericError(
                f"panel quadrature did not converge on [{edges[0]}, {edges[-1]}]: "
                f"{lo.size} panels above tolerance (tol {abs_tol:.1e})")
        half = 0.5 * (hi - lo)
        fx = f((0.5 * (lo + hi))[:, None] + half[:, None] * nodes)
        kron = half * (fx @ wk)
        err = (200.0 * np.abs(kron - half * (fx @ wg))) ** 1.5
        done = err <= share
        value += kron[done].sum()
        error += float(err[done].sum())
        lo, hi = lo[~done], hi[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        share *= 0.5
    return float(value), error


def integrate(f: Callable[[float], float], a: float, b: float,
              abs_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate f over [a, b]; returns (value, error estimate).

    Raises NumericError if 400 panel bisections do not reach abs_tol.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericError(f"integration bounds must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    val, err = _kronrod_panel(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_err = err
    total_val = val
    for _ in range(_BISECTIONS):
        if total_err <= abs_tol:
            return total_val, total_err
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _kronrod_panel(f, lo, mid)
        v2, e2 = _kronrod_panel(f, mid, hi)
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    if total_err <= abs_tol:
        return total_val, total_err
    raise NumericError(
        f"quadrature did not converge on [{a}, {b}]: "
        f"error {total_err:.3e} after {_BISECTIONS} bisections (tol {abs_tol:.1e})")


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float = 1e-13, max_iter: int = 100) -> float:
    """Root of f on a bracketing interval [a, b] by Brent's method (inverse
    quadratic interpolation and secant steps, safeguarded by bisection).

    Stops once the bracket is within xtol plus a few ulps of the iterate;
    raises NumericError if the root is not bracketed or `max_iter`
    evaluations do not get there.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise NumericError(f"root not bracketed on [{a}, {b}]: f(a)={fa:.3e}, f(b)={fb:.3e}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 4.0 * _EPS * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise NumericError(
        f"Brent iteration did not converge: bracket [{b}, {c}] after {max_iter} "
        f"evaluations (xtol {xtol:.1e})")
