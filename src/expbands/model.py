"""Progressively type-II censored experiments under the two-parameter
exponential model: schemes and their risk-set coefficients, maximum
likelihood and UMVU estimation, sample simulation, the threaded pivot
sampler every Monte-Carlo draw comes from (`map_pivots`), and the identity
and log data transforms (the log one reduces Pareto data to this model).
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DegenerateSampleError,
    DomainError,
    InvalidSchemeError,
    InvalidTransformError,
    ParseError,
)
from .streams import BATCH_SIZE, batch_generator


@dataclass(frozen=True)
class CensoringScheme:
    """Design of a progressively type-II censored life test.

    n units start on test; at the j-th observed failure, removals[j-1] intact
    units are withdrawn, and the test stops after m observed failures. The
    derived coefficients gamma_j = sum_{i>=j} (removals[i] + 1) are the
    effective risk-set weights; gamma_1 equals n.
    """

    n: int
    m: int
    removals: tuple[int, ...]

    def __post_init__(self):
        if int(self.m) != self.m or int(self.n) != self.n:
            raise InvalidSchemeError("n and m must be integers")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "removals", tuple(int(r) for r in self.removals))
        if not 1 < self.m <= self.n:
            raise InvalidSchemeError(f"need 1 < m <= n, got m={self.m}, n={self.n}")
        if len(self.removals) != self.m:
            raise InvalidSchemeError(
                f"removal vector has length {len(self.removals)}, expected m={self.m}")
        if any(r < 0 for r in self.removals):
            raise InvalidSchemeError("removal counts must be nonnegative")
        if sum(self.removals) != self.n - self.m:
            raise InvalidSchemeError(
                f"removals sum to {sum(self.removals)}, expected n - m = {self.n - self.m}")

    @classmethod
    def complete(cls, n: int) -> "CensoringScheme":
        """Complete sample: every unit observed to failure."""
        return cls(n, n, (0,) * n)

    @classmethod
    def type2_right(cls, n: int, m: int) -> "CensoringScheme":
        """Conventional type-II right censoring: all withdrawals at the end."""
        return cls(n, m, (0,) * (m - 1) + (n - m,))

    @property
    def gammas(self) -> tuple[float, ...]:
        out = []
        acc = 0
        for r in reversed(self.removals):
            acc += r + 1
            out.append(float(acc))
        return tuple(reversed(out))

    @property
    def effective_n(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class GeneralizedScheme:
    """Ordered-data model given directly by positive risk-set coefficients.

    Covers sequential order statistics, where gamma_j = (n-j+1) * alpha_j for
    hazard factors alpha_j; only the gamma vector matters downstream.
    """

    gamma: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if len(self.gamma) < 2:
            raise InvalidSchemeError("need at least two coefficients (m > 1)")
        if any(not g > 0 for g in self.gamma):
            raise InvalidSchemeError("all gamma coefficients must be positive")

    @property
    def m(self) -> int:
        return len(self.gamma)

    @property
    def gammas(self) -> tuple[float, ...]:
        return self.gamma

    @property
    def effective_n(self) -> float:
        # the first coefficient plays the role of n in every pivot law
        return self.gamma[0]


Scheme = CensoringScheme | GeneralizedScheme


def _std_cdf(z):
    # the standard exponential cdf, 0 below 0
    return -np.expm1(-np.maximum(z, 0.0))


@dataclass(frozen=True)
class LocScale:
    """Location-scale parameter point (mu, sigma), sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.sigma > 0 or not math.isfinite(self.sigma) or not math.isfinite(self.mu):
            raise DomainError(f"need finite mu and sigma > 0, got ({self.mu}, {self.sigma})")

    def cdf(self, x):
        """Exponential location-scale cdf at x (vectorized)."""
        out = _std_cdf((np.asarray(x, dtype=float) - self.mu) / self.sigma)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MleEstimate:
    """Maximum likelihood estimate (mu_hat, sigma_hat): floats, or arrays of
    replicate estimates for the vectorized coverage events."""

    mu_hat: float
    sigma_hat: float

    def __post_init__(self):
        if not np.all(np.asarray(self.sigma_hat) > 0):
            raise DegenerateSampleError(
                f"sigma_hat must be positive, got {self.sigma_hat}")


@dataclass(frozen=True)
class ProgressiveSample:
    """Ordered observed failure times under a scheme."""

    scheme: Scheme
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not all(math.isfinite(v) for v in self.x):
            raise DomainError(f"failure times must be finite, got {self.x}")
        if len(self.x) != self.scheme.m:
            raise DomainError(
                f"sample has {len(self.x)} observations, scheme expects m={self.scheme.m}")
        if any(b < a for a, b in zip(self.x, self.x[1:])):
            raise DomainError("failure times must be nondecreasing")


def mle(sample: ProgressiveSample) -> MleEstimate:
    """MLE of (mu, sigma): the first failure time and the mean of the
    gamma-weighted spacings; DegenerateSampleError unless 0 < sigma_hat < inf."""
    g = sample.scheme.gammas
    m = sample.scheme.m
    x = sample.x
    total = 0.0
    for j in range(1, m):
        total += g[j] * (x[j] - x[j - 1])
    sigma_hat = total / m
    if not 0.0 < sigma_hat < math.inf:
        raise DegenerateSampleError(f"scale estimate is {sigma_hat}: all failure times are "
                                    "equal, or their weighted spacings overflow")
    return MleEstimate(mu_hat=x[0], sigma_hat=sigma_hat)


def umvue(est: MleEstimate, scheme: Scheme) -> tuple[float, float]:
    """UMVU estimates (mu_tilde, sigma_tilde) from the MLE."""
    m = scheme.m
    sigma_tilde = m * est.sigma_hat / (m - 1)
    mu_tilde = est.mu_hat - sigma_tilde / scheme.effective_n
    return mu_tilde, sigma_tilde


def simulate_sample(theta: LocScale, scheme: Scheme,
                    rng: np.random.Generator) -> ProgressiveSample:
    """Draw one sample via the normalized-spacings construction:
    X_j = mu + sigma * sum_{i<=j} E_i / gamma_i with E_i iid standard
    exponential, which is sorted by construction."""
    g = np.asarray(scheme.gammas)
    e = rng.standard_exponential(scheme.m)
    x = theta.mu + theta.sigma * np.cumsum(e / g)
    return ProgressiveSample(scheme=scheme, x=tuple(x))


def check_replicates(reps: int) -> int:
    """A replicate count, which must be at least 1; DomainError otherwise."""
    if reps < 1:
        raise DomainError(f"need reps >= 1, got {reps}")
    return reps


def map_pivots(m: int, reps: int, seed: int, fn: Callable) -> list:
    """Apply fn(slice, z, t) to draws of the independent pivots
    Z = n(mu_hat - mu)/sigma ~ Exp(1) and T = sigma_hat/sigma ~ Gamma(m-1)/m
    for replicates 0..reps-1, one call per batch of at most BATCH_SIZE
    consecutive replicates; returns the results in replicate order. Each
    batch is one task on a thread pool shared by every call (a lone batch
    runs on the calling thread).

    A batch of `count` replicates draws its Z in one `standard_exponential`
    call on its SFC64 Z stream and its T in one `standard_gamma(m - 1)` call
    on its T stream, divided by m in place (`streams`); nothing beyond `count`
    is drawn. Every draw is therefore a function of (seed, replicate) alone:
    a longer run extends a shorter one replicate for replicate, and neither
    the number of workers nor the schedule changes a value. `fn` runs on
    worker threads, so it may only write to the slice of a shared array it
    is given, and it must not call map_pivots itself. An exception raised in
    `fn` reaches the caller.
    """
    check_replicates(reps)

    def task(first: int):
        count = min(BATCH_SIZE, reps - first)
        z = batch_generator(seed, first // BATCH_SIZE, 0).standard_exponential(count)
        t = batch_generator(seed, first // BATCH_SIZE, 1).standard_gamma(m - 1.0, count)
        t /= m
        return fn(slice(first, first + count), z, t)

    if reps <= BATCH_SIZE:
        return [task(0)]
    return list(_pool().map(task, range(0, reps, BATCH_SIZE)))


_POOL: tuple[int, object] | None = None   # (creating process id, executor)
_POOL_LOCK = threading.Lock()


def _pool():
    """The worker pool of `map_pivots`, one thread per usable CPU, created
    on first use in each process: a forked child inherits the pool but not
    its threads. numpy's generators and large ufunc loops release the GIL.
    concurrent.futures is imported here, not at module import, because
    every command-line call that draws nothing would pay for it."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:   # no affinity call on this platform
                cpus = os.cpu_count() or 1
            _POOL = (os.getpid(), ThreadPoolExecutor(cpus, thread_name_prefix="expbands-pivots"))
        return _POOL[1]


def simulate_mles(theta: LocScale, scheme: Scheme, replicates: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """MLE vectors of `replicates` simulated samples, mu_hat = mu + sigma Z/n
    and sigma_hat = sigma T at the pivots of `map_pivots`: the law of
    `mle(simulate_sample(...))` for any risk-set coefficients."""
    mu_hats = np.empty(check_replicates(replicates))
    sigma_hats = np.empty(replicates)

    def fill(batch: slice, z: np.ndarray, t: np.ndarray) -> None:
        mu_hats[batch] = theta.mu + theta.sigma * z / scheme.effective_n
        sigma_hats[batch] = theta.sigma * t

    map_pivots(scheme.m, replicates, seed, fill)
    return mu_hats, sigma_hats


# ---------------------------------------------------------------------------
# Monotone data transforms (general location-scale families)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneTransform:
    """Strictly increasing closed-form map applied elementwise before
    estimation: kind "identity", or "log", which makes Pareto data
    two-parameter exponential."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("identity", "log"):
            raise InvalidTransformError(f"unknown transform kind {self.kind!r}")

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            out = x.copy()
        else:
            if np.any(x <= 0):
                raise InvalidTransformError("log transform requires positive data")
            out = np.log(x)
        return out if out.ndim else float(out)

    def invert(self, y):
        """Back-transform band x-coordinates to the original scale."""
        y = np.asarray(y, dtype=float)
        out = y.copy() if self.kind == "identity" else np.exp(y)
        return out if out.ndim else float(out)


def g_transform(sample: ProgressiveSample, g: MonotoneTransform) -> ProgressiveSample:
    """Apply a strictly increasing map to the failure times so downstream
    machinery runs on the transformed scale."""
    return ProgressiveSample(scheme=sample.scheme, x=tuple(g.apply(np.asarray(sample.x))))


# ---------------------------------------------------------------------------
# Sample file format
# ---------------------------------------------------------------------------

def read_sample_csv(path: str | Path) -> ProgressiveSample:
    """Read a sample from CSV with header ``time,removed``, one row per
    observed failure; n is inferred as m + sum(removed)."""
    path = Path(path)
    times: list[float] = []
    removed: list[int] = []
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet export may lead with
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["time", "removed"]:
                raise ParseError(f"{path}: expected header 'time,removed', got {reader.fieldnames}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    times.append(float(row["time"]))
                    removed.append(int(row["removed"]))
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"{path}:{lineno}: bad row {row!r}") from exc
                if not math.isfinite(times[-1]):
                    raise ParseError(f"{path}:{lineno}: failure time must be finite, "
                                     f"got {row['time']!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(times) < 2:
        raise ParseError(f"{path}: need at least two observed failures")
    m = len(times)
    scheme = CensoringScheme(n=m + sum(removed), m=m, removals=tuple(removed))
    return ProgressiveSample(scheme=scheme, x=tuple(times))


def write_sample_csv(sample: ProgressiveSample, path: str | Path) -> None:
    if not isinstance(sample.scheme, CensoringScheme):
        raise DomainError("only integer-removal censoring schemes have a CSV form")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "removed"])
        for t, r in zip(sample.x, sample.scheme.removals):
            writer.writerow([repr(t), r])


def load_insulating_fluid() -> ProgressiveSample:
    """Bundled insulating-fluid breakdown data: m=8 failures out of n=19
    units with removal scheme (0,0,3,0,3,0,0,5)."""
    ref = resources.files("expbands.data").joinpath("insulating_fluid.csv")
    with resources.as_file(ref) as path:
        return read_sample_csv(path)
