"""In-memory span tracer that times calls into the expbands modules from
outside the package.

`Tracer.install()` wraps every public function defined in an expbands
module, and rebinds the wrapper in every expbands module namespace that
holds the original: `from .special import gamma_cdf` copies the binding, so
patching only the defining module would miss those callers. A few methods
that carry per-layer counters (the calibration cache) are wrapped on their
class. `uninstall()` restores every binding.

A span is (id, parent id, name, start, end, run id); spans stay in memory
and `dump()` writes them once the run is over. Span names are
"<layer>.<function>", where the layer is the defining module's short name;
the benchmark's own spans use the layer "bench". A layer's self time is the
summed duration of its spans minus the time covered by their child spans,
so self times over all layers add up to the duration of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "expbands"
LAYERS = ("bench", "import", "special", "numerics", "streams", "model", "calibration",
          "regions", "bands", "metrics", "plotting", "cli", "reproduce")
# class methods worth a span: the cache is where hits and misses are counted
_METHODS = {"calibration": {"CalibrationCache": ("get", "put", "get_or_compute")}}

ID, PARENT, NAME, START, END, RUN = range(6)


def _bound(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _count_draws(tracer, fn, args, kwargs, result):
    tracer.counters["calibration.draws"] += int(_bound(fn, args, kwargs, "reps") or 0)


def _count_replicates(tracer, fn, args, kwargs, result):
    tracer.counters["model.replicates"] += int(_bound(fn, args, kwargs, "replicates") or 0)


def _count_trim_points(tracer, fn, args, kwargs, result):
    prov = getattr(result, "provenance", None) or {}
    tracer.counters["bands.trim_points"] += int(prov.get("grid_points", 0))


def _count_cache_get(tracer, fn, args, kwargs, result):
    tracer.counters["calibration.cache_misses" if result is None
                    else "calibration.cache_hits"] += 1


# per-span counters, keyed by span name: (tracer, fn, args, kwargs, result)
_AFTER = {
    "calibration.draw_cp_statistic": _count_draws,
    "calibration.draw_ks_statistic": _count_draws,
    "model.simulate_mles": _count_replicates,
    "bands.trim_band": _count_trim_points,
    "calibration.CalibrationCache.get": _count_cache_get,
}


class Tracer:
    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int | None] = [None]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1], name, time.perf_counter(), 0.0, self.run_id]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (another process), renumbered, with
        their roots hung under `parent`."""
        base = len(self.spans)
        for rec in spans:
            new = list(rec)
            new[ID] = rec[ID] + base
            new[PARENT] = parent if rec[PARENT] is None else rec[PARENT] + base
            new[RUN] = self.run_id
            self.spans.append(new)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(rec)
                    tracer.counters[name + ".items"] += 1
                    yield item
            return gen_wrapper

        if name == "numerics.integrate":
            @functools.wraps(fn)
            def integrate_wrapper(f, *args, **kwargs):
                def counted(x):
                    tracer.counters["numerics.integrand_evals"] += 1
                    return f(x)
                with tracer.span(name):
                    return fn(counted, *args, **kwargs)
            return integrate_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(tracer, fn, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        wrappers: dict[int, object] = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = vars(mod).get(cls_name)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is not None:
                        self._patch(cls, meth, fn,
                                    self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, obj, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["id", "parent", "name", "start", "end", "run"],
                "spans": self.spans, "counters": dict(self.counters)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def span(tracer: Tracer | None, name: str):
    """`tracer.span(name)`, or a no-op when tracing is off."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SPECIAL_FUNCTIONS = ("check_probability", "check_degrees_of_freedom", "gamma_cdf",
                     "gamma_logpdf", "gamma_quantile", "chi2_quantile", "chi2_cdf",
                     "beta_cdf", "beta_quantile", "f_quantile", "f_cdf",
                     "lambert_w0", "lambert_wm1")

_DRAWS = ("calibration.draw_cp_statistic", "calibration.draw_ks_statistic")
_CALIBRATE = ("calibration.calibrate_cp", "calibration.calibrate_dp", "calibration.p_of_tau")
_REGION_BUILDS = tuple(f"regions.build_c{k}" for k in (1, 2, 3, 4))
_BAND_BUILDS = tuple(f"bands.band_b{k}" for k in (1, 2, 3, 4))


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer totals of one traced job. Times are inclusive span sums
    unless named `self_s`; `<layer>.self_s` over all layers adds up to the
    job's traced wall time."""
    dur = [s[END] - s[START] for s in spans]
    children: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s[ID])
    self_time = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]

    incl: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    fn_self: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s[NAME]
        incl[name] += dur[s[ID]]
        calls[name] += 1
        fn_self[name] += self_time[s[ID]]
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else "bench"] += self_time[s[ID]]

    def total(names) -> float:
        return sum(incl[n] for n in names)

    # calibrate_* minus the draws and the level inversion beneath them
    calibrate_self = 0.0
    for s in spans:
        if s[NAME] in _CALIBRATE:
            calibrate_self += dur[s[ID]] - sum(
                dur[c] for c in children[s[ID]]
                if spans[c][NAME] in _DRAWS + ("calibration.invert_level_on_draws",))

    hits = counters.get("calibration.cache_hits", 0)
    misses = counters.get("calibration.cache_misses", 0)
    out = {
        "calibration.draw_s": total(_DRAWS),
        "calibration.draws": counters.get("calibration.draws", 0),
        "calibration.calibrate_self_s": calibrate_self,
        "calibration.invert_s": incl["calibration.invert_level_on_draws"],
        "calibration.tau_of_p_calls": calls["calibration.tau_of_p"],
        "calibration.cache_hits": hits,
        "calibration.cache_misses": misses,
        "calibration.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "calibration.cache_get_s": incl["calibration.CalibrationCache.get"],
        "calibration.cache_put_s": incl["calibration.CalibrationCache.put"],
        "streams.batches": counters.get("streams.replicate_batches.items", 0),
        "model.simulate_mles_s": incl["model.simulate_mles"],
        "model.replicates": counters.get("model.replicates", 0),
        "special.calls": sum(c for n, c in calls.items() if n.startswith("special.")),
        "numerics.integrate_calls": calls["numerics.integrate"],
        "numerics.integrand_evals": counters.get("numerics.integrand_evals", 0),
        "numerics.integrate_s": incl["numerics.integrate"],
        "regions.build_s": total(_REGION_BUILDS),
        "bands.build_s": total(_BAND_BUILDS),
        "bands.trim_s": incl["bands.trim_band"],
        "bands.trim_points": counters.get("bands.trim_points", 0),
        "bands.contained_s": incl["bands.graph_contained"],
        "bands.contained_calls": calls["bands.graph_contained"],
        "bands.indicator_s": incl["bands.coverage_indicator"],
        "metrics.band_metrics_s": incl["metrics.band_metrics"],
        "plotting.svg_s": incl["plotting.band_svg"],
    }
    for fn in SPECIAL_FUNCTIONS:
        out[f"special.{fn}.calls"] = calls[f"special.{fn}"]
        out[f"special.{fn}.s"] = fn_self[f"special.{fn}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.wall_s"] = sum(dur[s[ID]] for s in spans if s[PARENT] is None)
    return out
