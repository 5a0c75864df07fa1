"""Command-line front end: ingestion, calibration constants, and file outputs.

Subcommands: fit, region, band, metrics, calibrate, coverage, simulate,
reproduce-paper. Option precedence is flags > config file (--config, a JSON
document) > defaults. The method names of region, band, metrics and
coverage and their builders come from the method registry `bands.METHODS`,
whose `Method.constants` gives the exact constants (closed-form c_p and band
level, quadrature d_p) through a JSON-lines cache, whose path comes from
the config file or the EXPBANDS_CACHE environment variable.
--reps sizes only the Monte-Carlo cross-check of reproduce-paper; --seed
seeds that cross-check, simulate and coverage. Every output embeds a hash
of what the command computed (the settings it reads, `_READS`, and its own
arguments but --data and --config), the seed, and calibration provenance.
Exit codes: 0 ok, 2 parse, 3 domain, 4 numeric, 5 calibration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from . import bands as _bands
from . import metrics as _metrics
from . import regions as _regions
from .calibration import CalibrationCache, CalibrationKey, CalibrationResult, tau_of_p
from .errors import (
    CalibrationError,
    DomainError,
    ExpBandsError,
    NumericError,
    ParseError,
)
from .model import (
    CensoringScheme,
    LocScale,
    MonotoneTransform,
    g_transform,
    mle,
    read_sample_csv,
    simulate_sample,
    umvue,
    write_sample_csv,
)
from .plotting import band_svg
from .reproduce import reproduce_paper
from .streams import batch_generator, substream

EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_NUMERIC, EXIT_CALIBRATION = 0, 2, 3, 4, 5

_DEFAULTS = {
    "output_dir": ".",
    "formats": "json,csv",
    "seed": 20201222,
    "reps": 1_000_000,
    "level": 0.90,
    "grid_points": 1024,
    "boundary_points": 512,
    "transform": "identity",
    "replicates": 100_000,
    "cache_path": None,
}

# the settings each subcommand's results depend on: where and in which
# formats its files land, and the seed of a deterministic command, do not
_READS = {
    "fit": ("transform",),
    "region": ("level", "transform", "boundary_points"),
    "band": ("level", "transform", "grid_points"),
    "metrics": ("level", "transform"),
    "calibrate": ("level",),
    "coverage": ("level", "seed", "replicates"),
    "simulate": ("seed",),
    "reproduce-paper": ("reps", "seed"),
}

# the registry names regions c* and bands b*
REGION_METHODS = tuple(m for m in _bands.METHODS if m.startswith("c"))
BAND_METHODS = tuple(m for m in _bands.METHODS if m.startswith("b"))


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update(_load_config_file(getattr(args, "config", None)))
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("seed", "reps", "level", "grid_points", "boundary_points", "replicates"):
        raw, kind = cfg[key], type(_DEFAULTS[key])
        try:   # to the type of the default, so a config file's values are checked too
            cfg[key] = kind(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{key} must be a number, got {raw!r}") from exc
        if kind is int and isinstance(raw, float) and cfg[key] != raw:
            raise ParseError(f"{key} must be a whole number, got {raw!r}")
    formats = [f.strip() for f in str(cfg["formats"]).split(",") if f.strip()]
    if not formats or not set(formats) <= {"json", "csv", "svg"}:
        raise ParseError(f"formats must be a comma list of json, csv, svg; got {cfg['formats']!r}")
    cfg["formats"] = ",".join(formats)
    if not 0.0 < cfg["level"] < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {cfg['level']}")
    if cfg["reps"] < 1 or cfg["replicates"] < 1:
        raise DomainError("reps and replicates must be >= 1")
    if cfg["grid_points"] < 2:
        raise DomainError(f"grid points must be >= 2, got {cfg['grid_points']}")
    cfg["config_hash"] = _config_hash(args, cfg)
    return cfg


def _config_hash(args: argparse.Namespace, cfg: dict) -> str:
    # the settings the subcommand reads and its own arguments, but the input
    # file: metrics' bands as resolved, and calibrate's n only where d_p reads it
    own = {k: v for k, v in vars(args).items()
           if k not in _DEFAULTS and k not in ("command", "func", "data", "config")}
    if args.command == "metrics":
        own["methods"] = _band_methods(args.methods)
    if args.command == "calibrate" and args.kind != "dp":
        del own["n"]
    doc = json.dumps({"command": args.command, "args": own,
                      **{k: cfg[k] for k in _READS[args.command]}}, sort_keys=True, default=str)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _cache(cfg: dict) -> CalibrationCache:
    path = cfg.get("cache_path") or os.environ.get("EXPBANDS_CACHE")
    if path is None:
        path = Path(cfg["output_dir"]) / "expbands-cache.jsonl"
    return CalibrationCache(path)


def _metadata(cfg: dict, command: str, calibrations: list[CalibrationResult] | None = None) -> dict:
    return {
        "tool": "expbands",
        "version": __version__,
        "command": command,
        "config_hash": cfg["config_hash"],
        "seed": cfg["seed"],
        "calibration": [res.record() for res in calibrations or []],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def _resolve_constants(method: str, level: float, scheme, cfg: dict) -> tuple[dict, list]:
    """The exact constants of a region/band method, through the cache."""
    return _bands.METHODS[method].constants(scheme, level, _cache(cfg).get_or_compute)


def _band_methods(spec: str | None) -> tuple[str, ...]:
    """The bands a comma list names, or all of them."""
    methods = BAND_METHODS if spec in (None, "all") else tuple(m.strip() for m in spec.split(","))
    if bad := set(methods) - set(BAND_METHODS):
        raise DomainError(f"unknown band methods: {sorted(bad)}")
    return methods


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_data(args, cfg) -> tuple:
    sample = read_sample_csv(args.data)
    transform = MonotoneTransform(cfg["transform"])
    working = g_transform(sample, transform)
    return sample, working, transform


def cmd_fit(args, cfg) -> int:
    _, working, transform = _load_data(args, cfg)
    est = mle(working)
    mu_t, sigma_t = umvue(est, working.scheme)
    scheme = working.scheme
    payload = {
        "metadata": _metadata(cfg, "fit"),
        "scheme": {"n": scheme.n, "m": scheme.m, "removals": list(scheme.removals),
                   "gammas": list(scheme.gammas)},
        "transform": transform.kind,
        "mle": {"mu_hat": est.mu_hat, "sigma_hat": est.sigma_hat},
        "umvue": {"mu_tilde": mu_t, "sigma_tilde": sigma_t},
    }
    _write_json(Path(cfg["output_dir"]) / "fit.json", payload)
    print(json.dumps(payload["mle"]))
    return EXIT_OK


def cmd_region(args, cfg) -> int:
    _, working, transform = _load_data(args, cfg)
    est = mle(working)
    level = cfg["level"]
    constants, provenance = _resolve_constants(args.method, level, working.scheme, cfg)
    region = _bands.METHODS[args.method].build(est, working.scheme, level, constants)
    payload = {
        "metadata": _metadata(cfg, f"region.{args.method}", provenance),
        "level": level,
        "transform": transform.kind,
        **_regions.region_to_dict(region, points=cfg["boundary_points"]),
    }
    out = Path(cfg["output_dir"]) / f"region_{args.method}.json"
    _write_json(out, payload)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_band(args, cfg) -> int:
    _, working, transform = _load_data(args, cfg)
    est = mle(working)
    level = cfg["level"]
    constants, provenance = _resolve_constants(args.method, level, working.scheme, cfg)
    band = _bands.METHODS[args.method].build(est, working.scheme, level, constants)
    # the cdf band's grid: its transforms are monotone in the cdf value
    xs = _bands.default_grid(band, points=cfg["grid_points"])
    if args.marginal:
        band = _bands.marginal_band(band, working.scheme.gammas)
    if args.reliability:
        band = _bands.reliability_band(band)
    # the CSV and the SVG show x on the data axis
    rows = [(x, lo, hi) for x, (_, lo, hi)
            in zip(transform.invert(xs).tolist(), _bands.band_rows(band, xs))]
    formats = cfg["formats"].split(",")
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    name = f"band_{band.kind}"
    if "json" in formats:
        payload = {"metadata": _metadata(cfg, f"band.{args.method}", provenance),
                   "transform": transform.kind, **_bands.band_to_dict(band)}
        _write_json(outdir / f"{name}.json", payload)
        written.append(f"{name}.json")
    if "csv" in formats:
        with (outdir / f"{name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "lower", "upper"])
            writer.writerows([repr(x), repr(lo), repr(hi)] for x, lo, hi in rows)
        written.append(f"{name}.csv")
    if "svg" in formats:
        fitted = band.push(LocScale(est.mu_hat, est.sigma_hat).cdf(xs))
        (outdir / f"{name}.svg").write_text(band_svg(band, rows, fitted=fitted))
        written.append(f"{name}.svg")
    print(f"wrote {', '.join(written)} (constants: {constants})")
    return EXIT_OK


def cmd_metrics(args, cfg) -> int:
    _, working, transform = _load_data(args, cfg)
    est = mle(working)
    level = cfg["level"]
    rows = []
    provenance_all: list[CalibrationResult] = []
    for method in _band_methods(args.methods):
        constants, provenance = _resolve_constants(method, level, working.scheme, cfg)
        band = _bands.METHODS[method].build(est, working.scheme, level, constants)
        bm = _metrics.band_metrics(band)
        # the width and its maximum are invariant under the monotone transform,
        # so the argmax maps exactly; the area is still on the transformed axis
        rows.append({"band": method, "level": level,
                     "max_width": bm.max_width, "width_argmax": transform.invert(bm.width_argmax),
                     "area": None if bm.area == float("inf") else bm.area,
                     "area_axis": "data" if transform.kind == "identity" else "log",
                     "area_infinite": bm.area == float("inf"),
                     "quadrature_error_estimate": bm.quadrature_error_estimate,
                     "constants": constants})
        provenance_all.extend(provenance)
    payload = {"metadata": _metadata(cfg, "metrics", provenance_all),
               "transform": transform.kind, "rows": rows}
    out = Path(cfg["output_dir"]) / "metrics.json"
    _write_json(out, payload)
    print(json.dumps(rows, default=float))
    return EXIT_OK


def cmd_calibrate(args, cfg) -> int:
    level = cfg["level"]
    m = int(args.m)
    if args.kind == "dp" and args.n is None:
        raise DomainError("--n is required for kind dp")
    # tau is the band level of the region's c_p, in closed form
    kind = {"cp": "c_p", "tau": "c_p", "dp": "d_p", "p-of-tau": "p_of_tau"}[args.kind]
    res = _cache(cfg).get_or_compute(CalibrationKey.exact(kind, m, args.n or 0, level))
    if args.kind == "tau":
        value = tau_of_p(m, 1.0 - level, res.value)
        payload = {"metadata": _metadata(cfg, "calibrate.tau", [res]),
                   "kind": "tau", "m": m, "region_level": level, "value": value}
        _write_json(Path(cfg["output_dir"]) / "calibration.json", payload)
        print(json.dumps({"tau": value}))
        return EXIT_OK
    payload = {"metadata": _metadata(cfg, f"calibrate.{args.kind}", [res]), **res.record()}
    _write_json(Path(cfg["output_dir"]) / "calibration.json", payload)
    print(json.dumps({"value": res.value, "mc_std_error": res.mc_std_error,
                      "extra": res.extra}))
    return EXIT_OK


def cmd_coverage(args, cfg) -> int:
    sample = read_sample_csv(args.data)
    scheme = sample.scheme
    level = cfg["level"]
    kind = args.kind
    constants, provenance = _resolve_constants(kind, level, scheme, cfg)
    theta = LocScale(float(args.mu), float(args.sigma))
    report = _metrics.coverage_experiment(
        kind, theta, scheme, level, cfg["replicates"],
        substream(cfg["seed"], "coverage"), **constants)
    # what the count estimates: the event's probability at the same constants;
    # z is the count's distance from it in binomial standard errors at that
    # probability, which an all-hit or all-miss count does not collapse
    exact = _bands.event_probability(kind, scheme, level, constants)
    z = (report.coverage - exact) / (exact * (1.0 - exact) / report.replicates)**0.5
    payload = {"metadata": _metadata(cfg, f"coverage.{kind}", provenance),
               **dataclasses.asdict(report), "exact_probability": exact}
    _write_json(Path(cfg["output_dir"]) / f"coverage_{kind}.json", payload)
    print(json.dumps({"kind": kind, "coverage": report.coverage,
                      "std_error": report.std_error, "exact_probability": exact,
                      "z": z}))
    return EXIT_OK


def cmd_simulate(args, cfg) -> int:
    n, m = int(args.n), int(args.m)
    if args.removals:
        try:
            removals = tuple(int(r) for r in args.removals.split(","))
        except ValueError as exc:
            raise ParseError(f"removals must be a comma list of whole numbers, "
                             f"got {args.removals!r}") from exc
        scheme = CensoringScheme(n, m, removals)
    else:
        scheme = CensoringScheme.type2_right(n, m)
    theta = LocScale(float(args.mu), float(args.sigma))
    rng = batch_generator(substream(cfg["seed"], "simulate"), 0)
    sample = simulate_sample(theta, scheme, rng)
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_sample_csv(sample, outdir / "sample.csv")
    _write_json(outdir / "sample_meta.json", {
        "metadata": _metadata(cfg, "simulate"),
        "theta": {"mu": theta.mu, "sigma": theta.sigma},
        "scheme": {"n": n, "m": m, "removals": list(scheme.removals)}})
    print(f"wrote {outdir / 'sample.csv'}")
    return EXIT_OK


def cmd_reproduce(args, cfg) -> int:
    report = reproduce_paper(reps=cfg["reps"], seed=cfg["seed"])
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.md").write_text(report.markdown())
    _write_json(outdir / "report.json", {
        "metadata": _metadata(cfg, "reproduce-paper"),
        "all_passed": report.all_passed,
        "checks": [dataclasses.asdict(r) for r in report.rows],
        "mc_crosscheck": report.crosscheck})
    print(f"wrote {outdir / 'report.md'}: {'PASS' if report.all_passed else 'FAIL'}")
    return EXIT_OK if report.all_passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output-dir", dest="output_dir")
    sub.add_argument("--config")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--reps", type=int)
    sub.add_argument("--level", type=float)
    sub.add_argument("--formats")
    sub.add_argument("--grid-points", dest="grid_points", type=int,
                     help="points of the x-grid of band CSV and SVG output (default 1024)")
    sub.add_argument("--boundary-points", dest="boundary_points", type=int)
    sub.add_argument("--transform", choices=("identity", "log"))
    sub.add_argument("--replicates", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expbands",
        description="Exact confidence regions and cdf confidence bands for the "
                    "two-parameter exponential model under progressive type-II censoring.")
    parser.add_argument("--version", action="version", version=f"expbands {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="maximum likelihood and UMVU estimates")
    p.add_argument("--data", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("region", help="confidence region with boundary polyline")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=REGION_METHODS)
    _add_common(p)
    p.set_defaults(func=cmd_region)

    p = subs.add_parser("band", help="confidence band for the cdf")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=BAND_METHODS)
    p.add_argument("--reliability", action="store_true",
                   help="transform to a band for the reliability function")
    p.add_argument("--marginal", action="store_true",
                   help="transform to a band for the last-failure marginal cdf")
    _add_common(p)
    p.set_defaults(func=cmd_band)

    p = subs.add_parser("metrics", help="maximum width and area per band")
    p.add_argument("--data", required=True)
    p.add_argument("--methods", help="comma list of bands, or 'all'")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("calibrate", help="exact calibration constants")
    p.add_argument("--kind", required=True, choices=("cp", "dp", "tau", "p-of-tau"))
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("coverage", help="empirical coverage experiment")
    p.add_argument("--data", required=True, help="sample CSV supplying the scheme")
    p.add_argument("--kind", required=True, choices=tuple(_bands.METHODS))
    p.add_argument("--mu", required=True, type=float)
    p.add_argument("--sigma", required=True, type=float)
    _add_common(p)
    p.set_defaults(func=cmd_coverage)

    p = subs.add_parser("simulate", help="draw a synthetic sample")
    p.add_argument("--mu", required=True, type=float)
    p.add_argument("--sigma", required=True, type=float)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--removals", help="comma list of removal counts (default: type-II right)")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("reproduce-paper", help="rerun the bundled data example "
                                                "and table checks; write a report")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except ParseError as exc:
        _emit_error("parse", exc)
        return EXIT_PARSE
    except DomainError as exc:
        _emit_error("domain", exc)
        return EXIT_DOMAIN
    except NumericError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC
    except CalibrationError as exc:
        _emit_error("calibration", exc)
        return EXIT_CALIBRATION
    except ExpBandsError as exc:  # pragma: no cover - safety net
        _emit_error("error", exc)
        return EXIT_DOMAIN


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
