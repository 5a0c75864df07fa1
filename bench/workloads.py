"""The benchmark's workloads: `paper`, `session` and `coverage`.

Each workload makes all of its inputs from the workload seed, sets up once
per `setup()` call, and runs one closed-loop job per `job()` call: a single
client in a single process (for `session`, the benchmark waits on one CLI
subprocess at a time). A job returns its wall time, the operations it
attempted, the operations whose correctness gate failed, and the
workload's own metrics. The gates are plain functions of (observed,
expected) so that the self-check can feed them wrong expected values.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import ID, Tracer, span

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

CHILD_TIMEOUT_S = 120

SIZES = {
    # paper_reps: reproduce_paper draws; cli_reps: None keeps the CLI default
    # (10^6); cov_reps: replicates per exact coverage call; grid_reps:
    # per-replicate grid calls per grid kind; cal_reps: set-up calibration draws
    "full": dict(paper_reps=10**6, cli_reps=None, gen_m=100, cov_reps=10**6,
                 grid_reps=200, cal_reps=10**6),
    "tiny": dict(paper_reps=20_000, cli_reps=20_000, gen_m=12, cov_reps=20_000,
                 grid_reps=3, cal_reps=20_000),
}


def child_env() -> dict:
    env = dict(os.environ)   # run.py has fixed the BLAS thread count in it
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("EXPBANDS_CACHE", None)   # the session's cache starts empty
    return env


def fresh_import(module: str) -> float:
    """Import `module` in a fresh interpreter; returns the time of the import
    statement there."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def subseed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


@dataclass
class JobResult:
    wall_s: float
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)   # one message per failed gate
    info: dict[str, float] = field(default_factory=dict)

    def op(self, failures: list[str]) -> None:
        """Count one operation; it failed if any of its gates did."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += failures


class Workload:
    name = ""
    in_process = True   # False: the work runs in subprocesses the job starts

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[size]
        self.work = OUT / f"{self.name}-{seed}-{os.getpid()}"

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, tracer: Tracer | None) -> JobResult:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------

def paper_row_failures(rows) -> list[str]:
    """Every check row of a ReproduceReport must pass; the benchmark
    re-applies each row's tolerance rather than trusting its flag alone."""
    return [f"paper row {r.name!r}: expected {r.expected} +- {r.tolerance}, got {r.computed}"
            for r in rows
            if not (r.passed and abs(r.computed - r.expected) <= r.tolerance)]


class Paper(Workload):
    name = "paper"

    def setup(self) -> None:
        fresh_import("expbands.reproduce")
        from expbands import reproduce
        self.reproduce = reproduce

    def job(self, tracer: Tracer | None) -> JobResult:
        t = time.perf_counter()
        with span(tracer, "bench.job"):
            report = self.reproduce.reproduce_paper(reps=self.size["paper_reps"], seed=self.seed)
        wall = time.perf_counter() - t
        res = JobResult(wall, info={"paper_s": wall})
        for row in report.rows:
            res.op(paper_row_failures([row]))
        return res


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

SESSION_LEVEL = "0.9025"
# the paper's Table 5 (level 90.25%, insulating-fluid data), with the
# tolerances reproduce-paper applies: width +-0.01, area +-2%
TABLE5_WIDTH = {"b1": 0.54, "b2": 0.57, "b3": 0.59, "b4": 0.50, "b4p": 0.50, "b4pp": 0.47}
TABLE5_AREA = {"b1": 20.59, "b2": 27.53, "b3": 18.87, "b4": math.inf, "b4p": 18.70,
               "b4pp": 17.90}

_SVG = ("--formats", "json,csv,svg")
# (label, CLI arguments, cold): a cold command is the first to need a
# calibration constant, so on an empty cache it computes and stores it
SESSION_COMMANDS = (
    ("fit", ("fit",), False),
    ("region c1", ("region", "--method", "c1"), False),
    ("region c3", ("region", "--method", "c3"), True),
    ("region c4pp", ("region", "--method", "c4pp"), True),
    *((f"band {b}", ("band", "--method", b, *_SVG), b == "b3")
      for b in ("b1", "b2", "b3", "b4", "b4p", "b4pp")),
    ("band b3 --reliability", ("band", "--method", "b3", "--reliability"), False),
    ("band b1 --marginal", ("band", "--method", "b1", "--marginal"), False),
    ("metrics", ("metrics",), False),
)


def exit_failure(label: str, code: int, stderr: str, expected: int = 0) -> list[str]:
    if code == expected:
        return []
    return [f"{label}: exit {code} (expected {expected}): {stderr.strip()[-300:]}"]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def output_failures(label: str, paths) -> list[str]:
    """JSON and JSON-lines outputs must parse as strict JSON (no NaN or
    Infinity); band CSVs need lower <= upper on every row."""
    bad = []
    for path in paths:
        path = Path(path)
        try:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_reject_constant)
            elif path.suffix == ".jsonl":
                for line in path.read_text().splitlines():
                    if line.strip():
                        json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            bad.append(f"{label}: {path.name} does not parse: {exc}")
        if path.suffix == ".csv":
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            if rows and rows[0][:3] == ["x", "lower", "upper"]:
                crossed = [r for r in rows[1:] if not float(r[1]) <= float(r[2])]
                if crossed:
                    bad.append(f"{label}: {path.name}: {len(crossed)} rows with "
                               f"lower > upper, first {crossed[0]}")
    return bad


def table5_failures(doc: dict, widths=TABLE5_WIDTH, areas=TABLE5_AREA) -> list[str]:
    rows = {r["band"]: r for r in doc.get("rows", [])}
    bad = []
    for kind, width in widths.items():
        row = rows.get(kind)
        if row is None:
            bad.append(f"metrics: no row for {kind}")
            continue
        if not abs(row["max_width"] - width) <= 0.01:
            bad.append(f"metrics: {kind} max width {row['max_width']} vs Table 5 {width}")
        area = areas[kind]
        if math.isinf(area):
            if not row["area_infinite"]:
                bad.append(f"metrics: {kind} area {row['area']} should be infinite")
        elif row["area"] is None or not abs(row["area"] - area) <= 0.02 * area:
            bad.append(f"metrics: {kind} area {row['area']} vs Table 5 {area}")
    return bad


def _snapshot(directory: Path) -> dict:
    return {p: (st.st_mtime_ns, st.st_size)
            for p in directory.iterdir() if p.is_file() for st in (p.stat(),)}


class Session(Workload):
    name = "session"
    in_process = False

    def setup(self) -> None:
        fresh_import("expbands.cli")
        from expbands import model
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        fluid = inputs / "insulating_fluid.csv"
        model.write_sample_csv(model.load_insulating_fluid(), fluid)
        m = self.size["gen_m"]
        removals = tuple(i % 2 for i in range(m))   # one unit withdrawn at every 2nd failure
        scheme = model.CensoringScheme(n=m + sum(removals), m=m, removals=removals)
        rng = np.random.Generator(np.random.PCG64(subseed(self.seed, 0)))
        theta = model.LocScale(float(rng.uniform(0.0, 5.0)), float(rng.uniform(1.0, 20.0)))
        generated = inputs / "generated.csv"
        model.write_sample_csv(model.simulate_sample(theta, scheme, rng), generated)
        self.samples = (("fluid", fluid), ("generated", generated))

    def job(self, tracer: Tracer | None) -> JobResult:
        run = self.work / "job"
        shutil.rmtree(run, ignore_errors=True)
        env = child_env()
        reps = () if self.size["cli_reps"] is None else ("--reps", str(self.size["cli_reps"]))
        res = JobResult(0.0)
        cold, warm = [], []
        t0 = time.perf_counter()
        with span(tracer, "bench.job"):
            for sample, data in self.samples:
                outdir = run / sample
                outdir.mkdir(parents=True)
                for label, args, is_cold in SESSION_COMMANDS:
                    label = f"{sample}: {label}"
                    argv = [*args, "--data", str(data), "--output-dir", str(outdir),
                            "--level", SESSION_LEVEL, *reps]
                    before = _snapshot(outdir)
                    with span(tracer, "bench.command") as rec:
                        spans_file = run / "spans.json"
                        cmd = ([sys.executable, str(BENCH / "cmd_driver.py"), str(spans_file)]
                               if tracer else [sys.executable, "-m", "expbands"])
                        t = time.perf_counter()
                        proc = _run_child(cmd + argv, outdir, env)
                        dt = time.perf_counter() - t
                        if tracer is not None and spans_file.exists():
                            doc = json.loads(spans_file.read_text())
                            tracer.adopt(doc["spans"], rec[ID])
                            tracer.counters.update(doc["counters"])
                            spans_file.unlink()
                    (cold if is_cold else warm).append(dt)
                    after = _snapshot(outdir)
                    changed = [p for p, sig in after.items() if before.get(p) != sig]
                    failures = exit_failure(label, proc.returncode, proc.stderr)
                    failures += output_failures(label, changed)
                    if sample == "fluid" and args[0] == "metrics" and not failures:
                        doc = json.loads((outdir / "metrics.json").read_text())
                        failures += table5_failures(doc)
                    res.op(failures)
        res.wall_s = time.perf_counter() - t0
        # warm command times stay a list: the run pools them over its jobs
        res.info = {"session_s": res.wall_s, "session_cold_s": sum(cold),
                    "cmd_warm_p50_s": warm}
        return res


def _run_child(cmd: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(cmd, -9, "", f"timed out after {exc.timeout} s")


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

COVERAGE_LEVEL = 0.90
EXACT_KINDS = ("c1", "c2", "c3", "c4p", "c4pp", "b1", "b2", "b3", "b4", "b4p", "b4pp")
GRID_KINDS = ("b4p", "b4pp", "b1", "b3")


def level_failure(kind: str, coverage: float, nominal: float, se: float) -> list[str]:
    if abs(coverage - nominal) <= 4.0 * se:
        return []
    return [f"coverage {kind}: {coverage:.6f} is {abs(coverage - nominal) / se:.1f} SE "
            f"from nominal {nominal}"]


def verdict_failure(kind: str, replicate: int, grid: float, exact: float) -> list[str]:
    if grid == exact:
        return []
    return [f"coverage {kind} replicate {replicate}: grid verdict {grid:g} != exact {exact:g}"]


class Coverage(Workload):
    name = "coverage"
    grid_kinds = GRID_KINDS

    def setup(self) -> None:
        fresh_import("expbands.metrics")
        from expbands import calibration, metrics, model
        self.metrics, self.model = metrics, model
        self.scheme = model.load_insulating_fluid().scheme
        m, n, reps = self.scheme.m, int(self.scheme.effective_n), self.size["cal_reps"]
        p = 1.0 - COVERAGE_LEVEL
        c_p = calibration.calibrate_cp(m, p, reps, subseed(self.seed, 0)).value
        c_b3 = calibration.p_of_tau(m, COVERAGE_LEVEL, reps, subseed(self.seed, 1)).extra["c"]
        d_p = calibration.calibrate_dp(m, n, p, reps, subseed(self.seed, 2)).value
        # the calibration constant each kind's coverage event needs, if any
        self.constants = {kind: {} for kind in EXACT_KINDS}
        self.constants.update({"c3": {"c_p": c_p}, "b3": {"c_p": c_b3}},
                              **{k: {"d_p": d_p} for k in ("c4p", "c4pp", "b4", "b4p", "b4pp")})
        # the constants' Monte-Carlo error, in units of coverage probability
        self.calibration_var = COVERAGE_LEVEL * (1.0 - COVERAGE_LEVEL) / reps

    def job(self, tracer: Tracer | None) -> JobResult:
        run_coverage = self.metrics.coverage_experiment
        theta = self.model.LocScale(0.0, 1.0)
        res = JobResult(0.0)
        exact_s = grid_s = 0.0
        reps, grid_reps = self.size["cov_reps"], self.size["grid_reps"]
        t0 = time.perf_counter()
        with span(tracer, "bench.job"):
            for k, kind in enumerate(EXACT_KINDS):
                t = time.perf_counter()
                rep = run_coverage(kind, theta, self.scheme, COVERAGE_LEVEL, reps,
                                   subseed(self.seed, 1, k), **self.constants[kind])
                exact_s += time.perf_counter() - t
                var = rep.std_error ** 2 + (self.calibration_var if self.constants[kind] else 0.0)
                res.op(level_failure(kind, rep.coverage, COVERAGE_LEVEL, math.sqrt(var)))
            for g, kind in enumerate(self.grid_kinds):
                for i in range(grid_reps):
                    seed = subseed(self.seed, 2, g, i)
                    t = time.perf_counter()
                    grid = run_coverage(kind, theta, self.scheme, COVERAGE_LEVEL, 1, seed,
                                        method="grid", **self.constants[kind])
                    grid_s += time.perf_counter() - t
                    exact = run_coverage(kind, theta, self.scheme, COVERAGE_LEVEL, 1, seed,
                                         **self.constants[kind])
                    res.op(verdict_failure(kind, i, grid.coverage, exact.coverage))
        res.wall_s = time.perf_counter() - t0
        res.info = {"exact_reps_per_s": len(EXACT_KINDS) * reps / exact_s}
        if self.grid_kinds:
            res.info["grid_reps_per_s"] = len(self.grid_kinds) * grid_reps / grid_s
        return res


class CoverageExact(Coverage):
    """`coverage` without its grid half: the 11 exact coverage calls only.
    BENCHMARK.json lists this workload, not `coverage`, because a listed
    workload must run without a failed operation, and `coverage`'s grid
    half fails on graph_contained's known tail defect (see README.md)."""
    name = "coverage_exact"
    grid_kinds = ()


WORKLOADS = {w.name: w for w in (Paper, Session, Coverage, CoverageExact)}
