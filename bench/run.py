"""Benchmark for expbands: seeded workloads, correctness gates, and a
separate traced run with a per-layer breakdown.

One run of one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Every workload, each seed in turn, with a summary table of medians and
quartiles; exits 1 if any correctness gate failed:

    python3 bench/run.py --workload all --seed 1 --runs 5 --seconds 20 --out results.json

A run sets up its workload nine times (`setup_s` is the median), then runs
jobs back to back for `--seconds` (at least one job; another starts only if
one as long as the longest so far still fits) and reports medians over
them. With `--trace 1` every timed job is followed by a traced
job of the same work; the per-layer metrics come from the traced job with
the median wall time, and `trace.overhead_s` is the median traced minus the
median untraced wall time. See bench/README.md for the metrics.
"""

import os

# one BLAS thread, fixed before numpy loads, here and in every child
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE_INIT = ROOT / "src" / "expbands" / "__init__.py"
SETUP_REPEATS = 9

# units of the metrics each run reports; the names BENCHMARK.json lists
END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
# workload metrics printed and recorded beside the end-to-end ones:
# (unit, better, bound for compare.py)
INFO = {
    "paper_s": ("s", "lower", 0.25),
    "session_s": ("s", "lower", 0.25),
    "session_cold_s": ("s", "lower", 0.25),
    "cmd_warm_p50_s": ("s", "lower", 0.25),
    "exact_reps_per_s": ("1/s", "higher", 0.25),
    "grid_reps_per_s": ("1/s", "higher", 0.25),
    "failed_ratio": ("ratio", "lower", 0.0),
}


def _load_package() -> None:
    """Import expbands from this checkout's src/, or exit 2 before any
    result is printed."""
    if not PACKAGE_INIT.is_file():
        sys.exit(f"run.py: no expbands package at {PACKAGE_INIT}")
    sys.path.insert(0, str(PACKAGE_INIT.parent.parent))
    import expbands
    if Path(expbands.__file__).resolve() != PACKAGE_INIT:
        sys.exit(f"run.py: imported expbands from {expbands.__file__}, not {PACKAGE_INIT}")


def provenance(seed: int) -> dict:
    import numpy as np
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "git_sha": sha,
            "platform": platform.platform()}


def _median_job(jobs):
    return sorted(jobs, key=lambda j: j[0].wall_s)[(len(jobs) - 1) // 2]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, fresh_import

    workload = WORKLOADS[name](seed, size)
    untraced, traced, setups = [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t)
        import_s = [fresh_import("expbands.cli") for _ in range(3)] if trace else []
        t0 = last = time.perf_counter()
        longest = 0.0
        while True:
            untraced.append(workload.job(None))
            if trace:
                tracer = Tracer(f"{name}-{seed}-{len(traced)}")
                if workload.in_process:
                    tracer.install()
                try:
                    traced.append((workload.job(tracer), tracer))
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
            # start another job only if one as long as the longest so far fits
            if now - t0 + longest > seconds:
                break
    finally:
        workload.cleanup()

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    jobs = untraced + [job for job, _ in traced]
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    walls = [j.wall_s for j in untraced]
    samples = {"setup_s": setups, "job_s": walls,
               "peak_rss_mb": [resource.getrusage(who).ru_maxrss / 1024.0]}
    for key in untraced[0].info:
        vals = [j.info[key] for j in untraced]
        samples[key] = [v for vs in vals for v in vs] if isinstance(vals[0], list) else vals
    samples["failed_ratio"] = [failed / attempted]

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "jobs": len(untraced), "correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "values": {k: statistics.median(v) for k, v in samples.items()},
              "samples": {k: len(v) for k, v in samples.items()},
              "job_walls": walls,
              "failures": [f for j in jobs for f in j.failures][:50],
              "provenance": provenance(seed)}
    if trace:
        _, tracer = _median_job(traced)
        layers = layer_metrics(tracer.spans, tracer.counters)
        layers["trace.untraced_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = (statistics.median(j.wall_s for j, _ in traced)
                                      - layers["trace.untraced_s"])
        layers["cli.import_s"] = statistics.median(import_s)
        result["layers"] = layers
        result["trace_file"] = _write_trace(name, seed, traced)
    return result


def _write_trace(name: str, seed: int, traced) -> str:
    from workloads import OUT
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.json"
    with path.open("w") as fh:
        json.dump([tracer.to_dict() for _, tracer in traced], fh)
    return str(path.relative_to(ROOT))


def metrics_of(result: dict) -> dict:
    """The `metrics` object of the result line: end-to-end metrics, or with
    tracing the per-layer ones."""
    if result["trace"]:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    return {k: {"value": result["values"][k], "unit": u} for k, u in END_TO_END.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_run(result: dict) -> None:
    print(f"# {result['workload']} seed {result['seed']}: {result['jobs']} jobs, "
          f"{result['attempted']} ops, {result['failed']} failed")
    units = dict(END_TO_END, **{k: u for k, (u, _, _) in INFO.items()})
    for key, value in result["values"].items():
        print(f"  {key:<22} {value:>14.6g} {units[key]:<6} n={result['samples'][key]}")
    for key, value in result.get("layers", {}).items():
        print(f"  {key:<36} {value:>14.6g} {layer_unit(key)}")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"# provenance {json.dumps(result['provenance'])}")


def run_all(args) -> int:
    """Each workload, `--runs` seeds from `--seed` up, each run in a fresh
    process; prints the summary and writes the result set."""
    from compare import summarize
    from workloads import OUT, WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"record-{os.getpid()}.json"
    runs, bad = [], 0
    plan = [(w, args.seed + i, 0) for w in WORKLOADS for i in range(args.runs)]
    if args.trace:
        plan += [(w, args.seed, 1) for w in WORKLOADS]
    for workload, seed, trace in plan:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
               "--record", str(record)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(line for line in proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0 or not record.exists():
            print(f"# {workload} seed {seed}: run exited {proc.returncode}")
            bad += 1
            continue
        result = json.loads(record.read_text())
        record.unlink()
        runs.append(result)
        bad += not result["correct"]
    result_set = {"runs": runs, "provenance": provenance(args.seed)}
    print(summarize(result_set))
    if args.out:
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "session", "coverage", "coverage_exact", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all)")
    parser.add_argument("--out", help="write the result set here (all)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        parser.error("need --seed >= 0, --seconds > 0 and --runs >= 1")
    _load_package()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if args.record:
        Path(args.record).write_text(json.dumps(result))
    print_run(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics_of(result)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
