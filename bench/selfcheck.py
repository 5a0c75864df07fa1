"""Fast self-check of the benchmark harness, at tiny sizes (under a minute).

    python3 bench/selfcheck.py

1. Runs every workload end to end through run.py, untraced and traced, and
   checks the result line: its keys, every metric BENCHMARK.json lists with
   its unit, and per-layer self times that add up to the traced wall time.
   Tiny sizes use few Monte-Carlo draws, so paper rows may fail there; the
   check is of the harness, not of the program.
2. Feeds every correctness gate the observed value as the expected one,
   which must pass, and a wrong expected value, which must fail.
3. Runs the benchmark in a directory without the package, which must exit
   non-zero without printing a result.

Exits 1 if any check fails.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads
from workloads import (BENCH, OUT, ROOT, child_env, exit_failure, level_failure,
                       output_failures, paper_row_failures, table5_failures, verdict_failure)

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_tiny(workload: str, trace: int) -> None:
    record = OUT / f"selfcheck-{workload}-{trace}.json"
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.01", "--trace", str(trace),
                           "--size", "tiny", "--record", str(record)],
                          capture_output=True, text=True, timeout=170)
    name = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{name}: exit 0 ({proc.stderr.strip()[-200:]})")
    if proc.returncode != 0:
        return
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    check(line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"],
          f"{name}: attempted {line['attempted']}, failed {line['failed']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    check(got == wanted, f"{name}: metrics and units match BENCHMARK.json "
                         f"(missing {sorted(set(wanted) - set(got))}, "
                         f"extra {sorted(set(got) - set(wanted))})")
    if trace:
        values = {k: v["value"] for k, v in line["metrics"].items()}
        selfs = sum(v for k, v in values.items() if k.endswith(".self_s"))
        check(math.isclose(selfs, values["trace.wall_s"], rel_tol=1e-9),
              f"{name}: layer self times sum to the traced wall time "
              f"({selfs:.6f} vs {values['trace.wall_s']:.6f})")
    record.unlink(missing_ok=True)


def check_gates() -> None:
    from expbands import metrics, model, reproduce

    report = reproduce.reproduce_paper(reps=20_000, seed=3)
    row = next(r for r in report.rows if r.passed and r.tolerance > 0)
    check(paper_row_failures([row]) == [], "paper gate passes a passing row")
    wrong = dataclasses.replace(row, expected=row.expected + 10 * row.tolerance + 1)
    check(paper_row_failures([wrong]) != [], "paper gate fails a wrong expected value")

    check(exit_failure("cmd", 0, "") == [], "exit gate passes exit 0")
    check(exit_failure("cmd", 0, "", expected=3) != [], "exit gate fails a wrong exit code")

    work = OUT / "selfcheck-gates"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = work / "fluid.csv"
    model.write_sample_csv(model.load_insulating_fluid(), data)
    for args in (("band", "--method", "b4pp"), ("metrics",)):
        proc = subprocess.run([sys.executable, "-m", "expbands", *args, "--data", str(data),
                               "--output-dir", str(work), "--level", "0.9025",
                               "--reps", "20000"],
                              env=child_env(), capture_output=True, text=True, timeout=170)
        check(proc.returncode == 0, f"CLI {args[0]} runs")
    outputs = [work / "band_b4pp.json", work / "band_b4pp.csv", work / "metrics.json",
               work / "expbands-cache.jsonl"]
    check(output_failures("cli", outputs) == [], "output gate passes real CLI outputs")
    bad_json = work / "bad.json"
    bad_json.write_text('{"sigma_hat": Infinity}')
    check(output_failures("cli", [bad_json]) != [], "output gate fails non-JSON Infinity")
    rows = (work / "band_b4pp.csv").read_text().splitlines()
    x, lo, hi = rows[len(rows) // 2].split(",")
    crossed = work / "crossed.csv"
    crossed.write_text("\n".join(rows[:1] + [f"{x},{hi},{float(lo) - 1e-3}"]) + "\n")
    check(output_failures("cli", [crossed]) != [], "output gate fails lower > upper")

    doc = json.loads((work / "metrics.json").read_text())
    widths = {r["band"]: r["max_width"] for r in doc["rows"]}
    areas = {r["band"]: math.inf if r["area_infinite"] else r["area"] for r in doc["rows"]}
    check(table5_failures(doc, widths, areas) == [], "Table 5 gate passes observed values")
    check(table5_failures(doc, dict(widths, b1=widths["b1"] + 0.05), areas) != [],
          "Table 5 gate fails a wrong width")
    check(table5_failures(doc, widths, dict(areas, b3=areas["b3"] * 1.1)) != [],
          "Table 5 gate fails a wrong area")
    check(table5_failures(doc, widths, dict(areas, b4=10.0)) != [],
          "Table 5 gate fails a finite area where the band's is infinite")
    shutil.rmtree(work, ignore_errors=True)

    scheme = model.load_insulating_fluid().scheme
    rep = metrics.coverage_experiment("b1", model.LocScale(0.0, 1.0), scheme, 0.9, 2000, 3)
    check(level_failure("b1", rep.coverage, rep.coverage, rep.std_error) == [],
          "coverage level gate passes the observed level")
    check(level_failure("b1", rep.coverage, rep.coverage + 5 * rep.std_error,
                        rep.std_error) != [], "coverage level gate fails a level 5 SE away")
    check(verdict_failure("b1", 0, 1.0, 1.0) == [], "grid verdict gate passes agreement")
    check(verdict_failure("b1", 0, 1.0, 0.0) != [], "grid verdict gate fails disagreement")


def check_bare_checkout() -> None:
    bare = OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
                           "--seconds", "1"], cwd=bare, env=env, capture_output=True,
                          text=True, timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without the package: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run._load_package()
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in ("paper", "session", "coverage", "coverage_exact"):
        for trace in (0, 1):
            run_tiny(workload, trace)
    check_gates()
    check_bare_checkout()
    print(f"{len(problems)} problems" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
