"""Summaries and comparison of result sets written by
`run.py --workload all --out FILE`.

    python3 bench/compare.py BEFORE.json AFTER.json

Informational only; it gates nothing. For each workload and metric it
prints both sides' median and quartiles, the change of the medians, and a
verdict against the benchmark's own bounds (BENCHMARK.json for the
end-to-end metrics, run.INFO for the workload metrics):

- unresolved: BEFORE's interquartile range is wider than the bound, unless
  every AFTER run beats every BEFORE run, which reads better;
- worse: AFTER's median is worse than BEFORE's by more than the bound;
- better: AFTER's median is better than BEFORE's by more than the bound;
- same: neither.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import INFO, ROOT


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_table(result_set: dict) -> dict:
    """{(workload, metric): [value per untraced run]}"""
    table = defaultdict(list)
    for run in result_set["runs"]:
        if not run["trace"]:
            for key, value in run["values"].items():
                table[run["workload"], key].append(value)
    return table


def metric_specs() -> dict:
    """{metric: (unit, better, bound)}"""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = dict(INFO)
    for m in doc["end_to_end"]:
        specs[m["name"]] = (m["unit"], m["better"], m["bound"])
    return specs


def summarize(result_set: dict) -> str:
    specs = metric_specs()
    lines = [f"{'workload':<14} {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} "
             f"{'q3':>12} {'iqr/med':>8} runs"]
    for (workload, key), values in metric_table(result_set).items():
        q1, med, q3 = quartiles(values)
        rel = (q3 - q1) / med if med else float("nan")
        lines.append(f"{workload:<14} {key:<20} {specs[key][0]:<6} {med:>12.6g} {q1:>12.6g} "
                     f"{q3:>12.6g} {rel:>8.3f} {len(values)}")
    return "\n".join(lines)


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(before)
    _, a_med, _ = quartiles(after)
    scale = abs(b_med) or 1.0           # a zero median compares in absolute terms
    worse_by = sign * (a_med - b_med) / scale
    if (b_q3 - b_q1) / scale > bound:
        if max(sign * a for a in after) < min(sign * b for b in before):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def compare(before: dict, after: dict) -> str:
    specs = metric_specs()
    a_table, b_table = metric_table(after), metric_table(before)
    lines = [f"{'workload':<14} {'metric':<20} {'before median [q1, q3]':>36} "
             f"{'after median [q1, q3]':>36} {'change':>8} {'bound':>6} verdict"]
    for key in b_table:
        if key not in a_table:
            continue
        unit, better, bound = specs[key[1]]
        b, a = b_table[key], a_table[key]
        (bq1, bm, bq3), (aq1, am, aq3) = quartiles(b), quartiles(a)
        change = (am - bm) / (abs(bm) or 1.0)
        lines.append(f"{key[0]:<14} {key[1]:<20} {bm:>12.6g} [{bq1:.4g}, {bq3:.4g}]".ljust(73)
                     + f"{am:>12.6g} [{aq1:.4g}, {aq3:.4g}]".ljust(37)
                     + f"{change:>+8.3f} {bound:>6.2f} {verdict(b, a, better, bound)}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit("usage: python3 bench/compare.py BEFORE.json AFTER.json")
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    print(compare(before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
