"""Summarise paired benchmark runs into the `summary` rows of a BENCH_*.json.

A BENCH file's `runs` are nullbench/run.py result lines, each tagged with its
`side` ("parent" or "change"), `workload`, `seed` and `pair`.  For each
(workload, seed), in order of first appearance, and each end-to-end metric of
BENCHMARK.json, in its order, a row gives both sides' inclusive quartiles,
how much worse the change's median is, how many pairs the change wins, and
whether it stays within the metric's bound.

    python tools/bench_summary.py BENCH_30.json   # print its summary rows
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """The summary rows of `runs`, paired by `pair` within each (workload, seed)."""
    groups: dict[tuple, dict[int, dict]] = {}
    for run in runs:
        if run["side"] in ("parent", "change"):
            group = groups.setdefault((run["workload"], run["seed"]), {})
            group.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    rows = []
    for (workload, seed), pairs in groups.items():
        both = [pairs[k] for k in sorted(pairs) if len(pairs[k]) == 2]
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"][name]["value"] for p in both]
            change = [p["change"][name]["value"] for p in both]
            pq, cq = _quartiles(parent), _quartiles(change)
            ratio = cq[1] / pq[1]
            worse_by = round(ratio - 1.0 if lower else 1.0 - ratio, 4)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            rows.append({
                "workload": workload,
                "seed": seed,
                "metric": name,
                "pairs": len(both),
                "change_wins": wins,
                "parent_q1_median_q3": [round(q, 6) for q in pq],
                "change_q1_median_q3": [round(q, 6) for q in cq],
                "worse_by": worse_by,
                "bound": metric["bound"],
                "within_bound": worse_by <= metric["bound"],
                "parent_spread": round((pq[2] - pq[0]) / pq[1], 4),
            })
    return rows


def main(path: str) -> None:
    runs = json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    print(json.dumps(summarize(runs, end_to_end), indent=1))


if __name__ == "__main__":
    main(sys.argv[1])
