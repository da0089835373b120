"""The paired-run summary rule of tools/bench_summary.py against the summary
rows committed in BENCH_24.json, which were built by hand from its runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_summary", ROOT / "tools" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduces_the_committed_summary_rows():
    bench = json.loads((ROOT / "BENCH_24.json").read_text(encoding="utf-8"))
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert len(bench["runs"]) == 80 and len(bench["summary"]) == 20
    assert load_tool().summarize(bench["runs"], end_to_end) == bench["summary"]


def test_orients_worse_by_and_wins_by_the_better_direction():
    def run(side, pair, value):
        return {"side": side, "workload": "w", "seed": 1, "pair": pair,
                "result": {"metrics": {"t": {"value": value}, "rate": {"value": value}}}}

    # the change doubles every value: twice as slow, twice the rate
    runs = [run(side, pair, value * (2 if side == "change" else 1))
            for pair, value in enumerate([1.0, 2.0, 3.0, 4.0, 5.0], 1)
            for side in ("parent", "change")]
    metrics = [{"name": "t", "better": "lower", "bound": 0.5},
               {"name": "rate", "better": "higher", "bound": 0.5}]
    slow, fast = load_tool().summarize(runs, metrics)
    assert (slow["worse_by"], slow["change_wins"], slow["within_bound"]) == (1.0, 0, False)
    assert (fast["worse_by"], fast["change_wins"], fast["within_bound"]) == (-1.0, 5, True)
    assert slow["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert slow["parent_spread"] == round(2.0 / 3.0, 4)
