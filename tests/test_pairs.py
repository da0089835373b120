"""tools/pairs.py's pairing, alternation and record schema, with a fake run
function in place of nullbench: no process is started."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
TREES = {side: Path("/scratch") / side for side in ("parent", "change")}


def load_tool(monkeypatch):
    # run as a script, the tool finds bench_summary beside it
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(calls):
    """A run function that records its calls and returns a result line
    naming its tree and its call number."""
    def run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        value = (1.1 if tree.name == "change" else 1.0) * len(calls)
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in END_TO_END}
        return {"correct": True, "attempted": 3, "failed": 0, "tree": tree.name,
                "call": len(calls), "metrics": metrics}
    return run


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []
    tool = load_tool(monkeypatch)
    runs = tool.run_pairs(TREES, ["cli_cold", "null_sim"], 1, 22.0, 3, run=fake_run(calls))
    assert [(r["workload"], r["pair"], r["side"], r["first"]) for r in runs] == [
        (w, pair, side, first)
        for w in ("cli_cold", "null_sim")
        for pair, first, second in ((1, "parent", "change"), (2, "change", "parent"),
                                    (3, "parent", "change"))
        for side in (first, second)]
    # each run is made once, in order, in its own side's tree, with the
    # workload, seed and length asked for
    assert [(r["result"]["call"], r["result"]["tree"]) for r in runs] == [
        (k, r["side"]) for k, r in enumerate(runs, 1)]
    assert calls == [(TREES[r["side"]], r["workload"], 1, 22.0) for r in runs]


def test_record_has_the_schema_of_the_committed_bench_files(monkeypatch):
    tool = load_tool(monkeypatch)
    runs = tool.run_pairs(TREES, ["outliers_dense"], 7, 1.0, 4, run=fake_run([]))
    record = tool.bench_record(runs, "about", "command", END_TO_END)
    committed = json.loads((ROOT / "BENCH_30.json").read_text(encoding="utf-8"))
    assert list(record) == list(committed)
    assert all(list(r) == list(committed["runs"][0]) for r in record["runs"])
    assert [list(row) for row in record["summary"]] == [
        list(row) for row in committed["summary"][:len(END_TO_END)]]
    assert [(row["workload"], row["seed"], row["metric"], row["pairs"])
            for row in record["summary"]] == [
        ("outliers_dense", 7, m["name"], 4) for m in END_TO_END]
    assert (record["about"], record["command"], record["claim"], record["notes"]) == (
        "about", "command", None, [])
    # quartiles need two pairs: a one-pair smoke run records its runs alone
    one = tool.run_pairs(TREES, ["null_sim"], 3, 1.0, 1, run=fake_run([]))
    assert tool.bench_record(one, "", "", END_TO_END)["summary"] == []
