"""Run alternating benchmark pairs of two trees and write a BENCH_*.json.

    python tools/pairs.py --parent REV [--change REV | --aa] --workload NAME|all \
        --seed S --seconds T --pairs N --scratch DIR --out BENCH_N.json

The parent is checked out as a `git worktree` at DIR/parent.  The change is
DIR/change: a worktree of --change REV, a second worktree of the parent with
--aa, and otherwise a copy of this checkout's tracked and untracked files that
git does not ignore (`git ls-files -co --exclude-standard`).  The two paths
have equal length.  Neither holds a bytecode cache, since git tracks none and
the copy skips ignored files, and every run sets PYTHONDONTWRITEBYTECODE=1,
so neither side starts with compiled modules the other lacks.  For each
workload, pair k runs both trees once with `nullbench/run.py --workload W
--seed S --seconds T`, the parent first in odd pairs and the change first in
even ones.  The output keeps BENCH_30.json's
schema: `runs` hold each run's JSON result line, tagged with its `side`,
`workload`, `seed`, `pair` and which side ran `first`, and `summary` holds
`bench_summary.summarize`'s rows of them.  The worktrees are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from bench_summary import BENCHMARK, summarize

ROOT = BENCHMARK.parent
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def make_trees(scratch: Path, parent: str, change: str | None, aa: bool) -> dict[str, Path]:
    """The two trees at scratch/parent and scratch/change (see the module doc)."""
    trees = {side: scratch / side for side in SIDES}
    _git("worktree", "add", "--detach", str(trees["parent"]), parent)
    if aa or change:
        _git("worktree", "add", "--detach", str(trees["change"]), parent if aa else change)
    else:
        for name in _git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
            if name and (ROOT / name).is_file():
                (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, trees["change"] / name)
    return trees


def remove_trees(trees: dict[str, Path]) -> None:
    for tree in trees.values():
        if (tree / ".git").is_file():
            _git("worktree", "remove", "--force", str(tree))
        else:
            shutil.rmtree(tree, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One nullbench run in tree; its last stdout line is the JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "nullbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_pairs(trees: dict[str, Path], workloads: list[str], seed: int, seconds: float,
              pairs: int, run=run_once) -> list[dict]:
    """The runs of `pairs` alternating pairs per workload, in the order run."""
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                runs.append({"side": side, "workload": workload, "seed": seed, "pair": pair,
                             "first": order[0],
                             "result": run(trees[side], workload, seed, seconds)})
    return runs


def bench_record(runs: list[dict], about: str, command: str, end_to_end: list[dict]) -> dict:
    """A BENCH_*.json body: no claim and no notes until a reader adds them.

    Quartiles need two pairs at least, so a one-pair run has no summary rows.
    """
    summary = summarize(runs, end_to_end) if len({r["pair"] for r in runs}) > 1 else []
    return {"about": about, "command": command, "claim": None, "notes": [],
            "summary": summary, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    sides = parser.add_mutually_exclusive_group()
    sides.add_argument("--change", help="a revision; default: this checkout's files")
    sides.add_argument("--aa", action="store_true", help="run the parent against itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; one of {names} or all")
    parent = _git("rev-parse", "--short", args.parent).strip()
    change = ("the parent again (A/A)" if args.aa else
              _git("rev-parse", "--short", args.change).strip() if args.change
              else "this checkout's files")
    args.scratch.mkdir(parents=True, exist_ok=True)
    scratch = args.scratch.resolve()
    try:
        trees = make_trees(scratch, args.parent, args.change, args.aa)
        runs = run_pairs(trees, workloads, args.seed, args.seconds, args.pairs)
    finally:
        remove_trees({side: scratch / side for side in SIDES})
    about = (f"nullbench/run.py result lines of the parent commit {parent} and of {change}, "
             f"--seconds {args.seconds:g}, one workload at a time, {args.pairs} pairs per "
             f"workload on seed {args.seed}, alternating which side runs first, written by "
             "tools/pairs.py: both trees at sibling paths of equal length, no bytecode cache, "
             "PYTHONDONTWRITEBYTECODE=1.  Summary rows by tools/bench_summary.py.")
    command = ("python3 nullbench/run.py --workload WORKLOAD "
               f"--seed {args.seed} --seconds {args.seconds:g}")
    record = bench_record(runs, about, command, spec["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bad = [r for r in runs if r["result"]["correct"] is not True or r["result"]["failed"]]
    print(f"{len(runs)} runs, {len(bad)} not correct or with failed ops; wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
