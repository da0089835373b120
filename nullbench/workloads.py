"""Seeded inputs and command cycles for the four benchmark workloads.

Every input the program sees is made here from the benchmark seed: CSV files
written into the run's work directory, and argv lists that name them.  The
program receives nothing else.  Floats are written with repr, so the values
nullform parses are exactly the arrays kept in memory for the output check.

Inputs are clean on purpose (no blank or non-numeric cells): nullform ingests
every column, so a blank in an unused column would drop the row (a known
defect, ROADMAP item 5) and the check would have to model that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cli_cold", "ingest_tall", "outliers_dense", "null_sim")

# rows of the CSV each file-based workload analyzes
TALL_ROWS = 20_000
DENSE_ROWS = 600
COLD_ROWS = 40
PREDICTORS = ("x1", "x2", "x3")

# number of planted 6-sigma outliers in the regression files
PLANTED_OUTLIERS = 3


@dataclass
class Dataset:
    """One generated regression CSV and the exact values written to it."""

    path: str
    labels: list[str]
    y: np.ndarray
    x: np.ndarray  # n-by-3 predictors, without the intercept


@dataclass
class Inputs:
    workload: str
    cycle: list[list[str]]
    datasets: dict[str, Dataset] = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    def files(self) -> list[str]:
        return [d.path for d in self.datasets.values()]


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _write_csv(path: Path, labels, y, x) -> None:
    lines = ["label,y," + ",".join(PREDICTORS)]
    for label, yi, row in zip(labels, y.tolist(), x.tolist()):
        lines.append(f"{label},{yi!r}," + ",".join(repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _regression(rng, n: int, path: Path, plant: bool) -> Dataset:
    """y = b0 + b1 x1 + beta (x2 + x3) + noise.

    beta gives the tested block of the ftest a noncentrality of about 40, so
    SS_{2|1} is never a cancellation-sized difference of SSE_1 and SSE_12
    (the F check stays well conditioned for every seed) while p-values still
    range over many decades.  With `plant`, a few rows get a 6-sigma shift
    and one row a far-out x1 (high leverage).
    """
    x = rng.standard_normal((n, len(PREDICTORS)))
    b0 = float(rng.uniform(2.0, 5.0))
    b1 = float(rng.uniform(0.5, 1.5))
    beta = math.sqrt(20.0 / n)
    y = b0 + b1 * x[:, 0] + beta * (x[:, 1] + x[:, 2]) + rng.standard_normal(n)
    if plant:
        rows = rng.choice(n - 1, size=PLANTED_OUTLIERS, replace=False) + 1
        y[rows] += 6.0 * rng.choice([-1.0, 1.0], size=PLANTED_OUTLIERS)
        x[0, 0] = 8.0
        y[0] = b0 + b1 * x[0, 0] + float(rng.standard_normal())
    labels = [f"obs{i:05d}" for i in range(n)]
    _write_csv(path, labels, y, x)
    return Dataset(str(path), labels, y, x)


def _regression_argv(command: str, path: str) -> list[str]:
    return [command, "--input", path, "--label-column", "label",
            "--response", "y", "--predictors", ",".join(PREDICTORS)]


def _ttest_argv(rng, data: Dataset) -> list[str]:
    # mu0 between half and three standard errors below the sample mean: a
    # moderate t, so both p-value routes are compared away from 0 and 1
    n = len(data.y)
    shift = float(rng.uniform(0.5, 3.0))
    mu0 = float(np.mean(data.y) - shift * np.std(data.y) / math.sqrt(n))
    return ["ttest", "--input", data.path, "--label-column", "label",
            "--column", "y", "--mu0", repr(mu0), "--json"]


def _ftest_argv(data: Dataset) -> list[str]:
    return ["ftest", "--input", data.path, "--label-column", "label",
            "--response", "y", "--full-cols", ",".join(PREDICTORS),
            "--reduced-cols", PREDICTORS[0], "--intercept", "--json"]


def _sim_seed(rng) -> str:
    return str(int(rng.integers(0, 2**63)))


def generate(workload: str, seed: int, work: Path) -> Inputs:
    """Write the workload's inputs under `work` and return its command cycle."""
    rng = _rng(seed, workload)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "ingest_tall":
        data = _regression(rng, TALL_ROWS, work / "tall.csv", plant=False)
        inputs = Inputs(workload, [_ttest_argv(rng, data), _ftest_argv(data)],
                        {"tall": data})
    elif workload == "outliers_dense":
        data = _regression(rng, DENSE_ROWS, work / "dense.csv", plant=True)
        svg = str(work / "residuals.svg")
        inputs = Inputs(workload, [
            _regression_argv("outliers", data.path) + ["--json"],
            _regression_argv("plot", data.path) + ["--out", svg, "--json"],
        ], {"dense": data})
    elif workload == "null_sim":
        inputs = Inputs(workload, [
            ["simulate", "--scenario", "f", "--replicates", "20000", "--n", "20",
             "--p1", "2", "--p2", "2", "--seed", _sim_seed(rng), "--json"],
            ["simulate", "--scenario", "t", "--replicates", "20000", "--n", "10",
             "--seed", _sim_seed(rng), "--json"],
            ["simulate", "--scenario", "proportion", "--replicates", "200000",
             "--n", "20", "--effect", "0.05", "--seed", _sim_seed(rng), "--json"],
        ])
    elif workload == "cli_cold":
        data = _regression(rng, COLD_ROWS, work / "small.csv", plant=True)
        trials = int(rng.integers(50, 500))
        p0 = round(float(rng.uniform(0.2, 0.8)), 3)
        successes = int(np.clip(rng.binomial(trials, p0 + 0.05), 1, trials - 1))
        svg = str(work / "residuals.svg")
        inputs = Inputs(workload, [
            _ttest_argv(rng, data),
            ["proptest", "--successes", str(successes), "--n", str(trials),
             "--p0", repr(p0), "--json"],
            _ftest_argv(data),
            _regression_argv("outliers", data.path) + ["--json"],
            ["simulate", "--scenario", "t", "--replicates", "2000", "--n", "10",
             "--seed", _sim_seed(rng), "--json"],
            _regression_argv("plot", data.path) + ["--out", svg, "--json"],
        ], {"small": data})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.sizes = {
        "commands_per_cycle": len(inputs.cycle),
        "files": {
            Path(d.path).name: {"rows": len(d.y), "columns": 2 + len(PREDICTORS),
                                "bytes": Path(d.path).stat().st_size}
            for d in inputs.datasets.values()
        },
    }
    return inputs
