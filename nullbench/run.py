"""nullform benchmark: one command, four workloads, checked outputs.

    python3 nullbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a nullform checkout; the package is imported from its
`src/` directory and nothing needs installing beyond numpy (scipy and
jsonschema check the outputs).  With --trace 0 a run prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run, each by name
with its unit; the last stdout line of a run is its JSON result.  `--workload
all` runs every workload in turn.  Inputs and span files go to
`.nullbench_run/` in the checkout.  `nullbench/layers.json` documents the
workloads, metrics, the layer -> metric -> workload predictions and the known
defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS/OpenMP pools pinned to one thread in this process and every child, so
# a 2-core machine measures the program and not the scheduler
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-ups per untraced run; setup_s is their median
SETUPS = 3
# the tail is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10


def _spawn_worker(job: dict, job_file: Path) -> dict:
    job_file.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_file)],
                          capture_output=True, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def _fingerprint(inputs, base: Path) -> str:
    """Digest of a workload's input bytes and argv, independent of its directory."""
    digest = hashlib.sha256(json.dumps(
        [[a.replace(str(base), "") for a in argv] for argv in inputs.cycle]).encode())
    for path in inputs.files():
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _latency(op) -> float:
    # worker op rows: [command, wall latency, rc, sha, svg sha, traced, factor]
    return op[1] * op[6]


def _p50(ops, commands: int) -> float:
    """Mean over the cycle's commands of each command's median latency.

    The cycle gives every command equal weight; a pooled median of a
    multi-modal mix would jump between modes from run to run.
    """
    return statistics.fmean(statistics.median(_latency(o) for o in ops if o[0] == i)
                            for i in range(commands))


def _end_to_end(ops, commands: int, setup_times, peak_rss_mb):
    latencies = sorted(map(_latency, ops))
    n = len(latencies)
    metrics = {
        "op_p50_s": _p50(ops, commands),
        "op_tail_s": latencies[n - TAIL_BEYOND - 1],
        "ops_per_s": n / sum(latencies),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_p50 = statistics.fmean(statistics.median(o[1] for o in ops if o[0] == i)
                               for i in range(commands))
    notes = [f"op_tail_s is p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} ops "
             f"({TAIL_BEYOND} beyond)",
             f"wall-clock op_p50_s {raw_p50:.6g} s, mean speed factor "
             f"{statistics.fmean(o[6] for o in ops):.4f}"]
    return metrics, notes


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up (several times when untraced) and run the measured loop.

    Each set-up is timed from the workload start to the first timed op:
    input generation, worker start, `import nullform` for in-process
    workloads and one untimed warm-up op.
    """
    import workloads

    setup_times, all_inputs = [], []
    setups = 1 if trace else SETUPS
    for k in range(setups):
        t0 = time.monotonic()
        inputs = workloads.generate(workload, seed, work / f"setup{k}")
        all_inputs.append(inputs)
        job = {"cycle": inputs.cycle, "trace": trace, "work": str(work),
               "spawn": workload == "cli_cold", "t0": t0,
               "setup_only": k < setups - 1, "seconds": seconds,
               "min_ops": TAIL_BEYOND + 1,
               "trace_file": str(ROOT / ".nullbench_run" / f"trace-{workload}-{seed}.json")}
        result = _spawn_worker(job, work / f"job{k}.json")
        setup_times.append(result["setup_s"])

    problems = []
    prints = {_fingerprint(i, work / f"setup{k}") for k, i in enumerate(all_inputs)}
    if len(prints) != 1:
        problems.append("inputs: the same seed gave different inputs")
    other = workloads.generate(workload, seed + 1, work / "other-seed")
    if _fingerprint(other, work / "other-seed") in prints:
        problems.append("inputs: a different seed gave the same inputs")
    return inputs, result, setup_times, problems


def _verify(inputs, result, problems: list) -> tuple[int, str]:
    """Check every op's output; returns the failed-op count and self-test line."""
    from check import Checker, corruptions

    cycle = inputs.cycle
    first = {int(k): v for k, v in result["first"].items()}
    checker = Checker(ROOT, inputs)
    verdicts = checker.check_all(first)
    for i, found in verdicts.items():
        problems.extend(f"{cycle[i][0]} [{i}]: {p}" for p in found[:5])
    ops = result["ops"]
    if result["warmup"]["rc"] != 0 or result["warmup"]["sha"] != ops[0][3]:
        problems.append("warm-up output differs from the first timed op of the same argv")
    first_sha = {}
    for o in ops:
        first_sha.setdefault(o[0], (o[3], o[4]))
    failed = sum(1 for o in ops if o[2] != 0 or verdicts[o[0]]
                 or (o[3], o[4]) != first_sha[o[0]])
    if result["peak_rss_mb"] <= result.get("launcher_rss_mb", 0.0):
        problems.append("peak_rss_mb: the commands did not outgrow their launcher, "
                        "so their peak cannot be told from its size")

    selftest = corruptions(cycle, first)
    outliers_out = checker.outliers_output(first)
    missed = [name for name, i, out, svg in selftest
              if not checker.check(cycle[i], out, svg, outliers_out)]
    problems.extend(f"self-test: the check accepted a {name}" for name in missed)
    return failed, f"self-test: {len(selftest) - len(missed)}/{len(selftest)} corrupted outputs rejected"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> None:
    import numpy

    work = ROOT / ".nullbench_run" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, result, setup_times, problems = _measure(workload, seed, seconds, trace, work)
        failed, selftest = _verify(inputs, result, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = result["ops"]
    ops = [o for o in all_ops if not o[5]]
    commands = len(inputs.cycle)
    print("# env " + json.dumps({
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "blas_threads": 1, "inputs": inputs.sizes,
        "cycle": [a[0] for a in inputs.cycle], "ops": len(all_ops),
        "traced_ops": len(all_ops) - len(ops)}, sort_keys=True))
    print("# " + selftest)
    if trace:
        metrics = dict(result["layers"])
        traced = [o for o in all_ops if o[5]]
        metrics["trace.overhead_frac"] = _p50(traced, commands) / _p50(ops, commands) - 1.0
        print("# counts per command: " + json.dumps(result["counts"], sort_keys=True))
        print(f"# spans written to .nullbench_run/trace-{workload}-{seed}.json")
    else:
        metrics, notes = _end_to_end(ops, commands, setup_times, result["peak_rss_mb"])
        for note in notes:
            print("# " + note)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if sorted(metrics) != sorted(declared):
        problems.append(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {declared.get(name, '?')}")
    attempted = len(all_ops)
    print(f"{'op_fail_frac':34s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for p in problems:
        print(f"# FAIL {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared.get(k, "?")} for k, v in metrics.items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (SRC / "nullform" / "__init__.py", ROOT / "report.schema.json",
                 ROOT / "BENCHMARK.json"):
        if not path.is_file():
            print(f"nullbench: {path.relative_to(ROOT)} not found; run from the "
                  "root of a nullform checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*names, "all"):
        print(f"nullbench: unknown workload {args.workload!r}; one of {names} or all",
              file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))

    for workload in names if args.workload == "all" else [args.workload]:
        run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
