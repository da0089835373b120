"""The measured process: one closed loop, one client, over a command cycle.

    python3 worker.py JOB.json                      run the job, print a JSON result
    python3 worker.py --cli-op SPANS.json -- ARGV   one traced CLI command
    python3 worker.py --launcher                    run commands read from stdin

In-process workloads import nullform here and call `cli.run_command` with
stdout captured; `cli_cold` spawns `python -m nullform ARGV` for every op
through the launcher.
Each op's stdout (and SVG for plot) is reduced to a sha256 inside this
process; the full text of the first output of every command is returned for
the output check, which runs in the parent after this process has exited.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import tracing

# interpreter and import floors are timed this many times in a traced run
_FLOOR_REPEATS = 5

# Calibration: this host's CPU speed swings by up to 1.6x within seconds
# (other tenants), which moved raw medians of 20 s runs by up to 40%.  A
# short kernel shaped like nullform's work (float parsing, dicts, sorting,
# small QRs, one pass over a 2 MB array) is timed before and after every op,
# and each latency is rescaled to the speed at which the kernel takes
# REF_CAL_S, about its uncontended time on the 2-core host the benchmark was
# tuned on.  Timings the benchmark reports are in these reference seconds.
REF_CAL_S = 1.5e-3
_CAL_STRINGS = [repr(i * 0.37) for i in range(2500)]
_cal_arrays = []


def calibration_s() -> float:
    """Wall time of one run of the calibration kernel."""
    import numpy as np

    if not _cal_arrays:
        rng = np.random.default_rng(0)
        _cal_arrays.extend((rng.standard_normal((60, 5)), rng.standard_normal(250_000)))
    small, large = _cal_arrays
    started = time.perf_counter()
    values = [float(s) for s in _CAL_STRINGS]
    table = dict(zip(_CAL_STRINGS, values))
    values.sort()
    sum(table.values())
    for _ in range(20):
        np.linalg.qr(small)
    large @ large  # reads 2 MB without allocating: the allocator state is left alone
    return time.perf_counter() - started


def speed_factor(cal_before: float, cal_after: float) -> float:
    """Wall seconds -> reference seconds for work bracketed by two calibrations."""
    return 2.0 * REF_CAL_S / (cal_before + cal_after)


def _own_peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    Not ru_maxrss: Linux carries the spawning process's resident size across
    exec into it, so it would count the benchmark's parent as well.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _svg_path(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _nullform_modules():
    from nullform import (cli, dataio, diagnostics, linmodel, montecarlo,
                          proportion, report, specfun, svgplot, ttest)

    return {m.__name__.rsplit(".", 1)[1]: m for m in
            (cli, dataio, diagnostics, linmodel, montecarlo, proportion,
             report, specfun, svgplot, ttest)}


class InProcess:
    """Ops are calls of cli.run_command in this process."""

    def __init__(self, trace: bool):
        self.modules = _nullform_modules()
        self.tracer = tracing.Tracer(self.modules) if trace else None

    def run(self, argv, op: int, traced: bool):
        buf = io.StringIO()
        run_command = self.modules["cli"].run_command
        started = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if traced:
                    rc = self.tracer.run_op(op, lambda: self.tracer.run_command(argv))
                else:
                    rc = run_command(argv)
        except Exception:  # an op that raises counts as failed; keep looping
            traceback.print_exc()
            rc = -1
        return time.perf_counter() - started, rc, buf.getvalue()

    def peak_rss(self) -> dict:
        return {"peak_rss_mb": _own_peak_rss_mb()}

    def span_log(self):
        return self.tracer

    def close(self) -> None:
        pass


class Spawned:
    """Ops are fresh `python -m nullform` processes (traced: --cli-op).

    A small launcher process starts them: Linux carries the spawning
    process's resident size into a child's ru_maxrss, and this worker grows
    past the commands once the calibration kernel imports numpy.  Traced
    children write their spans to a file; they are merged here, so this
    object stands in for the Tracer when the metrics are computed.
    """

    def __init__(self, work: Path):
        self.spans: list[list] = []
        self.cache_hits = self.cache_misses = 0
        self.work = work
        self.launcher = subprocess.Popen(
            [sys.executable, __file__, "--launcher"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_rss_mb = self.launcher_rss_mb = 0.0

    def peak_rss(self) -> dict:
        return {"peak_rss_mb": self.peak_rss_mb, "launcher_rss_mb": self.launcher_rss_mb}

    def span_log(self):
        return self

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, argv, op: int, traced: bool):
        span_file = self.work / f"op{op}.spans.json"
        if traced:
            cmd = [sys.executable, __file__, "--cli-op", str(span_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "nullform", *argv]
        self.launcher.stdin.write(json.dumps(cmd) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["stderr"]:
            sys.stderr.write(reply["stderr"])
        self.peak_rss_mb = reply["children_peak_rss_mb"]
        self.launcher_rss_mb = reply["launcher_peak_rss_mb"]
        if traced and span_file.exists():
            self._merge(json.loads(span_file.read_text()), op)
            span_file.unlink()
        return reply["elapsed"], reply["rc"], reply["stdout"]

    def _merge(self, child: dict, op: int) -> None:
        offset = len(self.spans)
        for s in child["spans"]:
            self.spans.append([s[0], op, s[2] + offset if s[2] >= 0 else -1, *s[3:]])
        self.cache_hits += child["cache_hits"]
        self.cache_misses += child["cache_misses"]


def _floor_times() -> dict:
    """Median wall time of a bare interpreter and of `import nullform`."""
    def median_run(code):
        times = []
        cal_before = calibration_s()
        for _ in range(_FLOOR_REPEATS):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            elapsed = time.perf_counter() - started
            cal_after = calibration_s()
            times.append(elapsed * speed_factor(cal_before, cal_after))
            cal_before = cal_after
        return statistics.median(times)

    floor = median_run("pass")
    return {"cli.interpreter_s": floor,
            "cli.import_s": median_run("import nullform") - floor}


def run_job(job: dict) -> dict:
    runner = Spawned(Path(job["work"])) if job["spawn"] else InProcess(job["trace"])
    try:
        return _run(job, runner)
    finally:
        runner.close()


def _run(job: dict, runner) -> dict:
    cycle = job["cycle"]
    trace = job["trace"]
    # set-up ends after one untimed warm-up op of the first command; it is
    # rescaled by calibrations in this process around the warm-up (the time
    # of the first, which may import numpy, is left out of the set-up)
    cal_started = time.monotonic()
    cal_before = calibration_s()
    cal_cost = time.monotonic() - cal_started
    _, warm_rc, warm_out = runner.run(cycle[0], -1, False)
    ready_s = time.monotonic() - job["t0"] - cal_cost
    result = {"setup_s": ready_s * speed_factor(cal_before, calibration_s()),
              "warmup": {"rc": warm_rc, "sha": _sha(warm_out)}}
    if job["setup_only"]:
        return result

    # [command index, latency, rc, stdout sha, svg sha, traced, speed factor]
    ops = []
    first: dict[int, dict] = {}
    op_commands = {}
    min_cycles = 2 if trace else 1
    started = time.perf_counter()
    cycles = 0
    cal_before = calibration_s()
    while (time.perf_counter() - started < job["seconds"] or cycles < min_cycles
           or len(ops) < job["min_ops"]):
        traced = trace and cycles % 2 == 1
        for idx, argv in enumerate(cycle):
            op = len(ops)
            latency, rc, out = runner.run(argv, op, traced)
            cal_after = calibration_s()
            factor = speed_factor(cal_before, cal_after)
            cal_before = cal_after
            svg_file = _svg_path(argv)
            svg = Path(svg_file).read_text(encoding="utf-8") if svg_file and rc == 0 else ""
            ops.append([idx, latency, rc, _sha(out), _sha(svg), traced, factor])
            if traced:
                op_commands[op] = argv[0] + (f":{argv[argv.index('--scenario') + 1]}"
                                             if "--scenario" in argv else "")
            first.setdefault(idx, {"stdout": out, "svg": svg})
        cycles += 1
    result.update(ops=ops, first=first, **runner.peak_rss())

    if trace:
        log = runner.span_log()
        scale = {op: o[6] for op, o in enumerate(ops) if o[5]}
        layers = tracing.layer_metrics(log.spans, scale, log.cache_hits, log.cache_misses)
        layers.update(_floor_times())
        result["layers"] = layers
        result["counts"] = tracing.counts_by_command(log.spans, op_commands)
        with open(job["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"names": tracing.NAMES, "op_commands": op_commands,
                       "fields": ["name", "op", "parent", "start", "end", "attr"],
                       "spans": log.spans}, fh)
    return result


def cli_op(span_file: str, argv: list[str]) -> int:
    """A fresh process that runs one traced command and writes its spans."""
    tracer = tracing.Tracer(_nullform_modules())
    rc = tracer.run_op(0, lambda: tracer.run_command(argv))
    sys.stdout.flush()
    Path(span_file).write_text(json.dumps({
        "spans": tracer.spans, "cache_hits": tracer.cache_hits,
        "cache_misses": tracer.cache_misses}), encoding="utf-8")
    return rc


def launcher() -> int:
    """Run each command read from stdin; reply with its time, output and the
    peak resident size of the largest command so far."""
    for line in sys.stdin:
        started = time.perf_counter()
        proc = subprocess.run(json.loads(line), capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        sys.stdout.write(json.dumps({
            "elapsed": elapsed, "rc": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "launcher_peak_rss_mb": _own_peak_rss_mb(),
            "children_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}) + "\n")
        sys.stdout.flush()
    return 0


def main() -> int:
    if sys.argv[1] == "--launcher":
        return launcher()
    if sys.argv[1] == "--cli-op":
        return cli_op(sys.argv[2], sys.argv[4:])
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run_job(job)
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
