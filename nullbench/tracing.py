"""Spans recorded by wrappers placed around nullform's public functions.

Nothing inside the package is instrumented.  `Tracer.install` replaces every
module-level binding through which a public function is looked up (the
defining module, the modules that did `from .x import f`, and the class
attribute `AnalysisReport.to_json`) with a wrapper that records a span:
name, op id, parent span, start and end, plus one attribute (rows, bytes or
cells) read from the call.  `uninstall` puts the originals back, so traced and
untraced ops can alternate in one process.

Only cross-module entry points are wrapped.  Helpers that specfun calls
internally (reg_inc_beta, log_gamma, pdf) are not, which keeps the wrapper
cost out of the innermost loop.  `quantile` is recursive through its module
global, so its recursive calls are counted; it is lru_cached, so its hit ratio
is read from `cache_info()` around each traced op.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

_MB = float(1 << 20)


def _rows(args, kwargs, result):
    return result.n_rows + result.dropped_rows


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _draws(args, kwargs, result):
    # (seed, domain, start, count): domain 2 is the fixed F design, negative
    # here so it is kept out of the draws that scale with replicates * n
    # (domains 1, response noise, and 3, Bernoulli trials)
    domain, count = args[1], args[3]
    return -count if domain == 2 else count


def _cells(args, kwargs, result):
    cfg = args[0]
    return cfg.replicates * cfg.n


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


# span name -> (defining module, public name, extra modules holding a copy,
# attribute extractor)
_TARGETS = {
    "dataio.ingest_csv": ("dataio", "ingest_csv", ("cli",), _rows),
    "dataio.file_digest": ("dataio", "file_digest", ("cli",), _file_bytes),
    "linmodel.fit": ("linmodel", "fit", ("cli", "diagnostics"), None),
    "linmodel.nested_f_test": ("linmodel", "nested_f_test", ("cli", "diagnostics"), None),
    "linmodel.f_geometry": ("linmodel", "f_geometry", ("cli",), None),
    "diagnostics.residual_diagnostics": ("diagnostics", "residual_diagnostics", ("cli",), None),
    "diagnostics.leverage": ("diagnostics", "leverage", (), None),
    "diagnostics.residual_gaps": ("diagnostics", "residual_gaps", ("cli",), None),
    "ttest.t_test": ("ttest", "t_test", ("cli",), None),
    "ttest.geometry": ("ttest", "geometry", ("cli",), None),
    "proportion.proportion_test": ("proportion", "proportion_test", ("cli",), None),
    "specfun.cdf": ("specfun", "cdf", ("linmodel", "diagnostics", "ttest", "montecarlo"), None),
    "specfun.quantile": ("specfun", "quantile", ("montecarlo",), None),
    "specfun.std_normal_cdf": ("specfun", "std_normal_cdf", ("cli",), None),
    "specfun.two_sided_normal_p": ("specfun", "two_sided_normal_p", ("proportion",), None),
    "specfun.normal_critical": ("specfun", "normal_critical", ("proportion", "montecarlo"), None),
    "montecarlo.simulate_size_power": ("montecarlo", "simulate_size_power", ("cli",), _cells),
    "montecarlo.null_law_check": ("montecarlo", "null_law_check", ("cli",), _cells),
    "montecarlo.normal_cells": ("montecarlo", "normal_cells", (), _draws),
    "montecarlo.uniform_cells": ("montecarlo", "uniform_cells", (), _draws),
    "report.AnalysisReport": ("report", "AnalysisReport", ("cli",), None),
    "svgplot.emit_residual_plots": ("svgplot", "emit_residual_plots", ("cli",), _text_bytes),
}
_TO_JSON = "report.to_json"
_RUN = "cli.run_command"
NAMES = (_RUN, *_TARGETS, _TO_JSON)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, modules: dict):
        self.modules = modules  # short module name -> module object
        self.spans: list[list] = []  # [name_idx, op, parent, start, end, attr]
        self.stack: list[int] = []
        self.op = -1
        self.cache_hits = 0
        self.cache_misses = 0
        self._saved: list[tuple] = []
        self._quantile = modules["specfun"].quantile
        self._wrapped = {}
        for name, (mod, attr, _, extract) in _TARGETS.items():
            self._wrapped[name] = self.wrap(name, getattr(modules[mod], attr), extract)
        self._report_cls = modules["report"].AnalysisReport
        self._wrapped[_TO_JSON] = self.wrap(_TO_JSON, self._report_cls.to_json, _text_bytes)
        self.run_command = self.wrap(_RUN, modules["cli"].run_command)

    def wrap(self, name, fn, extract=None):
        index = NAMES.index(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [index, self.op, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, (mod, attr, copies, _) in _TARGETS.items():
            for holder in (mod, *copies):
                module = self.modules[holder]
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrapped[name])
        self._saved.append((self._report_cls, "to_json", self._report_cls.to_json))
        self._report_cls.to_json = self._wrapped[_TO_JSON]

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op: int, call):
        """Run call() as op `op` under the wrappers, counting quantile cache use."""
        self.op = op
        before = self._quantile.cache_info()
        self.install()
        try:
            return call()
        finally:
            self.uninstall()
            after = self._quantile.cache_info()
            self.cache_hits += after.hits - before.hits
            self.cache_misses += after.misses - before.misses


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            out[s[2]] -= s[4] - s[3]
    return out


def layer_metrics(spans, scale: dict, cache_hits: int, cache_misses: int) -> dict:
    """Per-op layer metrics from the spans of the traced ops.

    `scale` maps each traced op to the factor that converts its wall seconds
    to reference-speed seconds.  Times, calls and bytes_read are per op;
    *_bytes are per producing call;
    rows_per_s, cdf_us_per_call and the fractions are ratios of totals.
    A layer the workload never reaches reports 0.
    """
    total = defaultdict(float)  # name -> inclusive seconds
    calls = defaultdict(int)
    attr = defaultdict(float)
    own = defaultdict(float)  # name -> self seconds
    outer_quantile = 0.0
    selfs = self_times(spans)
    quantile_idx = NAMES.index("specfun.quantile")
    for s, self_s in zip(spans, selfs):
        name = NAMES[s[0]]
        factor = scale[s[1]]
        dur = (s[4] - s[3]) * factor
        total[name] += dur
        calls[name] += 1
        attr[name] += s[5]
        own[name] += self_s * factor
        if s[0] == quantile_idx and (s[2] < 0 or spans[s[2]][0] != quantile_idx):
            outer_quantile += dur
    per = 1.0 / len(scale)

    def ratio(a, b):
        return a / b if b else 0.0

    draw_names = {NAMES.index("montecarlo.normal_cells"), NAMES.index("montecarlo.uniform_cells")}
    draw_sizes = [s[5] for s in spans if s[0] in draw_names]
    draws = sum(d for d in draw_sizes if d > 0)
    cells = attr["montecarlo.simulate_size_power"]
    reads = calls["dataio.ingest_csv"] + calls["dataio.file_digest"]
    file_bytes = ratio(attr["dataio.file_digest"], calls["dataio.file_digest"])
    return {
        "cli.run_command_self_s": own[_RUN] * per,
        "dataio.ingest_s": total["dataio.ingest_csv"] * per,
        "dataio.digest_s": total["dataio.file_digest"] * per,
        "dataio.rows_per_s": ratio(attr["dataio.ingest_csv"], total["dataio.ingest_csv"]),
        "dataio.file_reads": reads * per,
        "dataio.bytes_read": file_bytes * reads * per,
        "linmodel.fit_calls": calls["linmodel.fit"] * per,
        "linmodel.fit_s": total["linmodel.fit"] * per,
        "linmodel.nested_f_calls": calls["linmodel.nested_f_test"] * per,
        "linmodel.nested_f_s": total["linmodel.nested_f_test"] * per,
        "diagnostics.residual_self_s": own["diagnostics.residual_diagnostics"] * per,
        "diagnostics.leverage_s": total["diagnostics.leverage"] * per,
        "ttest.t_test_s": total["ttest.t_test"] * per,
        "proportion.test_s": total["proportion.proportion_test"] * per,
        "specfun.cdf_calls": calls["specfun.cdf"] * per,
        "specfun.cdf_s": total["specfun.cdf"] * per,
        "specfun.cdf_us_per_call": 1e6 * ratio(total["specfun.cdf"], calls["specfun.cdf"]),
        "specfun.quantile_calls": calls["specfun.quantile"] * per,
        "specfun.quantile_s": outer_quantile * per,
        "specfun.quantile_cache_hit_frac": ratio(cache_hits, cache_hits + cache_misses),
        "montecarlo.draws": draws * per,
        "montecarlo.draws_per_cell": ratio(draws, cells),
        "montecarlo.generate_s": (total["montecarlo.normal_cells"] + total["montecarlo.uniform_cells"]) * per,
        "montecarlo.simulate_self_s": own["montecarlo.simulate_size_power"] * per,
        "montecarlo.ks_self_s": own["montecarlo.null_law_check"] * per,
        "montecarlo.largest_array_mb": max(map(abs, draw_sizes), default=0) * 8 / _MB,
        "report.build_s": total["report.AnalysisReport"] * per,
        "report.to_json_s": total[_TO_JSON] * per,
        "report.json_bytes": ratio(attr[_TO_JSON], calls[_TO_JSON]),
        "svgplot.emit_s": total["svgplot.emit_residual_plots"] * per,
        "svgplot.svg_bytes": ratio(attr["svgplot.emit_residual_plots"], calls["svgplot.emit_residual_plots"]),
    }


def counts_by_command(spans, op_commands: dict) -> dict:
    """Calls of fit, nested_f_test and cdf, and draws per replicate cell, for
    each command kind: the wiring check against the counts the code implies."""
    fit, nested, cdf = (NAMES.index(n) for n in
                        ("linmodel.fit", "linmodel.nested_f_test", "specfun.cdf"))
    draw_idx = (NAMES.index("montecarlo.normal_cells"), NAMES.index("montecarlo.uniform_cells"))
    sim_idx = NAMES.index("montecarlo.simulate_size_power")
    per_op = defaultdict(lambda: [0, 0, 0, 0, 0])
    for s in spans:
        row = per_op[s[1]]
        if s[0] == fit:
            row[0] += 1
        elif s[0] == nested:
            row[1] += 1
        elif s[0] == cdf:
            row[2] += 1
        elif s[0] in draw_idx:
            row[3] += max(s[5], 0)
        elif s[0] == sim_idx:
            row[4] += s[5]
    out: dict = {}
    for op, command in op_commands.items():
        row = per_op[op]
        entry = out.setdefault(command, {"ops": 0, "fit": set(), "nested_f_test": set(),
                                         "cdf": set(), "draws_per_cell": set()})
        entry["ops"] += 1
        entry["fit"].add(row[0])
        entry["nested_f_test"].add(row[1])
        entry["cdf"].add(row[2])
        entry["draws_per_cell"].add(row[3] / row[4] if row[4] else 0.0)
    return {c: {k: sorted(v) if isinstance(v, set) else v for k, v in e.items()}
            for c, e in out.items()}
