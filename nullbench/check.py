"""Output check: every report is recomputed from the generated inputs.

Sums of squares and least squares come from numpy (lstsq, a route
independent of nullform's Householder QR), p-values from scipy, studentized
residuals from the leave-one-out closed form.  Tolerances are the acceptance
suite's: relative 1e-10 for statistics, absolute 1e-10 for p-values, 1e-9 for
residual diagnostics, each relative to max(1, |expected|).  Two quantities are
compared on the scale that holds their precision:

* standardized and studentized residuals as their squares (the per-row
  F_null and F_trad), because nullform forms them as sqrt(SSE_1 - SSE_12),
  which for a near-zero residual carries an absolute error of order
  sqrt(eps * SSE) in the root but only eps * SSE in the square;
* p-values are evaluated by scipy at the statistic the report prints, so a
  p-value is checked for its own route and not for the error of its input.

Known defects are left visible and are not asserted against beyond today's
contract: an upper-tail p-value below ~1e-16 may print as 0 from `1 - cdf`
(ROADMAP item 1), which the absolute p-value tolerance admits.

Simulation reports are checked statistically: rejection counts against
exact binomial acceptance intervals and the KS distance against the
Dvoretzky-Kiefer-Wolfowitz bound, each with false-failure probability at most
1e-10, so no seed can fail them except with probability below 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy import stats

from nullform.diagnostics import DiagnosticsRow, DiagnosticsTable
from nullform.linmodel import DesignMatrix, fit
from nullform.sample import Sample
from nullform.svgplot import emit_residual_plots

REL = 1e-10
P_ABS = 1e-10
RESID = 1e-9
FALSE_FAIL = 1e-10
ALPHA = 0.05
# DKW: P(sqrt(R) D > c) <= 2 exp(-2 c^2) = FALSE_FAIL
KS_C = math.sqrt(math.log(2.0 / FALSE_FAIL) / 2.0)
_SCENARIOS = {"t": "one_sample_t", "f": "nested_f", "proportion": "proportion"}


def canonical(report: dict) -> str:
    """The byte form nullform's AnalysisReport.to_json promises."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Problems(list):
    def close(self, name, got, want, tol, floor=1.0):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            self.append(f"{name}: not a number ({got!r})")
        elif not abs(got - want) <= tol * max(floor, abs(want)):
            self.append(f"{name}: {got!r} vs expected {want!r}")

    def equal(self, name, got, want):
        if got != want:
            self.append(f"{name}: {got!r} vs expected {want!r}")

    def p_value(self, name, got, want):
        self.close(name, got, want, P_ABS, floor=1.0)


def _design(data, intercept=True):
    cols = [np.ones(len(data.y))] if intercept else []
    return np.column_stack(cols + [data.x[:, j] for j in range(data.x.shape[1])])


def _sse(x, y):
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    return float(resid @ resid), resid


def _binomial_interval(trials: int, prob: float) -> tuple[int, int]:
    if prob <= 0.0:
        return 0, 0
    if prob >= 1.0:
        return trials, trials
    lo = int(stats.binom.ppf(FALSE_FAIL / 2, trials, prob))
    hi = int(stats.binom.isf(FALSE_FAIL / 2, trials, prob))
    return lo, hi


class Checker:
    def __init__(self, root: Path, inputs):
        schema = json.loads((root / "report.schema.json").read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.inputs = inputs
        self.by_path = {d.path: d for d in inputs.datasets.values()}

    def outliers_output(self, first: dict):
        """The outliers command's output, which the plot check renders from."""
        return next((first[i] for i, a in enumerate(self.inputs.cycle)
                     if a[0] == "outliers" and i in first), None)

    def check_all(self, first: dict) -> dict[int, list[str]]:
        """Problems found in the first output of each command of the cycle."""
        outliers = self.outliers_output(first)
        return {i: self.check(self.inputs.cycle[i], out["stdout"], out["svg"], outliers)
                for i, out in first.items()}

    def check(self, argv, stdout: str, svg: str, outliers_out=None) -> list[str]:
        problems = Problems()
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        if canonical(report) != stdout:
            problems.append("stdout is not the canonical sorted-key JSON form")
        problems.extend(f"schema: {e.message}" for e in self.validator.iter_errors(report))
        if problems:
            return problems
        problems.equal("test", report["test"], argv[0])
        problems.equal("command", report["command"], ["nullform", *argv])
        problems.equal("alpha", report["alpha"], ALPHA)
        problems.equal("warnings", report["warnings"], [])
        path = _arg(argv, "--input")
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest() if path else None
        problems.equal("input_digest", report["input_digest"], digest)
        if argv[0] != "outliers":
            problems.equal("diagnostics", report["diagnostics"], None)
        data = self.by_path.get(path)
        try:
            getattr(self, "_" + argv[0])(problems, report, argv, data, svg, outliers_out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems

    def _ttest(self, pr, rep, argv, data, svg, _):
        res = rep["results"]
        y = data.y
        n = len(y)
        mu0 = float(_arg(argv, "--mu0"))
        ybar = float(np.mean(y))
        dev = y - ybar
        sse = float(dev @ dev)
        ssto = float((y - mu0) @ (y - mu0))
        sst = n * (ybar - mu0) ** 2
        expected = {
            "mean": ybar, "s2": sse / (n - 1), "s0_2": ssto / n,
            "t": (ybar - mu0) / math.sqrt(sse / (n - 1) / n),
            "t0": (ybar - mu0) / math.sqrt(ssto / n / n),
            "r_ratio": ssto / sse, "ssto": ssto, "sst": sst, "sse": sse,
            "cos2_theta": sst / ssto,
            "theta": math.acos(math.sqrt(n) * (ybar - mu0) / math.sqrt(ssto)),
        }
        for key, want in expected.items():
            pr.close(key, res[key], want, REL)
        for key, want in (("n", n), ("column", "y"), ("df", n - 1), ("mu0", mu0),
                          ("degenerate", False), ("boundary", False)):
            pr.equal(key, res[key], want)
        df = n - 1
        pr.p_value("p_value_t", res["p_value_t"], 2.0 * stats.t.sf(abs(res["t"]), df))
        pr.p_value("p_value_t0", res["p_value_t0"],
                   stats.beta.sf(res["t0"] ** 2 / n, 0.5, 0.5 * df))
        pr.p_value("p-value routes", res["p_value_t"], res["p_value_t0"])
        pr.equal("decisions", rep["decisions"], {
            "reject_traditional": res["p_value_t"] <= ALPHA,
            "reject_null_form": res["p_value_t0"] <= ALPHA})

    def _proptest(self, pr, rep, argv, data, svg, _):
        res = rep["results"]
        k, n, p0 = int(_arg(argv, "--successes")), int(_arg(argv, "--n")), float(_arg(argv, "--p0"))
        p_hat = k / n
        se_wald = math.sqrt(p_hat * (1.0 - p_hat) / n)
        z_crit = stats.norm.isf(ALPHA / 2)
        expected = {
            "p_hat": p_hat, "z_null": (p_hat - p0) / math.sqrt(p0 * (1.0 - p0) / n),
            "z_wald": (p_hat - p0) / se_wald,
            "ci_lower": p_hat - z_crit * se_wald, "ci_upper": p_hat + z_crit * se_wald,
        }
        for key, want in expected.items():
            pr.close(key, res[key], want, REL)
        for key, want in (("successes", k), ("n", n), ("p0", p0),
                          ("alternative", "two-sided"), ("wald_degenerate", False)):
            pr.equal(key, res[key], want)
        pr.p_value("p_value_null", res["p_value_null"], 2.0 * stats.norm.sf(abs(res["z_null"])))
        pr.p_value("p_value_wald", res["p_value_wald"], 2.0 * stats.norm.sf(abs(res["z_wald"])))
        pr.equal("decisions", rep["decisions"], {
            "reject_null_variance_form": res["p_value_null"] <= ALPHA,
            "reject_wald_form": res["p_value_wald"] <= ALPHA})

    def _ftest(self, pr, rep, argv, data, svg, _):
        res = rep["results"]
        x = _design(data)
        n, p, p1 = x.shape[0], x.shape[1], 2
        p2 = p - p1
        sse12, _ = _sse(x, data.y)
        sse1, _ = _sse(x[:, :p1], data.y)
        ss = sse1 - sse12
        a, b, c = math.sqrt(sse1), math.sqrt(ss), math.sqrt(sse12)
        expected = {
            "sse1": sse1, "sse12": sse12, "ss2given1": ss,
            "f_trad": (ss / p2) / (sse12 / (n - p)), "f_null": (ss / p2) / (sse1 / (n - p1)),
            "cos2_theta": ss / sse1, "side_a": a, "side_b": b, "side_c": c,
            "theta": math.acos(min(1.0, b / a)),
        }
        for key, want in expected.items():
            pr.close(key, res[key], want, REL)
        for key, want in (("response", "y"), ("full_columns", ["const", "x1", "x2", "x3"]),
                          ("n", n), ("p1", p1), ("p2", p2), ("saturated", False)):
            pr.equal(key, res[key], want)
        pr.p_value("p_value_f", res["p_value_f"], stats.f.sf(res["f_trad"], p2, n - p))
        pr.p_value("p_value_beta", res["p_value_beta"],
                   stats.beta.sf(p2 * res["f_null"] / (n - p1), 0.5 * p2, 0.5 * (n - p)))
        pr.p_value("p-value routes", res["p_value_f"], res["p_value_beta"])
        pr.equal("decisions", rep["decisions"], {
            "reject_traditional": res["p_value_f"] <= ALPHA,
            "reject_null_form": res["p_value_beta"] <= ALPHA})

    def _outliers(self, pr, rep, argv, data, svg, _):
        x = _design(data)
        n, p = x.shape
        df = n - p - 1
        q = np.linalg.qr(x)[0]
        h = np.einsum("ij,ij->i", q, q)
        sse, e = _sse(x, data.y)
        ss_i = e * e / (1.0 - h)
        f_null = ss_i / (sse / (n - p))
        f_trad = ss_i / ((sse - ss_i) / df)  # leave-one-out closed form, squared
        rows = rep["diagnostics"]
        pr.equal("diagnostics rows", len(rows), n)
        if len(rows) != n:
            return
        for i, row in enumerate(rows):
            tag = f"row {i} "
            pr.equal(tag + "index", row["index"], i)
            pr.equal(tag + "label", row["label"], data.labels[i])
            pr.equal(tag + "flagged", row["flagged"], False)
            pr.close(tag + "leverage", row["leverage"], h[i], RESID)
            pr.close(tag + "raw_residual", row["raw_residual"], e[i], RESID)
            r, t = row["standardized"], row["studentized"]
            pr.close(tag + "standardized^2", r * r, f_null[i], RESID)
            pr.close(tag + "studentized^2", t * t, f_trad[i], RESID)
            if f_null[i] > 1e-6 and not (math.copysign(1, r) == math.copysign(1, t)
                                         == math.copysign(1, e[i])):
                pr.append(tag + "residual sign differs from the raw residual")
            pr.p_value(tag + "outlier_p_value", row["outlier_p_value"],
                       2.0 * stats.t.sf(abs(t), df))
            pr.equal(tag + "bonferroni_p_value", row["bonferroni_p_value"],
                     min(1.0, n * row["outlier_p_value"]))
            pr.equal(tag + "gap", row["gap"], abs(t - r))
        res = rep["results"]
        flagged = [row["label"] for row in rows if row["outlier_p_value"] <= ALPHA]
        ranking = sorted(rows, key=lambda row: (-row["gap"], row["index"]))
        for key, want in (
            ("response", "y"), ("design_columns", ["const", "x1", "x2", "x3"]),
            ("n", n), ("p", p), ("outlier_df", df), ("outliers", flagged),
            ("gap_ranking", [{"label": row["label"], "gap": row["gap"]} for row in ranking]),
        ):
            pr.equal(key, res[key], want)
        pr.equal("decisions", rep["decisions"], {"any_outlier": bool(flagged)})

    def _plot(self, pr, rep, argv, data, svg, outliers_out):
        res = rep["results"]
        x = _design(data)
        n = x.shape[0]
        if outliers_out is None:
            pr.append("plot checked without an outliers report of the same input")
            return
        table_report = json.loads(outliers_out["stdout"])
        labeled = table_report["results"]["outliers"]
        for key, want in (("response", "y"), ("design_columns", ["const", "x1", "x2", "x3"]),
                          ("n", n), ("out", _arg(argv, "--out")), ("labeled_outliers", labeled)):
            pr.equal(key, res[key], want)
        pr.equal("decisions", rep["decisions"], {"any_outlier": bool(labeled)})
        # the SVG must be the package renderer's output for the diagnostics
        # the outliers report printed (checked above against the oracle) and
        # for nullform's fitted values, checked here against lstsq
        design = DesignMatrix(x, ("const", "x1", "x2", "x3"))
        fitted = fit(design, Sample.from_iterable(data.y.tolist())).fitted
        _, resid = _sse(x, data.y)
        worst = float(np.max(np.abs(np.asarray(fitted) - (data.y - resid))))
        pr.close("fitted values", worst, 0.0, RESID, floor=float(np.max(np.abs(data.y))))
        table = DiagnosticsTable(tuple(
            DiagnosticsRow(**{k: (math.nan if v is None else v) for k, v in row.items()
                              if k != "label"})
            for row in table_report["diagnostics"]), n=n, p=x.shape[1])
        expected = emit_residual_plots(table, fitted, None, ALPHA, labels=list(data.labels))
        if svg != expected:
            pr.append("SVG differs from the rendering of the reported diagnostics")

    def _simulate(self, pr, rep, argv, data, svg, _):
        res = rep["results"]
        scenario = _arg(argv, "--scenario")
        reps, n = int(_arg(argv, "--replicates")), int(_arg(argv, "--n"))
        effect = float(_arg(argv, "--effect", "0"))
        echo = {"scenario": _SCENARIOS[scenario], "replicates": reps, "n": n,
                "effect": effect, "seed": int(_arg(argv, "--seed"))}
        if scenario == "f":
            echo.update(p1=int(_arg(argv, "--p1", "1")), p2=int(_arg(argv, "--p2", "1")))
        if scenario == "proportion":
            echo["p0"] = float(_arg(argv, "--p0", "0.5"))
        for key, want in echo.items():
            pr.equal(key, res[key], want)
        counts = {}
        for key in ("reject_rate_trad", "reject_rate_null"):
            count = res[key] * reps
            if abs(count - round(count)) > 1e-6 * reps:
                pr.append(f"{key} is not a count over {reps} replicates")
            counts[key] = round(count)
        counts["disagreements"] = res["disagreements"]
        if scenario == "proportion":
            probs = self._proportion_laws(n, echo["p0"], effect)
        else:
            probs = {"reject_rate_trad": ALPHA, "reject_rate_null": ALPHA, "disagreements": 0.0}
        for key, prob in probs.items():
            lo, hi = _binomial_interval(reps, prob)
            if not lo <= counts[key] <= hi:
                pr.append(f"{key}: count {counts[key]} outside [{lo}, {hi}] for "
                          f"Binomial({reps}, {prob:.6g})")
        null_law = effect == 0.0 and scenario != "proportion"
        pr.equal("has ks_statistic", "ks_statistic" in res, null_law)
        if null_law:
            bound = KS_C / math.sqrt(reps)
            ks = res["ks_statistic"]
            if not 0.5 / reps <= ks < bound:
                pr.append(f"ks_statistic {ks!r} outside [1/(2R), {bound:.6g})")
            pr.close("ks_critical_1pct", res["ks_critical_1pct"], 1.63 / math.sqrt(reps), REL)
        pr.equal("decisions", rep["decisions"],
                 {"forms_agree_everywhere": res["disagreements"] == 0})

    @staticmethod
    def _proportion_laws(n: int, p0: float, effect: float) -> dict:
        """Exact per-replicate probabilities that each z form rejects, and that
        they disagree, under Binomial(n, p0 + effect) successes."""
        z_crit = stats.norm.isf(ALPHA / 2)
        pmf = stats.binom.pmf(np.arange(n + 1), n, p0 + effect)
        out = {"reject_rate_trad": 0.0, "reject_rate_null": 0.0, "disagreements": 0.0}
        for k in range(n + 1):
            p_hat = k / n
            z_null = (p_hat - p0) / math.sqrt(p0 * (1.0 - p0) / n)
            wald_var = p_hat * (1.0 - p_hat) / n
            z_wald = (p_hat - p0) / math.sqrt(wald_var) if wald_var else math.inf
            for z in (z_null, z_wald):
                if math.isfinite(z) and abs(abs(z) - z_crit) < 1e-9:
                    raise ValueError(f"z = {z!r} at k={k} is within rounding of the critical value")
            rej_null, rej_wald = abs(z_null) >= z_crit, abs(z_wald) >= z_crit
            out["reject_rate_null"] += pmf[k] * rej_null
            out["reject_rate_trad"] += pmf[k] * rej_wald
            out["disagreements"] += pmf[k] * (rej_null != rej_wald)
        return out


def corruptions(cycle, first: dict):
    """(name, command index, stdout, svg) for each corrupted output the check
    must reject; only corruptions whose command is in the cycle are built."""
    def edited(i, change):
        report = json.loads(first[i]["stdout"])
        change(report)
        return canonical(report)

    out = []
    for i, argv in enumerate(cycle):
        if i not in first:
            continue
        svg = first[i]["svg"]
        if argv[0] == "ttest":
            out.append(("perturbed t", i, edited(
                i, lambda r: r["results"].update(t=r["results"]["t"] * (1 + 1e-6))), svg))
        elif argv[0] == "outliers":
            out.append(("dropped diagnostics row", i, edited(
                i, lambda r: r["diagnostics"].pop(len(r["diagnostics"]) // 2)), svg))
        elif argv[0] == "simulate" and "ks_statistic" in first[i]["stdout"]:
            reps = int(_arg(argv, "--replicates"))
            out.append(("changed ks_statistic", i, edited(
                i, lambda r: r["results"].update(ks_statistic=2 * KS_C / math.sqrt(reps))), svg))
        elif argv[0] == "plot":
            middle = len(svg) // 2
            flipped = svg[:middle] + chr(ord(svg[middle]) ^ 1) + svg[middle + 1:]
            out.append(("flipped SVG byte", i, first[i]["stdout"], flipped))
    return out
