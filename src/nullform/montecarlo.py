"""Simulation harness: size/power estimation and null-law verification.

Every random draw comes from a counter-based scheme built on the SplitMix64
finalizer, so a draw is a pure function of (seed, domain, cell, counter):

    domain_key = mix64(seed + domain * DOMAIN_SALT)
    cell_key   = mix64(domain_key + (cell + 1) * STREAM_SALT)
    raw(k)     = mix64(cell_key + (k + 1) * GOLDEN)

Uniforms map the top 53 bits of raw into the open interval (0, 1).  Gaussian
variates use the Marsaglia polar method with per-cell rejection: attempt k of
a cell consumes raw values 2k and 2k+1, so a rejected pair never shifts the
stream of any other cell.  Results are therefore bit-identical no matter how
replicates are partitioned across workers, and two scenarios never share
draws (they live in different domains).  The generator works through blocks
of 2^16 cells, so its temporaries stay small whatever the draw size; the
proportion scenario counts successes one block of replicates at a time
instead of holding all replicates x n uniforms, and looks both z forms up
in a table of `proportion._z_forms` over the success counts that occur.

Scenario domains: 1 = response noise, 2 = design entries, 3 = Bernoulli
trials.

The t scenario is the nested case X = 1 tested against the zero function
(p1 = 0, p2 = 1): F_trad = T^2 and F_null = T0^2 come from the F scenario's
sums of squares.  Replicates are drawn once; under the null the KS distance
of the null form from its Beta law comes from that same draw, with the law
evaluated at every ordered replicate in one `cdf_array` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .linmodel import _f_forms, _nested_sums, _null_laws
from .proportion import _z_forms
# cdf stays bound here unused: nullbench/tracing.py wraps it
from .specfun import cdf, cdf_array, normal_critical, quantile

__all__ = [
    "Scenario",
    "SimConfig",
    "SizePowerResult",
    "simulate_size_power",
    "null_law_check",
    "normal_cells",
    "uniform_cells",
]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOMAIN_SALT = 0xD1B54A32D192ED03
_STREAM_SALT = 0x8CB92BA72F3D8DD7

_DOMAIN_NOISE = 1
_DOMAIN_DESIGN = 2
_DOMAIN_TRIALS = 3

# polar rejection accepts ~78.5% per attempt; 64 straight misses has
# probability ~1e-42 per cell and indicates a broken generator
_MAX_POLAR_ATTEMPTS = 64

# cells drawn per block: every temporary of the generator is then 512 KiB,
# which stays in cache and reuses freed memory instead of faulting in fresh
# pages for every full-size temporary of one large draw
_BLOCK_CELLS = 1 << 16


def _mix64_arr(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _cell_keys(seed: int, domain: int, start: int, count: int) -> np.ndarray:
    domain_key = _mix64_arr(np.array([(seed + domain * _DOMAIN_SALT) & _MASK], np.uint64))
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64_arr(domain_key + idx * np.uint64(_STREAM_SALT))


def _raw(keys: np.ndarray, k: int) -> np.ndarray:
    offset = np.uint64((_GOLDEN * (k + 1)) & _MASK)
    with np.errstate(over="ignore"):
        return _mix64_arr(keys + offset)


def _to_unit(raw: np.ndarray) -> np.ndarray:
    # top 53 bits, offset by half a step: strictly inside (0, 1)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform_cells(seed: int, domain: int, start: int, count: int) -> np.ndarray:
    """count uniforms on (0,1), one per cell, for cells [start, start+count)."""
    out = np.empty(count)
    for lo in range(0, count, _BLOCK_CELLS):
        block = out[lo:lo + _BLOCK_CELLS]
        block[:] = _to_unit(_raw(_cell_keys(seed, domain, start + lo, block.size), 0))
    return out


def normal_cells(seed: int, domain: int, start: int, count: int) -> np.ndarray:
    """count standard normals, one per cell, for cells [start, start+count)."""
    out = np.empty(count)
    for lo in range(0, count, _BLOCK_CELLS):
        block = out[lo:lo + _BLOCK_CELLS]
        _fill_normals(block, _cell_keys(seed, domain, start + lo, block.size))
    return out


def _fill_normals(out: np.ndarray, keys: np.ndarray) -> None:
    """Polar-method normals into out, one per cell key."""
    pending = np.arange(out.size)
    k = 0
    while pending.size:
        if k >= _MAX_POLAR_ATTEMPTS:
            raise NumericError("polar rejection failed to terminate")
        v1 = 2.0 * _to_unit(_raw(keys[pending], 2 * k)) - 1.0
        v2 = 2.0 * _to_unit(_raw(keys[pending], 2 * k + 1)) - 1.0
        s = v1 * v1 + v2 * v2
        ok = (s > 0.0) & (s < 1.0)
        accepted = s[ok]
        out[pending[ok]] = v1[ok] * np.sqrt(-2.0 * np.log(accepted) / accepted)
        pending = pending[~ok]
        k += 1


class Scenario(Enum):
    ONE_SAMPLE_T = "one_sample_t"
    NESTED_F = "nested_f"
    PROPORTION = "proportion"


@dataclass(frozen=True)
class SimConfig:
    """Fully deterministic simulation settings.

    effect is the shift in sigma units for the t scenario, the coefficient
    scale on the tested block for the F scenario, and the offset added to p0
    for the proportion scenario.  p1/p2 only apply to NESTED_F, p0 only to
    PROPORTION.
    """

    replicates: int
    seed: int
    n: int
    scenario: Scenario
    effect: float = 0.0
    alpha: float = 0.05
    p1: int = 1
    p2: int = 1
    p0: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.replicates, int) or self.replicates < 1:
            raise DomainError(f"replicates must be a positive integer, got {self.replicates!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not math.isfinite(self.effect):
            raise DomainError(f"effect must be finite, got {self.effect!r}")
        if self.scenario is Scenario.ONE_SAMPLE_T:
            if self.n < 2:
                raise DomainError(f"one-sample scenario needs n >= 2, got {self.n}")
        elif self.scenario is Scenario.NESTED_F:
            if self.p1 < 0 or self.p2 < 1:
                raise DomainError(f"need p1 >= 0 and p2 >= 1, got p1={self.p1}, p2={self.p2}")
            if self.n <= self.p1 + self.p2:
                raise DomainError(
                    f"need n > p1 + p2, got n={self.n}, p1={self.p1}, p2={self.p2}"
                )
        elif self.scenario is Scenario.PROPORTION:
            if self.n < 1:
                raise DomainError(f"proportion scenario needs n >= 1, got {self.n}")
            if not 0.0 < self.p0 < 1.0:
                raise DomainError(f"p0 must lie in (0, 1), got {self.p0!r}")
            if not 0.0 < self.p0 + self.effect < 1.0:
                raise DomainError(
                    f"true proportion p0 + effect must lie in (0, 1), "
                    f"got {self.p0 + self.effect!r}"
                )


class SizePowerResult(NamedTuple):
    reject_rate_trad: float
    reject_rate_null: float
    disagreements: int
    # KS distance of the scaled null form from its Beta law, from the same
    # draw; None unless effect = 0 in the t or F scenario
    ks_statistic: float | None


def _nested_statistics(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(F_trad, F_null, p1, p2) per replicate for the t and F scenarios.

    The F design is fixed per configuration: an intercept column when
    p1 >= 1, the remaining entries standard normal from the design domain.
    The t scenario is X = 1 with p1 = 0, where F_trad = T^2 and F_null = T0^2
    (mu0 = 0).  The response is X2 w * effect + noise with w the unit-norm
    equal-weight direction, so effect = 0 is the exact null.
    """
    n = cfg.n
    if cfg.scenario is Scenario.ONE_SAMPLE_T:
        x, p1, p2 = np.ones((n, 1)), 0, 1
    else:
        p1, p2 = cfg.p1, cfg.p2
        x = normal_cells(cfg.seed, _DOMAIN_DESIGN, 0, n * (p1 + p2)).reshape(n, -1)
        if p1 >= 1:
            x[:, 0] = 1.0
    q, _ = np.linalg.qr(x)
    y = normal_cells(cfg.seed, _DOMAIN_NOISE, 0, cfg.replicates * n).reshape(-1, n)
    y += x[:, p1:] @ (cfg.effect * np.full(p2, 1.0 / math.sqrt(p2)))
    sse1, sse12, ss2given1 = _nested_sums(q, p1, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (*_f_forms(ss2given1, sse12, sse1, n, p1, p2), p1, p2)


def _proportion_z(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(z_null, z_wald) per replicate for the proportion scenario, by count."""
    n, reps = cfg.n, cfg.replicates
    p_true = cfg.p0 + cfg.effect
    # successes per replicate, counted one block of replicates at a time
    rows = max(1, _BLOCK_CELLS // n)
    successes = np.empty(reps, dtype=np.int64)
    for lo in range(0, reps, rows):
        m = min(rows, reps - lo)
        u = uniform_cells(cfg.seed, _DOMAIN_TRIALS, lo * n, m * n).reshape(m, n)
        successes[lo:lo + m] = (u < p_true).sum(axis=1)
    k_min = int(successes.min())
    table = np.array([_z_forms(k, n, cfg.p0)
                      for k in range(k_min, int(successes.max()) + 1)]).T
    z_null, z_wald = table[:, successes - k_min]
    return z_null, z_wald


def simulate_size_power(cfg: SimConfig) -> SizePowerResult:
    """Empirical rejection rates of both test forms plus the number of
    replicates on which their decisions differ.

    For the t and F scenarios the two forms are equivalent tests, so the
    disagreement count is structurally zero; for the proportion scenario the
    two z statistics are genuinely different tests and the count reports how
    often that difference changes the decision.  Under the null (effect = 0)
    of the t and F scenarios, ks_statistic is the null_law_check distance,
    computed from the same draw.
    """
    alpha = cfg.alpha
    ks_statistic = None
    if cfg.scenario is Scenario.PROPORTION:
        z_null, z_wald = _proportion_z(cfg)
        z_crit = normal_critical(alpha)
        reject_trad = np.abs(z_wald) >= z_crit
        reject_null = np.abs(z_null) >= z_crit
    else:
        f_trad, f_null, p1, p2 = _nested_statistics(cfg)
        n = cfg.n
        f_law, null_law = _null_laws(n, p1, p2)
        f_crit = quantile(f_law, 1.0 - alpha)
        null_crit = quantile(null_law, 1.0 - alpha) * (n - p1) / p2
        reject_trad = f_trad >= f_crit
        reject_null = f_null >= null_crit
        if cfg.effect == 0.0:
            # Kolmogorov-Smirnov distance of the scaled null form from its law
            ordered = np.sort(p2 * f_null / (n - p1))
            f = cdf_array(null_law, ordered)
            m = ordered.size
            i = np.arange(m)
            ks_statistic = float(np.max(np.maximum((i + 1) / m - f, f - i / m)))

    return SizePowerResult(
        reject_rate_trad=float(reject_trad.mean()),
        reject_rate_null=float(reject_null.mean()),
        disagreements=int(np.count_nonzero(reject_trad != reject_null)),
        ks_statistic=ks_statistic,
    )


def null_law_check(cfg: SimConfig) -> float:
    """Kolmogorov-Smirnov distance of the scaled null statistic from its Beta law.

    ONE_SAMPLE_T compares T0^2/n against Beta(1/2, (n-1)/2); NESTED_F
    compares p2 F_null / (n - p1) against Beta(p2/2, (n-p)/2).  Requires
    effect = 0.  The value is simulate_size_power(cfg).ks_statistic.
    """
    if cfg.effect != 0.0:
        raise DomainError("null_law_check requires effect = 0")
    if cfg.scenario is Scenario.PROPORTION:
        raise DomainError("the proportion scenario has no continuous null law to check")
    return simulate_size_power(cfg).ks_statistic
