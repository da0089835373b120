"""Simulation harness: size/power estimation and null-law verification.

Every random draw comes from a counter-based scheme built on the SplitMix64
finalizer, so a draw is a pure function of (seed, domain, cell, counter):

    domain_key = mix64(seed + domain * DOMAIN_SALT)
    cell_key   = mix64(domain_key + (cell + 1) * STREAM_SALT)
    raw(k)     = mix64(cell_key + (k + 1) * GOLDEN)

Uniforms map the top 53 bits of raw, offset by half a step, into (0, 1]: the
top raw word rounds to exactly 1.0, and values at or above 0.5 are unevenly
spaced, since their half steps tie and round to even.  Gaussian
variates use the Marsaglia polar method with per-cell rejection: attempt k of
a cell consumes raw values 2k and 2k+1, so a rejected pair never shifts the
stream of any other cell.  Results are therefore bit-identical no matter how
replicates are partitioned across workers, and two scenarios never share
draws (they live in different domains).  The generator works through blocks
of 2^16 cells and mixes each block in place, in buffers allocated once per
worker of a draw; a normal draw's first polar attempt runs over the whole
block, and only its rejected cells are gathered for retries.  The blocks of
a draw are spread over one thread per CPU in the process's affinity mask, at
most one per block; there is no option, `taskset` limits it, and the results
are bit-identical for any number of workers.  The proportion scenario counts
successes one block of replicates at a time, comparing each raw word with
the integer threshold below which its uniform falls under p, and tallies its
rates from the histogram of success counts, with both z forms evaluated by
`proportion._z_forms` once per count that occurs.

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
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple

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
_DOMAIN_SALT = 0xD1B54A32D192ED03
_STREAM_SALT = np.uint64(0x8CB92BA72F3D8DD7)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_DOMAIN_NOISE = 1
_DOMAIN_DESIGN = 2
_DOMAIN_TRIALS = 3

# polar rejection accepts ~78.5% per attempt; 64 straight misses has
# probability ~1e-42 per cell and indicates a broken generator
_MAX_POLAR_ATTEMPTS = 64

# cells drawn per block: each block is mixed in buffers of this many cells,
# allocated once per worker of a draw and reused by every block that worker
# draws, so one large draw never faults in fresh pages for full-size
# temporaries
_BLOCK_CELLS = 1 << 16


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of x, in place; tmp is scratch of x's size."""
    x ^= np.right_shift(x, 30, out=tmp)
    x *= _MIX1
    x ^= np.right_shift(x, 27, out=tmp)
    x *= _MIX2
    x ^= np.right_shift(x, 31, out=tmp)
    return x


def _domain_key(seed: int, domain: int) -> np.uint64:
    """The mixed key of one (seed, domain) stream, shared by all its cells."""
    key = np.array([(seed + domain * _DOMAIN_SALT) & _MASK], np.uint64)
    return _mix64(key, np.empty(1, np.uint64))[0]


def _cell_keys(domain_key: np.uint64, start: int, count: int,
               tmp: np.ndarray | None = None) -> np.ndarray:
    """Keys of cells [start, start+count); tmp is scratch of at least count words."""
    keys = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    keys *= _STREAM_SALT
    keys += domain_key
    return _mix64(keys, np.empty_like(keys) if tmp is None else tmp[:count])


def _raw(keys: np.ndarray, k: int, out: np.ndarray | None = None,
         tmp: np.ndarray | None = None) -> np.ndarray:
    """Raw word k of every cell key, into out (which may be keys itself)."""
    out = np.add(keys, np.uint64((_GOLDEN * (k + 1)) & _MASK), out=out)
    return _mix64(out, np.empty_like(out) if tmp is None else tmp[:out.size])


def _to_unit(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The top 53 bits of each raw word, offset by half a step, scaled to (0, 1].

    Raw 0 gives 2**-54 and the top raw word gives exactly 1.0: above 2**52
    the half step ties, and rounding to even makes the values at or above
    0.5 unevenly spaced.  With out given, raw is scratch and is shifted in
    place.
    """
    if out is None:
        bits, out = raw >> 11, np.empty(raw.shape)
    else:
        bits = np.right_shift(raw, 11, out=raw)
    np.add(bits, 0.5, out=out)
    out *= 2.0**-53
    return out


def _unit_threshold(p: float) -> int:
    """Smallest q with (float(q) + 0.5) * 2**-53 >= p, for p <= 1.

    `_to_unit` is nondecreasing in the raw word, so a uniform falls below p
    exactly when its raw word falls below q << 11.
    """
    lo, hi = 0, (1 << 53) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (float(mid) + 0.5) * 2.0**-53 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _spread(work: Callable[[range, Any], None], starts: range,
            scratch: Callable[[], Any]) -> None:
    """Run work(share, buffers) over every block start, one worker per CPU.

    There are min(CPUs, blocks) workers; worker i takes starts[i::workers]
    and its own buffers from scratch(), all made here before any thread
    starts, so every buffer comes from the calling thread's malloc arena.
    Worker 0 runs in the calling thread, so a one-block draw starts no
    thread.  Every thread is joined before return, and the first exception
    any worker raised is then raised here.  work must write only the output
    slices of its own blocks, and call no public function of this module:
    the tracer's wrappers around those are not thread-safe.
    """
    workers = max(1, min(_cpus(), len(starts)))
    buffers = [scratch() for _ in range(workers)]
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            work(starts[i::workers], buffers[i])
        except BaseException as exc:  # raised in the calling thread below
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def uniform_cells(seed: int, domain: int, start: int, count: int) -> np.ndarray:
    """count uniforms on (0, 1], one per cell, for cells [start, start+count)."""
    out = np.empty(count)
    domain_key = _domain_key(seed, domain)

    def work(share: range, tmp: np.ndarray) -> None:
        for lo in share:
            block = out[lo:lo + _BLOCK_CELLS]
            keys = _cell_keys(domain_key, start + lo, block.size, tmp)
            _to_unit(_raw(keys, 0, keys, tmp), block)

    size = min(count, _BLOCK_CELLS)
    _spread(work, range(0, count, _BLOCK_CELLS), lambda: np.empty(size, np.uint64))
    return out


def normal_cells(seed: int, domain: int, start: int, count: int) -> np.ndarray:
    """count standard normals, one per cell, for cells [start, start+count)."""
    out = np.empty(count)
    domain_key = _domain_key(seed, domain)

    def work(share: range, scratch: tuple[np.ndarray, ...]) -> None:
        for lo in share:
            block = out[lo:lo + _BLOCK_CELLS]
            keys = _cell_keys(domain_key, start + lo, block.size, scratch[1])
            _fill_normals(block, keys, scratch)

    size = min(count, _BLOCK_CELLS)
    _spread(work, range(0, count, _BLOCK_CELLS), lambda: _polar_scratch(size))
    return out


def _polar_scratch(size: int) -> tuple[np.ndarray, ...]:
    """Buffers of one polar attempt over up to size cells: two words, two floats."""
    return (np.empty(size, np.uint64), np.empty(size, np.uint64),
            np.empty(size), np.empty(size))


def _polar_attempt(out: np.ndarray, keys: np.ndarray, k: int,
                   scratch: tuple[np.ndarray, ...]) -> np.ndarray:
    """Attempt k of the polar method for every key, into out; returns the
    positions it rejected, whose entries of out are then meaningless."""
    words, tmp, v2, s = (buf[:keys.size] for buf in scratch)
    v1 = _to_unit(_raw(keys, 2 * k, words, tmp), out)
    v1 *= 2.0
    v1 -= 1.0
    _to_unit(_raw(keys, 2 * k + 1, words, tmp), v2)
    v2 *= 2.0
    v2 -= 1.0
    np.multiply(v1, v1, out=s)
    v2 *= v2
    s += v2
    # accepted where 0 < s < 1; rejected entries may overflow or go NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.log(s, out=v2)
        factor *= -2.0
        factor /= s
        v1 *= np.sqrt(factor, out=factor)
    return np.flatnonzero((s >= 1.0) | (s == 0.0))


def _fill_normals(out: np.ndarray, keys: np.ndarray,
                  scratch: tuple[np.ndarray, ...] | None = None) -> None:
    """Polar-method normals into out, one per cell key.

    Attempt 0 runs over every cell; only the cells it rejects (about 21.5%)
    are gathered for the later attempts.
    """
    if scratch is None:
        scratch = _polar_scratch(keys.size)
    pending = _polar_attempt(out, keys, 0, scratch)
    k = 1
    while pending.size:
        if k >= _MAX_POLAR_ATTEMPTS:
            raise NumericError("polar rejection failed to terminate")
        retry = np.empty(pending.size)
        rejected = _polar_attempt(retry, keys[pending], k, scratch)
        out[pending] = retry
        pending = pending[rejected]
        k += 1


def _trial_successes(seed: int, replicates: int, n: int, p: float) -> np.ndarray:
    """Bernoulli(p) successes in each of replicates rows of n trials: the
    count of the row's trial-domain uniforms below p, read from their raw
    words without forming the uniforms."""
    threshold = np.uint64(_unit_threshold(p) << 11)
    domain_key = _domain_key(seed, _DOMAIN_TRIALS)
    # whole rows per block; a row of more than a block is counted in parts
    rows = max(1, _BLOCK_CELLS // n)
    width = min(n, _BLOCK_CELLS)
    size = min(rows, replicates) * width
    ones = np.ones(width, np.float32)
    successes = np.zeros(replicates)

    def work(share: range, scratch: tuple[np.ndarray, np.ndarray]) -> None:
        tmp, below = scratch
        for lo in share:
            m = min(rows, replicates - lo)
            for col in range(0, n, width):
                w = min(width, n - col)
                keys = _cell_keys(domain_key, lo * n + col, m * w, tmp)
                hits = np.less(_raw(keys, 0, keys, tmp), threshold, out=below[:m * w])
                # sums of at most a block of zeros and ones are exact in float32
                successes[lo:lo + m] += hits.reshape(m, w) @ ones[:w]

    _spread(work, range(0, replicates, rows),
            lambda: (np.empty(size, np.uint64), np.empty(size, np.float32)))
    return successes.astype(np.int64)


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
        for name in ("replicates", "seed", "n", "p1", "p2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 1:
            raise DomainError(f"replicates must be a positive integer, got {self.replicates!r}")
        if not 0 <= self.seed < 2**64:
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


def _proportion_table(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(replicates, z_null, z_wald) for each success count that occurs in the
    proportion scenario: a histogram of the counts, with both z forms once
    per count."""
    hist = np.bincount(_trial_successes(cfg.seed, cfg.replicates, cfg.n,
                                        cfg.p0 + cfg.effect))
    counts = np.flatnonzero(hist)
    z_null, z_wald = np.array([_z_forms(int(k), cfg.n, cfg.p0) for k in counts]).T
    return hist[counts], z_null, z_wald


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
    # replicates behind each entry of the reject arrays: one each for t and
    # F, the replicates with that success count for the proportion scenario
    weight = None
    if cfg.scenario is Scenario.PROPORTION:
        weight, z_null, z_wald = _proportion_table(cfg)
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

    def replicates_where(where: np.ndarray) -> int:
        return int(np.count_nonzero(where) if weight is None else weight[where].sum())

    return SizePowerResult(
        reject_rate_trad=replicates_where(reject_trad) / cfg.replicates,
        reject_rate_null=replicates_where(reject_null) / cfg.replicates,
        disagreements=replicates_where(reject_trad != reject_null),
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
