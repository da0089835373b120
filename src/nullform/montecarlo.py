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
worker of a draw; a block's cell keys are one add to a table of
(i + 1) * STREAM_SALT, made once per draw.  A normal draw's first polar
attempt runs over the whole block, each worker moves the cells it rejects to
a pool of half a block, and the retry rounds run over that pool when it is
full and once after the worker's last block.  The blocks of a draw are spread over one thread per CPU in the process's affinity mask, at
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
of the null form from its Beta law comes from that same draw.  The law is
evaluated at every 16th ordered replicate and the last, then only inside the
segments between them where a bound from those knots lets the largest gap
lie (about 1 700 of 20 000 points), and the distance is the full scan's, bit
for bit.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .linmodel import _f_forms, _nested_sums, _null_laws
from .proportion import _z_forms
# cdf stays bound here unused: nullbench/tracing.py wraps it
from .specfun import DistParams, cdf, cdf_array, normal_critical, quantile

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

# cells a worker's pool of polar rejects holds: the cells that attempt 0
# rejects in each of its blocks (about 21.5%) wait there, and the retry rounds
# run over the whole pool when it is full and once after the last block
_POOL_CELLS = _BLOCK_CELLS // 2

# the KS pass's knots are every _KS_STRIDE-th ordered replicate and the last;
# _KS_SLACK covers any non-monotone rounding of the computed cdf, which agrees
# with scipy to 1e-10
_KS_STRIDE = 16
_KS_SLACK = 1e-9


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


def _key_table(size: int) -> np.ndarray:
    """(i + 1) * STREAM_SALT mod 2**64 for i < size: the cell-key offsets of a
    block, made once per draw in the calling thread and read by every worker."""
    table = np.arange(1, size + 1, dtype=np.uint64)
    table *= _STREAM_SALT
    return table


def _cell_keys(domain_key: np.uint64, start: int, table: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """Keys of cells [start, start + table.size) into out, from a prefix of
    `_key_table`; out and tmp hold at least table.size words."""
    offset = np.uint64((int(domain_key) + start * int(_STREAM_SALT)) & _MASK)
    keys = np.add(table, offset, out=out[:table.size])
    return _mix64(keys, tmp[:table.size])


def _raw(keys: np.ndarray, k: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Raw word k of every cell key, into out (which may be keys itself); tmp
    is scratch of at least as many words."""
    out = np.add(keys, np.uint64((_GOLDEN * (k + 1)) & _MASK), out=out)
    return _mix64(out, tmp[:out.size])


def _to_unit(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The top 53 bits of each raw word, offset by half a step, scaled to (0, 1].

    Raw 0 gives 2**-54 and the top raw word gives exactly 1.0: above 2**52
    the half step ties, and rounding to even makes the values at or above
    0.5 unevenly spaced.  raw is scratch and is shifted in place.
    """
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
    size = min(count, _BLOCK_CELLS)
    table = _key_table(size)

    def work(share: range, scratch: tuple[np.ndarray, np.ndarray]) -> None:
        words, tmp = scratch
        for lo in share:
            block = out[lo:lo + _BLOCK_CELLS]
            keys = _cell_keys(domain_key, start + lo, table[:block.size], words, tmp)
            _to_unit(_raw(keys, 0, keys, tmp), block)

    _spread(work, range(0, count, _BLOCK_CELLS),
            lambda: (np.empty(size, np.uint64), np.empty(size, np.uint64)))
    return out


def normal_cells(seed: int, domain: int, start: int, count: int) -> np.ndarray:
    """count standard normals, one per cell, for cells [start, start+count).

    Each worker runs attempt 0 of the polar method over each of its blocks
    and moves the cells it rejects to the worker's pool, whose retry rounds
    run when it is full and once after the worker's last block.
    """
    out = np.empty(count)
    domain_key = _domain_key(seed, domain)
    size = min(count, _BLOCK_CELLS)
    table = _key_table(size)

    def work(share: range, scratch: tuple[Any, ...]) -> None:
        words, attempt, pool = scratch
        pool_keys, pool_at = pool[0], pool[1]
        pooled = 0
        for lo in share:
            block = out[lo:lo + _BLOCK_CELLS]
            keys = _cell_keys(domain_key, start + lo, table[:block.size], words, attempt[1])
            rejected = _polar_attempt(block, keys, 0, attempt)
            while rejected.size:
                cells = rejected[:pool_keys.size - pooled]
                rejected = rejected[cells.size:]
                pool_keys[pooled:pooled + cells.size] = keys[cells]
                np.add(cells, lo, out=pool_at[pooled:pooled + cells.size])
                pooled += cells.size
                if pooled == pool_keys.size:
                    _polar_retries(out, pool, pooled, attempt)
                    pooled = 0
        _polar_retries(out, pool, pooled, attempt)

    def scratch() -> tuple[Any, ...]:
        cells = min(_POOL_CELLS, size)
        pool = (np.empty(cells, np.uint64), np.empty(cells, np.intp), np.empty(cells))
        return np.empty(size, np.uint64), _polar_scratch(size), pool

    _spread(work, range(0, count, _BLOCK_CELLS), scratch)
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


def _polar_retries(out: np.ndarray, pool: tuple[np.ndarray, ...], count: int,
                   scratch: tuple[np.ndarray, ...]) -> None:
    """Attempts 1, 2, ... of the polar method for the first count cells of a
    pool of (keys, positions in out, values), until each is accepted; scratch
    is `_polar_scratch` of at least count cells.

    Attempt k reads a cell's raw words 2k and 2k + 1 whatever cells share its
    round, so the values do not depend on how rejected cells are grouped.
    """
    keys, at, values = pool
    k = 1
    while count:
        if k >= _MAX_POLAR_ATTEMPTS:
            raise NumericError("polar rejection failed to terminate")
        rejected = _polar_attempt(values[:count], keys[:count], k, scratch)
        out[at[:count]] = values[:count]
        count = rejected.size
        keys[:count] = keys[rejected]
        at[:count] = at[rejected]
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
    table = _key_table(size)
    ones = np.ones(width, np.float32)
    successes = np.zeros(replicates)

    def work(share: range, scratch: tuple[np.ndarray, ...]) -> None:
        words, tmp, below = scratch
        for lo in share:
            m = min(rows, replicates - lo)
            for col in range(0, n, width):
                w = min(width, n - col)
                keys = _cell_keys(domain_key, lo * n + col, table[:m * w], words, tmp)
                hits = np.less(_raw(keys, 0, keys, tmp), threshold, out=below[:m * w])
                # sums of at most a block of zeros and ones are exact in float32
                successes[lo:lo + m] += hits.reshape(m, w) @ ones[:w]

    _spread(work, range(0, replicates, rows),
            lambda: (np.empty(size, np.uint64), np.empty(size, np.uint64),
                     np.empty(size, np.float32)))
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
        for name in ("effect", "alpha", "p0"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DomainError(f"{name} must be a real number, got {value!r}")
        if self.replicates < 1:
            raise DomainError(f"replicates must be a positive integer, got {self.replicates!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        # compared, not converted: an int past the float range is refused too
        if not abs(self.effect) <= sys.float_info.max:
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
    z_null, z_wald, _ = np.array([_z_forms(int(k), cfg.n, cfg.p0) for k in counts]).T
    return hist[counts], z_null, z_wald


def _ks_gaps(i: np.ndarray, f: np.ndarray, m: int) -> np.ndarray:
    """max((i+1)/m - F_i, F_i - i/m): the KS gaps at ordered positions i."""
    return np.maximum((i + 1) / m - f, f - i / m)


def _ks_distance(law: DistParams, ordered: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the ordered sample from the law's cdf F:
    the largest `_ks_gaps` over every position, with F evaluated only where
    that maximum can lie.

    F is evaluated at the knots, every `_KS_STRIDE`-th position and the
    last, and the largest gap there is best.  Between knots a < b every gap
    is at most max(b/m - F_a, F_b - (a+1)/m), since F is non-decreasing and
    rounding is monotone; the segments whose bound, plus `_KS_SLACK`, reaches
    best are evaluated in a second `cdf_array` call, and no other position
    can beat best.  The result is the full scan's, bit for bit.
    """
    m = ordered.size
    knots = np.arange(0, m, _KS_STRIDE)
    if knots[-1] != m - 1:
        knots = np.append(knots, m - 1)
    f = cdf_array(law, ordered[knots])
    best = np.max(_ks_gaps(knots, f, m))
    a = knots[:-1]
    bound = np.maximum(knots[1:] / m - f[:-1], f[1:] - (a + 1) / m)
    inner = (a[bound + _KS_SLACK >= best, None] + np.arange(1, _KS_STRIDE)).ravel()
    # the last segment may be short; position m - 1 is a knot
    inner = inner[inner < m - 1]
    if inner.size:
        best = max(best, np.max(_ks_gaps(inner, cdf_array(law, ordered[inner]), m)))
    return float(best)


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
            ks_statistic = _ks_distance(null_law, np.sort(p2 * f_null / (n - p1)))

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
