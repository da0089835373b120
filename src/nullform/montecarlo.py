"""Simulation harness: size/power estimation and null-law verification.

Every random draw comes from a counter-based scheme built on the SplitMix64
finalizer, so a draw is a pure function of (seed, domain, cell, counter):

    domain_key = mix64(seed + domain * DOMAIN_SALT)
    cell_key   = mix64(domain_key + (cell + 1) * STREAM_SALT)
    raw(k)     = mix64(cell_key + (k + 1) * GOLDEN)

Uniforms map the top 53 bits of raw, offset by half a step, into (0, 1]: the
top raw word rounds to exactly 1.0, and values at or above 0.5 are unevenly
spaced, since their half steps tie and round to even.  Gaussian variates use
the Marsaglia polar method with per-cell rejection: attempt k of a cell
consumes raw values 2k and 2k+1, so a rejected pair never shifts the stream
of any other cell.  Results are therefore bit-identical no matter how
replicates are partitioned across workers, and two scenarios never share
draws (they live in different domains).  The generator works through blocks
of 2^16 cells and mixes each block in place, in buffers kept between draws
in one workspace from a process's second draw on; the first draw's buffers
are sized to its blocks and dropped with it, so a process that draws once,
as a CLI command does, keeps none.  A workspace is whole when it is made:
the kept one holds one table of (i + 1) * STREAM_SALT for a block (0.5
MiB), to which a block's cell keys are one add, and, for each of up to four
workers, a block of cell keys, four blocks of polar scratch, a pool of half
a block of rejects (keys, positions and values) and two pending blocks, 8.5
blocks of 8-byte words (4.25 MiB), whose pending pages only a normal draw
touches.  So it holds at most 17.5 MiB for any CPU count.  One draw uses
the workspace at a time; a concurrent draw makes its own, sized to its
blocks, and drops it, and a draw on more than four CPUs does so for the
workers past the fourth.
A normal draw's first polar attempt runs over a whole block, written to a
pending block; each worker moves the cells it rejects to its pool, and the
retry rounds run over that pool when it is full, when no pending block is
free, and once after the worker's last block, which makes the pending blocks
final: they are then copied out or reduced.  The blocks of a draw are spread
over one thread per CPU in the process's affinity mask, at most one per
block; there is no option, `taskset` limits it, and the results are
bit-identical for any number of workers.  The proportion scenario counts
successes one block of replicates at a time, comparing each raw word with
the integer threshold below which its uniform falls under p, and tallies its
rates from the histogram of success counts, with both z forms evaluated by
`proportion._z_forms` once per count that occurs.

Scenario domains: 1 = response noise, 2 = design entries, 3 = Bernoulli
trials.

The t scenario is the nested case X = 1 tested against the zero function
(p1 = 0, p2 = 1): F_trad = T^2 and F_null = T0^2 come from the F scenario's
sums of squares.  Their noise is one streamed normal draw in blocks of whole
replicate rows: once a block is final, its worker adds the effect shift and
reduces the rows to their three sums of squares by `linmodel._nested_sums`,
in the workspace's scratch, so no replicates x n array is made.  Per-block
BLAS products may differ from one product over all rows in the last bit,
which moves KS distances by about 1e-13.  Replicates are drawn once; under
the null the KS distance of the null form from its Beta law comes from that
same draw.  The law is evaluated at every 16th ordered replicate and the
last, then only inside the segments between them where a bound from those
knots lets the largest gap lie (about 1 700 of 20 000 points), and the
distance is the full scan's, bit for bit.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple

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
# kept per worker in the workspace and reused by every block of every draw,
# so no draw faults in fresh pages for full-size temporaries
_BLOCK_CELLS = 1 << 16

# cells a worker's pool of polar rejects holds: the cells that attempt 0
# rejects in each of its blocks (about 21.5%) wait there, and the retry rounds
# run over the whole pool when it is full and once after the last block
_POOL_CELLS = _BLOCK_CELLS // 2

# blocks a worker of a normal draw holds while their pooled cells wait for
# the retry rounds; with none free, the rounds run early
_PENDING_BLOCKS = 2

# workers whose buffers the kept workspace holds between draws, 8.5 blocks
# (4.25 MiB) each; a draw on more CPUs makes the others' buffers and drops them
_KEPT_WORKERS = 4

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
    block, made once per workspace in the calling thread and read by every
    worker."""
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


class _WorkerBuffers:
    """One worker's buffers for blocks of up to `block` cells."""

    def __init__(self, block: int):
        cells = min(_POOL_CELLS, block)
        self.keys = np.empty(block, np.uint64)  # the block's cell keys
        # `_polar_scratch`, also free between attempts
        self.polar = _polar_scratch(block)
        # the pool of polar rejects: keys, positions and values
        self.pool = (np.empty(cells, np.uint64), np.empty(cells, np.intp), np.empty(cells))
        # `_PENDING_BLOCKS` blocks of a normal draw; uniform and proportion
        # draws never touch their pages
        self.pending = np.empty(_PENDING_BLOCKS * block)


class _Workspace:
    """The buffers of up to `_KEPT_WORKERS` workers that have drawn with it,
    for blocks of up to `block` cells, and the `_key_table` of such a block.

    It is made, and `buffers` makes any other buffers a draw needs, in the
    calling thread, so every buffer comes from that thread's malloc arena.
    """

    def __init__(self, block: int):
        self.block = block
        self.table = _key_table(block)
        self.workers: list[_WorkerBuffers] = []

    def buffers(self, workers: int) -> list[_WorkerBuffers]:
        """The buffers of workers workers; those of any worker past
        `_KEPT_WORKERS` are made for this draw and dropped with it."""
        while len(self.workers) < min(workers, _KEPT_WORKERS):
            self.workers.append(_WorkerBuffers(self.block))
        made = self.workers[:workers]
        return made + [_WorkerBuffers(self.block) for _ in range(workers - len(made))]


# the workspace kept between draws, whether the process has drawn before, and
# the lock held by the draw using them
_kept: _Workspace | None = None
_drawn = False
_kept_lock = threading.Lock()


@contextmanager
def _workspace(block: int) -> Iterator[_Workspace]:
    """The workspace of one draw whose blocks hold up to `block` cells.

    From the process's second draw on, that is the kept workspace, made with
    the block and pool sizes of that time.  The process's first draw, a draw
    that finds the kept workspace in use by another thread, and a draw whose
    blocks are larger than `_BLOCK_CELLS` get a workspace of their own, sized
    to their blocks and dropped on return: a process that draws once keeps
    no buffers past it, and a small first draw makes no full-size ones.
    """
    global _kept, _drawn
    if block > _BLOCK_CELLS or not _kept_lock.acquire(blocking=False):
        yield _Workspace(block)
        return
    try:
        if not _drawn:
            _drawn = True
            yield _Workspace(block)
            return
        if _kept is None:
            _kept = _Workspace(_BLOCK_CELLS)
        yield _kept
    finally:
        _kept_lock.release()


def _spread(work: Callable[[range, _WorkerBuffers, np.ndarray], None], starts: range,
            block: int) -> None:
    """Run work(share, buffers, table) over every block start, one worker per
    CPU, in the `_workspace` of a draw whose blocks hold up to `block` cells.

    There are min(CPUs, blocks) workers; worker i takes starts[i::workers]
    and the workspace's buffers of worker i, any missing ones made here before
    a thread starts, and every worker reads the workspace's key table.  Worker
    0 runs in the calling thread, so a one-block draw starts no thread.  Every
    thread is joined before the workspace is left, and the first exception any
    worker raised is then raised here.  work must write only its own buffers
    and the output slices of its own blocks, and call no public function of
    this module: the tracer's wrappers around those are not thread-safe.
    """
    workers = max(1, min(_cpus(), len(starts)))
    errors: list[BaseException] = []
    with _workspace(block) as workspace:
        buffers, table = workspace.buffers(workers), workspace.table

        def run(i: int) -> None:
            try:
                work(starts[i::workers], buffers[i], table)
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

    def work(share: range, buffers: _WorkerBuffers, table: np.ndarray) -> None:
        tmp = buffers.polar[1]
        for lo in share:
            block = out[lo:lo + _BLOCK_CELLS]
            keys = _cell_keys(domain_key, start + lo, table[:block.size], buffers.keys, tmp)
            _to_unit(_raw(keys, 0, keys, tmp), block)

    _spread(work, range(0, count, _BLOCK_CELLS), min(count, _BLOCK_CELLS))
    return out


def normal_cells(seed: int, domain: int, start: int, count: int,
                 reduce: _NestedSums | None = None) -> np.ndarray | None:
    """count standard normals, one per cell, for cells [start, start+count).

    Each worker runs attempt 0 of the polar method over each of its blocks,
    written to a free one of its `_PENDING_BLOCKS` pending blocks, and moves
    the cells it rejects to the worker's pool.  The pool's retry rounds run
    when it is full, when no pending block is free, and once after the
    worker's last block.  Once the rounds that resolve a block's pooled cells
    have run, the worker calls reduce(lo, values, scratch), with values the
    normals of cells [start + lo, start + lo + values.size) and scratch its
    polar scratch, free until its next attempt.

    Given reduce, the draw is streamed in blocks of reduce.cells and returns
    None; without it, each block is copied to its slice of the returned array.
    """
    out = None
    if reduce is None:
        out = np.empty(count)
        reduce = _Copy(out)
    domain_key = _domain_key(seed, domain)
    cells = reduce.cells

    slots = range(0, _PENDING_BLOCKS * cells, cells)

    def work(share: range, buffers: _WorkerBuffers, table: np.ndarray) -> None:
        polar, pool, pending = buffers.polar, buffers.pool, buffers.pending
        pool_keys, pool_at = pool[0], pool[1]
        # (lo, offset in pending, size) of the blocks whose pooled cells
        # wait for the next retry rounds
        held: list[tuple[int, int, int]] = []
        pooled = 0

        def drain() -> None:
            nonlocal pooled
            _polar_retries(pending, pool, pooled, polar)
            pooled = 0
            for lo, at, size in held:
                reduce(lo, pending[at:at + size], polar)
            held.clear()

        for lo in share:
            if len(held) == _PENDING_BLOCKS:
                drain()
            at = next(a for a in slots if all(a != h[1] for h in held))
            block = pending[at:at + min(cells, count - lo)]
            keys = _cell_keys(domain_key, start + lo, table[:block.size], buffers.keys, polar[1])
            rejected = _polar_attempt(block, keys, 0, polar)
            while rejected.size:
                moved = rejected[:pool_keys.size - pooled]
                rejected = rejected[moved.size:]
                # every index is in range; "clip" writes straight to out
                np.take(keys, moved, out=pool_keys[pooled:pooled + moved.size], mode="clip")
                np.add(moved, at, out=pool_at[pooled:pooled + moved.size])
                pooled += moved.size
                if pooled == pool_keys.size:
                    # finishes the held blocks; this one is held below
                    drain()
            held.append((lo, at, block.size))
        drain()

    _spread(work, range(0, count, cells), min(count, cells))
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
    # the masks live in the spent words, 8 flags to a word
    outside, empty = words.view(np.bool_)[:s.size], tmp.view(np.bool_)[:s.size]
    np.greater_equal(s, 1.0, out=outside)
    return np.flatnonzero(np.logical_or(outside, np.equal(s, 0.0, out=empty), out=outside))


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


class _Copy:
    """The blocks of a plain normal draw, copied to their slices of out."""

    def __init__(self, out: np.ndarray):
        self.out, self.cells = out, _BLOCK_CELLS

    def __call__(self, lo: int, values: np.ndarray, scratch: tuple[np.ndarray, ...]) -> None:
        self.out[lo:lo + values.size] = values


class _NestedSums:
    """Per-replicate (SSE_1, SSE_12, SS_{2|1}) of noise rows of n cells plus
    a fixed shift, reduced by `linmodel._nested_sums` one block of whole rows
    at a time as a streamed `normal_cells` draw hands the blocks over."""

    def __init__(self, q: np.ndarray, p1: int, shift: np.ndarray, replicates: int):
        self.q, self.p1, self.shift = q, p1, shift
        n = q.shape[0]
        self.cells = max(1, _BLOCK_CELLS // n) * n
        self.sums = np.empty((3, replicates))

    def __call__(self, lo: int, values: np.ndarray, scratch: tuple[np.ndarray, ...]) -> None:
        n, p = self.q.shape
        y = values.reshape(-1, n)
        y += self.shift
        rows, first = y.shape[0], lo // n
        # coef and resid in the polar attempt's float scratch, so no block
        # allocates
        coef = scratch[2][:rows * p].reshape(rows, p)
        resid = scratch[3][:rows * n].reshape(rows, n)
        _nested_sums(self.q, self.p1, y, (coef, resid, *self.sums[:, first:first + rows]))


def _trial_successes(seed: int, replicates: int, n: int, p: float) -> np.ndarray:
    """Bernoulli(p) successes in each of replicates rows of n trials: the
    count of the row's trial-domain uniforms below p, read from their raw
    words without forming the uniforms."""
    threshold = np.uint64(_unit_threshold(p) << 11)
    domain_key = _domain_key(seed, _DOMAIN_TRIALS)
    # whole rows per block; a row of more than a block is counted in parts
    rows = max(1, _BLOCK_CELLS // n)
    width = min(n, _BLOCK_CELLS)
    ones = np.ones(width, np.float32)
    successes = np.zeros(replicates, np.int64)

    def work(share: range, buffers: _WorkerBuffers, table: np.ndarray) -> None:
        tmp = buffers.polar[1]
        # the hits go to the polar attempt's float scratch, read as float32
        below = buffers.polar[2].view(np.float32)
        for lo in share:
            m = min(rows, replicates - lo)
            for col in range(0, n, width):
                w = min(width, n - col)
                keys = _cell_keys(domain_key, lo * n + col, table[:m * w], buffers.keys, tmp)
                hits = np.less(_raw(keys, 0, keys, tmp), threshold, out=below[:m * w])
                # sums of at most a block of zeros and ones are exact in
                # float32, and so added to the counts
                counts = successes[lo:lo + m]
                np.add(counts, hits.reshape(m, w) @ ones[:w], out=counts, casting="unsafe")

    _spread(work, range(0, replicates, rows), min(rows, replicates) * width)
    return successes


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
    shift = x[:, p1:] @ (cfg.effect * np.full(p2, 1.0 / math.sqrt(p2)))
    sums = _NestedSums(q, p1, shift, cfg.replicates)
    normal_cells(cfg.seed, _DOMAIN_NOISE, 0, cfg.replicates * n, sums)
    sse1, sse12, ss2given1 = sums.sums
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
