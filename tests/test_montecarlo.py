"""Monte Carlo harness: generator quality and reproducibility, pinned draw
bytes, scenario sizes, null-law KS checks, and power monotonicity."""

import hashlib
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sst

from nullform import linmodel, montecarlo
from nullform.errors import DomainError, NumericError
from nullform.montecarlo import (
    _BLOCK_CELLS,
    _KEPT_WORKERS,
    _STREAM_SALT,
    Scenario,
    SimConfig,
    _domain_key,
    _ks_distance,
    _mix64,
    _nested_statistics,
    _polar_attempt,
    _polar_scratch,
    _proportion_table,
    _raw,
    _to_unit,
    _trial_successes,
    _unit_threshold,
    normal_cells,
    null_law_check,
    simulate_size_power,
    uniform_cells,
)
from nullform.specfun import (
    beta_params,
    cdf,
    cdf_array,
    normal_critical,
    quantile,
    student_t,
)


@pytest.fixture(autouse=True)
def fresh_workspace(monkeypatch):
    # each test draws in a workspace of its own, made with the block and pool
    # sizes of its first draw and dropped when the test ends; the process has
    # drawn before, so that first draw keeps it
    monkeypatch.setattr(montecarlo, "_kept", None)
    monkeypatch.setattr(montecarlo, "_drawn", True)


# the generator helpers write into buffers their callers own; these give
# each call fresh ones and leave their inputs as they were

def cell_keys(domain_key, start, count):
    """Keys of cells [start, start+count), from their indices."""
    keys = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    keys *= _STREAM_SALT
    keys += domain_key
    return _mix64(keys, np.empty(count, np.uint64))


def to_unit(raw):
    return _to_unit(raw.copy(), np.empty(raw.shape))


def uniforms_of(keys):
    """Uniform 0 of each cell key."""
    return to_unit(_raw(keys, 0, np.empty_like(keys), np.empty_like(keys)))


def normals_of(keys):
    """Normals of all cell keys at once, each rejected cell retried with its
    next polar attempt until accepted."""
    out = np.empty(keys.size)
    scratch = _polar_scratch(keys.size)
    pending, k = np.arange(keys.size), 0
    while pending.size:
        retry = np.empty(pending.size)
        rejected = _polar_attempt(retry, keys[pending], k, scratch)
        out[pending] = retry
        pending = pending[rejected]
        k += 1
    return out


class TestGenerator:
    def test_uniforms_strictly_inside_unit_interval(self):
        # only the top raw word maps to 1.0 (see test_unit_map_extremes), so a
        # sample of this size stays below it
        u = uniform_cells(seed=1, domain=1, start=0, count=50_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_unit_map_extremes(self):
        # raw 0 is half a step above 0; the top raw word's half step ties and
        # rounds to even, to exactly 1.0
        raw = np.array([0, 2**64 - 1], np.uint64)
        out = np.empty(2)
        assert _to_unit(raw, out) is out and out.tolist() == [2.0**-54, 1.0]
        # raw is the scratch of the shift
        assert raw.tolist() == [0, (2**64 - 1) >> 11]

    def test_uniform_distribution(self):
        u = uniform_cells(seed=42, domain=3, start=0, count=20_000)
        stat = sst.kstest(u, "uniform").pvalue
        assert stat > 1e-4

    def test_normal_distribution(self):
        z = normal_cells(seed=42, domain=1, start=0, count=20_000)
        assert sst.kstest(z, "norm").pvalue > 1e-4
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_partition_independence(self):
        whole = normal_cells(seed=9, domain=1, start=0, count=1000)
        parts = np.concatenate(
            [
                normal_cells(seed=9, domain=1, start=0, count=137),
                normal_cells(seed=9, domain=1, start=137, count=463),
                normal_cells(seed=9, domain=1, start=600, count=400),
            ]
        )
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("count", [
        pytest.param(1, id="1"),
        pytest.param(_BLOCK_CELLS - 1, id="B-1"),
        pytest.param(_BLOCK_CELLS, id="B"),
        pytest.param(_BLOCK_CELLS + 1, id="B+1"),
        pytest.param(2 * _BLOCK_CELLS + 3, id="2B+3"),
        pytest.param(5 * _BLOCK_CELLS // 2, id="2.5B"),
    ])
    def test_blocked_draws_match_one_unblocked_draw(self, count):
        # from an offset, each blocked draw equals the same transform run over
        # all cell keys at once; a short last block reads a prefix of the
        # reused buffers
        start = 1234
        keys = cell_keys(_domain_key(9, 1), start, count)
        assert np.array_equal(normal_cells(seed=9, domain=1, start=start, count=count),
                              normals_of(keys))
        assert np.array_equal(uniform_cells(seed=9, domain=1, start=start, count=count),
                              uniforms_of(keys))

    @pytest.mark.parametrize("replicates, n, p0", [
        pytest.param(10_000, 30, 0.3, id="10000-30"),
        pytest.param(3, _BLOCK_CELLS + 7, 0.3, id=f"3-{_BLOCK_CELLS + 7}"),
        # degenerate counts: every p_hat is 0 or 1 at n = 1, and most are 0
        # at n = 3 with p0 = 0.02
        (1000, 1, 0.3), (1000, 3, 0.02),
    ])
    def test_blocked_proportion_matches_one_array(self, replicates, n, p0):
        # blocks of replicates (several blocks; one replicate per block when
        # n exceeds a block), tallied from the histogram of success counts,
        # give the rates and disagreements of a single draw tallied per
        # replicate
        cfg = SimConfig(replicates=replicates, seed=4, n=n, scenario=Scenario.PROPORTION,
                        p0=p0, effect=0.02)
        u = uniform_cells(cfg.seed, 3, 0, replicates * n).reshape(replicates, n)
        successes = (u < cfg.p0 + cfg.effect).sum(axis=1)

        def z_forms(k):
            p_hat = k / n
            with np.errstate(divide="ignore"):
                return ((p_hat - p0) / math.sqrt(p0 * (1.0 - p0) / n),
                        (p_hat - p0) / np.sqrt(p_hat * (1.0 - p_hat) / n))

        z_null, z_wald = z_forms(successes)
        z_crit = normal_critical(cfg.alpha)
        reject_trad = np.abs(z_wald) >= z_crit
        reject_null = np.abs(z_null) >= z_crit
        res = simulate_size_power(cfg)
        assert res.reject_rate_trad == float(reject_trad.mean())
        assert res.reject_rate_null == float(reject_null.mean())
        assert res.disagreements == int(np.count_nonzero(reject_trad != reject_null))
        # one table entry per count that occurs, with its replicates and both
        # z forms as written out above
        counts, replicates_per_count = np.unique(successes, return_counts=True)
        weight, table_null, table_wald = _proportion_table(cfg)
        assert np.array_equal(weight, replicates_per_count)
        assert np.array_equal(table_null, z_forms(counts)[0])
        assert np.array_equal(table_wald, z_forms(counts)[1])

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(min_value=0, max_value=2**64 - 1),
           n=st.integers(min_value=1, max_value=40))
    def test_threshold_count_matches_uniforms(self, p, seed, n):
        reps = 64
        u = uniform_cells(seed, 3, 0, reps * n).reshape(reps, n)
        assert np.array_equal(_trial_successes(seed, reps, n, p), (u < p).sum(axis=1))

    @pytest.mark.parametrize("p", [
        pytest.param((123456789 + 0.5) * 2.0**-53, id="grid"),
        pytest.param(math.nextafter((123456789 + 0.5) * 2.0**-53, 0.0), id="below-grid"),
        pytest.param(math.nextafter((123456789 + 0.5) * 2.0**-53, 1.0), id="above-grid"),
        pytest.param(0.5, id="half"),
        pytest.param(math.nextafter(0.5, 1.0), id="above-half"),
        # the half step of 2**52 + 3 ties up to 2**52 + 4, so two raw words
        # map to this value and only the lower one is the threshold
        pytest.param((2**52 + 4) * 2.0**-53, id="tie"),
        pytest.param(0.75, id="three-quarters"),
        pytest.param(1.0 - 2.0**-53, id="top"),
        pytest.param(2.0**-54, id="smallest-uniform"),
        pytest.param(2.0**-60, id="below-smallest"),
    ])
    def test_threshold_is_exact(self, p):
        # q is the first 53-bit word whose uniform reaches p, and every raw
        # word on either side of q << 11 compares with p as its uniform does
        q = _unit_threshold(p)

        def unit(bits):
            return float(to_unit(np.array([bits << 11], np.uint64))[0])

        assert unit(q) >= p
        assert q == 0 or unit(q - 1) < p
        edge = q << 11
        words = np.array([w for w in (edge - 2049, edge - 2048, edge - 1, edge, edge + 2047,
                                      edge + 2048) if 0 <= w < 2**64], np.uint64)
        assert np.array_equal(to_unit(words) < p, words < np.uint64(edge))
        reps, n = 40, 25
        u = uniform_cells(8, 3, 0, reps * n).reshape(reps, n)
        assert np.array_equal(_trial_successes(8, reps, n, p), (u < p).sum(axis=1))

    def test_domains_are_independent_streams(self):
        a = uniform_cells(seed=9, domain=1, start=0, count=100)
        b = uniform_cells(seed=9, domain=2, start=0, count=100)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = normal_cells(seed=1, domain=1, start=0, count=100)
        b = normal_cells(seed=2, domain=1, start=0, count=100)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = normal_cells(seed=77, domain=2, start=5, count=300)
        b = normal_cells(seed=77, domain=2, start=5, count=300)
        assert np.array_equal(a, b)


# sha256 of the little-endian float64 bytes of each draw, generated when the
# domain key was still mixed with Python integers.  Seed 2**64 - 1 makes
# seed + domain * salt overflow 64 bits; a start of 2**40 and a count over
# one block exercise the cell index and the blocking.
DRAW_SHA256 = {
    (0, 1, 0, 1000): (
        "64f4e02ab41437686a99ad1fcc3133acf63719d3154cc46dd6bb53bdce71f71e",
        "0e2e0bad383f3a62a6c60ccd37627bf8ed7e40365aa3a7fa0fc08564cd539387",
    ),
    (1, 2, 77, 70000): (
        "218601305b477b0a00850cd5893856b047ac1d17f51bb6e85761bfdfee8513f4",
        "29d8cf5ef24a35b9debf52b8869e44a186a0d82082bfe6bf101d138a4792ac9c",
    ),
    (2**64 - 1, 3, 0, 5000): (
        "c70eeba2e8f692dc72ba0a3e9fddd346718a76853af23c4794fc1feed3ccfd1d",
        "27d2ff4a194000add4cc7011cb7dca02a2ae62e877070574d0e158c99b5151c0",
    ),
    (2**64 - 1, 1, 10, 300): (
        "f94095e2cb757e0539f4f13ed100bdfbb0c7a8a64d72a9ab7af8907c64817816",
        "f963fc6f9d486fe746b12a145ff532abf72ceab5b39b248186abc5d3767d2d16",
    ),
    (12345, 3, 2**40, 2000): (
        "a38d371e976875ad12654d267c98801f9c57b954a3579f300684fc676cb87438",
        "fb18e7489acd94c3b9286e8ae7143e2ca013cd0a1197d6096875d1d4ec466750",
    ),
}


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("cells", sorted(DRAW_SHA256))
def test_draw_bytes_pinned(cells):
    assert (_sha(normal_cells(*cells)), _sha(uniform_cells(*cells))) == DRAW_SHA256[cells]


class TestWorkers:
    """Blocks spread over one worker per CPU: the draws, the counts and the
    simulation results are the same bytes for any number of workers."""

    COUNTS = [_BLOCK_CELLS - 1, _BLOCK_CELLS, _BLOCK_CELLS + 1, 2 * _BLOCK_CELLS + 3,
              5 * _BLOCK_CELLS // 2]

    @staticmethod
    def _simulations():
        # the proportion scenario counts trials in rows of 16, 4096 rows a block
        return [simulate_size_power(SimConfig(replicates=count // 16, seed=9, n=16,
                                              scenario=scenario, p1=1, p2=2))
                for count in TestWorkers.COUNTS for scenario in Scenario]

    @pytest.fixture
    def fast_switching(self):
        # hand the interpreter lock over often, so that workers interleave
        # between any two numpy calls
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_results_do_not_depend_on_workers(self, monkeypatch, fast_switching, workers):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        simulations = self._simulations()
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        for count in self.COUNTS:
            keys = cell_keys(_domain_key(9, 1), 1234, count)
            whole = normals_of(keys)
            uniforms = uniforms_of(keys)
            assert normal_cells(9, 1, 1234, count).tobytes() == whole.tobytes()
            assert uniform_cells(9, 1, 1234, count).tobytes() == uniforms.tobytes()
        # rows of 16 and rows longer than a block, counted in parts
        rows = [(count // 16, 16) for count in self.COUNTS] + [(3, _BLOCK_CELLS + 7)]
        for replicates, n in rows:
            trials = cell_keys(_domain_key(9, 3), 0, replicates * n)
            u = uniforms_of(trials).reshape(replicates, n)
            assert np.array_equal(_trial_successes(9, replicates, n, 0.3),
                                  (u < 0.3).sum(axis=1))
        assert {cells: (_sha(normal_cells(*cells)), _sha(uniform_cells(*cells)))
                for cells in DRAW_SHA256} == DRAW_SHA256
        assert self._simulations() == simulations

    def test_cpus_without_an_affinity_mask(self, monkeypatch):
        # a platform without sched_getaffinity counts every CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert montecarlo._cpus() == (os.cpu_count() or 1)
        assert {cells: (_sha(normal_cells(*cells)), _sha(uniform_cells(*cells)))
                for cells in DRAW_SHA256} == DRAW_SHA256

    def test_worker_error_is_raised_after_every_join(self, monkeypatch):
        # one polar attempt per cell: every block has rejected cells left, so
        # every worker raises
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "_MAX_POLAR_ATTEMPTS", 1)
        before = threading.active_count()
        with pytest.raises(NumericError):
            normal_cells(1, 1, 0, 5 * _BLOCK_CELLS // 2)
        assert threading.active_count() == before

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-block draw started a thread")

        monkeypatch.setattr(montecarlo, "_cpus", lambda: 5)
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert normal_cells(2, 1, 0, _BLOCK_CELLS).size == _BLOCK_CELLS
        assert uniform_cells(2, 1, 0, _BLOCK_CELLS).size == _BLOCK_CELLS
        assert _trial_successes(2, _BLOCK_CELLS // 16, 16, 0.3).size == _BLOCK_CELLS // 16
        # a one-block simulation: 2000 replicates of 10 cells
        cfg = SimConfig(replicates=2000, seed=2, n=10, scenario=Scenario.ONE_SAMPLE_T)
        assert simulate_size_power(cfg).ks_statistic is not None
        # and a multi-block draw does start one
        with pytest.raises(AssertionError, match="started a thread"):
            normal_cells(2, 1, 0, _BLOCK_CELLS + 1)


    @pytest.mark.parametrize("workers, blocks", [(2, 5), (5, 5), (2, 16)])
    def test_memory_is_bounded_per_worker(self, monkeypatch, workers, blocks):
        # beyond its output, a draw holds a fixed number of block-sized
        # buffers per worker, however many blocks each worker draws: a pool
        # that kept every rejected cell would outgrow the bound at 16 blocks
        # on 2 workers
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        count = blocks * _BLOCK_CELLS
        normal_cells(3, 1, 0, count)
        tracemalloc.start()
        try:
            normal_cells(3, 1, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + workers * 9 * (8 * _BLOCK_CELLS)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_smaller_than_a_block_of_rejects(self, monkeypatch, workers):
        # a block rejects about 14 000 cells; a pool of 1000 fills and runs
        # its retry rounds many times within each block
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        monkeypatch.setattr(montecarlo, "_POOL_CELLS", 1000)
        for count in (1, _BLOCK_CELLS, 2 * _BLOCK_CELLS + 3):
            keys = cell_keys(_domain_key(9, 1), 1234, count)
            assert normal_cells(9, 1, 1234, count).tobytes() == normals_of(keys).tobytes()
        assert {cells: _sha(normal_cells(*cells)) for cells in DRAW_SHA256} == {
            cells: digests[0] for cells, digests in DRAW_SHA256.items()}

    @pytest.mark.parametrize("workers, blocks", [(2, 5), (5, 5), (2, 16), (8, 8)])
    def test_kept_workspace_holds_nine_blocks_per_worker(self, monkeypatch, workers, blocks):
        # the buffers that test_memory_is_bounded_per_worker no longer sees in
        # its measured draw: keys, polar scratch, pool and pending blocks of
        # at most _KEPT_WORKERS workers, whatever the CPU count, and one key
        # table, all made with the workspace and never remade
        monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
        uniform_cells(3, 1, 0, blocks * _BLOCK_CELLS)
        workspace = montecarlo._kept
        table, pending = workspace.table, [buffers.pending for buffers in workspace.workers]
        simulate_size_power(SimConfig(replicates=blocks * _BLOCK_CELLS // 16, seed=3, n=16,
                                      scenario=Scenario.PROPORTION))
        normal_cells(3, 1, 0, blocks * _BLOCK_CELLS)
        assert workspace.table is table and all(
            buffers.pending is made for buffers, made in zip(workspace.workers, pending))
        simulate_size_power(SimConfig(replicates=blocks * _BLOCK_CELLS // 16, seed=3, n=16,
                                      scenario=Scenario.NESTED_F, p1=1, p2=2))
        assert montecarlo._kept is workspace
        kept = min(workers, _KEPT_WORKERS)
        assert len(workspace.workers) == kept
        arrays = [workspace.table, *(array for buffers in workspace.workers
                                     for array in (buffers.keys, *buffers.polar,
                                                   *buffers.pool, buffers.pending))]
        assert sum(array.nbytes for array in arrays) <= kept * 9 * (8 * _BLOCK_CELLS)

    def test_a_process_keeps_the_workspace_from_its_second_draw_on(self, monkeypatch):
        # a process that draws once, as a CLI command does, keeps no buffers,
        # and a small first draw makes no block-sized ones
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_drawn", False)
        tracemalloc.start()
        try:
            normal_cells(9, 2, 0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _BLOCK_CELLS
        assert montecarlo._kept is None
        monkeypatch.setattr(montecarlo, "_drawn", False)
        count = 2 * _BLOCK_CELLS + 3
        first = normal_cells(9, 1, 0, count)
        assert montecarlo._kept is None
        assert normal_cells(9, 1, 0, count).tobytes() == first.tobytes()
        kept = montecarlo._kept
        assert kept is not None and len(kept.workers) == 2
        normal_cells(9, 1, 0, count)
        assert montecarlo._kept is kept
        assert first.tobytes() == normals_of(cell_keys(_domain_key(9, 1), 0, count)).tobytes()

    def test_second_draw_allocates_only_its_output(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        count = 5 * _BLOCK_CELLS
        normal_cells(3, 1, 0, count)
        tracemalloc.start()
        try:
            normal_cells(3, 1, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * count + 8 * _BLOCK_CELLS

    def test_streamed_simulation_holds_no_replicate_rows(self, monkeypatch):
        # the noise of 200 000 replicates of 50 cells is 80 MB
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        cfg = SimConfig(replicates=200_000, seed=4, n=50, scenario=Scenario.NESTED_F, p1=2, p2=2)
        tracemalloc.start()
        try:
            simulate_size_power(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * cfg.replicates * cfg.n * 8

    @pytest.mark.parametrize("n", [16, _BLOCK_CELLS + 7])
    def test_streamed_sums_match_one_call(self, monkeypatch, n):
        # blocks of whole rows, and rows longer than a block, one a block;
        # per-block BLAS products may differ from one call in the last bit
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        replicates = 3 if n > _BLOCK_CELLS else 2 * _BLOCK_CELLS // n + 5
        cfg = SimConfig(replicates=replicates, seed=5, n=n, scenario=Scenario.NESTED_F,
                        effect=0.5, p1=1, p2=2)
        x = normal_cells(5, 2, 0, n * 3).reshape(n, 3)
        kept = montecarlo._kept
        x[:, 0] = 1.0
        q, _ = np.linalg.qr(x)
        y = normals_of(cell_keys(_domain_key(5, 1), 0, replicates * n)).reshape(-1, n)
        y += x[:, 1:] @ np.full(2, 0.5 / math.sqrt(2))
        sse1, sse12, ss2 = linmodel._nested_sums(q, 1, y)
        f_trad, f_null, _, _ = _nested_statistics(cfg)
        np.testing.assert_allclose(f_trad, (ss2 / 2) / (sse12 / (n - 3)), rtol=1e-12)
        np.testing.assert_allclose(f_null, (ss2 / 2) / (sse1 / (n - 1)), rtol=1e-12)
        # rows longer than a block get a workspace of their own
        assert montecarlo._kept is kept

    def test_streamed_sums_do_not_depend_on_the_pool(self, monkeypatch):
        # a pool of 1000 fills many times per block, and its early retry
        # rounds finish the held blocks; the blocks and their sums are the same
        cfg = SimConfig(replicates=3 * _BLOCK_CELLS // 16 + 5, seed=6, n=16,
                        scenario=Scenario.NESTED_F, p1=1, p2=2)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        whole = _nested_statistics(cfg)
        monkeypatch.setattr(montecarlo, "_POOL_CELLS", 1000)
        monkeypatch.setattr(montecarlo, "_kept", None)
        for workers in (1, 2):
            monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
            parts = _nested_statistics(cfg)
            assert all(np.array_equal(a, b) for a, b in zip(parts[:2], whole[:2]))

    def test_draw_that_finds_the_workspace_in_use_makes_its_own(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        count = 2 * _BLOCK_CELLS + 3
        normal_cells(9, 1, 0, 1)
        kept, workers = montecarlo._kept, len(montecarlo._kept.workers)
        with montecarlo._kept_lock:
            draw = normal_cells(9, 1, 0, count)
        assert draw.tobytes() == normals_of(cell_keys(_domain_key(9, 1), 0, count)).tobytes()
        assert montecarlo._kept is kept and len(kept.workers) == workers

    @pytest.mark.parametrize("first, second", [
        (Scenario.ONE_SAMPLE_T, Scenario.NESTED_F),
        (Scenario.NESTED_F, Scenario.PROPORTION),
        (Scenario.PROPORTION, Scenario.ONE_SAMPLE_T),
    ])
    def test_concurrent_draws_match_sequential_ones(self, monkeypatch, fast_switching,
                                                    first, second):
        # one thread draws in the kept workspace, the other in its own; with
        # three workers each, the draws run more threads than a CI runner has
        # cores
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        configs = [SimConfig(replicates=9000, seed=seed, n=16, scenario=scenario, p1=1, p2=2)
                   for seed, scenario in ((7, first), (8, second))]
        expected = [simulate_size_power(cfg) for cfg in configs]
        results: list[list] = [[], []]

        def run(i: int) -> None:
            for _ in range(4):
                results[i].append(simulate_size_power(configs[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert results == [[expected[0]] * 4, [expected[1]] * 4]


class TestConfigValidation:
    def test_rejects_zero_replicates(self):
        with pytest.raises(DomainError):
            SimConfig(replicates=0, seed=1, n=10, scenario=Scenario.ONE_SAMPLE_T)

    def test_rejects_bad_seed(self):
        with pytest.raises(DomainError):
            SimConfig(replicates=1, seed=-1, n=10, scenario=Scenario.ONE_SAMPLE_T)
        with pytest.raises(DomainError):
            SimConfig(replicates=1, seed=2**64, n=10, scenario=Scenario.ONE_SAMPLE_T)

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            SimConfig(replicates=1, seed=1, n=1, scenario=Scenario.ONE_SAMPLE_T)
        with pytest.raises(DomainError):
            SimConfig(replicates=1, seed=1, n=4, scenario=Scenario.NESTED_F, p1=2, p2=2)

    @pytest.mark.parametrize("field, value", [
        ("replicates", True), ("replicates", 2.0), ("seed", False), ("seed", 1.0),
        ("n", 10.0), ("n", True), ("p1", 1.0), ("p1", True), ("p2", 1.0), ("p2", False),
    ])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_rejects_non_integer_or_bool_counts(self, field, value, scenario):
        # a bool is an int to isinstance, and a float n or p1 would reach
        # numpy as a shape
        kwargs = dict(replicates=4, seed=1, n=10, scenario=scenario, p1=1, p2=1)
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SimConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("field, value", [
        ("effect", True), ("effect", "0.5"), ("effect", None), ("alpha", False),
        ("alpha", "0.05"), ("alpha", None), ("p0", True), ("p0", "0.5"), ("p0", None),
    ])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_rejects_non_real_or_bool_values(self, field, value, scenario):
        # a bool is an int to isinstance, and a str or None would escape from
        # a range comparison as a bare TypeError
        kwargs = dict(replicates=4, seed=1, n=10, scenario=scenario, p1=1, p2=1)
        with pytest.raises(DomainError, match=f"{field} must be a real number"):
            SimConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("field, value", [
        ("effect", 1), ("effect", np.float64(0.25)), ("alpha", np.float64(0.1)), ("p0", 0.25),
    ])
    def test_accepts_int_and_float_values(self, field, value):
        cfg = SimConfig(replicates=4, seed=1, n=10, scenario=Scenario.NESTED_F, **{field: value})
        assert getattr(cfg, field) == value

    @pytest.mark.parametrize("value", [
        10**400, -(10**400), math.inf, -math.inf, math.nan, np.float64(math.nan),
    ])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_rejects_effect_that_is_not_finite(self, value, scenario):
        # an int past the float range is a DomainError, not the OverflowError
        # that converting it to a float would raise
        kwargs = dict(replicates=4, seed=1, n=10, scenario=scenario, p1=1, p2=1)
        with pytest.raises(DomainError, match="effect must be finite"):
            SimConfig(**kwargs, effect=value)

    @pytest.mark.parametrize("value", [0, 0.0, 1, 1.0, -0.05, 1.5, 10**400, math.nan, math.inf])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_rejects_alpha_outside_the_unit_interval(self, value, scenario):
        kwargs = dict(replicates=4, seed=1, n=10, scenario=scenario, p1=1, p2=1)
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
            SimConfig(**kwargs, alpha=value)

    @pytest.mark.parametrize("p1, p2", [(-1, 1), (0, 0), (1, -2)])
    def test_rejects_f_blocks_that_test_nothing(self, p1, p2):
        with pytest.raises(DomainError,
                           match=f"need p1 >= 0 and p2 >= 1, got p1={p1}, p2={p2}"):
            SimConfig(replicates=1, seed=1, n=10, scenario=Scenario.NESTED_F, p1=p1, p2=p2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_a_proportion_scenario_without_trials(self, n):
        with pytest.raises(DomainError, match=f"proportion scenario needs n >= 1, got {n}"):
            SimConfig(replicates=1, seed=1, n=n, scenario=Scenario.PROPORTION)

    @pytest.mark.parametrize("p0", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
    def test_rejects_p0_outside_the_unit_interval(self, p0):
        with pytest.raises(DomainError, match=rf"p0 must lie in \(0, 1\), got {p0!r}"):
            SimConfig(replicates=1, seed=1, n=10, scenario=Scenario.PROPORTION, p0=p0)

    def test_rejects_impossible_true_proportion(self):
        with pytest.raises(DomainError):
            SimConfig(
                replicates=1, seed=1, n=10, scenario=Scenario.PROPORTION,
                p0=0.9, effect=0.2,
            )


class TestSizeAndPower:
    def test_single_replicate_sanity(self):
        for scenario in Scenario:
            cfg = SimConfig(replicates=1, seed=3, n=12, scenario=scenario, p1=1, p2=2)
            res = simulate_size_power(cfg)
            assert res.reject_rate_trad in (0.0, 1.0)
            assert res.reject_rate_null in (0.0, 1.0)
            if scenario is not Scenario.PROPORTION:
                assert res.disagreements == 0

    def test_t_scenario_size(self):
        cfg = SimConfig(
            replicates=20_000, seed=101, n=10, scenario=Scenario.ONE_SAMPLE_T
        )
        res = simulate_size_power(cfg)
        assert res.disagreements == 0
        # binomial 4-sigma band around 0.05 at 2e4 replicates
        assert res.reject_rate_trad == pytest.approx(0.05, abs=0.007)
        assert res.reject_rate_null == res.reject_rate_trad

    def test_f_scenario_size(self):
        cfg = SimConfig(
            replicates=20_000, seed=202, n=20, scenario=Scenario.NESTED_F, p1=2, p2=2
        )
        res = simulate_size_power(cfg)
        assert res.disagreements == 0
        assert res.reject_rate_trad == pytest.approx(0.05, abs=0.007)

    def test_reproducible(self):
        cfg = SimConfig(
            replicates=5_000, seed=7, n=15, scenario=Scenario.NESTED_F, p1=1, p2=3
        )
        assert simulate_size_power(cfg) == simulate_size_power(cfg)

    def test_power_monotone_in_effect(self):
        rates = []
        for effect in [0.0, 0.25, 0.5, 0.75, 1.0]:
            cfg = SimConfig(
                replicates=4_000, seed=55, n=15,
                scenario=Scenario.ONE_SAMPLE_T, effect=effect,
            )
            rates.append(simulate_size_power(cfg).reject_rate_trad)
        # allow 2-sigma Monte Carlo slack between neighbouring points
        slack = 2.0 * math.sqrt(0.25 / 4_000)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))
        assert rates[-1] > rates[0]

    @pytest.mark.parametrize("effect", [0.0, 0.4])
    def test_t_scenario_matches_sample_mean_route(self, effect):
        # the t scenario runs as the nested case X = 1; recompute T^2 and T0^2
        # from the sample mean, with t and Beta critical values
        n, reps, alpha = 10, 20_000, 0.05
        cfg = SimConfig(replicates=reps, seed=101, n=n,
                        scenario=Scenario.ONE_SAMPLE_T, effect=effect)
        y = normal_cells(cfg.seed, 1, 0, reps * n).reshape(reps, n) + effect
        ybar = y.mean(axis=1)
        ss_mean = n * ybar * ybar
        t_sq = (n - 1) * ss_mean / ((y - ybar[:, None]) ** 2).sum(axis=1)
        t0_sq = n * ss_mean / (y * y).sum(axis=1)
        t_crit = quantile(student_t(float(n - 1)), 1.0 - alpha / 2.0)
        reject_trad = t_sq >= t_crit * t_crit
        reject_null = t0_sq >= n * quantile(beta_params(0.5, 0.5 * (n - 1)), 1.0 - alpha)
        res = simulate_size_power(cfg)
        assert res.reject_rate_trad == float(reject_trad.mean())
        assert res.reject_rate_null == float(reject_null.mean())
        assert res.disagreements == int(np.count_nonzero(reject_trad != reject_null))

    def test_proportion_scenario_reports_disagreements(self):
        # the two z forms are different tests; near the boundary of the
        # rejection region they genuinely disagree on some replicates
        cfg = SimConfig(
            replicates=30_000, seed=11, n=100, scenario=Scenario.PROPORTION,
            p0=0.3, effect=0.09,
        )
        res = simulate_size_power(cfg)
        assert res.disagreements > 0
        # null variance (0.3*0.7) exceeds the wald variance near p_hat=0.39,
        # so the null-form test rejects at least as often
        assert res.reject_rate_null >= res.reject_rate_trad


class TestNullLaw:
    def test_t_scenario_ks(self):
        cfg = SimConfig(
            replicates=20_000, seed=303, n=5, scenario=Scenario.ONE_SAMPLE_T
        )
        ks = null_law_check(cfg)
        assert ks < 1.63 / math.sqrt(20_000)

    def test_f_scenario_ks(self):
        cfg = SimConfig(
            replicates=20_000, seed=404, n=20, scenario=Scenario.NESTED_F, p1=2, p2=2
        )
        ks = null_law_check(cfg)
        assert ks < 1.63 / math.sqrt(20_000)

    @pytest.mark.parametrize("scenario", [Scenario.ONE_SAMPLE_T, Scenario.NESTED_F])
    def test_simulation_carries_the_ks_of_its_own_draw(self, scenario):
        cfg = SimConfig(replicates=2_000, seed=505, n=12, scenario=scenario, p1=2, p2=2)
        assert simulate_size_power(cfg).ks_statistic == null_law_check(cfg)
        shifted = SimConfig(replicates=200, seed=505, n=12, scenario=scenario,
                            p1=2, p2=2, effect=0.5)
        assert simulate_size_power(shifted).ks_statistic is None

    @pytest.mark.parametrize("cfg", [
        SimConfig(replicates=100_000, seed=20260814, n=20, scenario=Scenario.NESTED_F,
                  p1=2, p2=2),
        SimConfig(replicates=100_000, seed=20260814, n=10, scenario=Scenario.ONE_SAMPLE_T),
    ])
    def test_ks_matches_scalar_loop(self, cfg):
        # the KS pass as a loop of scalar cdf calls, on the criterion-7 draws
        _, f_null, p1, p2 = _nested_statistics(cfg)
        law = beta_params(0.5 * p2, 0.5 * (cfg.n - p1 - p2))
        ordered = np.sort(p2 * f_null / (cfg.n - p1))
        m, ks = ordered.size, 0.0
        for i, x in enumerate(ordered):
            f = cdf(law, float(x))
            ks = max(ks, (i + 1) / m - f, f - i / m)
        assert abs(simulate_size_power(cfg).ks_statistic - ks) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(scenario=st.sampled_from([Scenario.ONE_SAMPLE_T, Scenario.NESTED_F]),
           replicates=st.integers(min_value=1, max_value=20_000),
           p1=st.integers(min_value=0, max_value=2), p2=st.integers(min_value=1, max_value=3),
           df=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    @example(Scenario.ONE_SAMPLE_T, 1, 0, 1, 4, 3)
    @example(Scenario.NESTED_F, 2, 1, 2, 5, 3)
    @example(Scenario.ONE_SAMPLE_T, 16, 0, 1, 9, 3)
    @example(Scenario.NESTED_F, 17, 2, 2, 16, 3)
    @example(Scenario.ONE_SAMPLE_T, 20_000, 0, 1, 9, 3)
    @example(Scenario.NESTED_F, 19_999, 2, 2, 16, 3)
    def test_bracketed_ks_is_the_full_scan(self, scenario, replicates, p1, p2, df, seed):
        # the full scan evaluates the law at every ordered replicate
        if scenario is Scenario.ONE_SAMPLE_T:
            p1, p2 = 0, 1
        cfg = SimConfig(replicates=replicates, seed=seed, n=p1 + p2 + df, scenario=scenario,
                        p1=p1, p2=p2)
        _, f_null, _, _ = _nested_statistics(cfg)
        ordered = np.sort(p2 * f_null / (cfg.n - p1))
        f = cdf_array(beta_params(0.5 * p2, 0.5 * df), ordered)
        m = ordered.size
        i = np.arange(m)
        full = float(np.max(np.maximum((i + 1) / m - f, f - i / m)))
        assert simulate_size_power(cfg).ks_statistic.hex() == full.hex()

    def test_ks_gap_strictly_inside_a_segment(self):
        # F(x) = x, the sample at the midpoints of m equal cells, and
        # position 20, between the knots 16 and 32, moved up towards
        # position 21: the largest gap is there and at no knot
        law = beta_params(1.0, 1.0)
        m = 64
        ordered = (np.arange(m) + 0.5) / m
        ordered[20] = 21.4 / m
        f = cdf_array(law, ordered)
        i = np.arange(m)
        gaps = np.maximum((i + 1) / m - f, f - i / m)
        assert np.argmax(gaps) == 20
        assert gaps[[0, 16, 32, 48, 63]].max() < gaps[20]
        assert _ks_distance(law, ordered).hex() == float(gaps[20]).hex()

    def test_no_ks_for_proportion(self):
        cfg = SimConfig(replicates=100, seed=1, n=10, scenario=Scenario.PROPORTION)
        assert simulate_size_power(cfg).ks_statistic is None

    def test_requires_null_truth(self):
        cfg = SimConfig(
            replicates=100, seed=1, n=10, scenario=Scenario.ONE_SAMPLE_T, effect=0.5
        )
        with pytest.raises(DomainError):
            null_law_check(cfg)

    def test_no_law_for_proportion(self):
        cfg = SimConfig(replicates=100, seed=1, n=10, scenario=Scenario.PROPORTION)
        with pytest.raises(DomainError):
            null_law_check(cfg)
