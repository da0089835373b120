"""Monte Carlo harness: generator quality and reproducibility, pinned draw
bytes, scenario sizes, null-law KS checks, and power monotonicity."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sst

from nullform import montecarlo
from nullform.errors import DomainError, NumericError
from nullform.montecarlo import (
    _BLOCK_CELLS,
    Scenario,
    SimConfig,
    _cell_keys,
    _domain_key,
    _fill_normals,
    _nested_statistics,
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
from nullform.specfun import beta_params, cdf, normal_critical, quantile, student_t


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
        assert _to_unit(raw).tolist() == [2.0**-54, 1.0]
        assert raw.tolist() == [0, 2**64 - 1]

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
        keys = _cell_keys(_domain_key(9, 1), start, count)
        whole = np.empty(count)
        _fill_normals(whole, keys)
        assert np.array_equal(normal_cells(seed=9, domain=1, start=start, count=count), whole)
        assert np.array_equal(uniform_cells(seed=9, domain=1, start=start, count=count),
                              _to_unit(_raw(keys, 0)))

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
            return float(_to_unit(np.array([bits << 11], np.uint64))[0])

        assert unit(q) >= p
        assert q == 0 or unit(q - 1) < p
        edge = q << 11
        words = np.array([w for w in (edge - 2049, edge - 2048, edge - 1, edge, edge + 2047,
                                      edge + 2048) if 0 <= w < 2**64], np.uint64)
        assert np.array_equal(_to_unit(words) < p, words < np.uint64(edge))
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
            keys = _cell_keys(_domain_key(9, 1), 1234, count)
            whole = np.empty(count)
            _fill_normals(whole, keys)
            uniforms = _to_unit(_raw(keys, 0))
            assert normal_cells(9, 1, 1234, count).tobytes() == whole.tobytes()
            assert uniform_cells(9, 1, 1234, count).tobytes() == uniforms.tobytes()
        # rows of 16 and rows longer than a block, counted in parts
        rows = [(count // 16, 16) for count in self.COUNTS] + [(3, _BLOCK_CELLS + 7)]
        for replicates, n in rows:
            trials = _cell_keys(_domain_key(9, 3), 0, replicates * n)
            u = _to_unit(_raw(trials, 0)).reshape(replicates, n)
            assert np.array_equal(_trial_successes(9, replicates, n, 0.3),
                                  (u < 0.3).sum(axis=1))
        assert {cells: (_sha(normal_cells(*cells)), _sha(uniform_cells(*cells)))
                for cells in DRAW_SHA256} == DRAW_SHA256
        assert self._simulations() == simulations

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
