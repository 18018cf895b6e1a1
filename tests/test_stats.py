"""Spearman permutation test and lagged-regression F-test."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from ontoprobe import DegenerateInputError, granger_f, spearman, stats


class TestSpearmanRho:
    def test_perfect_monotone(self):
        result = spearman([1, 2, 3, 4, 5], [1, 4, 9, 16, 25], n_permutations=200)
        assert result.rho == pytest.approx(1.0)

    def test_perfect_antitone(self):
        result = spearman([1, 2, 3, 4, 5], [10, 8, 6, 4, 2], n_permutations=200)
        assert result.rho == pytest.approx(-1.0)

    def test_invariant_to_monotone_transforms(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = spearman(x, y, n_permutations=50, seed=1)
        warped = spearman(np.exp(x), np.tanh(y) * 100, n_permutations=50, seed=1)
        assert warped.rho == pytest.approx(base.rho, abs=1e-12)
        assert warped.p_value == base.p_value

    def test_matches_library_statistic_with_ties(self):
        rng = np.random.default_rng(20240818)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            ours = spearman(x, y, n_permutations=1).rho
            theirs = scipy_stats.spearmanr(x, y).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_rho_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert -1.0 <= spearman(x, y, n_permutations=1).rho <= 1.0


class TestSpearmanPValue:
    def test_add_one_floor(self):
        x = list(range(30))
        result = spearman(x, x, n_permutations=999, seed=0)
        assert result.p_value == pytest.approx(1 / 1000)

    def test_null_p_is_large(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        result = spearman(x, y, n_permutations=2000, seed=4)
        assert result.p_value > 0.05

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=25)
        y = x + rng.normal(scale=2.0, size=25)
        a = spearman(x, y, n_permutations=500, seed=7)
        b = spearman(x, y, n_permutations=500, seed=7)
        assert a == b
        assert a.n_permutations == 500 and a.seed == 7

    def test_block_processing_consistent(self):
        # crossing the internal block size must not change the estimate's seed path
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        y = x + rng.normal(size=20)
        small = spearman(x, y, n_permutations=70000, seed=3)
        assert 0.0 < small.p_value <= 1.0


def tile_and_permute(x, y, n_permutations: int, seed: int) -> stats.CorrelationResult:
    """The permutation test as it was computed before the fixed-size
    buffer: blocks of up to 65,536 rows, each tiled from y's centred ranks
    and permuted into a copy."""
    rx = stats._average_ranks(np.asarray(x, dtype=float))
    ry = stats._average_ranks(np.asarray(y, dtype=float))
    xc, yc = rx - rx.mean(), ry - ry.mean()
    nx, ny = float(np.sqrt(xc @ xc)), float(np.sqrt(yc @ yc))
    rho = float((xc @ yc) / (nx * ny))
    rng = np.random.default_rng(seed)
    exceed = 0
    remaining = n_permutations
    while remaining > 0:
        block = min(remaining, 65536)
        perms = rng.permuted(np.tile(yc, (block, 1)), axis=1)
        rho_perm = perms @ xc / (nx * ny)
        exceed += int(np.count_nonzero(np.abs(rho_perm) >= abs(rho)))
        remaining -= block
    return stats.CorrelationResult(rho, (1 + exceed) / (1 + n_permutations), n_permutations, seed)


@st.composite
def permutation_tests(draw):
    """(x, y, rows per block or None for the default budget, n_permutations):
    tied series of 3 to 64 points, and counts around the block boundary."""
    n = draw(st.integers(min_value=3, max_value=64))
    series = st.lists(st.integers(min_value=0, max_value=4).map(float), min_size=n, max_size=n)
    x = draw(series.filter(lambda s: len(set(s)) > 1))
    y = draw(series.filter(lambda s: len(set(s)) > 1))
    rows = draw(st.sampled_from([1, 3, None]))
    block = max(1, stats._PERMUTATION_BUDGET // (8 * n)) if rows is None else rows
    boundary = st.sampled_from([block - 1, block, block + 1, 2 * block + 1]).filter(lambda k: k >= 1)
    n_permutations = draw(st.one_of(boundary, st.integers(min_value=1, max_value=min(3 * block + 1, 400))))
    return x, y, rows, n_permutations


class TestSpearmanKernel:
    """The fixed-size buffer gives the p-values of tiled, copied blocks,
    in a memory that does not grow with the permutation count."""

    @settings(max_examples=60, deadline=None)
    @given(case=permutation_tests(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    # At n = 3 a third of the draws leave the series as they were, so
    # |rho_perm| equals the threshold exactly; 70,001 crosses the old block.
    @example(case=([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], None, 70001), seed=0)
    @example(case=([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 1, 7), seed=5)
    def test_fixed_buffer_gives_the_tile_and_permute_result(self, case, seed):
        x, y, rows, n_permutations = case
        budget = stats._PERMUTATION_BUDGET if rows is None else 8 * len(x) * rows
        with mock.patch.object(stats, "_PERMUTATION_BUDGET", budget):
            result = stats._spearman(x, y, n_permutations, seed)
        assert result == tile_and_permute(x, y, n_permutations, seed)

    def test_memory_does_not_grow_with_the_permutation_count(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=50), rng.normal(size=50)
        tracemalloc.start()
        try:
            stats._spearman(x, y, 200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestSpearmanValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            spearman([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            spearman([1, 2], [1, 2])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, 2, float("nan"), 4], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="non-finite"):
            spearman([1, 2, 3, 4], [1, 2, float("inf"), 4])

    def test_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            spearman([[1, 2], [3, 4]], [[1, 2], [3, 4]])

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError, match="rank variance"):
            spearman([5, 5, 5, 5], [1, 2, 3, 4])
        with pytest.raises(DegenerateInputError, match="rank variance"):
            spearman([1, 2, 3, 4], [2, 2, 2, 2])

    def test_bad_permutation_count(self):
        with pytest.raises(ValueError, match="positive"):
            spearman([1, 2, 3], [1, 2, 3], n_permutations=0)


def planted_pair(seed: int, n: int = 60, lag: int = 3, strength: float = 0.8):
    """x drives y at exactly `lag` steps with mild observation noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    noise = rng.normal(scale=0.1, size=n)
    y = noise.copy()
    y[lag:] += strength * x[:-lag]
    return x, y


class TestGrangerF:
    def test_degrees_of_freedom(self):
        rng = np.random.default_rng(0)
        result = granger_f(rng.normal(size=20), rng.normal(size=20), lag=3)
        assert result.n_effective == 17
        assert result.df == (3, 10)

    def test_planted_signal_detected(self):
        x, y = planted_pair(seed=101)
        result = granger_f(x, y, lag=3)
        assert result.p_value < 0.05
        assert result.f_statistic > 0

    def test_reverse_direction_not_detected(self):
        x, y = planted_pair(seed=101)
        assert granger_f(y, x, lag=3).p_value > 0.05

    def test_detection_rate_over_trials(self):
        detected = sum(granger_f(*planted_pair(seed=s), lag=3).p_value < 0.05 for s in range(30))
        assert detected >= 24

    def test_false_alarm_rate_over_trials(self):
        alarms = 0
        for s in range(30):
            rng = np.random.default_rng(10000 + s)
            x = rng.normal(size=60)
            y = rng.normal(size=60)
            alarms += granger_f(x, y, lag=3).p_value < 0.05
        assert alarms <= 6

    def test_matches_independent_ols(self):
        # same F from an independently assembled regression
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(15, 80))
            lag = int(rng.integers(1, 4))
            if n - lag - 2 * lag - 1 < 1:
                continue
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.5 * np.concatenate([np.zeros(lag), x[:-lag]])
            result = granger_f(x, y, lag=lag)

            rows_r, rows_u, target = [], [], []
            for t in range(lag, n):
                past_y = [y[t - i] for i in range(1, lag + 1)]
                past_x = [x[t - i] for i in range(1, lag + 1)]
                rows_r.append([1.0] + past_y)
                rows_u.append([1.0] + past_y + past_x)
                target.append(y[t])
            target = np.array(target)

            def rss(rows):
                a = np.array(rows)
                beta, *_ = np.linalg.lstsq(a, target, rcond=None)
                r = target - a @ beta
                return float(r @ r)

            rss_r, rss_u = rss(rows_r), rss(rows_u)
            df_den = (n - lag) - 2 * lag - 1
            f_ref = ((rss_r - rss_u) / lag) / (rss_u / df_den)
            p_ref = float(scipy_stats.f.sf(f_ref, lag, df_den))
            assert result.f_statistic == pytest.approx(f_ref, rel=1e-9, abs=1e-9)
            assert result.p_value == pytest.approx(p_ref, rel=1e-9, abs=1e-12)

    def test_p_value_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            result = granger_f(x, y, lag=2)
            assert 0.0 <= result.p_value <= 1.0
            assert result.f_statistic >= 0.0


class TestGrangerValidation:
    def test_minimum_length_message(self):
        with pytest.raises(ValueError, match="need at least 11 observations, got 10"):
            granger_f(list(range(10)), list(range(10)), lag=3)

    def test_exact_minimum_accepted(self):
        rng = np.random.default_rng(1)
        result = granger_f(rng.normal(size=11), rng.normal(size=11), lag=3)
        assert result.df == (3, 1)

    def test_bad_lag(self):
        with pytest.raises(ValueError, match="lag must be at least 1"):
            granger_f([1, 2, 3], [1, 2, 3], lag=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            granger_f(list(range(12)), list(range(13)), lag=1)

    def test_constant_y(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DegenerateInputError, match="constant"):
            granger_f(rng.normal(size=20), np.full(20, 3.0), lag=3)

    def test_exact_fit_has_no_f_statistic(self):
        # y is zero after its first value: both models fit the target exactly.
        with pytest.raises(DegenerateInputError) as raised:
            granger_f([1.0, 2.0, 4.0, 3.0, 5.0, 6.0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], lag=1)
        assert str(raised.value) == "unrestricted model fits exactly; F-statistic undefined"

    def test_collinear_x_names_columns(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=24)
        with pytest.raises(DegenerateInputError, match="x_lag"):
            granger_f(y, y, lag=2)

    def test_non_finite(self):
        y = np.ones(20)
        y[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            granger_f(np.arange(20, dtype=float), y, lag=2)


class TestWorker:
    """Inside stats.worker() the statistics run in one other process and
    give what they give in this one."""

    X = [float((i * i) % 13) for i in range(20)]
    Y = [float((7 * i) % 11) for i in range(20)]

    def test_computes_in_one_other_process_and_leaves_none(self):
        with stats.worker():
            pids = {stats._compute(os.getpid) for _ in range(3)}
        assert len(pids) == 1 and os.getpid() not in pids
        assert stats._compute(os.getpid) == os.getpid()
        assert multiprocessing.active_children() == []

    def test_nested_block_leaves_the_outer_worker_open(self):
        with stats.worker():
            outer = stats._compute(os.getpid)
            with stats.worker():
                assert stats._compute(os.getpid) not in (outer, os.getpid())
            assert stats._compute(os.getpid) == outer
        assert multiprocessing.active_children() == []

    def test_results_equal_in_process_results(self):
        expected = (spearman(self.X, self.Y, 500, 4), granger_f(self.X, self.Y, lag=2))
        with stats.worker():
            assert (spearman(self.X, self.Y, 500, 4), granger_f(self.X, self.Y, lag=2)) == expected

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: spearman([1, 2, 3], [5, 5, 5]), DegenerateInputError, "constant series has no rank variance"),
            (lambda: granger_f(range(10), range(10), lag=3), ValueError, "need at least 11 observations, got 10"),
        ],
    )
    def test_errors_cross_back_unchanged(self, call, error, message):
        with stats.worker(), pytest.raises(error, match=message):
            call()

    def test_block_that_raises_does_not_wait_for_a_running_task(self):
        start = time.monotonic()
        with pytest.raises(KeyError), stats.worker():
            stats._worker.get().conn.send((time.sleep, (30,)))  # in the pipe: the worker will run it
            raise KeyError("input error")
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    def test_broken_worker_falls_back_in_process(self):
        expected = spearman(self.X, self.Y, 500, 4)
        with stats.worker():
            os.kill(stats._compute(os.getpid), signal.SIGKILL)
            assert spearman(self.X, self.Y, 500, 4) == expected
            assert stats._compute(os.getpid) == os.getpid()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "owner, name", [(multiprocessing, "Pipe"), (multiprocessing.process.BaseProcess, "start")]
    )
    def test_pool_or_process_that_cannot_start_computes_in_process(self, monkeypatch, owner, name):
        def cannot_start(*args, **kwargs):
            raise BlockingIOError("no process")

        expected = spearman(self.X, self.Y, 500, 4)
        monkeypatch.setattr(owner, name, cannot_start)
        with stats.worker():
            assert stats._compute(os.getpid) == os.getpid()
            assert spearman(self.X, self.Y, 500, 4) == expected
        assert multiprocessing.active_children() == []

    def test_worker_for_spearman_alone_never_imports_scipy(self):
        # A fresh interpreter: a forked worker inherits whatever this one loaded.
        script = """if True:
            import json, sys
            from ontoprobe import stats

            def loaded():
                return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})

            with stats.worker(libraries=("numpy.random",)):
                result = stats.spearman(list(range(20)), [(7 * i) % 11 for i in range(20)], 500, 4)
                print(json.dumps([result.p_value, stats._compute(loaded), loaded()]))
        """
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        expected = spearman(list(range(20)), [(7 * i) % 11 for i in range(20)], 500, 4).p_value
        assert json.loads(result.stdout) == [expected, ["numpy"], []]
