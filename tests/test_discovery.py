import math
import multiprocessing
import os
import struct
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metacausal import discovery
from metacausal.datagen import Dataset, MechanismParams, random_dataset
from metacausal.discovery import (
    DiscoveryConfig,
    dominance_filter,
    lo_ransac_best,
    map_tasks,
    recover_mechanism_count,
    resamples_for,
    validate_k,
)
from metacausal.em import check_convergence, draw_seed_state, run_em


class TestConfig:
    def test_defaults_valid(self):
        cfg = DiscoveryConfig()
        assert cfg.k_max == 4
        assert cfg.resample_mode == "empirical"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(k_max=0)
        with pytest.raises(ValueError):
            DiscoveryConfig(resample_mode="magic")
        with pytest.raises(ValueError):
            DiscoveryConfig(k_max=5)  # reference rates stop at k = 4
        for dev in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=f"got {dev}"):
                DiscoveryConfig(max_class_dev=dev)
        with pytest.raises(ValueError, match="got -1"):
            DiscoveryConfig(master_seed=-1)

    def test_kmax_beyond_reference_rates_needs_rates_or_bound(self):
        assert DiscoveryConfig(k_max=5, resample_mode="theoretical").k_max == 5
        with pytest.raises(ValueError, match="use the theoretical mode"):
            DiscoveryConfig(k_max=5)

    def test_no_dominance_rule_field(self):
        # One rule, fixed: no field selects another.
        with pytest.raises(TypeError):
            DiscoveryConfig(dominance_rule="relative")


class TestResampleBudgets:
    def test_theoretical_budgets_match_bound_table(self):
        cfg = DiscoveryConfig(resample_mode="theoretical", max_class_dev=0.0)
        assert [resamples_for(k, cfg) for k in (1, 2, 3, 4)] == [1, 23, 363, 8179]
        cfg2 = DiscoveryConfig(resample_mode="theoretical", max_class_dev=0.2)
        assert [resamples_for(k, cfg2) for k in (1, 2, 3, 4)] == [1, 30, 526, 14859]

    def test_empirical_budgets_from_reference_rates(self):
        cfg = DiscoveryConfig(resample_mode="empirical", max_class_dev=0.0)
        assert [resamples_for(k, cfg) for k in (1, 2, 3, 4)] == [2, 8, 24, 173]


class TestLoRansacBest:
    def test_zero_restarts_rejected(self):
        ds = random_dataset(1, 0.0, seed=0)
        with pytest.raises(ValueError):
            lo_ransac_best(ds, 1, 0, np.random.default_rng(0))

    def test_too_small_dataset_rejected(self):
        ds = Dataset(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            lo_ransac_best(ds, 2, 3, np.random.default_rng(0))

    def test_k1_restarts_identical(self):
        # the single-component M-step ignores the init, so two restarts tie
        ds = random_dataset(1, 0.0, seed=1)
        best = lo_ransac_best(ds, 1, 2, np.random.default_rng(1))
        single = lo_ransac_best(ds, 1, 1, np.random.default_rng(2))
        assert best.mechanisms == single.mechanisms

    def test_deterministic_given_rng_seed(self):
        ds = random_dataset(2, 0.0, seed=2)
        a = lo_ransac_best(ds, 2, 4, np.random.default_rng(5))
        b = lo_ransac_best(ds, 2, 4, np.random.default_rng(5))
        assert a.mechanisms == b.mechanisms
        assert a.log_likelihood == b.log_likelihood

    def test_seeded_k2_convergence_rate(self):
        # With the empirical budget of 8 restarts the truth is found in a
        # majority of datasets.  The budget's 95% coverage target does not
        # hold dataset-wise (per-restart convergence is heterogeneous; the
        # oracle ceiling on this batch is 68/100), so the floor asserts the
        # measured level, not the design target.
        hits = 0
        for seed in range(25):
            ds = random_dataset(2, 0.0, seed=300 + seed)
            best = lo_ransac_best(ds, 2, 8, np.random.default_rng(seed))
            hits += check_convergence(best.mechanisms, ds.generator.mechanisms)
        assert hits >= 14


def _serial_best(data, k, n_resamples, rng):
    """The restart loop as it ran before the fan-out: keep the best EM state."""
    best = None
    for child in rng.spawn(n_resamples):
        init = draw_seed_state(data, k, child)
        if init is None:
            continue
        candidate = run_em(data, init)
        if best is None or candidate.log_likelihood > best.log_likelihood:
            best = candidate
    return best


def _bits(state):
    """Mechanism bits, responsibility bytes and log-likelihood bits of a state."""
    return (
        [(m.direction, struct.pack("3d", m.alpha, m.beta, m.b)) for m in state.mechanisms],
        state.responsibilities.tobytes(),
        state.responsibilities.shape,
        struct.pack("d", state.log_likelihood),
    )


def _repeated_x_dataset():
    """100 points at x = 0 and 6 elsewhere: most seed draws hold a vertical
    pair, and with seed 3 five of twelve k = 2 restarts draw only such pairs."""
    rng = np.random.default_rng(0)
    x = np.concatenate([np.zeros(100), rng.normal(size=6)])
    return Dataset(np.column_stack([x, rng.normal(size=len(x))]))


def _discovery_bits(data, k_max=2):
    """k_hat and, per candidate k, the winner's bits and the AD outcomes."""
    res = recover_mechanism_count(data, DiscoveryConfig(k_max=k_max))
    return res.k_hat, {k: (_bits(d.state), d.ad_results, d.passed) for k, d in res.per_k.items()}


def _stage_in_child(args):
    data, k, n_resamples, seed = args
    return _bits(lo_ransac_best(data, k, n_resamples, np.random.default_rng(seed)))


class _CannedRestarts:
    """Stand-in restart loop: restart i gives ``mechs[i]`` with ``scores[i]``,
    or None when i has no score."""

    def __init__(self, mechs, scores):
        self.mechs, self.scores = mechs, scores

    def __call__(self, data, orders, task):
        _, children = task
        index = [child.bit_generator.seed_seq.spawn_key[-1] for child in children]
        return [(self.mechs[i], self.scores[i]) if i in self.scores else None for i in index]


_RUN_RESTARTS = discovery._run_restarts


def _fail_in_a_worker(data, orders, task):
    """The restart loop, raising in a pool worker."""
    if multiprocessing.parent_process() is not None:
        raise FloatingPointError("restart failed in a worker")
    return _RUN_RESTARTS(data, orders, task)


_VALIDATE_K = discovery.validate_k


def _interrupt_after_k1(data, state):
    """Residual validation, interrupted once a stage of k >= 2 has run."""
    if len(state.mechanisms) > 1:
        raise KeyboardInterrupt
    return _VALIDATE_K(data, state)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class TestRestartFanOut:
    """The winner is the same whether the restarts run here or over a pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(discovery, "ProcessPoolExecutor", CountingPool)
        return started

    @pytest.mark.parametrize("k, seed, n_resamples", [(2, 11, 8), (3, 12, 9)])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_same_winner_on_one_and_two_cores(self, monkeypatch, pools, k, seed, n_resamples, cores):
        data = random_dataset(k, 0.1, seed=seed, n_per_class_avg=100)
        monkeypatch.setattr(discovery, "usable_cores", lambda: cores)
        got = lo_ransac_best(data, k, n_resamples, np.random.default_rng(seed))
        assert pools == ([2] if cores == 2 else [])
        assert _bits(got) == _bits(_serial_best(data, k, n_resamples, np.random.default_rng(seed)))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_degenerate_draws_same_winner(self, monkeypatch, pools, cores):
        data = _repeated_x_dataset()
        children = np.random.default_rng(3).spawn(12)
        assert 0 < sum(draw_seed_state(data, 2, c) is None for c in children) < 12
        monkeypatch.setattr(discovery, "usable_cores", lambda: cores)
        got = lo_ransac_best(data, 2, 12, np.random.default_rng(3))
        assert len(pools) == (cores == 2)
        assert _bits(got) == _bits(_serial_best(data, 2, 12, np.random.default_rng(3)))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_nan_log_likelihoods_reduce_as_in_restart_order(self, monkeypatch, pools, cores):
        # On two cores the 64 restarts run as 32 slices of two.  Restart 2
        # opens the second slice with a NaN: in restart order it never wins,
        # and restart 3 beats restart 0.  A per-slice best would keep the NaN
        # for that slice and hand the stage to restart 0.
        data = random_dataset(2, 0.0, seed=14, n_per_class_avg=30)
        mechs = [
            (MechanismParams(float(i), 0.0, 1.0), MechanismParams(-float(i), 1.0, 1.0))
            for i in range(64)
        ]
        scores = {0: 5.0, 2: math.nan, 3: 7.0}
        monkeypatch.setattr(discovery, "usable_cores", lambda: cores)
        monkeypatch.setattr(discovery, "_run_restarts", _CannedRestarts(mechs, scores))
        got = lo_ransac_best(data, 2, 64, np.random.default_rng(0))
        assert len(pools) == (cores == 2)
        assert got.mechanisms == mechs[3] and got.log_likelihood == 7.0

    @pytest.mark.parametrize("n_resamples", [2, 7])
    def test_small_stage_starts_no_pool(self, monkeypatch, n_resamples):
        monkeypatch.setattr(discovery, "usable_cores", lambda: 2)
        monkeypatch.setattr(discovery, "ProcessPoolExecutor", _NoPool)
        data = random_dataset(1, 0.0, seed=4, n_per_class_avg=100)
        got = lo_ransac_best(data, 1, n_resamples, np.random.default_rng(4))
        assert _bits(got) == _bits(_serial_best(data, 1, n_resamples, np.random.default_rng(4)))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_worker_process_starts_no_pool(self, monkeypatch):
        # The forked child inherits both patches, so a pool there would raise.
        monkeypatch.setattr(discovery, "usable_cores", lambda: 2)
        monkeypatch.setattr(discovery, "ProcessPoolExecutor", _NoPool)
        data = random_dataset(2, 0.0, seed=13, n_per_class_avg=100)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            got = pool.submit(_stage_in_child, (data, 2, 8, 13)).result(timeout=120)
        assert got == _bits(_serial_best(data, 2, 8, np.random.default_rng(13)))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_usable_cores_follow_the_affinity(self):
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from metacausal.discovery import usable_cores; print(usable_cores())"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(discovery.__file__).parents[1])},
        )
        assert done.stdout.split() == ["1"]

    @pytest.mark.parametrize("count, cores", [(3, 3), (None, 1)])
    def test_usable_cores_without_an_affinity_call(self, monkeypatch, count, cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert discovery.usable_cores() == cores

    def test_same_discovery_in_process_and_in_a_worker(self, monkeypatch, pools):
        # In-process each dataset's k = 2 stage (8 restarts) fans out over the
        # search's pool of two workers; inside a map_tasks worker it runs
        # serially.  The map_tasks pool is the third.
        monkeypatch.setattr(discovery, "usable_cores", lambda: 2)
        tasks = [random_dataset(2, 0.0, seed=s) for s in (20, 21)]
        here = [_discovery_bits(data) for data in tasks]
        assert pools == [2, 2]
        assert map_tasks(_discovery_bits, tasks, 2) == here
        assert pools == [2, 2, 2]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_pool_per_search(self, monkeypatch, pools, cores):
        # The k = 2 (8 restarts) and k = 3 (24 restarts) stages both fan out
        # on two cores, over the one pool the search opens at k = 2.
        data = random_dataset(3, 0.0, seed=21, n_per_class_avg=100)
        monkeypatch.setattr(discovery, "usable_cores", lambda: 1)
        serial = _discovery_bits(data, k_max=3)
        assert serial[0] == 3 and pools == []
        monkeypatch.setattr(discovery, "usable_cores", lambda: cores)
        assert _discovery_bits(data, k_max=3) == serial
        assert pools == ([2] if cores == 2 else [])

    @pytest.mark.parametrize("entry", ["search", "stage"])
    def test_no_worker_outlives_a_search(self, monkeypatch, entry):
        monkeypatch.setattr(discovery, "usable_cores", lambda: 2)
        data = random_dataset(2, 0.0, seed=20, n_per_class_avg=100)
        if entry == "search":
            recover_mechanism_count(data, DiscoveryConfig(k_max=2))
        else:
            lo_ransac_best(data, 2, 8, np.random.default_rng(0))
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_search(self, monkeypatch, pools):
        monkeypatch.setattr(discovery, "usable_cores", lambda: 2)
        data = random_dataset(2, 0.0, seed=20, n_per_class_avg=100)
        monkeypatch.setattr(discovery, "_run_restarts", _fail_in_a_worker)
        with pytest.raises(FloatingPointError):
            recover_mechanism_count(data, DiscoveryConfig(k_max=2))
        assert multiprocessing.active_children() == []
        # An interrupt after a stage that fanned out closes the pool too.
        monkeypatch.setattr(discovery, "_run_restarts", _RUN_RESTARTS)
        monkeypatch.setattr(discovery, "validate_k", _interrupt_after_k1)
        with pytest.raises(KeyboardInterrupt):
            recover_mechanism_count(data, DiscoveryConfig(k_max=2))
        assert pools == [2, 2]
        assert multiprocessing.active_children() == []

    def test_k1_sixteen_restarts_on_two_cores(self, monkeypatch, pools):
        # A k = 1 stage stays in-process: pool slices would each run their
        # own first usable restart.
        data = random_dataset(1, 0.1, seed=15, n_per_class_avg=100)
        monkeypatch.setattr(discovery, "usable_cores", lambda: 2)
        calls = _count_runs(monkeypatch)
        got = lo_ransac_best(data, 1, 16, np.random.default_rng(15))
        assert pools == []
        assert calls["n"] == 1
        assert _bits(got) == _bits(_serial_best(data, 1, 16, np.random.default_rng(15)))


def _fail_on_odd(n):
    if n % 2:
        raise FloatingPointError(f"task {n} failed")
    return n


def _map_in_child(tasks):
    return map_tasks(_fail_on_odd, tasks, 2)


@pytest.mark.skipif(discovery.usable_cores() < 2, reason="needs two usable cores")
class TestMapTasks:
    def test_worker_error_reraises_and_leaves_no_worker(self):
        with pytest.raises(FloatingPointError, match="task 3 failed"):
            map_tasks(_fail_on_odd, [0, 2, 3, 4, 6], 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_call_in_a_worker_runs_there(self, monkeypatch):
        # The forked child inherits the patch, so a pool there would raise.
        monkeypatch.setattr(discovery, "ProcessPoolExecutor", _NoPool)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(_map_in_child, [0, 2, 4]).result(timeout=60) == [0, 2, 4]


def _count_runs(monkeypatch):
    """Count the run_em calls lo_ransac_best makes in this process from here on."""
    calls = {"n": 0}
    original = discovery.run_em

    def counting(data, mechanisms, orders=None):
        calls["n"] += 1
        return original(data, mechanisms, orders)

    monkeypatch.setattr(discovery, "run_em", counting)
    return calls


class TestK1FirstUsableRestart:
    """At k = 1 the stage ends after its first usable restart, with the winner
    the full budget gives."""

    def test_ordinary_data_runs_em_once(self, monkeypatch):
        data = random_dataset(1, 0.0, seed=16, n_per_class_avg=100)
        calls = _count_runs(monkeypatch)
        got = lo_ransac_best(data, 1, 5, np.random.default_rng(16))
        assert calls["n"] == 1
        assert _bits(got) == _bits(_serial_best(data, 1, 5, np.random.default_rng(16)))

    def test_equal_y_runs_every_restart(self, monkeypatch):
        x = np.random.default_rng(17).normal(size=40)
        data = Dataset(np.column_stack([x, np.full(40, 3.0)]))
        calls = _count_runs(monkeypatch)
        got = lo_ransac_best(data, 1, 5, np.random.default_rng(17))
        assert calls["n"] == 5
        assert _bits(got) == _bits(_serial_best(data, 1, 5, np.random.default_rng(17)))

    def test_vertical_draws_before_the_first_usable_restart(self, monkeypatch):
        # 300 points at x = 0 and one at x = 1: a draw is usable only when it
        # holds the lone point, and with seed 5 the first three restarts draw
        # only vertical pairs and the next three draw usable ones.
        rng = np.random.default_rng(18)
        data = Dataset(np.column_stack([np.append(np.zeros(300), 1.0), rng.normal(size=301)]))
        usable = [draw_seed_state(data, 1, c) is not None for c in np.random.default_rng(5).spawn(6)]
        assert usable == [False, False, False, True, True, True]
        calls = _count_runs(monkeypatch)
        got = lo_ransac_best(data, 1, 6, np.random.default_rng(5))
        assert calls["n"] == 1
        assert _bits(got) == _bits(_serial_best(data, 1, 6, np.random.default_rng(5)))


class TestDominanceFilter:
    def test_kept_point(self):
        resp = np.array([[0.7, 0.3]])
        assert list(dominance_filter(resp, 0)) == [0]

    def test_dropped_point(self):
        resp = np.array([[0.55, 0.45]])
        assert list(dominance_filter(resp, 0)) == []

    def test_single_class_keeps_everything(self):
        resp = np.ones((50, 1))
        assert len(dominance_filter(resp, 0)) == 50

    def test_owner_must_match(self):
        resp = np.array([[0.7, 0.3]])
        assert list(dominance_filter(resp, 1)) == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda r: sum(r) > 0),
                min_size=1,
                max_size=30,
            )
        )
    )
    @example([[0.625, 0.375]])  # runner-up exactly 0.6 * top: dropped
    def test_keeps_argmax_points_with_a_small_runner_up(self, raw):
        # Rows that sum to 1, as responsibilities do.
        resp = np.array(raw) / np.array(raw).sum(axis=1, keepdims=True)
        n, k = resp.shape
        ranked = -np.sort(-resp, axis=1)
        top = ranked[:, 0]
        runner = ranked[:, 1] if k > 1 else np.zeros(n)
        for j in range(k):
            expected = [i for i in range(n) if resp[i].argmax() == j and runner[i] < 0.6 * top[i]]
            assert list(dominance_filter(resp, j)) == expected
        if k == 1:
            assert list(dominance_filter(resp, 0)) == list(range(n))
        if k == 2:
            clear = np.abs(top - 0.625) > 1e-9
            kept = set(dominance_filter(resp, 0)) | set(dominance_filter(resp, 1))
            assert {i for i in range(n) if clear[i] and i in kept} == {
                i for i in range(n) if clear[i] and top[i] > 0.625
            }


class TestValidateK:
    def test_true_single_mechanism_passes(self):
        passes = 0
        for seed in range(20):
            ds = random_dataset(1, 0.0, seed=400 + seed)
            best = lo_ransac_best(ds, 1, 2, np.random.default_rng(seed))
            ok, results = validate_k(ds, best)
            passes += ok
        assert passes >= 16  # AD calibration: ~95% minus fit slack

    def test_underfit_k1_on_two_mechanisms_fails(self):
        # well-separated slopes make the pooled residuals clearly non-Laplace
        from metacausal.datagen import Direction, MechanismParams, generate_dataset

        mechs = (
            MechanismParams(3.0, 4.0, 0.3, Direction.XY),
            MechanismParams(-3.0, -4.0, 0.3, Direction.XY),
        )
        ds = generate_dataset(mechs, [0.5, 0.5], np.random.default_rng(7), 500)
        best = lo_ransac_best(ds, 1, 2, np.random.default_rng(0))
        ok, _ = validate_k(ds, best)
        assert not ok

    def test_starved_class_fails(self):
        ds = random_dataset(1, 0.0, seed=5)
        best = lo_ransac_best(ds, 1, 1, np.random.default_rng(1))
        # shrink the dataset below the AD test's 20 points: only 10 remain
        small = Dataset(ds.points[:10])
        from metacausal.em import MixtureState, mixture_log_likelihood, responsibilities

        state = MixtureState(
            best.mechanisms,
            responsibilities(small, best.mechanisms),
            mixture_log_likelihood(small, best.mechanisms),
        )
        ok, results = validate_k(small, state)
        assert not ok
        assert results == (None,)


class TestRecoverMechanismCount:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            recover_mechanism_count(Dataset(np.empty((0, 2))), DiscoveryConfig())

    def test_k1_dataset_recovered(self):
        hits = 0
        for seed in range(10):
            ds = random_dataset(1, 0.0, seed=500 + seed)
            res = recover_mechanism_count(ds, DiscoveryConfig(master_seed=seed))
            hits += res.k_hat == 1
        assert hits >= 7

    def test_never_returns_failed_k(self):
        ds = random_dataset(2, 0.0, seed=6)
        res = recover_mechanism_count(ds, DiscoveryConfig(master_seed=0))
        if res.decided:
            assert res.per_k[res.k_hat].passed
        for k, diag in res.per_k.items():
            if k != res.k_hat:
                assert not diag.passed

    def test_ascending_first_pass_wins(self):
        ds = random_dataset(1, 0.0, seed=7)
        res = recover_mechanism_count(ds, DiscoveryConfig(master_seed=1))
        if res.decided:
            assert set(res.per_k) == set(range(1, res.k_hat + 1))

    def test_deterministic(self):
        ds = random_dataset(2, 0.0, seed=8)
        cfg = DiscoveryConfig(master_seed=3)
        a = recover_mechanism_count(ds, cfg)
        b = recover_mechanism_count(ds, cfg)
        assert a.k_hat == b.k_hat
        assert {
            k: d.state.log_likelihood for k, d in a.per_k.items()
        } == {k: d.state.log_likelihood for k, d in b.per_k.items()}

    def test_constant_x_gets_no_decision(self):
        y = np.random.default_rng(19).normal(size=60)
        data = Dataset(np.column_stack([np.full(60, 1.5), y]))
        res = recover_mechanism_count(data, DiscoveryConfig())
        assert (res.k_hat, res.per_k) == (0, {})
        with pytest.raises(ValueError, match="degenerate"):
            lo_ransac_best(data, 1, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("seed, stages", [(1, {1}), (3, set())])
    def test_stage_without_usable_seed_pairs_ends_search(self, seed, stages):
        # One point off x = 0: a k = 1 seed pair must hold it, and no draw of
        # two k = 2 pairs can, so the k = 2 stage (and with seed 3 already
        # the k = 1 stage) draws only vertical pairs.
        y = np.random.default_rng(0).standard_cauchy(301)
        data = Dataset(np.column_stack([np.r_[np.zeros(300), 1.0], y]))
        res = recover_mechanism_count(data, DiscoveryConfig(master_seed=seed))
        assert res.k_hat == 0 and set(res.per_k) == stages
        assert not any(d.passed for d in res.per_k.values())
        with pytest.raises(ValueError, match="degenerate"):
            lo_ransac_best(data, 2, 8, np.random.default_rng(seed))

    def test_search_stops_at_the_first_k_the_points_cannot_seed(self):
        # 3 points seed k = 1 (too few to validate) but not the 4 of k = 2.
        data = Dataset(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]))
        res = recover_mechanism_count(data, DiscoveryConfig(k_max=2))
        assert res.k_hat == 0 and list(res.per_k) == [1]
        assert res.per_k[1].ad_results == (None,)

    def test_theoretical_mode_uses_bound_budgets(self):
        ds = random_dataset(1, 0.0, seed=9)
        cfg = DiscoveryConfig(resample_mode="theoretical", master_seed=0)
        res = recover_mechanism_count(ds, cfg)
        assert res.per_k[1].resamples == 1

    @pytest.mark.parametrize("factor", [1e160, 1e200, 1e300])
    def test_huge_units_give_the_count_without_overflow(self, factor):
        # The descent's start line squares the data; past about 1e154 it is
        # fitted to the data scaled down by a power of two.
        base = random_dataset(2, 0.0, seed=5)
        want = recover_mechanism_count(base, DiscoveryConfig()).k_hat
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = recover_mechanism_count(Dataset(base.points * factor), DiscoveryConfig())
        assert res.k_hat == want == 2
