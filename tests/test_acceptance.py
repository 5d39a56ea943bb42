"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria and tolerances are fixed here; nothing is deferred to later
calibration.  The heavyweight criteria (4-6) share the `reproduce` module's
seeded runners at their documented scales.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from metacausal import reproduce
from metacausal.bounds import (
    expected_success_prob,
    lower_bound_success_prob,
    required_resamples,
)
from metacausal.core import AMBIGUOUS, infer_state, is_reducible
from metacausal.datagen import (
    Direction,
    MechanismParams,
    class_probabilities,
    generate_dataset,
    random_dataset,
    sample_mechanisms,
)
from metacausal.discovery import DiscoveryConfig, recover_mechanism_count
from metacausal.stats import anderson_darling_laplace, sample_laplace
from metacausal.systems.follower import (
    Policy,
    follower_identify,
    simulate_follower_trace,
)
from metacausal.systems.locks import Lock, LocksState, locks_attribution
from metacausal.systems.stress import (
    AMPLIFYING,
    NEUTRAL,
    SUPPRESSING,
    StressState,
    sigmoid_response,
    stress_identify,
    stress_model,
    stress_step,
)
from metacausal.systems.tag import (
    A_CHASING_STATE,
    B_CHASING_STATE,
    TagObservation,
    run_episode,
    tag_identify,
    tag_model,
)

REFERENCE_TABLE2 = np.array(
    [[1, 23, 363, 8179], [1, 26, 429, 10659], [1, 30, 526, 14859]]
)


def report(criterion: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    return passed


def test_criterion_1_bound_table_reproduction():
    start = time.monotonic()
    rows = reproduce.table2_rows()
    got = np.array([r["theoretical"] for r in rows]).reshape(3, 4)
    within_one = bool(np.all(np.abs(got - REFERENCE_TABLE2) <= 1))
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 1 (resample bound table, +-1 per cell)",
        within_one and elapsed < 1.0,
        f"{got.tolist()}, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_2_worked_bound_example():
    start = time.monotonic()
    p = lower_bound_success_prob(2, 0.2)
    k = required_resamples(p)
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 2 (worked example: p=0.096, k=30)",
        abs(p - 0.096) <= 5e-4 and k == 30 and elapsed < 1.0,
        f"p={p:.6f}, k={k}",
    )
    assert ok


def test_criterion_3_expected_probability_formula():
    start = time.monotonic()
    exact = expected_success_prob(2) == 0.125
    collapse = all(
        lower_bound_success_prob(n, 0.0) == expected_success_prob(n)
        for n in range(1, 9)
    )
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 3 (expected probability exact, bound collapses at d=0)",
        exact and collapse and elapsed < 1.0,
        f"E[P_2]={expected_success_prob(2)}",
    )
    assert ok


@pytest.fixture(scope="module")
def convergence_cells():
    # 500 seeded single-restart runs per cell (scale 0.1 of the full 5000)
    return {
        k: reproduce.measure_convergence_cell(k, 0.0, master_seed=0, scale=0.1)
        for k in (1, 2)
    }


def test_criterion_4_em_convergence_calibration(convergence_cells):
    start = time.monotonic()
    rate1 = convergence_cells[1].rate * 100
    rate2 = convergence_cells[2].rate * 100
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 4 (single-restart convergence rates, +-8 points)",
        abs(rate1 - 84.38) <= 8.0 and abs(rate2 - 34.80) <= 8.0,
        f"k=1: {rate1:.1f}% (ref 84.38), k=2: {rate2:.1f}% (ref 34.80), "
        f"runs=500/cell, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_parameter_accuracy(convergence_cells):
    slopes = [convergence_cells[k].mae_slope for k in (1, 2)]
    intercepts = [convergence_cells[k].mae_intercept for k in (1, 2)]
    ok = report(
        "criterion 5 (converged-fit MAE: slope <= 0.10, intercept <= 0.12)",
        all(s <= 0.10 for s in slopes) and all(b <= 0.12 for b in intercepts),
        f"slope {[round(s, 4) for s in slopes]}, intercept {[round(b, 4) for b in intercepts]}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_6_recovery_confusion_scaled():
    start = time.monotonic()
    tallies: dict[int, Counter] = {}
    for k_true in (1, 2, 4):
        tallies[k_true] = reproduce.confusion_row(
            k_true, 0.0, master_seed=0, scale=0.3, workers=2
        )
    share_k1 = tallies[1].get(1, 0) / sum(tallies[1].values())
    decided2 = {k: n for k, n in tallies[2].items() if k > 0}
    plurality2 = bool(decided2) and max(decided2, key=decided2.get) == 2
    modal4 = max(tallies[4], key=tallies[4].get) == 0
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 6 (recovery confusion at 30 datasets/cell, d=0)",
        share_k1 >= 0.70 and plurality2 and modal4 and elapsed < 1800,
        f"k*=1: {dict(tallies[1])}, k*=2: {dict(tallies[2])}, "
        f"k*=4: {dict(tallies[4])}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_ad_calibration():
    start = time.monotonic()
    rng = np.random.default_rng(20_240_101)
    trials = 2000
    rejections = sum(
        not anderson_darling_laplace(sample_laplace(rng, 1.0, size=500)).passed
        for _ in range(trials)
    )
    rate = rejections / trials
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 7 (AD false-rejection rate 5% +- 2 points)",
        0.03 <= rate <= 0.07 and elapsed < 60,
        f"rate={100 * rate:.2f}%, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_monte_carlo_bound_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    trials = 100_000
    sound = True
    details = []
    for n in (2, 3):
        for d in (0.0, 0.2):
            probs = class_probabilities(n, d)
            labels = rng.choice(n, size=(trials, n, 2), p=probs)
            same = np.all(labels[:, :, 0] == labels[:, :, 1], axis=1)
            firsts = np.sort(labels[:, :, 0], axis=1)
            distinct = np.all(np.diff(firsts, axis=1) > 0, axis=1)
            freq = float(np.mean(same & distinct))
            bound = lower_bound_success_prob(n, d)
            sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            sound = sound and (freq + 3 * sigma >= bound)
            details.append(f"n={n},d={d}: {freq:.4f}>={bound:.4f}")
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 8 (empirical pair-draw frequency dominates the bound)",
        sound and elapsed < 60,
        "; ".join(details),
    )
    assert ok


def _bisect(fn, lo, hi, iters=80):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == (flo > 0):
            lo, flo = mid, fn(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_9_stress_system():
    start = time.monotonic()
    grid_ok = all(
        stress_identify(float(s))
        == (AMPLIFYING if s > 0.5 else SUPPRESSING if s < 0.5 else NEUTRAL)
        for s in np.linspace(0.0, 1.0, 1001)
    )
    # independent bisection oracle for the outer fixed points of the response
    x_lo = _bisect(lambda x: sigmoid_response(x) - x, -0.2, 0.3)
    x_hi = _bisect(lambda x: sigmoid_response(x) - x, 0.7, 1.2)
    bands_ok = all(
        sigmoid_response(float(x)) < x
        for x in np.linspace(x_lo + 1e-6, 0.5 - 1e-9, 500)
    ) and all(
        sigmoid_response(float(x)) > x
        for x in np.linspace(0.5 + 1e-9, x_hi - 1e-6, 500)
    )
    persistence_ok = True
    for s0 in (0.6, 0.8):
        state = StressState(s=s0)
        for _ in range(1000):
            state = stress_step(state)
            persistence_ok = persistence_ok and state.s > 0.5
    model = stress_model()
    ext_probes = [
        StressState(s=float(s), ext=e)
        for s in np.linspace(0, 1, 21)
        for e in (0.0, 0.5)
    ]
    calm_probes = [
        StressState(s=float(s))
        for s in np.concatenate([np.linspace(0, 0.45, 12), np.linspace(0.6, 1, 12)])
    ]
    reducibility_ok = (not is_reducible(model, ext_probes)) and is_reducible(
        model, calm_probes
    )
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 9 (stress: labels, bands, persistence, reducibility)",
        grid_ok and bands_ok and persistence_ok and reducibility_ok and elapsed < 5,
        f"x_lo={x_lo:.5f}, x_hi={x_hi:.5f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_tag_identification_and_homing():
    start = time.monotonic()
    model = tag_model()
    identify_ok, flips_ok, homing_ok = True, True, True
    for seed in range(20):
        states = run_episode(500, np.random.default_rng(seed))
        labels = []
        for prev, curr in zip(states, states[1:]):
            matrix = tag_identify(prev, curr)
            expected = A_CHASING_STATE if prev.chaser == "A" else B_CHASING_STATE
            identify_ok = identify_ok and matrix == expected
            labels.append(matrix.label(1, 0))
        flips = {t for t in range(1, len(labels)) if labels[t] != labels[t - 1]}
        swaps = {
            t
            for t in range(len(states) - 1)
            if states[t].chaser != states[t + 1].chaser
        }
        flips_ok = flips_ok and flips == {t + 1 for t in swaps}
    states = run_episode(300, np.random.default_rng(123))
    for prev, curr in zip(states, states[1:]):
        obs = (
            TagObservation(prev.a_pos, prev.b_pos),
            TagObservation(curr.a_pos, curr.b_pos),
        )
        expected = A_CHASING_STATE if prev.chaser == "A" else B_CHASING_STATE
        homing_ok = homing_ok and infer_state(model, obs) == expected
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 10 (tag: 100% identification, flips at tags, 2-step homing)",
        identify_ok and flips_ok and homing_ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_attribution():
    start = time.monotonic()
    follower_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        policy = Policy.FOLLOWING if seed % 2 == 0 else Policy.STANDING_STILL
        trace = simulate_follower_trace(policy, 200, rng)
        ident = follower_identify(policy, trace)
        follower_ok = follower_ok and (
            ident.edge_present == (policy is Policy.FOLLOWING)
        )
        follower_ok = follower_ok and ident.meta_root_cause == "A_policy"
    first = locks_attribution(LocksState(), 1)
    second = locks_attribution(LocksState(lock1=Lock.OPEN), 2)
    locks_ok = (first.classical_delta, first.meta_changed) == (0, True) and (
        second.classical_delta,
        second.meta_changed,
    ) == (1, True)
    elapsed = time.monotonic() - start
    ok = report(
        "criterion 11 (follower edge per policy, locks attribution)",
        follower_ok and locks_ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )
    assert ok
