import math

import numpy as np
import pytest

from metacausal.bounds import (
    expected_success_prob,
    lower_bound_success_prob,
    required_resamples,
)
from metacausal.reproduce import table2_rows


def test_expected_success_prob_reference_values():
    assert expected_success_prob(2) == 0.125
    assert expected_success_prob(1) == 1.0
    assert expected_success_prob(4) == pytest.approx(24 / 65536, rel=1e-15)


def test_expected_success_prob_rejects_bad_n():
    with pytest.raises(ValueError):
        expected_success_prob(0)


def test_lower_bound_worked_example():
    # n=2 at 20% deviation: (0.8/2 * 2/2) * (1.2/2 * 0.8/2) = 0.096
    assert lower_bound_success_prob(2, 0.2) == pytest.approx(0.096, abs=5e-4)


def test_lower_bound_collapses_to_expected_at_zero_deviation():
    for n in range(1, 9):
        assert lower_bound_success_prob(n, 0.0) == expected_success_prob(n)


def test_lower_bound_odd_case_independent_arithmetic():
    # n=3, d=0.1 by hand: new = 1 * (3-1.1)/3 * (3-1.1-1)/3, same = 0.3667*0.3333*0.3
    p_new = 1.0 * (3 - 1.1) / 3 * (3 - 1.1 - 1) / 3
    p_same = (1.1 / 3) * (1 / 3) * (0.9 / 3)
    assert lower_bound_success_prob(3, 0.1) == pytest.approx(p_new * p_same, rel=1e-9)
    assert lower_bound_success_prob(3, 0.1) == pytest.approx(0.0069667, abs=1e-6)


def test_lower_bound_monotone_in_deviation():
    for n in range(1, 9):
        values = [lower_bound_success_prob(n, d) for d in np.linspace(0, 0.95, 20)]
        assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))


def test_lower_bound_never_exceeds_expected():
    for n in range(1, 9):
        for d in np.linspace(0, 0.9, 10):
            assert lower_bound_success_prob(n, float(d)) <= expected_success_prob(n) + 1e-18


def test_lower_bound_full_deviation_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert lower_bound_success_prob(3, 1.0) == 0.0


def test_required_resamples_reference_values():
    assert required_resamples(0.096) == 30
    assert required_resamples(0.125) == 23
    assert required_resamples(1.0) == 1


def test_required_resamples_monotone_in_p():
    ps = np.linspace(0.01, 1.0, 50)
    ks = [required_resamples(float(p)) for p in ps]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_required_resamples_below_float_resolution_of_one_minus_p():
    # 1 - 1e-17 rounds to 1.0, and log1p keeps the denominator nonzero.
    assert required_resamples(1e-17) == pytest.approx(-math.log(0.05) / 1e-17, rel=1e-12)
    with pytest.raises(ValueError, match="restarts"):
        required_resamples(5e-324)


@pytest.mark.parametrize(
    "n, d, message",
    [(0, 0.0, "mechanism count must be >= 1, got 0"), (2, -0.1, "class deviation must be >= 0, got -0.1")],
)
def test_lower_bound_rejects_bad_arguments(n, d, message):
    with pytest.raises(ValueError, match=message):
        lower_bound_success_prob(n, d)


@pytest.mark.parametrize("confidence", [0.0, 1.0, math.nan])
def test_required_resamples_rejects_confidence_outside_the_open_unit_interval(confidence):
    with pytest.raises(ValueError, match=f"confidence must lie in .*, got {confidence}"):
        required_resamples(0.5, confidence)


def test_required_resamples_rejects_nonpositive_p():
    with pytest.raises(ValueError):
        required_resamples(0.0)
    with pytest.raises(ValueError):
        required_resamples(-0.1)


def test_empirical_resamples_reference_rates():
    # The budgets of the published single-restart convergence rates.
    assert required_resamples(0.3480) == 8
    assert required_resamples(0.0172) == 173
    assert required_resamples(0.8438) == 2


def test_empirical_resamples_rejects_zero_rate():
    # A measured rate of zero (no restart converged) has no finite budget.
    with pytest.raises(ValueError):
        required_resamples(0.0)


def test_table2_rows_match_the_published_theoretical_counts():
    rows = table2_rows()
    assert len(rows) == 12
    for row in rows:
        assert row["theoretical"] == row["reference_theoretical"], row


def test_monte_carlo_bound_soundness():
    # Draw n pairs from labeled data at the adversarial class probabilities;
    # the empirical all-classes frequency must dominate the bound.
    from metacausal.datagen import class_probabilities

    rng = np.random.default_rng(20240817)
    trials = 100_000
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
            assert freq + 3 * sigma >= bound, (n, d, freq, bound)
