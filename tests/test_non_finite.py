"""Every public numeric entry that rejects non-finite input says what it rejects.

Each case puts one NaN, +inf or -inf at a drawn position of one argument of
an entry and expects a ValueError whose message names the argument, and the
row for an array.  The tests after it pin the entries that accept such
values on purpose, each with its reason.  Integer counts (``n`` of the
bounds) are left out: a float there is the wrong type, not a bad value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacausal.bounds import lower_bound_success_prob, required_resamples
from metacausal.datagen import Dataset, MechanismParams
from metacausal.stats import (
    ad_statistic_laplace,
    anderson_darling_laplace,
    estimate_scale,
    l1_fit,
    laplace_cdf,
    laplace_logpdf,
    weighted_ad_statistic_laplace,
)
from metacausal.systems.follower import follower_identify

BAD = [math.nan, math.inf, -math.inf]


def _floats(data, size, lo=-10.0, hi=10.0):
    return data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))


def _vectors(data, entry, sizes, spans):
    """Call ``entry`` on vectors named as in ``spans`` (name -> value range),
    one of them holding a bad value at a drawn row."""
    n = data.draw(sizes)
    args = {name: _floats(data, n, *span) for name, span in spans.items()}
    name = data.draw(st.sampled_from(sorted(args)))
    row = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from(BAD))
    args[name][row] = bad
    return lambda: entry(**args), f"{name} must be finite, got {bad} in row {row}"


def _rows(data, entry, name):
    """Call ``entry`` on an (m, 2) array holding a bad value at a drawn entry."""
    m = data.draw(st.integers(1, 30))
    rows = np.array(_floats(data, 2 * m)).reshape(m, 2)
    row, col = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, 1))
    rows[row, col] = data.draw(st.sampled_from(BAD))
    return lambda: entry(rows), f"{name} must be finite, got {rows[row].tolist()} in row {row}"


def _l1_fit(data):
    spans = {"xs": (-10.0, 10.0), "ys": (-10.0, 10.0), "weights": (0.1, 5.0)}
    return _vectors(data, l1_fit, st.integers(2, 30), spans)


def _estimate_scale(data):
    spans = {"residuals": (-10.0, 10.0), "weights": (0.1, 5.0)}
    return _vectors(data, estimate_scale, st.integers(1, 30), spans)


def _anderson_darling_laplace(data):
    return _vectors(data, anderson_darling_laplace, st.integers(20, 60), {"residuals": (-10.0, 10.0)})


def _weighted_ad_statistic_laplace(data):
    # At least two kept points: with fewer the statistic is inf before any
    # residual is read.
    n = data.draw(st.integers(2, 30))
    kept = data.draw(st.sets(st.integers(0, n - 1), min_size=2))
    residuals = _floats(data, n)
    weights = [w if i in kept else 0.0 for i, w in enumerate(_floats(data, n, 0.1, 5.0))]
    bad = data.draw(st.sampled_from(BAD))
    if data.draw(st.booleans()):
        row = data.draw(st.sampled_from(sorted(kept)))
        residuals[row] = bad
        dropped = [i for i in range(row) if i not in kept]
        if dropped and data.draw(st.booleans()):
            # A dropped point's residual is never read, so the error still
            # names the kept row, even after an earlier non-finite one.
            residuals[data.draw(st.sampled_from(dropped))] = data.draw(st.sampled_from(BAD))
        message = f"residuals must be finite, got {bad} in row {row}"
    else:
        weights[data.draw(st.integers(0, n - 1))] = bad
        if bad == math.inf:
            message = "weights must have a finite sum, got inf"
        else:
            message = f"weights must be non-negative, got {bad}"
    return lambda: weighted_ad_statistic_laplace(residuals, weights), message


def _dataset(data):
    return _rows(data, Dataset, "points")


def _follower_identify(data):
    return _rows(data, follower_identify, "trace")


def _mechanism_params(data):
    values = {"alpha": data.draw(st.floats(-10.0, 10.0)), "beta": data.draw(st.floats(-10.0, 10.0))}
    field = data.draw(st.sampled_from(["alpha", "beta"]))
    values[field] = bad = data.draw(st.sampled_from(BAD))
    return lambda: MechanismParams(b=1.0, **values), f"mechanism {field} must be finite, got {bad}"


def _required_resamples(data):
    p, confidence = data.draw(st.floats(1e-6, 1.0)), data.draw(st.floats(0.01, 0.99))
    bad = data.draw(st.sampled_from(BAD))
    if data.draw(st.booleans()):
        message = f"success probability must lie in (0, 1], got {bad}"
        return lambda: required_resamples(bad, confidence), message
    return lambda: required_resamples(p, bad), f"confidence must lie in (0, 1), got {bad}"


def _lower_bound_success_prob(data):
    # d = +inf is a deviation >= 1, accepted on purpose (below).
    n, bad = data.draw(st.integers(1, 8)), data.draw(st.sampled_from([math.nan, -math.inf]))
    return lambda: lower_bound_success_prob(n, bad), f"class deviation must be >= 0, got {bad}"


CASES = [
    _l1_fit,
    _estimate_scale,
    _anderson_darling_laplace,
    _weighted_ad_statistic_laplace,
    _dataset,
    _mechanism_params,
    _follower_identify,
    _required_resamples,
    _lower_bound_success_prob,
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__[1:])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_non_finite_input_raises_naming_it(case, data):
    call, message = case(data)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_the_unchecked_kernels_propagate_nan():
    # ad_statistic_laplace is the unchecked kernel behind
    # anderson_darling_laplace, and laplace_cdf is elementwise: a NaN in
    # gives a NaN out, and the checked entries reject it first.
    assert math.isnan(ad_statistic_laplace(np.append(np.arange(30.0), math.nan)))
    assert np.isnan(laplace_cdf([1.0, math.nan], 1.0)).tolist() == [False, True]


def test_an_infinite_scale_is_accepted():
    # tests/test_em.py pins the uniform fallback that a log-density of -inf
    # everywhere leads to in responsibilities.
    assert MechanismParams(1.0, 0.0, math.inf).b == math.inf
    assert laplace_logpdf([-1.0, 0.0, 2.0], math.inf).tolist() == [-math.inf] * 3


def test_an_infinite_class_deviation_starves_a_class():
    # Like every d >= 1, d = +inf leaves an empty class: success probability 0.
    with pytest.warns(UserWarning, match="empty class"):
        assert lower_bound_success_prob(2, math.inf) == 0.0
