import ast
import importlib
import math
import pkgutil
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import metacausal
from metacausal import stats
from metacausal.stats import (
    B_FLOOR,
    ADTestResult,
    DegenerateFitError,
    InsufficientDataError,
    _shipped_critical_values,
    anderson_darling_laplace,
    calibrate_critical_values,
    estimate_scale,
    l1_fit,
    laplace_cdf,
    laplace_logpdf,
    sample_laplace,
    weighted_ad_statistic_laplace,
)


class TestLaplaceLogpdf:
    def test_unit_density_at_peak(self):
        # b = 0.5 makes the peak density 1/(2*0.5) = 1
        assert laplace_logpdf(0.0, 0.5) == pytest.approx(0.0)

    def test_peak_value(self):
        for b in (0.1, 1.0, 3.7):
            assert laplace_logpdf(0.0, b) == pytest.approx(-math.log(2 * b))

    def test_direct_formula(self):
        assert laplace_logpdf(1.0, 1.0) == pytest.approx(-math.log(2) - 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            laplace_logpdf(float("nan"), 1.0)
        with pytest.raises(ValueError):
            laplace_logpdf(float("inf"), 1.0)

    def test_integrates_to_one(self):
        # trapezoidal quadrature over +-40 scales
        b = 0.9
        xs = np.linspace(-40 * b, 40 * b, 400_001)
        total = np.trapezoid(np.exp(laplace_logpdf(xs, b)), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            laplace_logpdf(0.0, 0.0)
        with pytest.raises(ValueError):
            laplace_logpdf(0.0, -1.0)


class TestSampleLaplace:
    def test_moments(self):
        rng = np.random.default_rng(1)
        x = sample_laplace(rng, 1.5, size=200_000)
        assert np.mean(np.abs(x)) == pytest.approx(1.5, abs=0.02)
        assert np.median(x) == pytest.approx(0.0, abs=0.02)

    def test_cdf_matches_samples(self):
        rng = np.random.default_rng(2)
        x = sample_laplace(rng, 0.8, size=100_000)
        for q in (-1.0, -0.2, 0.3, 1.5):
            assert np.mean(x <= q) == pytest.approx(
                float(laplace_cdf(q, 0.8)), abs=0.01
            )


def _pair_candidates(x, y):
    """(alpha, beta) for every pair of points with distinct x."""
    n = len(x)
    i, j = np.triu_indices(n, k=1)
    dx = x[j] - x[i]
    keep = dx != 0.0
    i, j, dx = i[keep], j[keep], dx[keep]
    alpha = (y[j] - y[i]) / dx
    beta = y[i] - alpha * x[i]
    return alpha, beta


def _enumeration_oracle(x, y, w):
    """Exact reference fit by enumerating every two-point line, O(n^3).

    An optimal L1 line passes through two points with positive weight.
    Returns the optimal objective and the smallest (alpha, beta) among the
    lines whose objective ties with it within 1e-12 relative.
    """
    active = w > 0
    xa, ya, wa = x[active], y[active], w[active]
    alphas, betas = _pair_candidates(xa, ya)
    obj = np.abs(ya[None, :] - alphas[:, None] * xa[None, :] - betas[:, None]) @ wa
    best = float(np.min(obj))
    tied = np.flatnonzero(obj <= best + 1e-12 * (1.0 + best))
    pick = tied[np.lexsort((betas[tied], alphas[tied]))[0]]
    return best, float(alphas[pick]), float(betas[pick])


def _assert_matches_oracle(x, y, w):
    active = w > 0
    assume(np.count_nonzero(active) >= 2 and np.ptp(x[active]) > 0)
    alpha, beta = l1_fit(x, y, w)
    best, a_or, b_or = _enumeration_oracle(x, y, w)
    obj = float(np.sum(w * np.abs(y - alpha * x - beta)))
    assert abs(obj - best) <= 1e-12 * (1.0 + best)
    assert alpha == pytest.approx(a_or, rel=1e-9, abs=1e-9)
    assert beta == pytest.approx(b_or, rel=1e-9, abs=1e-9)


class TestL1Fit:
    def test_exact_collinear(self):
        alpha, beta = l1_fit([0, 1, 2], [1, 3, 5])
        assert (alpha, beta) == (2.0, 1.0)

    def test_seeded_noise_recovers_parameters(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-5, 5, 500)
        y = 2.0 * x + 1.0 + sample_laplace(rng, 0.5, 500)
        alpha, beta = l1_fit(x, y)
        assert abs(alpha - 2.0) < 0.2
        assert abs(beta - 1.0) < 0.2

    def test_zero_weight_points_ignored(self):
        alpha, beta = l1_fit([0, 1, 5, 7], [1, 3, 0, 0], [1, 1, 0, 0])
        assert (alpha, beta) == (2.0, 1.0)

    def test_degenerate_x_raises(self):
        with pytest.raises(DegenerateFitError):
            l1_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        # degenerate only under the positive weights
        with pytest.raises(DegenerateFitError):
            l1_fit([1.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 0.0])

    def test_needs_two_positive_weights(self):
        with pytest.raises(DegenerateFitError):
            l1_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 0.0, 0.0])

    def test_local_optimality_small(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, 120)
        y = -1.3 * x + 0.4 + sample_laplace(rng, 1.1, 120)
        w = rng.uniform(0.1, 1.0, 120)
        alpha, beta = l1_fit(x, y, w)
        base = np.sum(w * np.abs(y - alpha * x - beta))
        for da, db in ((1e-6, 0), (-1e-6, 0), (0, 1e-6), (0, -1e-6), (1e-6, 1e-6), (-1e-6, -1e-6)):
            perturbed = np.sum(w * np.abs(y - (alpha + da) * x - (beta + db)))
            assert base <= perturbed + 1e-12

    def test_duplicated_points_with_halved_weights_match(self):
        # every point twice at half weight: the same objective function, so
        # the optimum found must reach the same objective value
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(25):
            x = rng.uniform(-5, 5, 150)
            y = rng.uniform(-4, 4) * x + rng.uniform(-5, 5) + sample_laplace(
                rng, rng.uniform(0.1, 4.0), 150
            )
            w = rng.uniform(0.0, 1.0, 150)
            w[:2] = 1.0
            a_ex, b_ex = l1_fit(x, y, w)
            a_ir, b_ir = l1_fit(np.tile(x, 2), np.tile(y, 2), np.tile(w / 2, 2))
            obj_ex = np.sum(w * np.abs(y - a_ex * x - b_ex))
            obj_ir = np.sum(w * np.abs(y - a_ir * x - b_ir))
            worst = max(worst, (obj_ir - obj_ex) / obj_ex)
        assert worst <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, 300)
        y = 0.7 * x - 2.0 + sample_laplace(rng, 2.0, 300)
        assert l1_fit(x, y) == l1_fit(x, y)

    def test_square_tie_goes_to_smallest_alpha_beta(self):
        # every line with beta and alpha + beta in [0, 1] is optimal
        assert l1_fit([0, 0, 1, 1], [0, 1, 0, 1]) == (-1.0, 1.0)

    def test_many_collinear_points(self):
        rng = np.random.default_rng(9)
        x = rng.permutation(np.arange(-200.0, 200.0))
        alpha, beta = l1_fit(x, 0.5 * x - 3.0, rng.uniform(0.0, 2.0, 400))
        assert alpha == pytest.approx(0.5, abs=1e-12)
        assert beta == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("where", ["xs", "ys", "weights"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, where, bad):
        args = {"xs": [0.0, 1.0, 2.0, 3.0], "ys": [1.0, 0.0, 2.0, 5.0],
                "weights": [1.0, 1.0, 1.0, 1.0]}
        args[where][2] = bad
        with pytest.raises(ValueError, match=where) as err:
            l1_fit(args["xs"], args["ys"], args["weights"])
        assert not isinstance(err.value, DegenerateFitError)

    def test_xs_and_ys_must_be_equal_length_vectors(self):
        with pytest.raises(ValueError, match="xs and ys must be 1-d arrays of equal length"):
            l1_fit([0.0, 1.0, 2.0], [0.0, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_matches_oracle_on_continuous_problems(self, n, seed, zero_share):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-3, 3) * x + rng.uniform(-2, 2) + sample_laplace(
            rng, rng.uniform(0.1, 2.0), n
        )
        w = rng.uniform(0.0, 1.0, n)
        w[rng.uniform(size=n) < zero_share] = 0.0
        _assert_matches_oracle(x, y, w)

    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            min_size=2,
            max_size=30,
        ),
        unit_weights=st.booleans(),
    )
    def test_matches_oracle_on_integer_grids(self, points, unit_weights):
        # many points per line and exact ties: the degenerate vertices
        x, y, w = np.array(points, dtype=float).T
        _assert_matches_oracle(x, y, np.ones_like(w) if unit_weights else w)


def _anchored_line_reference(x, y, w, anchor):
    """The best line through ``anchor`` from a fresh argsort, with the slope
    read from the elementwise division."""
    dx = x - x[anchor]
    slopes = np.divide(y - y[anchor], dx, out=np.full_like(dx, np.inf), where=dx != 0.0)
    order = np.argsort(slopes)
    cum = np.cumsum((w * np.abs(dx))[order])
    partner = int(order[np.searchsorted(cum, 0.5 * cum[-1])])
    alpha = float(slopes[partner])
    lo = min(anchor, partner)
    return struct.pack("2d", alpha, y[lo] - alpha * x[lo]), partner


def _line_bits(xs, ys, w, orders=None):
    """The bits of ``l1_fit``'s line, or "degenerate" when it raises so."""
    try:
        return struct.pack("2d", *l1_fit(xs, ys, w, orders=orders))
    except DegenerateFitError:
        return "degenerate"


class TestSlopeOrderCache:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
        zero_share=st.sampled_from([0.0, 0.3]),
        at_bound=st.booleans(),
    )
    def test_shared_cache_gives_the_bits_of_a_fresh_one(self, n, seed, grid, zero_share, at_bound):
        rng = np.random.default_rng(seed)
        if grid:  # an integer grid, so slopes about an anchor tie
            x, y = rng.integers(0, 4, (2, n)).astype(float)
        else:
            x = rng.uniform(-5, 5, n)
            y = rng.uniform(-3, 3) * x + sample_laplace(rng, rng.uniform(0.1, 2.0), n)
        assume(np.ptp(x) > 0 and np.ptp(y) > 0)
        # One pair for both directions, filled by fits under other weights.
        orders = ({}, {})
        for _ in range(3):
            w = rng.uniform(0.05, 1.0, n)
            l1_fit(x, y, w, orders=orders[0])
            l1_fit(y, x, w, orders=orders[1])
        assert orders[0] and orders[1]
        for (a, b), cache in zip(((x, y), (y, x)), orders):
            for anchor in cache:
                alpha, beta, partner = stats._anchored_line(a, b, w, anchor, cache)
                want = _anchored_line_reference(a, b, w, anchor)
                assert (struct.pack("2d", alpha, beta), partner) == want
        w = rng.uniform(0.0, 1.0, n)
        w[rng.uniform(size=n) < zero_share] = 0.0
        assume(np.count_nonzero(w) >= 2)
        before = [dict(o) for o in orders]
        # At the bound no mapping may store another order.
        entry = 4 * n + stats._ORDER_ENTRY_OVERHEAD
        bound = entry * min(map(len, orders)) if at_bound else stats._ORDER_CACHE_BYTES
        with mock.patch.object(stats, "_ORDER_CACHE_BYTES", bound):
            assert _line_bits(x, y, w, orders[0]) == _line_bits(x, y, w)
            assert _line_bits(y, x, w, orders[1]) == _line_bits(y, x, w)
        for old, new in zip(before, orders):
            assert all(new[a] is order for a, order in old.items())
            if at_bound or np.count_nonzero(w) < n:  # a subset fit bypasses the cache
                assert new.keys() == old.keys()

    def test_orders_are_int32_and_bounded(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-5, 5, 200)
        y = 0.5 * x + sample_laplace(rng, 1.0, 200)
        orders = {}
        with mock.patch.object(stats, "_ORDER_CACHE_BYTES", 10 * (4 * 200 + stats._ORDER_ENTRY_OVERHEAD)):
            for _ in range(20):
                l1_fit(x, y, rng.uniform(0.05, 1.0, 200), orders=orders)
        assert len(orders) == 10
        for anchor, order in orders.items():
            assert order.dtype == np.int32
            dx = x - x[anchor]
            slopes = np.divide(y - y[anchor], dx, out=np.full_like(dx, np.inf), where=dx != 0.0)
            assert np.array_equal(order, np.argsort(slopes))


    def test_filled_cache_stays_within_its_bound(self):
        # The bound counts what an entry takes: its order, its array header,
        # its key and its share of the dict.
        rng = np.random.default_rng(22)
        n = 500
        x = rng.uniform(-5, 5, n)
        y = 0.5 * x + sample_laplace(rng, 1.0, n)
        w = np.ones(n)
        bound = 1 << 20
        with mock.patch.object(stats, "_ORDER_CACHE_BYTES", bound):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                orders = {}
                for anchor in range(n):
                    stats._anchored_line(x, y, w, anchor, orders)
                taken = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
        assert len(orders) == bound // (4 * n + stats._ORDER_ENTRY_OVERHEAD) < n
        assert taken <= bound


def _vertex_descent_reference(x, y, w, anchor):
    """The descent that scores every pivot's line, the current one included."""
    orders = {}
    alpha, beta, partner = stats._anchored_line(x, y, w, anchor, orders)
    ref = stats._l1_objective(x, y, w, alpha, beta)
    while True:
        tol = stats._TIE_RTOL * (1.0 + ref)
        for pivot in stats._pivots(x, y, w, alpha, beta, anchor, partner):
            a, b, p = stats._anchored_line(x, y, w, pivot, orders)
            obj = stats._l1_objective(x, y, w, a, b)
            if obj < ref - tol or (obj <= ref + tol and (a, b) < (alpha, beta)):
                break
        else:
            return alpha, beta
        ref = min(ref, obj)
        alpha, beta, anchor, partner = a, b, pivot, p


def _start(x, y, w):
    """``l1_fit``'s start anchor on positively weighted data."""
    return stats._start_anchor(x, y, w, stats._check_xyw(x, y, w)[3])


class TestDescentSkipsTheCurrentLine:
    """A pivot whose best line is the current line is never taken, so the
    descent does not score it and returns the bits of the reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["continuous", "tied", "grid"]),
        anchor_draw=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_same_bits_as_the_reference(self, n, seed, kind, anchor_draw):
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            x = rng.uniform(-5, 5, n)
            y = rng.uniform(-3, 3) * x + sample_laplace(rng, rng.uniform(0.1, 2.0), n)
        elif kind == "tied":  # repeated points, several on one line
            x = rng.integers(0, 6, n).astype(float)
            y = np.where(rng.uniform(size=n) < 0.6, 0.5 * x + 1.0, rng.integers(0, 4, n))
        else:
            x, y = rng.integers(0, 4, (2, n)).astype(float)
        assume(np.ptp(x) > 0)
        w = rng.uniform(0.05, 1.0, n) if rng.uniform() < 0.5 else np.ones(n)
        for anchor in (_start(x, y, w), int(anchor_draw * n)):
            got = stats._vertex_descent(x, y, w, anchor, {})
            assert struct.pack("2d", *got) == struct.pack("2d", *_vertex_descent_reference(x, y, w, anchor))

    def test_one_objective_fewer_per_continuous_fit(self):
        rng = np.random.default_rng(31)
        problems = []
        for _ in range(40):
            x = rng.uniform(-5, 5, 300)
            y = rng.uniform(-3, 3) * x + sample_laplace(rng, 1.0, 300)
            problems.append((x, y, rng.uniform(0.05, 1.0, 300)))
        counts = []
        for descent in (_vertex_descent_reference, lambda x, y, w, a: stats._vertex_descent(x, y, w, a, {})):
            with mock.patch.object(stats, "_l1_objective", wraps=stats._l1_objective) as objective:
                for x, y, w in problems:
                    descent(x, y, w, _start(x, y, w))
            counts.append(objective.call_count)
        assert counts[1] == counts[0] - len(problems)


class TestDescentStart:
    """On continuous data the optimal line is unique, so where the descent
    starts may change its path but not its bits.  (Tied data may hold
    several optimal lines; their tie rule is separate work.)"""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
        unit=st.booleans(),
        anchor_draw=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_the_line_does_not_depend_on_the_start(self, n, seed, unit, anchor_draw):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-3, 3) * x + sample_laplace(rng, rng.uniform(0.1, 2.0), n)
        w = np.ones(n) if unit else rng.uniform(0.05, 1.0, n)
        lines = [stats._vertex_descent(x, y, w, a, {}) for a in (_start(x, y, w), int(anchor_draw * n))]
        assert struct.pack("2d", *lines[0]) == struct.pack("2d", *lines[1])


def _em_like_weights(rng, n):
    """Responsibility-like weights of one of four mechanisms: most near 0 or
    1, some exactly 0 and some between 1e-300 and 1e-290."""
    w = rng.dirichlet(np.full(4, 0.3), size=n)[:, 0]
    w[rng.uniform(size=n) < 0.05] = 0.0
    tiny = rng.uniform(size=n) < 0.05
    w[tiny] = 10.0 ** rng.uniform(-300.0, -290.0, np.count_nonzero(tiny))
    return w


class TestInPlaceKernelsAtPaperSize:
    """On 2,000 points under EM-like weights the in-place kernels give the
    bits of their references."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_match_the_references(self, seed):
        rng = np.random.default_rng(seed)
        n = 2000
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-3, 3) * x + sample_laplace(rng, rng.uniform(0.1, 2.0), n)
        w = _em_like_weights(rng, n)
        for a, b in ((x, y), (y, x)):
            orders = {}
            for anchor in map(int, rng.choice(n, 20, replace=False)):
                want = _anchored_line_reference(a, b, w, anchor)
                for _ in range(2):  # the sort, then the stored order
                    alpha, beta, partner = stats._anchored_line(a, b, w, anchor, orders)
                    assert (struct.pack("2d", alpha, beta), partner) == want
                objective = float(np.sum(w * np.abs(b - alpha * a - beta)))
                got = stats._l1_objective(a, b, w, alpha, beta)
                assert struct.pack("d", got) == struct.pack("d", objective)
            alpha, beta = l1_fit(a, b, w)
            r = b - (alpha * a + beta)
            got = weighted_ad_statistic_laplace(r, w)
            assert struct.pack("d", got) == struct.pack("d", _weighted_ad_concatenating(r, w))


class TestEstimateScale:
    def test_mean_absolute_value(self):
        assert estimate_scale([-2.0, 2.0]) == 2.0

    def test_floor_engages_on_zero_residuals(self):
        assert estimate_scale([0.0, 0.0, 0.0]) == B_FLOOR

    def test_large_sample_consistency(self):
        rng = np.random.default_rng(8)
        r = sample_laplace(rng, 1.5, size=100_000)
        assert estimate_scale(r) == pytest.approx(1.5, abs=0.05)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            estimate_scale([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_rejected_naming_its_row(self, bad):
        with pytest.raises(ValueError, match=f"residuals must be finite, got {bad} in row 1"):
            estimate_scale([1.0, bad, 2.0])

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=40),
        st.floats(0.1, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, residuals, c):
        base = estimate_scale(residuals)
        scaled = estimate_scale([c * r for r in residuals])
        if base > B_FLOOR and scaled > B_FLOOR:
            assert scaled == pytest.approx(c * base, rel=1e-9)


@pytest.mark.parametrize(
    "entry",
    [lambda w: estimate_scale([1.0, 2.0, 4.0], w), lambda w: l1_fit([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], w)],
    ids=["estimate_scale", "l1_fit"],
)
@pytest.mark.parametrize(
    "weights, message",
    [
        ([1.0, 1.0], r"weights must match the data shape \(3,\), got \(2,\)"),
        ([1.0, -1.0, 1.0], "weights must be non-negative"),
        ([1.0, 1.0, math.nan], "weights must be finite, got nan in row 2"),
        ([1.0, math.inf, 1.0], "weights must be finite, got inf in row 1"),
        ([-math.inf, 1.0, 1.0], "weights must be finite, got -inf in row 0"),
    ],
    ids=["shape", "negative", "nan", "inf", "-inf"],
)
def test_one_weight_check_for_both_estimators(entry, weights, message):
    with pytest.raises(ValueError, match=message):
        entry(weights)


class TestAndersonDarling:
    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            anderson_darling_laplace(np.zeros(19))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_rejected_naming_its_row(self, bad):
        r = sample_laplace(np.random.default_rng(0), 1.0, 100)
        with pytest.raises(ValueError, match=f"residuals must be finite, got {bad} in row 100"):
            anderson_darling_laplace(np.append(r, bad))

    def test_batch_rejected_with_its_shape(self):
        with pytest.raises(ValueError, match=r"\(5, 10\)") as err:
            anderson_darling_laplace(np.zeros((5, 10)))
        assert not isinstance(err.value, InsufficientDataError)

    def test_calibrated_false_rejection_rate(self):
        rng = np.random.default_rng(99)
        rejections = sum(
            not anderson_darling_laplace(sample_laplace(rng, 1.0, size=500)).passed
            for _ in range(600)
        )
        assert 0.02 <= rejections / 600 <= 0.09

    def test_power_against_gaussian(self):
        rng = np.random.default_rng(100)
        rejections = sum(
            not anderson_darling_laplace(rng.normal(size=500)).passed
            for _ in range(100)
        )
        assert rejections >= 80

    def test_degenerate_zero_residuals_fail_safe(self):
        result = anderson_darling_laplace(np.zeros(50))
        assert math.isfinite(result.statistic)
        assert not result.passed

    def test_statistic_location_invariant(self):
        rng = np.random.default_rng(101)
        r = sample_laplace(rng, 1.0, size=200)
        assert anderson_darling_laplace(r).statistic == pytest.approx(
            anderson_darling_laplace(r + 17.3).statistic, rel=1e-9
        )

    def test_result_invariant(self):
        res = anderson_darling_laplace(sample_laplace(np.random.default_rng(4), 1.0, 300))
        assert isinstance(res, ADTestResult)
        assert res.passed == (res.statistic <= res.critical_value)
        assert res.n == 300

    def test_critical_values_table_shape(self):
        ns, cs = _shipped_critical_values()
        assert list(ns) == [50, 100, 200, 500, 1000]
        assert all(0.5 < c < 2.0 for c in cs)

    def test_pinned_calibration(self):
        # The cutoffs of the one kernel at unit weights.
        payload = calibrate_critical_values(ns=(50, 200), simulations=2000, seed=5)
        assert payload["critical_values"] == {"50": 1.0137460053757523, "200": 1.0469965576147986}

    def test_shipped_table_is_the_calibration_of_the_kernel(self):
        # The n = 50 draws come first in the default stream, so this one
        # cutoff checks the shipped table against the kernel the test runs.
        payload = calibrate_critical_values(ns=(50,))
        assert payload["critical_values"]["50"] == dict(zip(*_shipped_critical_values()))[50]

    def test_quick_recalibration_agrees_with_shipped(self):
        payload = calibrate_critical_values(ns=(500,), simulations=3000, seed=5)
        shipped = dict(zip(*_shipped_critical_values()))
        assert payload["critical_values"]["500"] == pytest.approx(shipped[500], abs=0.1)
        assert payload["meta"]["simulations"] == 3000
        assert payload["meta"]["seed"] == 5


def _ad_reference(residuals):
    """The classic unweighted A^2 in its closed sorted-sum form."""
    r = np.asarray(residuals, dtype=float)
    z = np.sort(r - np.median(r))
    n = len(z)
    b = max(B_FLOOR, float(np.mean(np.abs(z))))
    u = np.clip(laplace_cdf(z, b), 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    return float(-n - s / n)


class TestWeightedADStatistic:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 2500), seed=st.integers(0, 2**32 - 1))
    def test_reduces_to_classic_for_unit_weights(self, n, seed):
        rng = np.random.default_rng(seed)
        r = sample_laplace(rng, rng.uniform(0.1, 3.0), size=n)
        assert abs(weighted_ad_statistic_laplace(r, np.ones(n)) - _ad_reference(r)) <= 1e-11

    def test_duplicated_halved_weights_match(self):
        rng = np.random.default_rng(12)
        r = sample_laplace(rng, 0.7, size=80)
        doubled = np.concatenate([r, r])
        halves = np.full(160, 0.5)
        assert weighted_ad_statistic_laplace(doubled, halves) == pytest.approx(
            _ad_reference(r), rel=1e-9
        )

    def test_zero_weights_dropped(self):
        rng = np.random.default_rng(13)
        r = sample_laplace(rng, 1.0, size=60)
        r_noise = np.concatenate([r, [1e6, -1e6]])
        w = np.concatenate([np.ones(60), [0.0, 0.0]])
        assert weighted_ad_statistic_laplace(r_noise, w) == pytest.approx(
            _ad_reference(r), abs=1e-10
        )

    @pytest.mark.parametrize(
        "where, bad, message",
        [
            ("weights", math.nan, "weights must be non-negative, got nan"),
            ("weights", -1.0, "weights must be non-negative, got -1.0"),
            ("weights", math.inf, "weights must have a finite sum, got inf"),
            ("residuals", math.nan, r"residuals must be finite, got nan in row 99"),
            ("residuals", math.inf, r"residuals must be finite, got inf in row 99"),
            ("residuals", -math.inf, r"residuals must be finite, got -inf in row 99"),
            ("weights", np.ones(200), r"weights must match the data shape \(100,\), got \(200,\)"),
            ("weights", np.ones(50), r"weights must match the data shape \(100,\), got \(50,\)"),
        ],
    )
    def test_bad_weight_or_residual_rejected(self, where, bad, message):
        rng = np.random.default_rng(14)
        data = {"residuals": sample_laplace(rng, 1.0, size=100), "weights": np.ones(100)}
        if np.ndim(bad):
            data[where] = bad
        else:
            data[where][-1] = bad
        with pytest.raises(ValueError, match=message):
            weighted_ad_statistic_laplace(**data)

    def test_non_finite_residual_of_a_dropped_point_is_ignored(self):
        rng = np.random.default_rng(14)
        r = sample_laplace(rng, 1.0, size=100)
        w = np.ones(100)
        w[-1] = 0.0
        dropped = weighted_ad_statistic_laplace(r[:-1], w[:-1])
        r[-1] = math.nan
        assert weighted_ad_statistic_laplace(r, w) == dropped

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 2500),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
        weights=st.sampled_from(["uniform", "zeros", "span"]),
        offset=st.sampled_from([0.0, 1e6]),
    )
    def test_bits_match_the_concatenating_kernel(self, n, seed, grid, weights, offset):
        rng = np.random.default_rng(seed)
        if grid:  # a small integer grid, so residuals tie
            r = rng.integers(-4, 5, n).astype(float)
        else:
            r = sample_laplace(rng, rng.uniform(0.1, 3.0), n)
        if weights == "span":  # 1e-20 ... 1: the sequential and pairwise sums part
            w = 10.0 ** rng.uniform(-20.0, 0.0, n)
        else:
            w = rng.uniform(0.0, 1.0, n)
            if weights == "zeros":
                w[rng.uniform(size=n) < 0.3] = 0.0
        got = weighted_ad_statistic_laplace(r + offset, w)
        want = _weighted_ad_concatenating(r + offset, w)
        assert struct.pack("d", got) == struct.pack("d", want)

    def test_bits_match_where_the_ecdf_ends_above_one(self):
        # The sequential cumsum of the sorted weights ends above their
        # pairwise total, so the last three ECDF values reach 1 and the
        # c < 1 guard drops their terms.
        rng = np.random.default_rng(92)
        r = sample_laplace(rng, 1.0, 2000)
        w = 10.0 ** rng.uniform(-20.0, 0.0, 2000)
        sorted_w = w[np.argsort(r)]
        assert np.count_nonzero(np.cumsum(sorted_w) / np.sum(sorted_w) >= 1.0) == 3
        got = weighted_ad_statistic_laplace(r, w)
        assert struct.pack("d", got) == struct.pack("d", _weighted_ad_concatenating(r, w))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
    )
    def test_matches_stable_sort_reference(self, n, seed, grid):
        rng = np.random.default_rng(seed)
        if grid:  # a small integer grid, so residuals tie
            r = rng.integers(-4, 5, n).astype(float)
        else:
            r = sample_laplace(rng, rng.uniform(0.1, 3.0), n)
        w = rng.uniform(0.0, 1.0, n)
        w[rng.uniform(size=n) < 0.2] = 0.0
        got = weighted_ad_statistic_laplace(r, w)
        want = _weighted_ad_reference(r, w)
        if math.isinf(want):
            assert got == want
        elif len(np.unique(r[w > 0])) == np.count_nonzero(w > 0):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


def _weighted_ad_reference(residuals, weights):
    """The weighted A^2 computed with a stable sort and a log pass per bound."""
    r = np.asarray(residuals, dtype=float)
    w = np.asarray(weights, dtype=float)
    keep = w > 0
    r, w = r[keep], w[keep]
    if r.size < 2:
        return math.inf
    order = np.argsort(r, kind="stable")
    r, w = r[order], w[order]
    total = float(np.sum(w))
    cum = np.cumsum(w)
    half = 0.5 * total
    idx = int(np.searchsorted(cum, half))
    if cum[idx] == half and idx + 1 < len(r):
        med = 0.5 * (r[idx] + r[idx + 1])
    else:
        med = float(r[idx])
    z = r - med
    b = max(B_FLOOR, float(np.dot(w, np.abs(z)) / total))
    u = np.clip(laplace_cdf(z, b), 1e-300, 1.0 - 1e-16)
    uu = np.concatenate(([0.0], u, [1.0]))
    c = np.concatenate(([0.0], cum / total))
    du_log = np.log(uu[1:]) - np.log(np.clip(uu[:-1], 1e-300, None))
    dm_log = np.log1p(-np.clip(uu[:-1], None, 1.0 - 1e-16)) - np.log1p(
        -np.clip(uu[1:], None, 1.0 - 1e-16)
    )
    term1 = np.where(c > 0, c**2 * du_log, 0.0)
    term2 = np.where(c < 1, (1.0 - c) ** 2 * dm_log, 0.0)
    return float(total * (np.sum(term1 + term2) - 1.0))


def _weighted_ad_concatenating(residuals, weights):
    """The weighted A^2 with the Laplace CDF inline, the bounds concatenated
    onto u and the ECDF, and a clip per log pass: the kernel's earlier form,
    kept to pin its bits."""
    r = np.asarray(residuals, dtype=float)
    w = np.asarray(weights, dtype=float)
    keep = w > 0
    if not keep.all():
        r, w = r[keep], w[keep]
    if r.size < 2:
        return math.inf
    order = np.argsort(r)
    r, w = r[order], w[order]
    total = float(np.sum(w))
    cum = np.cumsum(w)
    half = 0.5 * total
    idx = int(np.searchsorted(cum, half))
    if cum[idx] == half and idx + 1 < len(r):
        med = 0.5 * (r[idx] + r[idx + 1])
    else:
        med = float(r[idx])
    z = r - med
    b = max(B_FLOOR, float(np.dot(w, np.abs(z)) / total))
    zb = (z - 0.0) / b
    half_tail = 0.5 * np.exp(-np.abs(zb))
    u = np.clip(np.where(zb < 0, half_tail, 1.0 - half_tail), 1e-300, 1.0 - 1e-16)
    uu = np.concatenate(([0.0], u, [1.0]))
    c = np.concatenate(([0.0], cum / total))
    log_u = np.log(np.clip(uu, 1e-300, None))
    log_1mu = np.log1p(-np.clip(uu, None, 1.0 - 1e-16))
    du_log = log_u[1:] - log_u[:-1]
    dm_log = log_1mu[:-1] - log_1mu[1:]
    term1 = np.where(c > 0, c**2 * du_log, 0.0)
    term2 = np.where(c < 1, (1.0 - c) ** 2 * dm_log, 0.0)
    return float(total * (np.sum(term1 + term2) - 1.0))


def test_all_names_exist_and_package_exports_are_listed():
    """Every ``__all__`` name exists, and every name the package imports
    from a module is in that module's ``__all__``."""
    for info in pkgutil.walk_packages(metacausal.__path__, "metacausal."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ lists missing {name}"
    tree = ast.parse(Path(metacausal.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"metacausal.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.__all__ lacks {alias.name}"
