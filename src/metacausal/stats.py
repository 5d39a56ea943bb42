"""Laplace-noise estimation primitives.

Contains the pieces the mixture pipeline is built from: Laplace log-density
and CDF, inverse-CDF sampling, weighted least-absolute-deviations line
fitting, maximum-likelihood scale estimation, and an Anderson-Darling
goodness-of-fit test against the Laplace distribution with parameters
estimated from the sample.

One A^2 kernel, :func:`weighted_ad_statistic_laplace`, serves the EM's
direction choice under responsibility weights, and at unit weights both the
test and the Monte-Carlo calibration of its critical values, so the shipped
cutoffs are quantiles of the very statistic the test computes.

Line fits have one exact solver, the anchored weighted-median descent for
simple L1 regression (Barrodale & Roberts 1973; Wesolowsky 1981), with a
certified stop and ties broken toward the smallest (alpha, beta).  The sort
of the slopes about an anchor does not depend on the weights, so a caller
that re-fits one dataset under changing weights may keep those orders in a
cache it passes to :func:`l1_fit`.

The Anderson-Darling critical values are not taken from printed tables;
they were calibrated once by Monte Carlo (see
:func:`calibrate_critical_values`) and ship as a versioned JSON data file
with the calibration seed and simulation count recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

__all__ = [
    "B_FLOOR",
    "AD_MIN_POINTS",
    "ADTestResult",
    "DegenerateFitError",
    "InsufficientDataError",
    "laplace_logpdf",
    "laplace_cdf",
    "sample_laplace",
    "l1_fit",
    "estimate_scale",
    "anderson_darling_laplace",
    "weighted_ad_statistic_laplace",
    "calibrate_critical_values",
]

# Scale floor: keeps log-densities finite on (near-)noiseless residuals.
B_FLOOR = 1e-6

# L1 descent: objectives this close (relative) tie, and residuals this close
# to zero put a point on the line.
_TIE_RTOL = 1e-12
# Relative slack under which a point on the line is tried as an anchor; it
# covers the rounding of the slack's sums.
_CERTIFY_RTOL = 1e-9

# Bytes one slope-order cache dict of :func:`l1_fit` may take; past them a
# new order is sorted and not stored.  An entry takes its int32 order, 4 bytes
# a point, plus about 180 bytes of array header, int key and dict slot
# (tracemalloc, CPython 3.11, numpy 2), counted as _ORDER_ENTRY_OVERHEAD.  So
# the orders of every anchor of a dataset of up to 2,016 points fit.
_ORDER_CACHE_BYTES = 16 << 20
_ORDER_ENTRY_OVERHEAD = 256

# Smallest sample the Anderson-Darling test accepts.
AD_MIN_POINTS = 20


class DegenerateFitError(ValueError):
    """No usable line: :func:`l1_fit` got under two points of positive weight,
    or their x values all coincide, or the fitted line fails :func:`line_fits`."""


class InsufficientDataError(ValueError):
    """Too few residuals to run the requested test."""


@dataclass(frozen=True)
class ADTestResult:
    """Outcome of the Laplace Anderson-Darling test at the 5% rejection level."""

    statistic: float
    critical_value: float
    passed: bool
    n: int


def laplace_logpdf(x, b: float):
    """Log-density log(1/(2b)) - |x| / b of the zero-centred Laplace
    distribution of scale ``b``, elementwise over ``x``.

    A zero, negative or NaN scale raises ValueError, and so does a non-finite
    ``x``.  A scale of +inf is accepted and gives -inf everywhere; a point
    whose every log-density is -inf gets ``responsibilities``' uniform
    fallback.
    """
    if not b > 0:
        raise ValueError(f"scale must be positive, got {b}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("laplace_logpdf requires finite inputs")
    out = -np.log(2.0 * b) - np.abs(arr) / b
    return float(out) if np.isscalar(x) else out


def laplace_cdf(x, b):
    """CDF of the zero-centred Laplace distribution of scale ``b``,
    elementwise over ``x``."""
    u = np.asarray(np.asarray(x, dtype=float) / b)  # 0-d for a scalar, so it takes out=
    below = u < 0
    # The half tail 0.5 * exp(-|x / b|), in place.
    np.abs(u, out=u)
    np.negative(u, out=u)
    np.exp(u, out=u)
    u *= 0.5
    return np.where(below, u, 1.0 - u)


def sample_laplace(rng: np.random.Generator, b: float, size=None):
    """Zero-centred Laplace draws via the inverse CDF: -b*sign(u)*ln(1-2|u|),
    u~U(-1/2,1/2)."""
    u = rng.uniform(-0.5, 0.5, size=size)
    return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def check_finite(name: str, values: np.ndarray) -> None:
    """Raise ValueError naming ``name`` and the first row of ``values`` (its
    first entry, when 1-d) that holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        row, bad = next((i, v) for i, v in enumerate(np.atleast_1d(values)) if not np.isfinite(v).all())
        raise ValueError(f"{name} must be finite, got {bad.tolist()} in row {row}")


def _checked_weights(weights, like: np.ndarray) -> np.ndarray:
    """``weights`` shaped like ``like`` (ones when None), checked finite and non-negative."""
    if weights is None:
        return np.ones_like(like)
    w = np.asarray(weights, dtype=float)
    if w.shape != like.shape:
        raise ValueError(f"weights must match the data shape {like.shape}, got {w.shape}")
    check_finite("weights", w)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    return w


def _check_xyw(xs, ys, weights):
    """The inputs as float arrays, checked, and (largest |x|, largest |y|)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    w = _checked_weights(weights, x)
    tops = float(np.abs(x).max(initial=0.0)), float(np.abs(y).max(initial=0.0))  # NaN for a NaN
    if not math.isfinite(tops[0] + tops[1]):  # finite tops may sum to inf: then no check raises
        check_finite("xs", x)
        check_finite("ys", y)
    return x, y, w, tops


def line_fits(alpha: float, beta: float, x_top: float, y_top: float) -> bool:
    """The overflow rule of seed and fitted lines: |y - alpha*x - beta| <= y_top + |alpha|*x_top
    + |beta| is finite wherever |x| <= x_top and |y| <= y_top.  Python floats: inf, no warning."""
    return math.isfinite(y_top + abs(alpha) * x_top + abs(beta))


def _abs_residuals(x, y, alpha, beta):
    """|y - alpha*x - beta|, computed in one buffer."""
    r = alpha * x
    np.subtract(y, r, out=r)
    r -= beta
    return np.abs(r, out=r)


def _l1_objective(x, y, w, alpha, beta):
    r = _abs_residuals(x, y, alpha, beta)
    r *= w
    return float(r.sum())


def _start_anchor(x, y, w, x_top: float, y_top: float) -> int:
    """The point nearest the weighted least-squares line, computed about the
    weighted means, where the descent starts.

    The line is fitted to x and y each divided by the power of two of its
    largest |value| (``x_top``, ``y_top``), which puts it in [1/2, 1), so its
    sums stay in range whatever the units of x and y.  The division is exact,
    so the anchor is the unscaled data's wherever those stay in range.
    """
    x, y = np.ldexp(x, -math.frexp(x_top)[1]), np.ldexp(y, -math.frexp(y_top)[1])
    sw = w.sum()
    xm = np.dot(w, x) / sw
    ym = np.dot(w, y) / sw
    dx = x - xm
    alpha = np.dot(w * dx, y - ym) / np.dot(w * dx, dx)
    return int(_abs_residuals(x, y, alpha, ym - alpha * xm).argmin())


def l1_fit(xs, ys, weights=None, orders=None) -> tuple[float, float]:
    """Weighted least-absolute-deviations line fit.

    Minimizes sum_i w_i * |y_i - (alpha*x_i + beta)| and returns
    ``(alpha, beta)``.  Deterministic: among optimal lines, the one with
    the smallest alpha, then the smallest beta, is returned.

    Anchored weighted-median descent (Barrodale & Roberts 1973; Wesolowsky
    1981).  The best line through an anchor point has as slope the weighted
    median of the slopes to the other points, so it passes through a second
    point, the partner.  Starting at the point nearest the weighted
    least-squares line, the descent re-anchors at each partner while the
    objective falls.  It then tries every other point on the line as an
    anchor, save those through which the line is provably the unique best,
    and stops only when none gives a better line: a line optimal through
    every point on it is optimal.  A move that keeps the objective within
    1e-12 relative is taken when it lowers (alpha, beta) lexicographically.
    Each move lowers the objective or (alpha, beta), so the descent ends.

    ``orders`` is a dict from an anchor index to the int32 order of the
    slopes about that anchor, read and filled by the descent (see
    :func:`_anchored_line`).  An order depends on ``xs``, ``ys`` and the
    anchor, not on the weights, so a dict may serve every fit of the same
    two columns in the same roles: a caller that re-fits one dataset under
    changing weights keeps one dict per direction.  The pipeline keeps them
    in :attr:`datagen.Dataset.slope_orders`, its one cache per column pair.
    A dict filled from other columns gives wrong lines.  A fit whose weights
    hold a zero runs on the positively weighted subset and neither reads nor
    fills the dict.  With no dict, the fit uses a throwaway one.

    Raises
    ------
    ValueError
        If an input holds a non-finite value.
    DegenerateFitError
        If fewer than two points carry positive weight, or all positively
        weighted x values coincide, or the fitted line fails
        :func:`line_fits` over all the points, zero-weighted ones included.
    """
    x, y, w, tops = _check_xyw(xs, ys, weights)
    active = w > 0
    n_active = int(np.count_nonzero(active))
    if n_active < 2:
        raise DegenerateFitError("need at least two points with positive weight")
    start_tops = tops
    if n_active < len(w):
        x, y, w = x[active], y[active], w[active]
        orders = None  # subset indices are not the caller's anchors
        start_tops = float(np.abs(x).max()), float(np.abs(y).max())
    if (x == x[0]).all():
        raise DegenerateFitError("x values carry no spread under the given weights")
    start = _start_anchor(x, y, w, *start_tops)
    alpha, beta = _vertex_descent(x, y, w, start, {} if orders is None else orders)
    if not line_fits(alpha, beta, *tops):
        raise DegenerateFitError("the fitted line overflows on the data")
    return alpha, beta


def _anchored_line(x, y, w, anchor: int, orders: dict) -> tuple[float, float, int]:
    """Best line through point ``anchor``, as ``(alpha, beta, partner)``.

    The slope is the lower weighted median of the slopes to the other points,
    weighted by w_k * |x_k - x_anchor|.  Beta goes through the lower-index
    point of the pair, so a pair always yields the same bits.

    The order of the slopes is taken from ``orders`` when it holds the
    anchor; otherwise it is sorted and stored while the dict stays within
    ``_ORDER_CACHE_BYTES``.  The slope is one division, the value the
    elementwise division gives, so a stored order yields the same bits.
    """
    dx = x - x[anchor]
    order = orders.get(anchor)
    if order is None:
        # Points level with the anchor in x get slope +inf, which sorts last,
        # and zero weight, so none of them is the median.  (No NaN: it slows
        # the sort.)
        slopes = np.divide(y - y[anchor], dx, out=np.full_like(dx, np.inf), where=dx != 0.0)
        order = np.argsort(slopes)
        entry = 4 * len(order) + _ORDER_ENTRY_OVERHEAD
        if (len(orders) + 1) * entry <= _ORDER_CACHE_BYTES:
            orders[anchor] = order.astype(np.int32)
    # The weights w_k * |dx_k| overwrite dx; take() gathers them through a
    # stored int32 order without converting it first.
    np.abs(dx, out=dx)
    dx *= w
    cum = dx.take(order)
    np.add.accumulate(cum, out=cum)
    partner = int(order[cum.searchsorted(0.5 * cum[-1])])
    run = x[partner] - x[anchor]
    alpha = float((y[partner] - y[anchor]) / run) if run != 0.0 else math.inf
    lo = min(anchor, partner)
    return alpha, float(y[lo] - alpha * x[lo]), partner


def _pivots(x, y, w, alpha: float, beta: float, anchor: int, partner: int):
    """Anchors to try: the partner, then the other points on the line.

    A point k on the line is skipped when turning the line about it must
    raise the objective: when h_k > |g_k|, with g_k the sum of
    w_i*sign(r_i)*(x_i - x_k) over the points off the line and h_k the sum
    of w_i*|x_i - x_k| over the points on it.
    """
    yield partner
    r = y - alpha * x - beta
    on = np.abs(r) <= _TIE_RTOL * (1.0 + np.abs(y) + np.abs(alpha * x))
    if np.count_nonzero(on) > 2:
        ws = np.where(on, 0.0, w * np.sign(r))
        line = np.flatnonzero(on)
        line = line[np.argsort(x[line])]
        xk, cw, cwx = x[line], np.cumsum(w[line]), np.cumsum(w[line] * x[line])
        h = xk * (2.0 * cw - cw[-1]) - (2.0 * cwx - cwx[-1])
        slack = h - np.abs(np.dot(ws, x) - xk * np.sum(ws))
        size = np.dot(w, np.abs(x)) + np.abs(xk) * np.sum(w)
        for k in np.sort(line[slack <= _CERTIFY_RTOL * size]):
            if k != anchor and k != partner:
                yield int(k)


def _vertex_descent(x, y, w, anchor: int, orders: dict) -> tuple[float, float]:
    """Descend from the best line through ``anchor`` to the optimal vertex."""
    alpha, beta, partner = _anchored_line(x, y, w, anchor, orders)
    ref = _l1_objective(x, y, w, alpha, beta)
    while True:
        tol = _TIE_RTOL * (1.0 + ref)
        for pivot in _pivots(x, y, w, alpha, beta, anchor, partner):
            a, b, p = _anchored_line(x, y, w, pivot, orders)
            if (a, b) == (alpha, beta):
                continue  # the current line: neither a lower objective nor a lower (a, b)
            obj = _l1_objective(x, y, w, a, b)
            if obj < ref - tol or (obj <= ref + tol and (a, b) < (alpha, beta)):
                break
        else:
            return alpha, beta
        ref = min(ref, obj)
        alpha, beta, anchor, partner = a, b, pivot, p


def estimate_scale(residuals, weights=None) -> float:
    """Weighted maximum-likelihood Laplace scale: sum w|r| / sum w, floored.

    The floor ``B_FLOOR`` keeps downstream log-densities finite when the
    residuals are (numerically) zero.  A non-finite input raises ValueError.
    """
    r = np.asarray(residuals, dtype=float)
    check_finite("residuals", r)
    w = _checked_weights(weights, r)
    total = float(w.sum())
    if total <= 0:
        raise ValueError("total weight must be positive")
    return max(B_FLOOR, float(np.dot(w, np.abs(r)) / total))


def anderson_darling_laplace(residuals) -> ADTestResult:
    """Test one 1-d sample of residuals against the Laplace distribution at
    the 5% level.

    Location and scale are estimated from the sample (median and mean
    absolute deviation): the A^2 statistic is
    :func:`weighted_ad_statistic_laplace` at unit weights.  It is compared
    against a critical value interpolated in n from the shipped Monte-Carlo
    calibration table, clamped at its ends.

    Raises
    ------
    ValueError
        If ``residuals`` is not 1-d or holds a non-finite value.
    InsufficientDataError
        With fewer than ``AD_MIN_POINTS`` residuals.
    """
    r = np.asarray(residuals, dtype=float)
    stat = weighted_ad_statistic_laplace(r, np.ones_like(r))  # checks that r is 1-d and finite
    if len(r) < AD_MIN_POINTS:
        raise InsufficientDataError(
            f"Anderson-Darling test needs >= {AD_MIN_POINTS} residuals, got {len(r)}"
        )
    ns, cs = _shipped_critical_values()
    crit = float(np.interp(float(len(r)), ns, cs))
    return ADTestResult(statistic=stat, critical_value=crit, passed=stat <= crit, n=len(r))


@lru_cache(maxsize=1)
def _shipped_critical_values() -> tuple[np.ndarray, np.ndarray]:
    """The shipped table as read-only arrays of sample sizes (ascending, as
    floats) and their cutoffs."""
    ref = resources.files("metacausal").joinpath("data/laplace_ad_critical_values.json")
    payload = json.loads(ref.read_text(encoding="utf-8"))
    rows = sorted((int(n), float(c)) for n, c in payload["critical_values"].items())
    ns, cs = (np.array(column, dtype=float) for column in zip(*rows))
    ns.flags.writeable = cs.flags.writeable = False
    return ns, cs


def calibrate_critical_values(
    ns: tuple[int, ...] = (50, 100, 200, 500, 1000),
    simulations: int = 50_000,
    seed: int = 20_240_520,
    level: float = 0.05,
) -> dict:
    """Monte-Carlo calibration of the estimated-parameter Laplace A^2 cutoffs.

    For each sample size in turn, draws ``simulations`` Laplace samples of
    that size, one after another from one seeded stream, computes each
    one's A^2 as :func:`anderson_darling_laplace` does (the one kernel at
    unit weights), and records the (1 - level) quantile of the statistic.
    Returns a payload dict ready to be written as the package's
    critical-value JSON file.
    """
    rng = np.random.default_rng(seed)
    table: dict[int, float] = {}
    for n in ns:
        unit = np.ones(n)
        draws = (sample_laplace(rng, 1.0, size=n) for _ in range(simulations))
        stats = [weighted_ad_statistic_laplace(r, unit) for r in draws]
        table[n] = float(np.quantile(stats, 1.0 - level))
    return {
        "meta": {
            "description": "5%-level critical values for the A^2 statistic "
            "against a Laplace distribution with location and scale "
            "estimated from the sample",
            "seed": seed,
            "simulations": simulations,
            "level": level,
        },
        "critical_values": {str(n): table[n] for n in ns},
    }


# log(1e-300) and log1p(-(1 - 1e-16)): the clipped logs at u = 0 and u = 1.
_LOG_U_FLOOR = float(np.log(1e-300))
_LOG_1MU_FLOOR = float(np.log1p(-(1.0 - 1e-16)))


def weighted_ad_statistic_laplace(residuals, weights) -> float:
    """A^2 statistic of weighted residuals against a fitted Laplace distribution.

    The sample is centred at its weighted median (the mean of the middle two
    where the weight splits exactly in half) and scaled by its weighted mean
    absolute deviation, floored at ``B_FLOOR``.  The Anderson-Darling
    integral W * int (F_hat - u)^2 / (u(1-u)) du over the weighted empirical
    CDF F_hat is then evaluated piecewise in closed form.  At unit weights
    this is, up to rounding, the classic
    A^2 = -n - (1/n) sum_i (2i-1) [ln F(z_(i)) + ln(1-F(z_(n+1-i)))].

    The one A^2 kernel: the EM compares causal directions with it on
    responsibility-weighted residuals, where only the ordering of statistics
    matters, and :func:`anderson_darling_laplace` and
    :func:`calibrate_critical_values` run it at unit weights.

    Points of weight 0 are dropped; with fewer than two left the statistic
    is +inf.  Residuals that are not 1-d, weights of another shape, a
    negative or NaN weight, an infinite weight sum or a non-finite residual
    of a kept point raise ValueError.
    """
    r = np.asarray(residuals, dtype=float)
    w = np.asarray(weights, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"residuals must be one 1-d sample, got shape {r.shape}")
    if w.shape != r.shape:
        raise ValueError(f"weights must match the data shape {r.shape}, got {w.shape}")
    keep = w > 0
    if not keep.all():
        if not (w >= 0).all():  # a NaN fails both comparisons
            raise ValueError(f"weights must be non-negative, got {w[~(w >= 0)][0]}")
        r, w = r[keep], w[keep]
    if r.size < 2:
        return math.inf
    # Tied residuals bound zero-width intervals, whose log differences are
    # exactly 0, so an unstable sort changes only the order tied weights sum.
    order = np.argsort(r)
    r, w = r.take(order), w.take(order)
    if not (math.isfinite(r[0]) and math.isfinite(r[-1])):  # sorted: -inf first, +inf and NaN last
        # Name the first bad kept residual, in the caller's rows.
        check_finite("residuals", np.where(keep, residuals, 0.0))
    total = float(w.sum())
    if not math.isfinite(total):
        raise ValueError(f"weights must have a finite sum, got {total}")
    cum = np.add.accumulate(w)
    half = 0.5 * total
    idx = int(cum.searchsorted(half))
    if cum[idx] == half and idx + 1 < len(r):
        med = 0.5 * (r[idx] + r[idx + 1])
    else:
        med = float(r[idx])
    r -= med  # r is the sorted copy, so the caller's residuals stay as they are
    b = max(B_FLOOR, float(np.dot(w, np.abs(r)) / total))
    u = laplace_cdf(r, b)
    np.clip(u, 1e-300, 1.0 - 1e-16, out=u)

    # Piecewise integral over [u_k, u_{k+1}) with constant ECDF c_k:
    # int (c-u)^2/(u(1-u)) du = c^2 ln u + (1-c)^2 ln(1/(1-u)) - u.
    # The logs run over u bracketed by 0 and 1, both clipped like u.
    n = len(u)
    log_u = np.empty(n + 2)
    log_u[0], log_u[-1] = _LOG_U_FLOOR, 0.0
    np.log(u, out=log_u[1:-1])
    log_1mu = np.empty(n + 2)
    log_1mu[0], log_1mu[-1] = -0.0, _LOG_1MU_FLOOR
    np.log1p(np.negative(u, out=u), out=log_1mu[1:-1])
    c = np.empty(n + 1)
    c[0] = 0.0
    np.divide(cum, total, out=c[1:])
    # term1 = c^2 * d(ln u), +0.0 where c = 0 (u is sorted and clipped); term2 =
    # (1-c)^2 * d(ln 1/(1-u)), zeroed where c >= 1 (the ECDF may end at or above 1).
    square = np.square(c)
    term1 = np.subtract(log_u[1:], log_u[:-1])
    term1 *= square
    term2 = np.subtract(log_1mu[:-1], log_1mu[1:], out=log_u[:-1])
    np.square(np.subtract(1.0, c, out=square), out=square)
    term2 *= square
    np.copyto(term2, 0.0, where=c >= 1.0)
    term1 += term2
    return float(total * (term1.sum() - 1.0))
