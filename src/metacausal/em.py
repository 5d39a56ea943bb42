"""Inner EM loop for mixtures of directed linear Laplace mechanisms.

A restart carries bare mechanism tuples from its seed
(:func:`init_from_pairs`) through :func:`run_em`, which builds the one
:class:`MixtureState`.  One EM step re-fits every mechanism by
responsibility-weighted median regression in both causal directions, keeps
the direction whose weighted residuals look more Laplace (lower
Anderson-Darling statistic), and re-estimates the noise scale; the run then
recomputes responsibilities from the Laplace densities.  No mixing
proportions are estimated: components enter the mixture with equal weight,
and the model log-likelihood is the sum over points of the log of the mean
component density.

A run of k mechanisms takes at most 5 steps for k <= 2 and 10 for k >= 3,
and scores only its final state: that log-likelihood alone ranks restarts.
It stops early at an exact fixed point: before a step that would receive
the same responsibilities, bit for bit, as the step before it.  Such a step
returns its input mechanisms, so it and every later step would repeat the
current state (see :func:`run_em`).  With one mechanism every responsibility
is exactly 1, so a k = 1 run stops after its first step.

The slope orders the line fits sort do not depend on the responsibilities,
so every fit on a dataset reads them from its one cache,
:attr:`datagen.Dataset.slope_orders`, which lives as long as the dataset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset, Direction, MechanismParams
from .stats import (
    DegenerateFitError,
    estimate_scale,
    l1_fit,
    laplace_logpdf,
    weighted_ad_statistic_laplace,
)

__all__ = [
    "MixtureState",
    "DegeneratePairError",
    "init_from_pairs",
    "draw_seed_state",
    "responsibilities",
    "mixture_log_likelihood",
    "em_step",
    "run_em",
    "params_in_frame",
    "check_convergence",
    "matched_errors",
]

# A mechanism whose total responsibility falls below this many effective
# points is frozen for the step instead of being re-fit.
_MIN_EFFECTIVE_POINTS = 2.0

# Draws of 2k seed points one restart may make before it is given up.
_SEED_PAIR_RETRIES = 100

# Largest slope and intercept error at which a fitted mechanism still
# recovers a true one.
CONVERGENCE_TOL = 0.2


class DegeneratePairError(ValueError):
    """A seed pair spans no finite line, so the caller draws again; or a
    restart stage cannot seed (fewer than 2k points, or only degenerate
    draws), so a search ends there."""


@dataclass(frozen=True, eq=False)
class MixtureState:
    """Mechanisms plus per-point responsibilities and the model log-likelihood."""

    mechanisms: tuple[MechanismParams, ...]
    responsibilities: np.ndarray  # (m, k), rows sum to 1
    log_likelihood: float


def init_from_pairs(points) -> tuple[MechanismParams, ...]:
    """Seed k mechanisms from 2k points, one line through each consecutive pair.

    Every mechanism starts with unit noise scale and the x-to-y direction;
    :func:`run_em` projects them onto the dataset.

    Raises
    ------
    DegeneratePairError
        If a pair has equal x or its line overflows; the caller resamples.
    ValueError
        If the points are not an (m, 2) array with m positive and even.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"seed points must have shape (2k, 2), got {pts.shape}")
    if len(pts) < 2 or len(pts) % 2 != 0:
        raise ValueError("need 2k seed points")
    mechs = []
    # Python floats: numpy's IEEE bits, but an overflow gives inf with no warning.
    for (x0, y0), (x1, y1) in zip(pts[0::2].tolist(), pts[1::2].tolist()):
        dx = x1 - x0
        if dx == 0.0:
            raise DegeneratePairError("seed pair shares its x value")
        alpha = (y1 - y0) / dx
        beta = y0 - alpha * x0  # finite only if alpha is (at x0 = 0 an infinite alpha gives NaN)
        if not math.isfinite(beta):
            raise DegeneratePairError("seed pair yields a non-finite slope or intercept")
        mechs.append(MechanismParams(alpha, beta, 1.0, Direction.XY))
    return tuple(mechs)


def draw_seed_state(
    data: Dataset, k: int, rng: np.random.Generator, init=init_from_pairs
) -> tuple[MechanismParams, ...] | None:
    """Seed k mechanisms from 2k distinct random points of ``data``.

    Draws ``rng.choice(data.m, 2k, replace=False)`` and returns ``init`` of
    the drawn points, redrawing while the draw holds a degenerate pair or a
    line whose residuals on ``data`` could overflow; after 100 such draws it
    returns None.  Callers pass their own binding of
    :func:`init_from_pairs` as ``init``, so that a wrapper patched into the
    calling module (the benchmark's tracer) sees every seeding call.
    """
    # |residual| <= max|y| + |alpha| max|x| + |beta|: in Python floats, inf with no warning.
    x_top, y_top = np.abs(data.points).max(axis=0).tolist()
    for _ in range(_SEED_PAIR_RETRIES):
        idx = rng.choice(data.m, size=2 * k, replace=False)
        try:
            mechs = init(data.points[idx])
        except DegeneratePairError:
            continue
        if all(math.isfinite(y_top + abs(m.alpha) * x_top + abs(m.beta)) for m in mechs):
            return mechs
    return None


def _logpdf_matrix(data: Dataset, mechs, common_axis: bool = False) -> np.ndarray:
    """Per-mechanism, per-point Laplace log-densities, shape (k, m).

    Mechanism-major: reductions over the mechanisms then combine contiguous
    rows, which numpy does far faster than reducing along a k-wide axis, in
    the same order for k < 8.

    With ``common_axis`` each mechanism's density is expressed as a
    conditional on one shared effect axis: a flipped-direction mechanism
    picks up the change-of-variables factor |alpha|, which makes the values
    comparable across directions and invariant under reparameterizing a
    line from one direction to the other.  Without it, densities live on
    each mechanism's own residual axis.
    """
    logp = np.empty((len(mechs), data.m))
    for j, mech in enumerate(mechs):
        logp[j] = laplace_logpdf(mech.residuals(data.x, data.y), mech.b)
        if common_axis and mech.direction is Direction.YX:
            logp[j] += np.log(max(abs(mech.alpha), 1e-300))
    return logp


def responsibilities(data: Dataset, mechs) -> np.ndarray:
    """Per-point class probabilities from the mechanism Laplace densities.

    Each mechanism's density is evaluated on its own effect-side residual
    axis, then normalized across mechanisms per point.  Rows where every
    density underflows fall back to the uniform distribution.  The (m, k)
    result is a transposed view, so each mechanism's column is contiguous.
    With one mechanism every value is exactly 1: the densities are computed
    for their input checks alone, and the normalisation is skipped.
    """
    mechs = tuple(mechs)
    if not mechs:
        raise ValueError("need at least one mechanism")
    logp = _logpdf_matrix(data, mechs)
    if len(mechs) == 1:
        return np.ones((1, data.m)).T
    logp -= logp.max(axis=0)
    dens = np.exp(logp)
    total = dens.sum(axis=0)
    bad = ~np.isfinite(total) | (total <= 0)
    if np.any(bad):
        dens[:, bad] = 1.0
        total[bad] = len(mechs)
    return (dens / total).T


def mixture_log_likelihood(data: Dataset, mechs) -> float:
    """Sum over points of log of the mean component density.

    Component densities are taken as conditionals on a common effect axis
    (flipped-direction mechanisms carry their |alpha| change-of-variables
    factor), so the value ranks restart candidates by the geometry of their
    fits rather than by which direction happens to parameterize a line:
    without the factor, any steep mechanism could inflate the likelihood
    simply by being written in the flipped direction, and restart selection
    would systematically prefer such parameterizations.
    """
    logp = _logpdf_matrix(data, tuple(mechs), common_axis=True)
    mx = logp.max(axis=0)
    return float(np.sum(mx + np.log(np.mean(np.exp(logp - mx), axis=0))))


def _refit_mechanism(data: Dataset, weights: np.ndarray, old: MechanismParams) -> MechanismParams:
    """Weighted L1 re-fit in both directions; keep the more Laplace-looking one."""
    orders_xy, orders_yx = data.slope_orders
    try:
        a_xy, b_xy = l1_fit(data.x, data.y, weights, orders=orders_xy)
        a_yx, b_yx = l1_fit(data.y, data.x, weights, orders=orders_yx)
    except DegenerateFitError:
        return old
    r_xy = data.y - (a_xy * data.x + b_xy)
    r_yx = data.x - (a_yx * data.y + b_yx)
    stat_xy = weighted_ad_statistic_laplace(r_xy, weights)
    stat_yx = weighted_ad_statistic_laplace(r_yx, weights)
    # l1_fit has checked the weights, so the scale of the kept direction
    # cannot raise.
    if stat_yx < stat_xy:
        return MechanismParams(a_yx, b_yx, estimate_scale(r_yx, weights), Direction.YX)
    return MechanismParams(a_xy, b_xy, estimate_scale(r_xy, weights), Direction.XY)


def em_step(
    data: Dataset, mechanisms: tuple[MechanismParams, ...], resp: np.ndarray
) -> tuple[MechanismParams, ...]:
    """One M-step: the mechanisms re-fitted under the (m, k) responsibilities
    ``resp``.

    Mechanisms whose total responsibility falls below two effective points
    are frozen at their previous parameters for the step, as is a mechanism
    whose re-fit raises :class:`DegenerateFitError`.  The caller recomputes
    responsibilities from the result (see :func:`run_em`).
    """
    if resp.shape != (data.m, len(mechanisms)):
        raise ValueError("responsibilities do not match the dataset")
    new_mechs = []
    for j, old in enumerate(mechanisms):
        w = resp[:, j]
        if float(w.sum()) < _MIN_EFFECTIVE_POINTS:
            new_mechs.append(old)
            continue
        new_mechs.append(_refit_mechanism(data, w, old))
    return tuple(new_mechs)


def run_em(data: Dataset, mechanisms: tuple[MechanismParams, ...]) -> MixtureState:
    """Project the seed mechanisms onto the dataset, apply up to the step
    budget of EM steps, and score the result once.

    The budget is 5 steps for k <= 2 mechanisms and 10 for k >= 3.  After
    each :func:`em_step` the responsibilities are recomputed; the mixture
    log-likelihood is computed once, for the returned state.

    The run stops before a step whose input responsibilities equal, bit for
    bit, those the previous step received, and the result is the one the
    full budget gives.  Mechanism j of a step's output depends only on the
    dataset and column j of the responsibilities, except through two
    fallbacks that return the input mechanism ``old``: a weight sum below
    two freezes it, and a :class:`DegenerateFitError` in the re-fit keeps
    it.  Both are decided by the dataset and the weights, and when either
    applies the previous step, given the same weights, already returned its
    own input unchanged.  So a step given repeated responsibilities returns
    its input mechanisms, and with them the current state bit for bit, as
    does every later step.  This never runs more steps than stopping once a
    step returns its input mechanisms would: the step after such a step
    receives repeated responsibilities.  At k = 1 every responsibility is
    exactly 1, so the run stops after step 1.  Responsibilities are finite
    and never -0.0, so ``np.array_equal`` compares their bits.
    """
    resp = responsibilities(data, mechanisms)
    previous = None
    for _ in range(5 if len(mechanisms) <= 2 else 10):
        if previous is not None and np.array_equal(resp, previous):
            break
        previous = resp
        mechanisms = em_step(data, mechanisms, resp)
        resp = responsibilities(data, mechanisms)
    return MixtureState(mechanisms, resp, mixture_log_likelihood(data, mechanisms))


def params_in_frame(mech: MechanismParams, direction: Direction) -> tuple[float, float]:
    """(slope, intercept) of the mechanism's line expressed in ``direction``.

    A directed linear mechanism defines one line in the (x, y) plane;
    flipping the frame inverts it: y = a*x + c becomes x = y/a - c/a.
    """
    if mech.direction is direction:
        return mech.alpha, mech.beta
    if mech.alpha == 0.0:
        return math.inf, math.inf
    return 1.0 / mech.alpha, -mech.beta / mech.alpha


def _feasible_assignments(est, truth):
    """Yield the per-estimate slope and intercept errors of every one-to-one
    assignment within ``CONVERGENCE_TOL``, in permutation order; none on a
    length mismatch."""
    est, truth = tuple(est), tuple(truth)
    if len(est) != len(truth):
        return
    k = len(truth)
    slope, intercept = np.full((k, k), math.inf), np.full((k, k), math.inf)
    for i, e in enumerate(est):
        for j, t in enumerate(truth):
            alpha, beta = params_in_frame(e, t.direction)
            slope[i, j], intercept[i, j] = abs(alpha - t.alpha), abs(beta - t.beta)
    ok = (slope <= CONVERGENCE_TOL) & (intercept <= CONVERGENCE_TOL)
    rows = np.arange(k)
    for perm in itertools.permutations(range(k)):
        if ok[rows, perm].all():
            yield slope[rows, perm], intercept[rows, perm]


def check_convergence(est, truth) -> bool:
    """True when some one-to-one matching aligns every estimated mechanism
    with a distinct true one within ``CONVERGENCE_TOL`` on slope and intercept.

    Each estimate is compared as a line, re-expressed in the matched true
    mechanism's own direction frame; the fitted direction label is close to
    a coin flip wherever the effect noise is small relative to the spread,
    so it does not count against convergence.  A length mismatch returns
    False.
    """
    return next(_feasible_assignments(est, truth), None) is not None


def matched_errors(est, truth) -> tuple[float, float] | None:
    """Mean absolute slope and intercept errors of the matching with the lowest
    total among those :func:`check_convergence` accepts (the earliest
    permutation on a tie), or None if it accepts none."""
    best: tuple[float, float] | None = None
    for slope, intercept in _feasible_assignments(est, truth):
        errors = (float(np.mean(slope)), float(np.mean(intercept)))
        if best is None or sum(errors) < sum(best):
            best = errors
    return best
