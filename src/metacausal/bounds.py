"""Resample-count bounds for pair-seeded mixture recovery.

When a mixture of ``n`` linear mechanisms is to be recovered by repeatedly
seeding an optimizer with random point pairs, the chance that a single draw
of ``n`` pairs hits every mechanism (one clean pair per mechanism) decays
rapidly with ``n`` and with class imbalance.  This module computes the
expected success probability for balanced classes, a worst-case lower bound
under a maximum class deviation ``d``, and the number of independent
restarts needed to see at least one success with a given confidence.

Probabilities are evaluated in exact rational arithmetic so that the lower
bound at ``d = 0`` collapses bit-exactly onto the expected value and so that
large ``n`` cannot overflow intermediate products.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

__all__ = [
    "expected_success_prob",
    "lower_bound_success_prob",
    "required_resamples",
    "empirical_resamples",
    "table2_theoretical",
]


def expected_success_prob(n: int) -> float:
    """Probability of drawing one pair from each of ``n`` equally likely classes.

    Sampling 2n points as n ordered pairs, the first point of each pair must
    come from a fresh class and the second must repeat it, giving
    ``n! / n**(2n)``.  Computed with exact integers, so it is safe for any n
    (values underflow to 0.0 once they drop below the float range).
    """
    if n < 1:
        raise ValueError(f"mechanism count must be >= 1, got {n}")
    return float(Fraction(math.factorial(n), n ** (2 * n)))


def _lower_bound_fraction(n: int, d: Fraction) -> Fraction:
    """Worst-case success probability with half the classes at (1+d)/n, half at (1-d)/n."""
    if n == 1:
        return Fraction(1)
    half = n // 2
    p_new = Fraction(1)
    # New-class draws, adversarially ordered: the oversized classes are
    # consumed first, the undersized ones last.
    for j in range(half + 1):  # j oversized classes already drawn
        p_new *= Fraction(n, 1) - (1 + d) * j
    if n % 2 == 1:
        p_new *= Fraction(n, 1) - (1 + d) * half - 1  # the average-sized class
    for i in range(1, half):
        p_new *= i * (1 - d)
    p_new /= Fraction(n) ** n
    # Matching second draws: one hit on each class at its own probability.
    p_same = ((1 + d) * (1 - d)) ** half
    p_same /= Fraction(n) ** n
    return p_new * p_same


def lower_bound_success_prob(n: int, d: float) -> float:
    """Lower bound on the all-classes pair-draw probability at class deviation ``d``.

    ``d`` is the maximum relative deviation of a class probability from 1/n:
    the bound assumes ceil(n/2) classes at (1+d)/n, floor(n/2) at (1-d)/n
    (plus one average class when n is odd).  At ``d = 0`` the bound equals
    :func:`expected_success_prob` exactly.  ``d >= 1`` would starve a class
    entirely; that case returns 0.0 with a warning rather than raising, since
    the value is well defined (the draw can never succeed).
    """
    if n < 1:
        raise ValueError(f"mechanism count must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"class deviation must be >= 0, got {d}")
    if d >= 1:
        warnings.warn(
            "class deviation >= 1 leaves an empty class; success probability is 0",
            stacklevel=2,
        )
        return 0.0
    return float(_lower_bound_fraction(n, Fraction(d)))


def required_resamples(p: float, confidence: float = 0.95) -> int:
    """Restarts needed for >= ``confidence`` chance of at least one success.

    Solves (1-p)**k <= 1-confidence for the smallest integer k.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must lie in (0, 1], got {p}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if p == 1.0:
        return 1
    return math.ceil(math.log(1.0 - confidence) / math.log(1.0 - p))


def empirical_resamples(convergence_rate: float, confidence: float = 0.95) -> int:
    """Restart count from a measured single-restart convergence rate.

    Same ceiling formula as :func:`required_resamples`, applied to an
    empirically observed per-restart success rate instead of the
    theoretical bound.
    """
    if not 0.0 < convergence_rate <= 1.0:
        raise ValueError(
            f"convergence rate must lie in (0, 1], got {convergence_rate}"
        )
    return required_resamples(convergence_rate, confidence)


def table2_theoretical(
    deviations: tuple[float, ...] = (0.0, 0.1, 0.2),
    n_max: int = 4,
    confidence: float = 0.95,
) -> np.ndarray:
    """Theoretical resample counts over a (deviation x mechanism-count) grid.

    Rows follow ``deviations``, columns run n = 1..n_max.  The defaults
    reproduce the published worst-case table: (1, 23, 363, 8179),
    (1, 26, 429, 10659), (1, 30, 526, 14859).
    """
    table = np.empty((len(deviations), n_max), dtype=np.int64)
    for i, d in enumerate(deviations):
        for n in range(1, n_max + 1):
            p = lower_bound_success_prob(n, d)
            table[i, n - 1] = required_resamples(p, confidence)
    return table
