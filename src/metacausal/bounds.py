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

__all__ = [
    "expected_success_prob",
    "lower_bound_success_prob",
    "required_resamples",
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
    if not d >= 0:  # a NaN fails the comparison
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

    Solves (1-p)**k <= 1-confidence for the smallest integer k.  The
    denominator is ``log1p(-p)``, which stays nonzero for a ``p`` too small
    to change ``1 - p``; a ``p`` so small that k overflows a float raises
    ValueError.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must lie in (0, 1], got {p}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if p == 1.0:
        return 1
    count = math.log(1.0 - confidence) / math.log1p(-p)
    if count == math.inf:
        raise ValueError(f"success probability {p} needs more restarts than a float holds")
    return math.ceil(count)

