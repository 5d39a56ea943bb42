"""Stress-fatigue dynamics with a self-switching causal mechanism.

A single internal stress level s in [0, 1] feeds back on itself through a
steep logistic response, with an external stressor mixed in beforehand:

    decayed   d = 0.95 * clip[0,1](s + 0.5 * ext)
    response  s' = clip[0,1](1.01 * (1 / (1 + exp(-15 d + 7.5)) - 0.5) + 0.5)

Below the midpoint the response suppresses the stress level, above it the
level is amplified, so the self-influence edge carries the label "-1" or
"+1" depending only on which side of 0.5 the current level sits ("0" at the
midpoint itself).  Note the label tracks this amplify/suppress behavior,
not the curvature sign of the response curve, which is positive below the
midpoint and negative above it.

With variable 0 the external stressor and variable 1 the stress level, and
rows as causes, the identified type matrix is [[⊥, 1], [⊥, a]]: the
stressor always drives the level (label "1"), and a is the level's
self-influence label, "+1", "-1" or "0".  The stressor has no influence
on itself and the level none on the stressor.

Without external input the two modes are self-sustaining: levels above the
upper basin boundary climb toward saturation, levels below the midpoint
decay toward zero, and only the external stressor can move the system
across the threshold.  The machine over the type matrices therefore has
external-input-driven transitions and is not reducible to a static
context table unless the probes avoid external input and the basin
boundary's neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import (
    NO_EDGE,
    MediationProcess,
    MetaCausalModel,
    MetaCausalState,
    TypeDomain,
    TypeLabel,
)

__all__ = [
    "StressState",
    "AMPLIFYING",
    "SUPPRESSING",
    "NEUTRAL",
    "DRIVING",
    "STRESS_DOMAIN",
    "sigmoid_response",
    "loop_response",
    "stress_step",
    "stress_identify",
    "stress_model",
    "stress_candidates",
    "response_fixed_points",
    "basin_boundary",
]

DECAY = 0.95
EXT_COUPLING = 0.5
RESPONSE_GAIN = 1.01
RESPONSE_STEEPNESS = 15.0
RESPONSE_MIDPOINT = 0.5

AMPLIFYING = TypeLabel("+1")
SUPPRESSING = TypeLabel("-1")
NEUTRAL = TypeLabel("0")
DRIVING = TypeLabel("1")  # constant external-input edge

STRESS_DOMAIN = TypeDomain((DRIVING, AMPLIFYING, SUPPRESSING, NEUTRAL, NO_EDGE))

# Variable order used throughout: index 0 = external stressor, 1 = stress level.


@dataclass(frozen=True)
class StressState:
    """Stress level, external stressor, and the last decayed value (diagnostic)."""

    s: float
    ext: float = 0.0
    d_internal: float = 0.0

    def __post_init__(self) -> None:
        for name in ("s", "ext", "d_internal"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def sigmoid_response(x: float) -> float:
    """The raw (unclipped) logistic response applied to the decayed stress."""
    return RESPONSE_GAIN * (
        1.0 / (1.0 + math.exp(-RESPONSE_STEEPNESS * x + RESPONSE_STEEPNESS * RESPONSE_MIDPOINT))
        - 0.5
    ) + 0.5


def loop_response(s: float) -> float:
    """The closed loop with no external input: the next level from level ``s``."""
    return _clip01(sigmoid_response(DECAY * s))


def stress_step(state: StressState) -> StressState:
    """One step of the stress dynamics (deterministic)."""
    d = DECAY * _clip01(state.s + EXT_COUPLING * state.ext)
    s_next = _clip01(sigmoid_response(d))
    return StressState(s=s_next, ext=state.ext, d_internal=d)


def stress_identify(s: float) -> TypeLabel:
    """Self-influence label of the stress level: sign of (s - midpoint)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"stress level must lie in [0, 1], got {s}")
    if s > RESPONSE_MIDPOINT:
        return AMPLIFYING
    if s < RESPONSE_MIDPOINT:
        return SUPPRESSING
    return NEUTRAL


def _identify(state: StressState) -> MetaCausalState:
    """The type matrix [[⊥, 1], [⊥, a]], with a the level's self-influence label."""
    return MetaCausalState([[NO_EDGE, DRIVING], [NO_EDGE, stress_identify(state.s)]])


def stress_candidates(observations: tuple) -> frozenset[MetaCausalState]:
    """States consistent with a trace of observed stress levels.

    An observation is a stress level in [0, 1].  The identification depends
    only on the current level, so the final observation alone pins the
    state down (homing length 1).
    """
    return frozenset({_identify(StressState(s=float(observations[-1])))})


def stress_model() -> MetaCausalModel:
    """The stress system packaged as a meta-causal model."""

    def transition(state: StressState, rng=None) -> StressState:
        return stress_step(state)

    def validate(state) -> bool:
        return isinstance(state, StressState)

    return MetaCausalModel(
        type_domain=STRESS_DOMAIN,
        process=MediationProcess(transition=transition, validate=validate),
        identify=_identify,
        candidate_states=stress_candidates,
    )


def response_fixed_points() -> tuple[float, float, float]:
    """The three fixed points of the raw response curve, by bisection.

    The middle one sits exactly at the midpoint; the outer two lie just
    outside [0, 1] because the response over- and under-shoots by the gain
    factor.
    """
    lo = _bisect(lambda x: sigmoid_response(x) - x, -0.2, 0.25)
    hi = _bisect(lambda x: sigmoid_response(x) - x, 0.75, 1.2)
    return lo, RESPONSE_MIDPOINT, hi


def basin_boundary() -> float:
    """Unstable fixed point of the closed loop at zero external input.

    Levels above it grow toward saturation, levels below decay toward
    zero.  This sits above the response midpoint because of the decay
    factor, which is why persistence of the amplifying mode needs a margin
    over 0.5.
    """
    return _bisect(lambda s: loop_response(s) - s, RESPONSE_MIDPOINT, 0.6)


def _bisect(fn, lo: float, hi: float) -> float:
    """A root of ``fn`` between ``lo`` and ``hi``, at whose values ``fn``
    differs in sign: halve the interval until ``fn`` is exactly 0 at its
    midpoint or the midpoint equals an end."""
    lo_positive = fn(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or mid in (lo, hi):
            return mid
        if (fm > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
