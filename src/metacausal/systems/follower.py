"""Follower scenario: a policy decides whether a causal edge exists at all.

Agent B random-walks on a line.  Agent A either tracks B at a fixed offset
(the following policy) or holds a resting position (standing still); both
add small observation jitter.  At the variable level, following makes A's
position depend on B's, so the edge from B's position to A's position is
present; standing still removes it.

The point of the example is attribution: the classical root cause of A's
position under the following policy is B's position, but what *establishes*
that edge is A's policy, so on the meta level the policy is the root cause
whichever policy is active.

Edge detection from a trace correlates per-step displacements of A with
those of B (position-level correlation would be dominated by the random
walk's drift); |correlation| above 0.5 marks the edge present.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core import (
    NO_EDGE,
    IdentificationFunction,
    MediationProcess,
    MetaCausalModel,
    MetaCausalState,
    TypeDomain,
    TypeLabel,
)
from ..stats import check_finite

__all__ = [
    "Policy",
    "FollowerState",
    "FOLLOWING_LABEL",
    "FOLLOWER_DOMAIN",
    "EDGE_PRESENT_STATE",
    "EDGE_ABSENT_STATE",
    "FollowerIdentification",
    "follower_step",
    "simulate_follower_trace",
    "follower_identify",
    "follower_attribution",
    "follower_model",
]

OFFSET = 2.0  # following distance
REST_POSITION = 0.0
WALK_STEP = 1.0  # B's random-walk half-range per step
JITTER = 0.05  # observation jitter half-range
CORRELATION_THRESHOLD = 0.5
MIN_TRACE = 8

FOLLOWING_LABEL = TypeLabel("following")
FOLLOWER_DOMAIN = TypeDomain((FOLLOWING_LABEL, NO_EDGE))

# Variable order: index 0 = A's position, 1 = B's position.
A_X, B_X = 0, 1

EDGE_PRESENT_STATE = MetaCausalState.from_rows(
    [["⊥", "⊥"], ["following", "⊥"]]
)
EDGE_ABSENT_STATE = MetaCausalState.from_rows(
    [["⊥", "⊥"], ["⊥", "⊥"]]
)


class Policy(Enum):
    FOLLOWING = "following"
    STANDING_STILL = "standing_still"


@dataclass(frozen=True)
class FollowerState:
    a_pos: float
    b_pos: float
    policy: Policy = Policy.FOLLOWING


@dataclass(frozen=True)
class FollowerIdentification:
    """Identified state plus the two levels of root-cause attribution."""

    state: MetaCausalState
    edge_present: bool
    correlation: float
    meta_root_cause: str
    classical_root_cause: str


def follower_step(state: FollowerState, rng: np.random.Generator) -> FollowerState:
    """B random-walks; A tracks B at the offset or rests, per its policy."""
    b_new = state.b_pos + rng.uniform(-WALK_STEP, WALK_STEP)
    if state.policy is Policy.FOLLOWING:
        a_new = b_new - OFFSET + rng.uniform(-JITTER, JITTER)
    else:
        a_new = REST_POSITION + rng.uniform(-JITTER, JITTER)
    return FollowerState(a_new, b_new, state.policy)


def simulate_follower_trace(
    policy: Policy, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """(steps, 2) array of (a_pos, b_pos) observations."""
    state = FollowerState(a_pos=REST_POSITION, b_pos=REST_POSITION + OFFSET, policy=policy)
    rows = []
    for _ in range(steps):
        state = follower_step(state, rng)
        rows.append((state.a_pos, state.b_pos))
    return np.asarray(rows)


def _read_trace(trace) -> tuple[bool, float] | None:
    """(edge present, displacement correlation) of an (m, 2) trace of finite
    (a_pos, b_pos) rows, or None for a trace too short to tell."""
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 2 or trace.shape[1] != 2:
        raise ValueError(f"a trace is an (m, 2) array of (a_pos, b_pos) rows, got shape {trace.shape}")
    check_finite("trace", trace)
    if len(trace) < MIN_TRACE:
        return None
    da = np.diff(trace[:, 0])
    db = np.diff(trace[:, 1])
    rho = 0.0 if np.std(da) == 0.0 or np.std(db) == 0.0 else float(np.corrcoef(da, db)[0, 1])
    return abs(rho) > CORRELATION_THRESHOLD, rho


def _identification(present: bool, correlation: float) -> FollowerIdentification:
    return FollowerIdentification(
        state=EDGE_PRESENT_STATE if present else EDGE_ABSENT_STATE,
        edge_present=present,
        correlation=correlation,
        meta_root_cause="A_policy",
        classical_root_cause="B_X" if present else "U_A",
    )


def follower_identify(policy: Policy, trace) -> FollowerIdentification:
    """Identify the meta-causal state from an observed (m, 2) trace of (a, b) rows.

    The edge from B to A is detected by the displacement correlation alone;
    the identification does not read ``policy``.  On the meta level
    the policy is the root cause either way: it establishes the edge under
    following and removes it under standing still.
    """
    read = _read_trace(trace)
    if read is None:
        raise ValueError(f"need at least {MIN_TRACE} observations, got {len(trace)}")
    return _identification(*read)


def follower_attribution(policy: Policy) -> FollowerIdentification:
    """Attribution record straight from the policy (no trace needed)."""
    present = policy is Policy.FOLLOWING
    return _identification(present, 1.0 if present else 0.0)


def _encode(state: FollowerState, i: int, j: int) -> TypeLabel:
    if i == B_X and j == A_X and state.policy is Policy.FOLLOWING:
        return FOLLOWING_LABEL
    return NO_EDGE


def _candidates(observations: tuple) -> frozenset[MetaCausalState]:
    """States consistent with a trace of (a_pos, b_pos) observations."""
    read = _read_trace(observations)
    if read is None:
        return frozenset({EDGE_PRESENT_STATE, EDGE_ABSENT_STATE})
    return frozenset({_identification(*read).state})


def follower_model() -> MetaCausalModel:
    """The follower scenario packaged as a meta-causal model."""
    return MetaCausalModel(
        type_domain=FOLLOWER_DOMAIN,
        process=MediationProcess(
            transition=follower_step,
            validate=lambda s: isinstance(s, FollowerState),
        ),
        id_fn=IdentificationFunction(n=2, pair_encoder=_encode),
        candidate_states=_candidates,
    )
