"""Two-agent pursuit game with role-switching causal types.

Two agents move on a square torus: the chaser heads straight for the
evader, the evader runs away with a little heading jitter.  When the chaser
closes within the tag radius the roles swap, and for a short truce the new
chaser trails at reduced speed so the agents separate again (otherwise the
faster pursuer would pin the distance to zero and the motion cues would
degenerate).

The causal graph is cyclic: each agent's motion depends on the other's
position.  The *type* of each edge is read off the motion: an agent moving
toward the other makes its incoming edge "chasing", moving away makes it
"escaping", standing still removes it.  Role swaps flip both labels, so
the meta-causal state flips exactly at tag events.

Observations carry positions and, optionally, velocities.  A single
position-only snapshot cannot tell who is chasing (two states remain
consistent); two consecutive snapshots determine the displacement and pin
the state down, which is why traces of length two act as homing sequences
for this machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

__all__ = [
    "ARENA",
    "TagState",
    "TagObservation",
    "CHASING",
    "ESCAPING",
    "TAG_DOMAIN",
    "A_CHASING_STATE",
    "B_CHASING_STATE",
    "tag_identify",
    "tag_step",
    "initial_tag_state",
    "tag_observe",
    "tag_candidates",
    "tag_model",
    "run_episode",
]

ARENA = 100.0  # torus side length
CHASER_SPEED = 1.2
EVADER_SPEED = 1.0
TAG_RADIUS = 1.0
JITTER_MAX = 0.3  # evader heading jitter, radians
TRUCE_STEPS = 12
TRUCE_CHASER_SPEED = 0.6
START_MIN_DISTANCE = 20.0  # least torus distance between the agents at the start

CHASING = TypeLabel("chasing")
ESCAPING = TypeLabel("escaping")
TAG_DOMAIN = TypeDomain((CHASING, ESCAPING, NO_EDGE))

# Variable order: index 0 = agent A's position, 1 = agent B's position.
A, B = 0, 1

A_CHASING_STATE = MetaCausalState.from_rows(
    [["⊥", "escaping"], ["chasing", "⊥"]]
)
B_CHASING_STATE = MetaCausalState.from_rows(
    [["⊥", "chasing"], ["escaping", "⊥"]]
)


@dataclass(frozen=True)
class TagState:
    """Positions, last-step velocities, current chaser, and truce countdown."""

    a_pos: tuple[float, float]
    b_pos: tuple[float, float]
    a_vel: tuple[float, float] = (0.0, 0.0)
    b_vel: tuple[float, float] = (0.0, 0.0)
    chaser: str = "A"
    truce: int = 0

    def __post_init__(self) -> None:
        if self.chaser not in ("A", "B"):
            raise ValueError(f"chaser must be 'A' or 'B', got {self.chaser!r}")
        for pos in (self.a_pos, self.b_pos):
            if not all(0.0 <= c < ARENA for c in pos):
                raise ValueError(f"position {pos} outside the arena [0, {ARENA})^2")


@dataclass(frozen=True)
class TagObservation:
    """Abstracted view of a tag state: positions, optionally velocities.

    The chaser flag is latent (an agent's policy is not directly
    observable); velocities are included when motion is observed directly.
    """

    a_pos: tuple[float, float]
    b_pos: tuple[float, float]
    a_vel: tuple[float, float] | None = None
    b_vel: tuple[float, float] | None = None


def torus_delta(p: tuple[float, float], q: tuple[float, float]) -> np.ndarray:
    """Minimal-image displacement from p to q on the torus."""
    d = (np.asarray(q, dtype=float) - np.asarray(p, dtype=float) + ARENA / 2) % ARENA
    return d - ARENA / 2


def _wrap(p: np.ndarray) -> tuple[float, float]:
    q = np.mod(p, ARENA)
    return float(q[0]), float(q[1])


def _direction_label(velocity, toward) -> TypeLabel:
    v = np.asarray(velocity, dtype=float)
    if v[0] == 0.0 and v[1] == 0.0:
        return NO_EDGE
    return CHASING if float(np.dot(v, toward)) > 0.0 else ESCAPING


def _identify_from_motion(a_pos, b_pos, a_vel, b_vel) -> MetaCausalState:
    sep_ab = torus_delta(a_pos, b_pos)  # from A toward B
    edge_b_to_a = _direction_label(a_vel, sep_ab)  # A's motion types B -> A
    edge_a_to_b = _direction_label(b_vel, -sep_ab)  # B's motion types A -> B
    return MetaCausalState.from_rows(
        [[NO_EDGE, edge_a_to_b], [edge_b_to_a, NO_EDGE]]
    )


def tag_identify(prev: TagState | TagObservation, curr: TagState | TagObservation) -> MetaCausalState:
    """Type matrix read off the positions of two consecutive states or observations.

    Each agent's displacement (minimal-image position difference) is dotted
    with the current separation: positive means that agent is closing in
    (its incoming edge is "chasing"), negative means fleeing ("escaping"),
    an exactly zero displacement removes the edge.
    """
    a_vel = torus_delta(prev.a_pos, curr.a_pos)
    b_vel = torus_delta(prev.b_pos, curr.b_pos)
    return _identify_from_motion(curr.a_pos, curr.b_pos, a_vel, b_vel)


def tag_step(state: TagState, rng: np.random.Generator) -> TagState:
    """Advance the game one step.

    The chaser moves straight at the evader (at reduced speed during a
    truce); the evader runs directly away with a heading jitter of at most
    ``JITTER_MAX`` radians.  A tag fires when the post-move distance drops
    below the tag radius outside a truce: roles swap and the truce timer
    starts, during which no tag can fire.
    """
    a = np.asarray(state.a_pos)
    b = np.asarray(state.b_pos)
    if state.chaser == "A":
        chaser_pos, evader_pos = a, b
    else:
        chaser_pos, evader_pos = b, a
    gap = torus_delta(tuple(chaser_pos), tuple(evader_pos))
    dist = float(np.hypot(*gap))
    unit = np.array([1.0, 0.0]) if dist < 1e-12 else gap / dist
    speed_c = TRUCE_CHASER_SPEED if state.truce > 0 else CHASER_SPEED
    theta = rng.uniform(-JITTER_MAX, JITTER_MAX)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    flee = np.array(
        [unit[0] * cos_t - unit[1] * sin_t, unit[0] * sin_t + unit[1] * cos_t]
    )
    chaser_new = _wrap(chaser_pos + speed_c * unit)
    evader_new = _wrap(evader_pos + EVADER_SPEED * flee)
    if state.chaser == "A":
        a_new, b_new = chaser_new, evader_new
    else:
        a_new, b_new = evader_new, chaser_new
    a_vel = tuple(torus_delta(state.a_pos, a_new))
    b_vel = tuple(torus_delta(state.b_pos, b_new))
    new_dist = float(np.hypot(*torus_delta(chaser_new, evader_new)))
    chaser = state.chaser
    truce = max(0, state.truce - 1)
    if state.truce == 0 and new_dist < TAG_RADIUS:
        chaser = "B" if chaser == "A" else "A"
        truce = TRUCE_STEPS
    return TagState(a_new, b_new, a_vel, b_vel, chaser, truce)


def initial_tag_state(rng: np.random.Generator) -> TagState:
    """Random starting configuration with the agents well separated."""
    while True:
        a = (float(rng.uniform(0, ARENA)), float(rng.uniform(0, ARENA)))
        b = (float(rng.uniform(0, ARENA)), float(rng.uniform(0, ARENA)))
        if np.hypot(*torus_delta(a, b)) >= START_MIN_DISTANCE:
            return TagState(a, b)


def tag_observe(state: TagState) -> TagObservation:
    """What an observer sees of ``state``: positions and velocities; the chaser flag stays latent."""
    return TagObservation(state.a_pos, state.b_pos, state.a_vel, state.b_vel)


def tag_candidates(observations: tuple) -> frozenset[MetaCausalState]:
    """States consistent with a trace of observations (TagObservation or TagState records).

    Two consecutive observations give displacements, which identify the
    state uniquely.  One observation with velocities does the same.  One
    position-only observation leaves both role assignments possible.
    """
    if len(observations) >= 2:
        return frozenset({tag_identify(observations[-2], observations[-1])})
    last = observations[-1]
    if last.a_vel is not None and last.b_vel is not None:
        return frozenset(
            {_identify_from_motion(last.a_pos, last.b_pos, last.a_vel, last.b_vel)}
        )
    return frozenset({A_CHASING_STATE, B_CHASING_STATE})


def _encode(state: TagState, i: int, j: int) -> TypeLabel:
    matrix = _identify_from_motion(state.a_pos, state.b_pos, state.a_vel, state.b_vel)
    return matrix.label(i, j)


def tag_model() -> MetaCausalModel:
    """The pursuit game packaged as a meta-causal model."""
    return MetaCausalModel(
        type_domain=TAG_DOMAIN,
        process=MediationProcess(
            transition=tag_step,
            validate=lambda s: isinstance(s, TagState),
        ),
        id_fn=IdentificationFunction(n=2, pair_encoder=_encode),
        candidate_states=tag_candidates,
    )


def run_episode(steps: int, rng: np.random.Generator) -> list[TagState]:
    """Seeded episode: the initial state plus ``steps`` successors."""
    states = [initial_tag_state(rng)]
    for _ in range(steps):
        states.append(tag_step(states[-1], rng))
    return states
