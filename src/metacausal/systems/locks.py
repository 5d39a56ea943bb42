"""Two locks on one door: attribution of effect-free interventions.

Both locks must be open before the door can open.  Opening the first lock
changes nothing observable (the door stays shut), so value-level
counterfactual attribution assigns it zero effect.  The typed view
disagrees: while a lock is closed it actively constrains the door (its
edge is "blocking", or "controlling" once it is the last closed lock), and
opening it removes that edge, changing the meta-causal state even though
no variable value moved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

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
    "Lock",
    "Door",
    "LocksState",
    "BLOCKING",
    "CONTROLLING",
    "LOCKS_DOMAIN",
    "locks_identify",
    "locks_attribution",
    "LocksAttribution",
    "locks_model",
]

BLOCKING = TypeLabel("blocking")
CONTROLLING = TypeLabel("controlling")
LOCKS_DOMAIN = TypeDomain((BLOCKING, CONTROLLING, NO_EDGE))

# Variable order: 0 = lock 1, 1 = lock 2, 2 = door.
LOCK1, LOCK2, DOOR = 0, 1, 2


class Lock(Enum):
    LOCKED = "locked"
    OPEN = "open"


class Door(Enum):
    CLOSED = "closed"
    OPENABLE = "openable"


@dataclass(frozen=True)
class LocksState:
    lock1: Lock = Lock.LOCKED
    lock2: Lock = Lock.LOCKED

    @property
    def door(self) -> Door:
        both_open = self.lock1 is Lock.OPEN and self.lock2 is Lock.OPEN
        return Door.OPENABLE if both_open else Door.CLOSED


def _lock_edge(own: Lock, other: Lock) -> TypeLabel:
    if own is Lock.OPEN:
        return NO_EDGE
    return CONTROLLING if other is Lock.OPEN else BLOCKING


def locks_identify(state: LocksState) -> MetaCausalState:
    """Type matrix of the lock system: which locks actively constrain the door."""
    rows = [[NO_EDGE] * 3 for _ in range(3)]
    rows[LOCK1][DOOR] = _lock_edge(state.lock1, state.lock2)
    rows[LOCK2][DOOR] = _lock_edge(state.lock2, state.lock1)
    return MetaCausalState.from_rows(rows)


@dataclass(frozen=True)
class LocksAttribution:
    """Value-level effect of opening a lock vs. the typed state change."""

    classical_delta: int
    meta_changed: bool
    before: MetaCausalState
    after: MetaCausalState


def locks_attribution(before: LocksState, lock_index: int) -> LocksAttribution:
    """Open the given lock (1 or 2) and attribute the change both ways.

    ``classical_delta`` is the change in door openability (0 when the other
    lock still blocks); ``meta_changed`` reports whether the type matrix
    changed, which holds whenever a constraining edge is removed.

    Raises
    ------
    ValueError
        If the named lock is already open.
    """
    if lock_index not in (1, 2):
        raise ValueError(f"lock index must be 1 or 2, got {lock_index}")
    current = before.lock1 if lock_index == 1 else before.lock2
    if current is not Lock.LOCKED:
        raise ValueError(f"lock {lock_index} is already open")
    if lock_index == 1:
        after = replace(before, lock1=Lock.OPEN)
    else:
        after = replace(before, lock2=Lock.OPEN)
    delta = int(after.door is Door.OPENABLE) - int(before.door is Door.OPENABLE)
    m_before = locks_identify(before)
    m_after = locks_identify(after)
    return LocksAttribution(
        classical_delta=delta,
        meta_changed=m_after != m_before,
        before=m_before,
        after=m_after,
    )


def locks_model() -> MetaCausalModel:
    """The lock system as a (static) meta-causal model.

    Locks do not move without an action, so the transition is the identity
    and the machine is reducible: every lock configuration is its own
    context with a fixed type matrix.
    """
    return MetaCausalModel(
        type_domain=LOCKS_DOMAIN,
        process=MediationProcess(
            transition=lambda s, rng=None: s,
            validate=lambda s: isinstance(s, LocksState),
        ),
        id_fn=IdentificationFunction(
            n=3, pair_encoder=lambda s, i, j: locks_identify(s).label(i, j)
        ),
        candidate_states=None,
    )
