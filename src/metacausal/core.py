"""Typed causal states and the finite-state machine over them.

A causal graph's adjacency matrix generalizes to a matrix of *type labels*:
entry (i, j) carries the kind of influence variable i currently exerts on
variable j, with a reserved no-edge label for absent influence.  Such a
matrix is a meta-causal state.  An environment process plus an
identification function (which maps an environment state to its whole type
matrix, the diagonal included) turn the set of states into a finite-state
machine: feeding the machine an environment state advances the environment
and re-identifies the types.

State inference works on observation traces: a model declares how to map a
window of observed variable values to the set of consistent states, and
``infer_state`` reports the unique survivor, an ambiguity marker, or an
inconsistency error.  ``is_reducible`` checks, over a caller-supplied probe
set, whether every transition is a self-loop; such a machine collapses to a
static table from context values to states (``reduction_table``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NO_EDGE",
    "TypeLabel",
    "TypeDomain",
    "MetaCausalState",
    "MediationProcess",
    "MetaCausalModel",
    "Ambiguous",
    "AMBIGUOUS",
    "NoConsistentStateError",
    "DomainError",
    "actual_state",
    "step",
    "infer_state",
    "is_reducible",
    "edge_present",
    "reduction_table",
]

NO_EDGE_SYMBOL = "⊥"  # ⊥, reserved for edge absence


class DomainError(ValueError):
    """An environment state outside the model's state space, or a label outside its type domain."""


class NoConsistentStateError(ValueError):
    """No meta-causal state is consistent with the observations."""


@dataclass(frozen=True, order=True)
class TypeLabel:
    """One symbol from a finite edge-type domain."""

    label: str

    @property
    def is_no_edge(self) -> bool:
        return self.label == NO_EDGE_SYMBOL

    def __str__(self) -> str:
        return self.label


NO_EDGE = TypeLabel(NO_EDGE_SYMBOL)


def _as_label(value: TypeLabel | str) -> TypeLabel:
    return value if isinstance(value, TypeLabel) else TypeLabel(value)


@dataclass(frozen=True)
class TypeDomain:
    """Finite, enumerable set of type labels containing exactly one no-edge element."""

    labels: tuple[TypeLabel, ...]

    def __post_init__(self) -> None:
        labels = tuple(_as_label(t) for t in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("type domain contains duplicate labels")
        if sum(t.is_no_edge for t in labels) != 1:
            raise ValueError("type domain must contain exactly one no-edge label")

    def __contains__(self, item: object) -> bool:
        return _as_label(item) in self.labels if isinstance(item, (TypeLabel, str)) else False

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class MetaCausalState:
    """Square matrix of type labels; a typed generalization of an adjacency matrix.

    Rows may hold ``TypeLabel`` objects or their strings; both are stored as
    tuples of labels, so equal matrices compare and hash equal either way.
    """

    entries: tuple[tuple[TypeLabel, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(_as_label(t) for t in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise ValueError("entries must form a square matrix with n >= 1")

    @property
    def n(self) -> int:
        return len(self.entries)

    def label(self, i: int, j: int) -> TypeLabel:
        """Type of variable i's influence on variable j; IndexError outside 0..n-1."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge index ({i}, {j}) out of range for n={n}")
        return self.entries[i][j]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(t.label for t in row) for row in self.entries) + "]"


def edge_present(state: MetaCausalState, i: int, j: int) -> bool:
    """True when the edge from variable i to variable j is present."""
    return not state.label(i, j).is_no_edge


@dataclass(frozen=True)
class MediationProcess:
    """Environment: an opaque state space with a transition.

    ``transition(state, rng)`` advances the environment one step; randomized
    processes draw from ``rng`` (pass None for deterministic ones).
    ``validate`` is the state-space membership test.
    """

    transition: Callable[[Any, np.random.Generator | None], Any]
    validate: Callable[[Any], bool] = lambda s: True


class Ambiguous:
    """Marker: several meta-causal states remain consistent with a trace."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Ambiguous"


AMBIGUOUS = Ambiguous()


@dataclass(frozen=True)
class MetaCausalModel:
    """Finite-state machine over meta-causal states.

    Machine states are type matrices, the input alphabet is the environment
    state space, and the transition advances the environment and
    re-identifies the types.  ``identify`` maps an environment state to its
    whole type matrix, the diagonal included, so the matrices it returns
    fix the number of variables.  ``candidate_states`` supports trace
    inference: it maps a time-ordered tuple of observations to the set of
    consistent meta-causal states, and is the one place that says what an
    observation is.
    """

    type_domain: TypeDomain
    process: MediationProcess
    identify: Callable[[Any], MetaCausalState]
    candidate_states: Callable[[tuple], frozenset[MetaCausalState]] | None = None


def _identify(model: MetaCausalModel, s: Any) -> MetaCausalState:
    """The state identified at ``s``; a label outside the type domain raises DomainError."""
    state = model.identify(s)
    for i, row in enumerate(state.entries):
        for j, label in enumerate(row):
            if label not in model.type_domain:
                domain = ", ".join(map(str, model.type_domain))
                raise DomainError(f"label {label} at ({i}, {j}) is outside the type domain {{{domain}}}")
    return state


def actual_state(model: MetaCausalModel, s: Any) -> MetaCausalState:
    """The meta-causal state identified at environment state ``s``: the
    model's identification function maps ``s`` to its whole type matrix."""
    if not model.process.validate(s):
        raise DomainError(f"state {s!r} is outside the model's state space")
    return _identify(model, s)


def step(
    model: MetaCausalModel,
    t: MetaCausalState,
    s: Any,
    rng: np.random.Generator | None = None,
) -> tuple[MetaCausalState, Any]:
    """Advance the machine one input: move the environment, re-identify types.

    Returns the successor meta-causal state together with the successor
    environment state.  ``t`` must have the successor's size; the
    transition itself depends only on the environment.
    """
    if not model.process.validate(s):
        raise DomainError(f"state {s!r} is outside the model's state space")
    s_next = model.process.transition(s, rng)
    t_next = _identify(model, s_next)
    if t.n != t_next.n:
        raise DomainError(f"state matrix has n={t.n}, the identified successor has n={t_next.n}")
    return t_next, s_next


def infer_state(
    model: MetaCausalModel, observations: Sequence[Any]
) -> MetaCausalState | Ambiguous:
    """Current meta-causal state from a time-ordered observation sequence.

    The caller forms the observations; the model's ``candidate_states``
    reads them.  Observation sequences act like homing inputs for the
    machine: when they pin down the state uniquely it is returned; when
    several states remain consistent the AMBIGUOUS marker is returned.

    Raises
    ------
    NoConsistentStateError
        If no state of the model is consistent with the observations.
    ValueError
        On an empty observation sequence, or a model without trace support.
    """
    observations = tuple(observations)
    if not observations:
        raise ValueError("observation sequence is empty")
    if model.candidate_states is None:
        raise ValueError("model does not declare observation-trace support")
    candidates = model.candidate_states(observations)
    if not candidates:
        raise NoConsistentStateError("observations fit no meta-causal state")
    if len(candidates) > 1:
        return AMBIGUOUS
    (state,) = candidates
    return state


def _looping_states(
    model: MetaCausalModel,
    probe_states: Iterable[Any],
    rng: np.random.Generator | None,
) -> list[MetaCausalState] | None:
    """The state identified at each probe, or None once a probe's transition
    changes it (the probes after that one are not stepped)."""
    probes = list(probe_states)
    if not probes:
        raise ValueError("probe set is empty")
    states = []
    for s in probes:
        before = actual_state(model, s)
        after, _ = step(model, before, s, rng)
        if after != before:
            return None
        states.append(before)
    return states


def is_reducible(
    model: MetaCausalModel,
    probe_states: Iterable[Any],
    rng: np.random.Generator | None = None,
) -> bool:
    """True when every probed transition is a self-loop.

    Sound only for the supplied probe set (state spaces may be continuous);
    the caller chooses a grid or sampled trajectories that cover the
    configurations of interest.  A machine whose transitions all loop never
    changes its type matrix, so it collapses to a context-conditioned
    static model.
    """
    return _looping_states(model, probe_states, rng) is not None


def reduction_table(
    model: MetaCausalModel,
    probe_states: Iterable[Any],
    rng: np.random.Generator | None = None,
) -> dict[int, MetaCausalState]:
    """Context table of a reducible model: context value -> meta-causal state.

    Checks reducibility over the probes in the same pass that identifies
    them, and enumerates the distinct states in first-appearance order.  The
    integer keys play the role of values of an explicit conditioning
    variable.
    """
    states = _looping_states(model, probe_states, rng)
    if states is None:
        raise ValueError("model is not reducible over the given probe set")
    return dict(enumerate(dict.fromkeys(states)))
