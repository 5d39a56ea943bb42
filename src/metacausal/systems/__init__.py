"""Worked dynamical systems expressed as meta-causal models."""

from .follower import (
    FollowerIdentification,
    FollowerState,
    Policy,
    follower_identify,
    follower_model,
    follower_step,
    simulate_follower_trace,
)
from .locks import (
    Door,
    Lock,
    LocksAttribution,
    LocksState,
    locks_attribution,
    locks_identify,
    locks_model,
)
from .stress import (
    StressState,
    basin_boundary,
    response_fixed_points,
    sigmoid_response,
    stress_identify,
    stress_model,
    stress_step,
)
from .tag import (
    TagObservation,
    TagState,
    initial_tag_state,
    run_episode,
    tag_identify,
    tag_model,
    tag_observe,
    tag_step,
)
