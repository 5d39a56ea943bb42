import math
import re

import numpy as np
import pytest

from metacausal.core import (
    AMBIGUOUS,
    NO_EDGE,
    actual_state,
    infer_state,
    is_reducible,
    step,
)
from metacausal.systems.follower import (
    EDGE_ABSENT_STATE,
    EDGE_PRESENT_STATE,
    FollowerState,
    Policy,
    follower_attribution,
    follower_identify,
    follower_model,
    simulate_follower_trace,
)
from metacausal.systems.locks import (
    Lock,
    LocksState,
    locks_attribution,
    locks_identify,
    locks_model,
)
from metacausal.systems.stress import (
    AMPLIFYING,
    NEUTRAL,
    SUPPRESSING,
    StressState,
    basin_boundary,
    loop_response,
    response_fixed_points,
    sigmoid_response,
    stress_identify,
    stress_model,
    stress_step,
    stress_transition,
)
from metacausal.systems.tag import (
    A_CHASING_STATE,
    B_CHASING_STATE,
    CHASING,
    ESCAPING,
    TagObservation,
    TagState,
    initial_tag_state,
    run_episode,
    tag_identify,
    tag_model,
    tag_observe,
    tag_step,
)


def _bisect(fn, lo, hi, iters=80):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
            flo = fn(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStressDynamics:
    def test_identify_signs(self):
        assert stress_identify(0.8) == AMPLIFYING
        assert stress_identify(0.5) == NEUTRAL
        assert stress_identify(0.2) == SUPPRESSING

    def test_identify_is_sign_of_offset_on_grid(self):
        for s in np.linspace(0.0, 1.0, 1001):
            got = stress_identify(float(s))
            want = AMPLIFYING if s > 0.5 else SUPPRESSING if s < 0.5 else NEUTRAL
            assert got == want

    def test_step_from_midpoint_suppresses(self):
        nxt = stress_step(StressState(s=0.5))
        assert nxt.d_internal == pytest.approx(0.475)
        assert nxt.s < 0.5

    def test_step_from_zero_stays_low(self):
        nxt = stress_step(StressState(s=0.0))
        assert nxt.s == pytest.approx(0.0, abs=1e-9)

    def test_high_stress_persists(self):
        state = StressState(s=0.8)
        for _ in range(100):
            state = stress_step(state)
            assert state.s > 0.5

    def test_external_stressor_flips_mode(self):
        state = StressState(s=0.3, ext=0.5)
        for _ in range(10):
            state = StressState(s=stress_step(state).s, ext=0.5)
        assert state.s > 0.5

    def test_transition_matrix_layout(self):
        high = stress_transition(None, StressState(s=0.9))
        assert [t.label for t in high.entries[0]] == ["1", "+1"]
        assert [t.label for t in high.entries[1]] == ["0", "0"]
        low = stress_transition(None, StressState(s=0.1))
        assert low.entries[0][1].label == "-1"

    def test_transition_ignores_input_matrix(self):
        s = StressState(s=0.7)
        results = {
            stress_transition(m, s)
            for m in (None, stress_transition(None, StressState(s=0.1)))
        }
        assert len(results) == 1

    def test_fixed_points_bracket_unit_interval(self):
        lo, mid, hi = response_fixed_points()
        assert lo < 0.0 < 0.5 == mid < 1.0 < hi
        assert sigmoid_response(lo) == pytest.approx(lo, abs=1e-9)
        assert sigmoid_response(hi) == pytest.approx(hi, abs=1e-9)

    def test_suppression_amplification_bands(self):
        # independent bisection oracle for the outer fixed points
        lo = _bisect(lambda x: sigmoid_response(x) - x, -0.2, 0.3)
        hi = _bisect(lambda x: sigmoid_response(x) - x, 0.7, 1.2)
        for x in np.linspace(lo + 1e-6, 0.5 - 1e-9, 400):
            assert sigmoid_response(x) < x
        for x in np.linspace(0.5 + 1e-9, hi - 1e-6, 400):
            assert sigmoid_response(x) > x

    def test_curvature_sign_opposite_to_label(self):
        # numerically differentiated second derivative: positive below the
        # midpoint, negative above (the label follows behavior, not curvature)
        h = 1e-4
        for x in np.linspace(0.05, 0.45, 50):
            d2 = (sigmoid_response(x + h) - 2 * sigmoid_response(x) + sigmoid_response(x - h)) / h**2
            assert d2 > 0
        for x in np.linspace(0.55, 0.95, 50):
            d2 = (sigmoid_response(x + h) - 2 * sigmoid_response(x) + sigmoid_response(x - h)) / h**2
            assert d2 < 0

    def test_basin_boundary_is_a_fixed_point_of_the_loop(self):
        b = basin_boundary()
        assert abs(loop_response(b) - b) <= 1e-12

    def test_basin_boundary_between_half_and_0_55(self):
        b = basin_boundary()
        assert 0.5 < b < 0.55

    def test_mode_persistence_grid(self):
        for s0 in np.linspace(0.56, 1.0, 12):
            state = StressState(s=float(s0))
            for _ in range(1000):
                state = stress_step(state)
            assert stress_identify(state.s) == AMPLIFYING
        for s0 in np.linspace(0.0, 0.45, 12):
            state = StressState(s=float(s0))
            for _ in range(1000):
                state = stress_step(state)
            assert stress_identify(state.s) == SUPPRESSING

    def test_state_bounds_validated(self):
        with pytest.raises(ValueError):
            StressState(s=1.2)
        with pytest.raises(ValueError):
            StressState(s=0.5, ext=-0.1)

    def test_identify_rejects_a_level_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="stress level must lie in"):
            stress_identify(1.5)

    def test_bisection_roots_pinned(self):
        # Each bisection ends where the function is exactly 0 at the midpoint.
        assert response_fixed_points() == (-0.004477944080865659, 0.5, 1.0044779440808655)
        assert basin_boundary() == 0.5364690290495744


class TestStressModel:
    def test_actual_state_self_edge(self):
        model = stress_model()
        state = actual_state(model, StressState(s=0.8))
        assert state.label(1, 1) == AMPLIFYING
        assert state.label(0, 1).label == "1"
        assert state.label(1, 0) is NO_EDGE

    def test_step_consistency(self):
        model = stress_model()
        s = StressState(s=0.8)
        t = actual_state(model, s)
        t_next, s_next = step(model, t, s)
        assert t_next == actual_state(model, s_next)
        assert t_next.label(1, 1) == AMPLIFYING

    def test_infer_from_single_observation(self):
        model = stress_model()
        inferred = infer_state(model, [0.2])
        assert inferred.label(1, 1) == SUPPRESSING

    def test_observation_is_a_stress_level(self):
        model = stress_model()
        with pytest.raises(ValueError):
            infer_state(model, [1.5])
        for observation in ((0.2, 0.0), StressState(0.2)):
            with pytest.raises(TypeError):
                infer_state(model, [observation])

    def test_reducibility_depends_on_probes(self):
        model = stress_model()
        with_ext = [
            StressState(s=float(s), ext=e)
            for s in np.linspace(0, 1, 21)
            for e in (0.0, 0.5)
        ]
        assert not is_reducible(model, with_ext)
        calm = [
            StressState(s=float(s))
            for s in np.concatenate([np.linspace(0, 0.45, 10), np.linspace(0.6, 1, 10)])
        ]
        assert is_reducible(model, calm)


class TestTagGame:
    def test_reference_geometry(self):
        prev = TagState(a_pos=(0.0, 0.0), b_pos=(2.0, 0.0))
        curr = TagState(a_pos=(1.0, 0.0), b_pos=(2.0, 0.0))
        state = tag_identify(prev, curr)
        assert state.label(1, 0) == CHASING  # A moves toward B
        assert state.label(0, 1) is NO_EDGE  # B did not move

    def test_departing_agent_escaping(self):
        prev = TagState(a_pos=(0.0, 0.0), b_pos=(2.0, 0.0))
        curr = TagState(a_pos=(1.0, 0.0), b_pos=(3.0, 0.0))
        state = tag_identify(prev, curr)
        assert state.label(1, 0) == CHASING
        assert state.label(0, 1) == ESCAPING

    def test_wraparound_displacements(self):
        prev = TagState(a_pos=(99.5, 0.0), b_pos=(3.0, 0.0))
        curr = TagState(a_pos=(0.5, 0.0), b_pos=(3.0, 0.0))  # crossed the seam
        state = tag_identify(prev, curr)
        assert state.label(1, 0) == CHASING

    def test_identify_matches_ground_truth_all_episodes(self):
        for seed in range(20):
            states = run_episode(500, np.random.default_rng(seed))
            for prev, curr in zip(states, states[1:]):
                matrix = tag_identify(prev, curr)
                expected = A_CHASING_STATE if prev.chaser == "A" else B_CHASING_STATE
                assert matrix == expected

    def test_flips_exactly_at_tag_events(self):
        # labels[t] reflects the roles during step t -> t+1, so a tag during
        # that step flips the label sequence at index t+1, the first
        # transition driven by the new roles
        states = run_episode(500, np.random.default_rng(3))
        labels = [
            tag_identify(p, c).label(1, 0) for p, c in zip(states, states[1:])
        ]
        flips = {
            t for t in range(1, len(labels)) if labels[t] != labels[t - 1]
        }
        swaps = {
            t
            for t in range(len(states) - 1)
            if states[t].chaser != states[t + 1].chaser
        }
        assert flips == {t + 1 for t in swaps}

    def test_episodes_contain_tags(self):
        states = run_episode(500, np.random.default_rng(0))
        tags = sum(p.chaser != c.chaser for p, c in zip(states, states[1:]))
        assert tags >= 3

    def test_infer_from_two_observations(self):
        model = tag_model()
        states = run_episode(200, np.random.default_rng(5))
        for prev, curr in zip(states, states[1:]):
            obs = (
                TagObservation(prev.a_pos, prev.b_pos),
                TagObservation(curr.a_pos, curr.b_pos),
            )
            expected = A_CHASING_STATE if prev.chaser == "A" else B_CHASING_STATE
            assert infer_state(model, obs) == expected

    def test_single_position_only_observation_ambiguous(self):
        model = tag_model()
        state = run_episode(10, np.random.default_rng(6))[-1]
        assert infer_state(model, [TagObservation(state.a_pos, state.b_pos)]) is AMBIGUOUS

    def test_single_observation_with_velocity_unique(self):
        model = tag_model()
        states = run_episode(50, np.random.default_rng(7))
        obs = tag_observe(states[-1])
        expected = A_CHASING_STATE if states[-2].chaser == "A" else B_CHASING_STATE
        assert infer_state(model, [obs]) == expected

    def test_tag_episode_not_reducible(self):
        model = tag_model()
        rng = np.random.default_rng(8)
        states = run_episode(200, rng)
        # probes include a pre-tag state, whose step flips the labels
        assert not is_reducible(model, states[:-1], np.random.default_rng(8))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chaser": "C"}, "chaser must be 'A' or 'B', got 'C'"),
            ({"b_pos": (100.0, 5.0)}, r"position \(100.0, 5.0\) outside the arena"),
        ],
    )
    def test_state_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TagState(**{"a_pos": (1.0, 1.0), "b_pos": (2.0, 2.0), **kwargs})

    def test_chaser_on_the_evader_moves_along_plus_x(self):
        state = TagState(a_pos=(10.0, 10.0), b_pos=(10.0, 10.0), chaser="B")
        after = tag_step(state, np.random.default_rng(0))
        assert after.b_vel == pytest.approx((1.2, 0.0))
        assert after.a_vel[0] > 0.0 and math.hypot(*after.a_vel) == pytest.approx(1.0)

    def test_speeds_bounded(self):
        states = run_episode(300, np.random.default_rng(9))
        for s in states[1:]:
            assert np.hypot(*s.a_vel) <= 1.2 + 1e-9
            assert np.hypot(*s.b_vel) <= 1.2 + 1e-9


class TestFollower:
    def test_following_establishes_edge(self):
        rng = np.random.default_rng(0)
        trace = simulate_follower_trace(Policy.FOLLOWING, 200, rng)
        ident = follower_identify(Policy.FOLLOWING, trace)
        assert ident.state == EDGE_PRESENT_STATE
        assert ident.edge_present

    def test_standing_still_removes_edge(self):
        rng = np.random.default_rng(1)
        trace = simulate_follower_trace(Policy.STANDING_STILL, 200, rng)
        ident = follower_identify(Policy.STANDING_STILL, trace)
        assert ident.state == EDGE_ABSENT_STATE
        assert not ident.edge_present

    def test_policy_is_meta_root_cause(self):
        rng = np.random.default_rng(2)
        trace = simulate_follower_trace(Policy.FOLLOWING, 100, rng)
        ident = follower_identify(Policy.FOLLOWING, trace)
        assert ident.meta_root_cause == "A_policy"
        assert ident.classical_root_cause == "B_X"
        still = follower_attribution(Policy.STANDING_STILL)
        assert still.meta_root_cause == "A_policy"
        assert still.classical_root_cause == "U_A"

    def test_fifty_seeded_traces_exact(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            policy = Policy.FOLLOWING if seed % 2 == 0 else Policy.STANDING_STILL
            trace = simulate_follower_trace(policy, 200, rng)
            ident = follower_identify(policy, trace)
            assert ident.edge_present == (policy is Policy.FOLLOWING)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            follower_identify(Policy.FOLLOWING, [(0.0, 1.0)] * 4)

    def test_trace_must_have_two_columns(self):
        # Three-column rows are not (a, b) pairs; nothing reshapes them into some.
        observations = [(i, 2 * i, i % 3) for i in range(8)]
        with pytest.raises(ValueError, match=r"\(8, 3\)"):
            follower_identify(Policy.FOLLOWING, observations)
        with pytest.raises(ValueError, match=r"\(8, 3\)"):
            infer_state(follower_model(), observations)
        with pytest.raises(ValueError, match=r"\(16,\)"):
            follower_identify(Policy.FOLLOWING, np.arange(16.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace_rejected_naming_its_row(self, bad):
        trace = simulate_follower_trace(Policy.FOLLOWING, 200, np.random.default_rng(0))
        trace[57, 0] = bad
        message = re.escape(f"trace must be finite, got {[bad, float(trace[57, 1])]} in row 57")
        with pytest.raises(ValueError, match=message):
            follower_identify(Policy.FOLLOWING, trace)
        with pytest.raises(ValueError, match=message):
            infer_state(follower_model(), [tuple(r) for r in trace])
        with pytest.raises(ValueError, match="in row 2"):  # too short to tell, but not finite
            infer_state(follower_model(), [tuple(r) for r in trace[55:58]])

    def test_model_infer_needs_enough_observations(self):
        model = follower_model()
        rng = np.random.default_rng(3)
        trace = simulate_follower_trace(Policy.FOLLOWING, 100, rng)
        assert infer_state(model, [tuple(r) for r in trace[:3]]) is AMBIGUOUS
        assert infer_state(model, [tuple(r) for r in trace]) == EDGE_PRESENT_STATE


class TestLocks:
    def test_opening_first_lock(self):
        att = locks_attribution(LocksState(), 1)
        assert (att.classical_delta, att.meta_changed) == (0, True)

    def test_opening_second_lock(self):
        att = locks_attribution(LocksState(lock1=Lock.OPEN), 2)
        assert (att.classical_delta, att.meta_changed) == (1, True)

    def test_symmetric_order(self):
        att = locks_attribution(LocksState(), 2)
        assert (att.classical_delta, att.meta_changed) == (0, True)

    def test_open_lock_rejected(self):
        with pytest.raises(ValueError):
            locks_attribution(LocksState(lock1=Lock.OPEN), 1)

    def test_unknown_lock_rejected(self):
        with pytest.raises(ValueError, match="lock index must be 1 or 2, got 3"):
            locks_attribution(LocksState(), 3)

    def test_locks_model_takes_no_trace(self):
        with pytest.raises(ValueError, match="does not declare observation-trace support"):
            infer_state(locks_model(), [LocksState()])

    def test_door_invariant(self):
        from metacausal.systems.locks import Door

        assert LocksState().door is Door.CLOSED
        assert LocksState(lock1=Lock.OPEN).door is Door.CLOSED
        assert LocksState(lock1=Lock.OPEN, lock2=Lock.OPEN).door is Door.OPENABLE

    def test_last_constraint_labeled_controlling(self):
        state = locks_identify(LocksState(lock1=Lock.OPEN))
        assert state.label(1, 2).label == "controlling"
        assert state.label(0, 2) is NO_EDGE

    def test_locks_model_reducible(self):
        model = locks_model()
        probes = [LocksState(l1, l2) for l1 in Lock for l2 in Lock]
        assert is_reducible(model, probes)


@pytest.mark.parametrize(
    "model, n, start",
    [
        (stress_model(), 2, lambda rng: StressState(0.8, ext=0.3)),
        (tag_model(), 2, initial_tag_state),
        (follower_model(), 2, lambda rng: FollowerState(0.0, 2.0, Policy.FOLLOWING)),
        (follower_model(), 2, lambda rng: FollowerState(0.0, 2.0, Policy.STANDING_STILL)),
        (locks_model(), 3, lambda rng: LocksState(lock2=Lock.OPEN)),
    ],
)
def test_system_models_stay_in_their_domains(model, n, start):
    # The size has one source, and step checks every label against the domain.
    assert model.n == model.id_fn.n == n
    rng = np.random.default_rng(5)
    s = start(rng)
    t = actual_state(model, s)
    for _ in range(50):
        t, s = step(model, t, s, rng)
