import struct

import numpy as np
import pytest

from metacausal.datagen import (
    Dataset,
    Direction,
    MechanismParams,
    generate_dataset,
    random_dataset,
)
from metacausal.em import (
    DegeneratePairError,
    EMConfig,
    MixtureState,
    check_convergence,
    draw_seed_state,
    em_step,
    init_from_pairs,
    matched_errors,
    mixture_log_likelihood,
    params_in_frame,
    responsibilities,
    run_em,
)
from metacausal.stats import B_FLOOR, l1_fit, laplace_logpdf, sample_laplace


def _seeded_init(dataset, k, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        idx = rng.choice(dataset.m, size=2 * k, replace=False)
        try:
            return init_from_pairs(dataset.points[idx])
        except DegeneratePairError:
            continue
    raise AssertionError("could not draw a non-degenerate init")


class TestEMConfig:
    def test_step_budgets(self):
        assert EMConfig.for_components(1).steps == 5
        assert EMConfig.for_components(2).steps == 5
        assert EMConfig.for_components(3).steps == 10
        assert EMConfig.for_components(4).steps == 10

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            EMConfig(steps=0)


class TestInitFromPairs:
    def test_two_point_line(self):
        state = init_from_pairs([(0, 1), (1, 3)])
        mech = state.mechanisms[0]
        assert (mech.alpha, mech.beta, mech.b) == (2.0, 1.0, 1.0)
        assert mech.direction is Direction.XY

    def test_vertical_pair_signals_resample(self):
        with pytest.raises(DegeneratePairError):
            init_from_pairs([(0, 0), (0, 1)])

    def test_two_pairs_two_mechanisms(self):
        state = init_from_pairs([(0, 0), (1, 1), (0, 5), (1, 4)])
        assert state.k == 2
        assert state.mechanisms[0].alpha == pytest.approx(1.0)
        assert state.mechanisms[1].alpha == pytest.approx(-1.0)


class TestDrawSeedState:
    def test_same_draws_as_a_retry_loop(self):
        ds = random_dataset(3, 0.0, seed=21)
        state = draw_seed_state(ds, 3, np.random.default_rng(4))
        expected = _seeded_init(ds, 3, 4)
        assert state.mechanisms == expected.mechanisms

    def test_redraws_degenerate_pairs(self):
        # half the points share x = 0, so some draws pair two of them
        ds = Dataset([[0.0, float(i)] for i in range(6)] + [[float(i), 0.0] for i in range(1, 7)])
        seeded = []

        def counting_init(points):
            seeded.append(points)
            return init_from_pairs(points)

        rng = np.random.default_rng(0)
        states = [draw_seed_state(ds, 2, rng, counting_init) for _ in range(20)]
        assert all(s is not None for s in states)
        assert len(seeded) > 20

    def test_gives_up_when_every_pair_is_vertical(self):
        ds = Dataset(np.array([[1.0, float(i)] for i in range(8)]))
        assert draw_seed_state(ds, 2, np.random.default_rng(0)) is None


def _column_stacked_reference(ds, mechs):
    """Responsibilities and log-likelihood from (m, k) column-stacked log-densities."""

    def logpdf(common_axis):
        cols = []
        for mech in mechs:
            col = laplace_logpdf(mech.residuals(ds.x, ds.y), (0.0, mech.b))
            if common_axis and mech.direction is Direction.YX:
                col = col + np.log(max(abs(mech.alpha), 1e-300))
            cols.append(col)
        return np.column_stack(cols)

    logp = logpdf(False)
    logp -= logp.max(axis=1, keepdims=True)
    dens = np.exp(logp)
    resp = dens / dens.sum(axis=1, keepdims=True)
    logp = logpdf(True)
    mx = logp.max(axis=1)
    loglik = float(np.sum(mx + np.log(np.mean(np.exp(logp - mx[:, None]), axis=1))))
    return resp, loglik


class TestLayout:
    MECHS = (
        MechanismParams(1.5, -0.5, 0.8, Direction.XY),
        MechanismParams(-0.4, 2.0, 1.3, Direction.YX),
        MechanismParams(3.0, 1.0, 0.2, Direction.XY),
    )

    def test_matches_column_stacked_reference_bit_for_bit(self):
        ds = random_dataset(3, 0.1, seed=19)
        resp, loglik = _column_stacked_reference(ds, self.MECHS)
        assert np.array_equal(responsibilities(ds, self.MECHS), resp)
        assert mixture_log_likelihood(ds, self.MECHS) == loglik

    def test_columns_are_contiguous(self):
        ds = random_dataset(3, 0.1, seed=19)
        assert ds.x.flags.c_contiguous and ds.y.flags.c_contiguous
        resp = responsibilities(ds, self.MECHS)
        assert resp.shape == (ds.m, 3)
        assert all(resp[:, j].flags.c_contiguous for j in range(3))


class TestResponsibilities:
    def test_single_mechanism_all_ones(self):
        ds = random_dataset(1, 0.0, seed=1)
        resp = responsibilities(ds, (MechanismParams(1.0, 0.0, 1.0),))
        assert np.all(resp == 1.0)

    def test_well_separated_point(self):
        ds = Dataset(np.array([[0.0, 0.0]]))
        near = MechanismParams(0.0, 0.0, 0.5)
        far = MechanismParams(0.0, 40.0, 0.5)
        resp = responsibilities(ds, (near, far))
        assert resp[0, 0] >= 0.99

    def test_equidistant_symmetry(self):
        ds = Dataset(np.array([[0.0, 0.0]]))
        above = MechanismParams(0.0, 1.0, 0.7)
        below = MechanismParams(0.0, -1.0, 0.7)
        resp = responsibilities(ds, (above, below))
        assert resp[0] == pytest.approx([0.5, 0.5])

    def test_rows_sum_to_one(self):
        ds = random_dataset(3, 0.1, seed=2)
        mechs = ds.generator.mechanisms
        resp = responsibilities(ds, mechs)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)


class TestEMSteps:
    def test_noiseless_line_one_step_exact(self):
        mech = MechanismParams(1.5, -0.5, B_FLOOR, Direction.XY)
        ds = generate_dataset([mech], [1.0], np.random.default_rng(3), 200)
        init = init_from_pairs(ds.points[:2])
        out = em_step(ds, run_em(ds, init, EMConfig(steps=1)))
        est = out.mechanisms[0]
        alpha, beta = params_in_frame(est, Direction.XY)
        assert alpha == pytest.approx(1.5, abs=1e-6)
        assert beta == pytest.approx(-0.5, abs=1e-6)

    def test_k1_single_component_monotone_loglik(self):
        ds = random_dataset(1, 0.0, seed=4)
        init = _seeded_init(ds, 1, 0)
        state = run_em(ds, init, EMConfig(steps=1))
        stepped = em_step(ds, state)
        assert stepped.log_likelihood >= state.log_likelihood - 1e-9

    def test_seeded_k2_converges_from_correct_pairs(self):
        ds = random_dataset(2, 0.0, seed=5)
        idx0 = np.flatnonzero(ds.labels == 0)[:2]
        idx1 = np.flatnonzero(ds.labels == 1)[:2]
        init = init_from_pairs(ds.points[np.concatenate([idx0, idx1])])
        out = run_em(ds, init, EMConfig.for_components(2))
        assert check_convergence(out.mechanisms, ds.generator.mechanisms)

    def test_starved_mechanism_frozen(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        mechs = (
            MechanismParams(1.0, 0.0, 0.5),
            MechanismParams(-7.0, 50.0, 0.5),  # lies far from all data
        )
        resp = responsibilities(ds, mechs)
        assert resp[:, 1].sum() < 2.0
        state = MixtureState(mechs, resp, mixture_log_likelihood(ds, mechs))
        out = em_step(ds, state)
        assert out.mechanisms[1] == mechs[1]


def _hand_run(ds, init, steps):
    """The projected seed state followed by ``steps`` hand-applied em_step calls."""
    mechs = init.mechanisms
    states = [MixtureState(mechs, responsibilities(ds, mechs), mixture_log_likelihood(ds, mechs))]
    for _ in range(steps):
        states.append(em_step(ds, states[-1]))
    return states


def _bits(state):
    """Mechanism directions and bits, responsibility bytes and log-likelihood bits."""
    mechs = tuple((m.direction, struct.pack("3d", m.alpha, m.beta, m.b)) for m in state.mechanisms)
    return mechs, state.responsibilities.tobytes(), struct.pack("d", state.log_likelihood)


def _count_steps(monkeypatch):
    """Count the em_step calls run_em makes from here on."""
    import metacausal.em as em_mod

    calls = {"n": 0}
    original = em_mod.em_step

    def counting(data, state):
        calls["n"] += 1
        return original(data, state)

    monkeypatch.setattr(em_mod, "em_step", counting)
    return calls


def _steps_against_full_budget(monkeypatch, ds, init, config):
    """Check that run_em gives the bits of ``config.steps`` hand-applied steps,
    in no more steps than stopping once a step returns its input mechanisms,
    and return the steps it ran."""
    states = _hand_run(ds, init, config.steps)
    mechs = [_bits(s)[0] for s in states]
    repeat = (t for t in range(1, config.steps + 1) if mechs[t] == mechs[t - 1])
    calls = _count_steps(monkeypatch)
    out = run_em(ds, init, config)
    assert _bits(out) == _bits(states[-1])
    assert calls["n"] <= next(repeat, config.steps)
    return calls["n"]


class TestRunEM:
    def test_k1_loglik_identity(self):
        ds = random_dataset(1, 0.0, seed=6)
        out = run_em(ds, _seeded_init(ds, 1, 1), EMConfig.for_components(1))
        mech = out.mechanisms[0]
        res = mech.residuals(ds.x, ds.y)
        direct = float(np.sum(-np.log(2 * mech.b) - np.abs(res) / mech.b))
        if mech.direction is Direction.YX:  # common-axis change-of-variables factor
            direct += ds.m * np.log(abs(mech.alpha))
        assert out.log_likelihood == pytest.approx(direct, rel=1e-12)

    def test_loglik_invariant_under_line_reparameterization(self):
        ds = random_dataset(1, 0.0, seed=16)
        line_xy = MechanismParams(4.0, 2.0, 1.2, Direction.XY)
        line_yx = MechanismParams(0.25, -0.5, 0.3, Direction.YX)  # same line, scale/4
        assert mixture_log_likelihood(ds, (line_xy,)) == pytest.approx(
            mixture_log_likelihood(ds, (line_yx,)), rel=1e-12
        )

    def test_exact_step_count(self, monkeypatch):
        # k = 1: every responsibility is exactly 1, so step 2 would receive the
        # responsibilities step 1 received, and the run ends after step 1.
        ds = random_dataset(1, 0.0, seed=7)
        init = _seeded_init(ds, 1, 2)
        expected = _hand_run(ds, init, 3)[-1]
        calls = _count_steps(monkeypatch)
        out = run_em(ds, init, EMConfig(steps=3))
        assert calls["n"] == 1
        assert _bits(out) == _bits(expected)

    def test_k2_runs_every_step(self, monkeypatch):
        ds = random_dataset(2, 0.0, seed=9)
        init = _seeded_init(ds, 2, 4)
        config = EMConfig.for_components(2)
        states = _hand_run(ds, init, config.steps)
        for before, after in zip(states, states[1:]):
            assert _bits(after)[0] != _bits(before)[0]
        calls = _count_steps(monkeypatch)
        out = run_em(ds, init, config)
        assert calls["n"] == config.steps
        assert _bits(out) == _bits(states[-1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_full_step_budget(self, monkeypatch, k, seed):
        ds = random_dataset(k, 0.1, seed=60 + seed, n_per_class_avg=100)
        config = EMConfig.for_components(k)
        steps = _steps_against_full_budget(monkeypatch, ds, _seeded_init(ds, k, seed), config)
        if k == 1:
            assert steps == 1

    def test_frozen_mechanism_stops_at_the_fixed_point(self, monkeypatch):
        # The far mechanism stays frozen, and the line's refit repeats from step 2.
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        mechs = (MechanismParams(1.0, 0.0, 0.5), MechanismParams(-7.0, 50.0, 0.5))
        init = MixtureState(mechs, responsibilities(ds, mechs), mixture_log_likelihood(ds, mechs))
        assert _steps_against_full_budget(monkeypatch, ds, init, EMConfig(steps=5)) == 2

    def test_k1_matches_direct_l1_fit(self):
        ds = random_dataset(1, 0.0, seed=8)
        out = run_em(ds, _seeded_init(ds, 1, 3), EMConfig.for_components(1))
        est = out.mechanisms[0]
        if est.direction is Direction.XY:
            alpha, beta = l1_fit(ds.x, ds.y)
        else:
            alpha, beta = l1_fit(ds.y, ds.x)
        assert est.alpha == pytest.approx(alpha, abs=1e-6)
        assert est.beta == pytest.approx(beta, abs=1e-6)

    def test_deterministic(self):
        ds = random_dataset(2, 0.0, seed=9)
        init = _seeded_init(ds, 2, 4)
        a = run_em(ds, init, EMConfig.for_components(2))
        b = run_em(ds, init, EMConfig.for_components(2))
        assert a.log_likelihood == b.log_likelihood
        assert a.mechanisms == b.mechanisms


class TestCheckConvergence:
    def test_exact_match(self):
        m = (MechanismParams(1.0, 0.0, 1.0), MechanismParams(2.0, 1.0, 1.0))
        assert check_convergence(m, m)

    def test_slope_off_by_more_than_tol(self):
        est = (MechanismParams(1.25, 0.0, 1.0),)
        truth = (MechanismParams(1.0, 0.0, 1.0),)
        assert not check_convergence(est, truth)

    def test_permutation_absorbed(self):
        a = MechanismParams(1.0, 0.0, 1.0)
        b = MechanismParams(2.0, 1.0, 1.0)
        assert check_convergence((b, a), (a, b))

    def test_length_mismatch_is_false(self):
        a = MechanismParams(1.0, 0.0, 1.0)
        assert not check_convergence((a,), (a, a))

    def test_flipped_frame_same_line_matches(self):
        truth = (MechanismParams(4.0, 2.0, 1.0, Direction.XY),)
        est = (MechanismParams(0.25, -0.5, 0.25, Direction.YX),)  # the inverse line
        assert check_convergence(est, truth)
        assert not check_convergence(est, truth, require_direction=True)

    def test_distinct_assignment_required(self):
        # two estimates matching the same true mechanism must not both count
        a = MechanismParams(1.0, 0.0, 1.0)
        est = (a, a)
        truth = (a, MechanismParams(3.0, 3.0, 1.0))
        assert not check_convergence(est, truth)

    def test_matched_errors_follow_the_permuted_assignment(self):
        truth = (MechanismParams(1.0, 0.0, 1.0), MechanismParams(2.0, 1.0, 1.0))
        est = (MechanismParams(2.0625, 1.125, 1.0), MechanismParams(0.875, 0.03125, 1.0))
        assert matched_errors(est, truth) == ((0.0625 + 0.125) / 2, (0.125 + 0.03125) / 2)

    def test_matched_errors_smaller_total_wins(self):
        truth = (MechanismParams(1.0, 0.0, 1.0), MechanismParams(1.125, 0.0, 1.0))
        est = (MechanismParams(1.125, 0.0, 1.0), MechanismParams(1.0, 0.0, 1.0))
        # the identity assignment is feasible too, at 0.125 per slope
        assert matched_errors(est[:1], truth[:1]) == (0.125, 0.0)
        assert matched_errors(est, truth) == (0.0, 0.0)

    @pytest.mark.parametrize("order, expected", [((0, 1), (0.0, 0.125)), ((1, 0), (0.125, 0.0))])
    def test_matched_errors_tie_keeps_earliest_permutation(self, order, expected):
        truth = (MechanismParams(1.0, 0.0, 1.0), MechanismParams(1.125, 0.125, 1.0))
        lines = (MechanismParams(1.0, 0.125, 1.0), MechanismParams(1.125, 0.0, 1.0))
        # both assignments total 0.125: one in slope, the other in intercept
        assert matched_errors(tuple(lines[i] for i in order), truth) == expected

    def test_matched_errors_none_when_infeasible(self):
        a = MechanismParams(1.0, 0.0, 1.0)
        assert matched_errors((a, a), (a, MechanismParams(3.0, 3.0, 1.0))) is None
        assert matched_errors((MechanismParams(1.25, 0.0, 1.0),), (a,)) is None
        assert matched_errors((a,), (a, a)) is None

    def test_matched_errors_in_truth_frame(self):
        truth = (MechanismParams(4.0, 2.0, 1.0, Direction.XY),)
        est = (MechanismParams(0.25, -0.53125, 0.25, Direction.YX),)  # x = y/4 - 0.53125
        assert matched_errors(est, truth) == (0.0, 0.125)
