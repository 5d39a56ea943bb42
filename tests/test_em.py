import math
import struct
import warnings
from dataclasses import replace

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


def _evaluable_init(dataset, k, seed):
    """The retry loop, also redrawing seed lines whose residuals overflow."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        idx = rng.choice(dataset.m, size=2 * k, replace=False)
        try:
            mechs = init_from_pairs(dataset.points[idx])
        except DegeneratePairError:
            continue
        with np.errstate(over="ignore"):
            if all(np.isfinite(m.residuals(dataset.x, dataset.y)).all() for m in mechs):
                return mechs
    raise AssertionError("could not draw an evaluable init")


# EM steps run_em may take, by mechanism count.
STEP_BUDGET = {1: 5, 2: 5, 3: 10, 4: 10}


class TestInitFromPairs:
    def test_two_point_line(self):
        mechs = init_from_pairs([(0, 1), (1, 3)])
        assert mechs == (MechanismParams(2.0, 1.0, 1.0, Direction.XY),)

    @pytest.mark.parametrize("points", [np.arange(8.0), np.arange(12.0).reshape(4, 3), np.zeros((2, 2, 2))])
    def test_points_must_be_two_columns(self, points):
        with pytest.raises(ValueError, match=r"seed points must have shape \(2k, 2\)"):
            init_from_pairs(points)

    def test_vertical_pair_signals_resample(self):
        with pytest.raises(DegeneratePairError):
            init_from_pairs([(0, 0), (0, 1)])

    def test_overflowing_slope_signals_resample_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneratePairError, match="non-finite slope"):
                init_from_pairs([(0, 0), (1e-300, 1e300)])

    def test_overflowing_intercept_signals_resample_without_a_warning(self):
        # A finite slope of 1e300 / 2**-23 crosses x = 1e9 past the float range.
        x0 = 1e9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneratePairError, match="non-finite slope or intercept"):
                init_from_pairs([(x0, 0.0), (np.nextafter(x0, 2e9), 1e300)])

    def test_lines_have_the_bits_of_float64_arithmetic(self):
        pts = np.random.default_rng(0).uniform(-5.0, 5.0, (40, 2))
        for mech, p0, p1 in zip(init_from_pairs(pts), pts[0::2], pts[1::2]):
            alpha = (p1[1] - p0[1]) / (p1[0] - p0[0])
            assert (mech.alpha, mech.beta) == (alpha, p0[1] - alpha * p0[0])

    def test_two_pairs_two_mechanisms(self):
        mechs = init_from_pairs([(0, 0), (1, 1), (0, 5), (1, 4)])
        assert isinstance(mechs, tuple) and len(mechs) == 2
        assert mechs[0].alpha == pytest.approx(1.0)
        assert mechs[1].alpha == pytest.approx(-1.0)

    @pytest.mark.parametrize("points", [[(0, 1)], [(0, 1), (1, 3), (2, 2)]])
    def test_odd_point_count_rejected(self, points):
        with pytest.raises(ValueError, match="need 2k seed points") as info:
            init_from_pairs(points)
        assert not isinstance(info.value, DegeneratePairError)


class TestDrawSeedState:
    def test_same_draws_as_a_retry_loop(self):
        ds = random_dataset(3, 0.0, seed=21)
        assert draw_seed_state(ds, 3, np.random.default_rng(4)) == _seeded_init(ds, 3, 4)

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

    def test_redraws_seed_lines_that_overflow_on_the_data(self):
        # The pair at x = 0 and 1e-300 spans a line whose residual at x = 2e9
        # overflows; every other draw is kept as the plain retry loop draws it.
        ds = Dataset(np.column_stack([[0.0, 1e-300, 1e9, 2e9], [0.5, -0.5, 1.0, 0.0]]))
        redrawn = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(40):
                got = draw_seed_state(ds, 1, np.random.default_rng(seed))
                assert got == _evaluable_init(ds, 1, seed)
                assert np.isfinite(mixture_log_likelihood(ds, got))
                redrawn += got != _seeded_init(ds, 1, seed)
        assert 0 < redrawn < 40

    def test_gives_up_when_every_pair_is_vertical(self):
        ds = Dataset(np.array([[1.0, float(i)] for i in range(8)]))
        assert draw_seed_state(ds, 2, np.random.default_rng(0)) is None


def _column_stacked_reference(ds, mechs):
    """Responsibilities and log-likelihood from (m, k) column-stacked log-densities."""

    def logpdf(common_axis):
        cols = []
        for mech in mechs:
            col = laplace_logpdf(mech.residuals(ds.x, ds.y), mech.b)
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

    @pytest.mark.parametrize(
        "mech",
        [
            MechanismParams(1.0, 0.0, 1.0),
            MechanismParams(-0.4, 2.0, 1.3, Direction.YX),
            MechanismParams(1.0, 0.0, 0.01),  # far points underflow: the uniform fallback
            MechanismParams(1.0, 0.0, 5e-324),  # |r| / b overflows: the uniform fallback
            MechanismParams(1.0, 0.0, math.inf),
        ],
    )
    def test_single_mechanism_bits_match_normalised_densities(self, mech):
        # The exp/normalise pass, with the uniform fallback where it fails;
        # over one mechanism the normalising total is the density itself.
        ds = random_dataset(1, 0.1, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            logp = laplace_logpdf(mech.residuals(ds.x, ds.y), mech.b)
            dens = np.exp(logp - logp.max())
            resp = responsibilities(ds, (mech,))
        dens[~np.isfinite(dens) | (dens <= 0)] = 1.0
        assert resp.shape == (ds.m, 1) and resp[:, 0].flags.c_contiguous
        assert resp.tobytes() == (dens / dens).tobytes()

    @pytest.mark.parametrize(
        "mech, message",
        [
            (MechanismParams(1.0, 0.0, 0.0), "scale must be positive"),
            (MechanismParams(1.0, 0.0, -1.0), "scale must be positive"),
            (MechanismParams(1.0, 0.0, math.nan), "scale must be positive"),
            (MechanismParams(1e308, 0.0, 1.0), "finite"),  # residuals overflow
        ],
    )
    def test_single_mechanism_keeps_density_checks(self, mech, message):
        ds = random_dataset(1, 0.1, seed=3)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            responsibilities(ds, (mech,))

    def test_needs_a_mechanism(self):
        with pytest.raises(ValueError, match="need at least one mechanism"):
            responsibilities(random_dataset(1, 0.0, seed=1), ())

    def test_row_whose_densities_all_overflow_falls_back_to_uniform(self):
        # |r| / b overflows for both lines, so every log-density of the point
        # is -inf and its normalising total is NaN.
        ds = Dataset(np.array([[0.0, 1e303]]))
        mechs = (MechanismParams(0.0, 0.0, 1e-6), MechanismParams(1.0, 0.0, 1e-6))
        with pytest.warns(RuntimeWarning) as caught:
            resp = responsibilities(ds, mechs)
        assert resp.tolist() == [[0.5, 0.5]]
        assert sorted(str(w.message) for w in caught) == [
            "invalid value encountered in subtract",
            "overflow encountered in divide",
            "overflow encountered in divide",
        ]

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
        out = run_em(ds, init_from_pairs(ds.points[:2]))
        est = out.mechanisms[0]
        alpha, beta = params_in_frame(est, Direction.XY)
        assert alpha == pytest.approx(1.5, abs=1e-6)
        assert beta == pytest.approx(-0.5, abs=1e-6)

    def test_k1_single_component_monotone_loglik(self):
        ds = random_dataset(1, 0.0, seed=4)
        init = _seeded_init(ds, 1, 0)
        state = run_em(ds, init)
        stepped = em_step(ds, state.mechanisms, state.responsibilities)
        assert mixture_log_likelihood(ds, stepped) >= state.log_likelihood - 1e-9

    def test_seeded_k2_converges_from_correct_pairs(self):
        ds = random_dataset(2, 0.0, seed=5)
        idx0 = np.flatnonzero(ds.labels == 0)[:2]
        idx1 = np.flatnonzero(ds.labels == 1)[:2]
        init = init_from_pairs(ds.points[np.concatenate([idx0, idx1])])
        out = run_em(ds, init)
        assert check_convergence(out.mechanisms, ds.generator.mechanisms)

    def test_starved_mechanism_frozen(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        mechs = (
            MechanismParams(1.0, 0.0, 0.5),
            MechanismParams(-7.0, 50.0, 0.5),  # lies far from all data
        )
        resp = responsibilities(ds, mechs)
        assert resp[:, 1].sum() < 2.0
        assert em_step(ds, mechs, resp)[1] == mechs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refit_whose_line_overflows_on_the_data_keeps_the_mechanism(self):
        # Mechanism 0's whole weight lies on x = 0 and 1e-300: the line through
        # them has a slope near 1e300, and its residuals at x >= 1e8 overflow.
        rng = np.random.default_rng(0)
        x = np.concatenate([[0.0, 1e-300], rng.uniform(1e8, 2e9, 60)])
        ds = Dataset(np.column_stack([x, rng.uniform(-1, 1, 62) + 0.5]))
        mechs = (MechanismParams(0.0, 0.5, 1.0), MechanismParams(0.0, 0.5, 1.0))
        resp = np.zeros((62, 2))
        resp[:2, 0] = resp[2:, 1] = 1.0
        assert em_step(ds, mechs, resp)[0] == mechs[0]

    def test_responsibility_shape_checked(self):
        ds = random_dataset(2, 0.0, seed=5)
        mechs = ds.generator.mechanisms
        with pytest.raises(ValueError, match="do not match"):
            em_step(ds, mechs, responsibilities(ds, mechs[:1]))


def _hand_run(ds, mechs, steps):
    """The projected seed state followed by ``steps`` hand-applied em_step
    calls, each state with its responsibilities and log-likelihood."""

    def state(mechs):
        return MixtureState(mechs, responsibilities(ds, mechs), mixture_log_likelihood(ds, mechs))

    states = [state(mechs)]
    for _ in range(steps):
        states.append(state(em_step(ds, states[-1].mechanisms, states[-1].responsibilities)))
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

    def counting(data, mechanisms, resp):
        calls["n"] += 1
        return original(data, mechanisms, resp)

    monkeypatch.setattr(em_mod, "em_step", counting)
    return calls


def _steps_against_full_budget(monkeypatch, ds, init):
    """Check that run_em gives the bits of its full step budget applied by
    hand, in no more steps than stopping once a step returns its input
    mechanisms, and return the steps it ran."""
    steps = STEP_BUDGET[len(init)]
    states = _hand_run(ds, init, steps)
    mechs = [_bits(s)[0] for s in states]
    repeat = (t for t in range(1, steps + 1) if mechs[t] == mechs[t - 1])
    calls = _count_steps(monkeypatch)
    out = run_em(ds, init)
    assert _bits(out) == _bits(states[-1])
    assert calls["n"] <= next(repeat, steps)
    return calls["n"]


class TestRunEM:
    def test_k1_loglik_identity(self):
        ds = random_dataset(1, 0.0, seed=6)
        out = run_em(ds, _seeded_init(ds, 1, 1))
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
        expected = _hand_run(ds, init, STEP_BUDGET[1])[-1]
        calls = _count_steps(monkeypatch)
        out = run_em(ds, init)
        assert calls["n"] == 1
        assert _bits(out) == _bits(expected)

    def test_k2_runs_every_step(self, monkeypatch):
        ds = random_dataset(2, 0.0, seed=9)
        init = _seeded_init(ds, 2, 4)
        states = _hand_run(ds, init, STEP_BUDGET[2])
        for before, after in zip(states, states[1:]):
            assert _bits(after)[0] != _bits(before)[0]
        calls = _count_steps(monkeypatch)
        out = run_em(ds, init)
        assert calls["n"] == STEP_BUDGET[2]
        assert _bits(out) == _bits(states[-1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_the_full_step_budget(self, monkeypatch, k, seed):
        ds = random_dataset(k, 0.1, seed=60 + seed, n_per_class_avg=100)
        steps = _steps_against_full_budget(monkeypatch, ds, _seeded_init(ds, k, seed))
        if k == 1:
            assert steps == 1

    def test_a_second_run_reads_the_dataset_orders(self):
        ds = random_dataset(2, 0.0, seed=9, n_per_class_avg=100)
        init = _seeded_init(ds, 2, 4)
        first = run_em(ds, init)
        filled = [set(cache) for cache in ds.slope_orders]
        assert all(filled)
        second = run_em(ds, init)
        assert [set(cache) for cache in ds.slope_orders] == filled
        assert _bits(second) == _bits(first)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_step_budget_by_k(self, monkeypatch, k):
        # A stand-in step that always moves the lines never reaches a fixed point.
        import metacausal.em as em_mod

        calls = {"n": 0}

        def moving_step(data, mechanisms, resp):
            calls["n"] += 1
            return tuple(replace(m, alpha=m.alpha + 0.01) for m in mechanisms)

        monkeypatch.setattr(em_mod, "em_step", moving_step)
        ds = random_dataset(k, 0.0, seed=70 + k, n_per_class_avg=50)
        run_em(ds, _seeded_init(ds, k, 0))
        assert calls["n"] == STEP_BUDGET[k]

    @pytest.mark.parametrize("k", [1, 3])
    def test_scores_once(self, monkeypatch, k):
        import metacausal.em as em_mod

        scored = []
        original = em_mod.mixture_log_likelihood

        def counting(data, mechs):
            scored.append(mechs)
            return original(data, mechs)

        monkeypatch.setattr(em_mod, "mixture_log_likelihood", counting)
        ds = random_dataset(k, 0.1, seed=80 + k, n_per_class_avg=100)
        out = run_em(ds, _seeded_init(ds, k, 1))
        assert scored == [out.mechanisms]

    def test_frozen_mechanism_stops_at_the_fixed_point(self, monkeypatch):
        # The far mechanism stays frozen, and the line's refit repeats from step 2.
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        mechs = (MechanismParams(1.0, 0.0, 0.5), MechanismParams(-7.0, 50.0, 0.5))
        assert _steps_against_full_budget(monkeypatch, ds, mechs) == 2

    def test_k1_matches_direct_l1_fit(self):
        ds = random_dataset(1, 0.0, seed=8)
        out = run_em(ds, _seeded_init(ds, 1, 3))
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
        a = run_em(ds, init)
        b = run_em(ds, init)
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

    def test_flat_line_flipped_has_no_finite_slope(self):
        assert params_in_frame(MechanismParams(0.0, 1.0, 1.0), Direction.YX) == (math.inf, math.inf)

    def test_flipped_frame_same_line_matches(self):
        truth = (MechanismParams(4.0, 2.0, 1.0, Direction.XY),)
        est = (MechanismParams(0.25, -0.5, 0.25, Direction.YX),)  # the inverse line
        assert check_convergence(est, truth)

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
