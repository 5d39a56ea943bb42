import numpy as np
import pytest

from metacausal import core
from metacausal.core import (
    AMBIGUOUS,
    NO_EDGE,
    DomainError,
    MediationProcess,
    MetaCausalModel,
    MetaCausalState,
    NoConsistentStateError,
    TypeDomain,
    TypeLabel,
    actual_state,
    edge_present,
    infer_state,
    is_reducible,
    reduction_table,
    step,
)

POS = TypeLabel("+")
NEG = TypeLabel("-")
DOMAIN = TypeDomain((POS, NEG, NO_EDGE))


def _toy_model(identify, candidates=None, transition=None):
    """2-variable model over integer environment states."""
    return MetaCausalModel(
        type_domain=DOMAIN,
        process=MediationProcess(
            transition=transition or (lambda s, rng=None: s + 1),
            validate=lambda s: isinstance(s, int),
        ),
        identify=identify,
        candidate_states=candidates,
    )


def _edge_01(label):
    """The 2-variable state whose only entry off the no-edge label is (0, 1)."""
    return MetaCausalState([[NO_EDGE, label], [NO_EDGE, NO_EDGE]])


def _sign_identify(s):
    # edge 0 -> 1 typed by the sign of the environment integer
    return _edge_01(POS if s >= 0 else NEG)


class TestTypeDomain:
    def test_requires_exactly_one_no_edge(self):
        with pytest.raises(ValueError):
            TypeDomain((POS, NEG))
        with pytest.raises(ValueError):
            TypeDomain((NO_EDGE, NO_EDGE, POS))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TypeDomain((POS, POS, NO_EDGE))

    def test_membership(self):
        assert POS in DOMAIN
        assert "+" in DOMAIN
        assert TypeLabel("?") not in DOMAIN


class TestMetaCausalState:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            MetaCausalState([["+", "-"]])
        with pytest.raises(ValueError):
            MetaCausalState(())

    def test_equality_and_hash(self):
        a = MetaCausalState([["⊥", "+"], ["⊥", "⊥"]])
        b = MetaCausalState([[NO_EDGE, POS], [NO_EDGE, NO_EDGE]])
        assert a == b
        assert hash(a) == hash(b)
        assert a.entries == ((NO_EDGE, POS), (NO_EDGE, NO_EDGE))
        assert not hasattr(MetaCausalState, "from_rows")

    def test_edge_present(self):
        state = MetaCausalState([["⊥", "+"], ["⊥", "⊥"]])
        assert edge_present(state, 0, 1)
        assert not edge_present(state, 1, 0)
        assert not edge_present(state, 0, 0)
        assert not hasattr(MetaCausalState, "edge_present")

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (0, 2), (-2, -1)])
    def test_entries_outside_the_matrix_raise(self, i, j):
        state = MetaCausalState([["⊥", "+"], ["⊥", "⊥"]])
        message = rf"edge index \({i}, {j}\) out of range for n=2"
        with pytest.raises(IndexError, match=message):
            state.label(i, j)
        with pytest.raises(IndexError, match=message):
            edge_present(state, i, j)

    def test_all_no_edge_state(self):
        state = MetaCausalState([["⊥"] * 2] * 2)
        assert not any(edge_present(state, i, j) for i in range(2) for j in range(2))


class TestModelParts:
    def test_size_comes_from_the_identification_function(self):
        # The identified matrix is the one source of the size: the model has
        # no n, and no per-pair encoder class is left beside the function.
        model = _toy_model(_sign_identify)
        assert actual_state(model, 0).n == 2
        assert not hasattr(model, "n")
        assert not hasattr(core, "IdentificationFunction")
        for extra in ({"n": 2}, {"id_fn": _sign_identify}):
            with pytest.raises(TypeError):
                MetaCausalModel(type_domain=DOMAIN, process=model.process, identify=_sign_identify, **extra)

    def test_process_has_no_abstraction(self):
        with pytest.raises(TypeError):
            MediationProcess(transition=lambda s, rng=None: s, abstraction=lambda s: s)


class TestActualStateAndStep:
    def test_actual_state_reads_encoder(self):
        model = _toy_model(_sign_identify)
        assert actual_state(model, 3).label(0, 1) == POS
        assert actual_state(model, -2).label(0, 1) == NEG

    def test_actual_state_pure(self):
        model = _toy_model(_sign_identify)
        assert actual_state(model, 5) == actual_state(model, 5)

    def test_all_no_edge_encoder(self):
        model = _toy_model(lambda s: MetaCausalState([[NO_EDGE] * 2] * 2))
        state = actual_state(model, 7)
        assert all(state.label(i, j) is NO_EDGE for i in range(2) for j in range(2))

    def test_diagonal_comes_from_the_encoder(self):
        model = _toy_model(lambda s: MetaCausalState([[NO_EDGE, NO_EDGE], [NO_EDGE, POS]]))
        state = actual_state(model, 0)
        assert state.label(1, 1) == POS
        assert state.label(0, 0) is NO_EDGE

    def test_diagonal_label_outside_the_domain_raises(self):
        model = _toy_model(lambda s: MetaCausalState([["⊥", "⊥"], ["⊥", "?"]]))
        message = r"label \? at \(1, 1\) is outside the type domain"
        with pytest.raises(DomainError, match=message):
            actual_state(model, 0)
        with pytest.raises(DomainError, match=message):
            step(model, _sign_identify(0), 0)

    def test_invalid_state_raises_domain_error(self):
        model = _toy_model(_sign_identify)
        with pytest.raises(DomainError):
            actual_state(model, "not-an-int")

    def test_step_definitional_consistency(self):
        model = _toy_model(_sign_identify)
        t0 = actual_state(model, -1)
        t1, s1 = step(model, t0, -1)
        assert s1 == 0
        assert t1 == actual_state(model, s1)

    def test_identity_transition_is_constant(self):
        model = _toy_model(_sign_identify, transition=lambda s, rng=None: s)
        t0 = actual_state(model, 4)
        t1, s1 = step(model, t0, 4)
        assert (t1, s1) == (t0, 4)

    def test_label_outside_the_domain_raises(self):
        model = _toy_model(lambda s: MetaCausalState([["⊥", "⊥"], ["?", "⊥"]]))
        message = r"label \? at \(1, 0\) is outside the type domain \{\+, -, ⊥\}"
        with pytest.raises(DomainError, match=message):
            actual_state(model, 0)
        t0 = _sign_identify(0)
        with pytest.raises(DomainError, match=message):
            step(model, t0, 0)

    def test_step_checks_matrix_shape(self):
        model = _toy_model(_sign_identify)
        wrong = MetaCausalState([["⊥"]])
        with pytest.raises(DomainError, match="state matrix has n=1, the identified successor has n=2"):
            step(model, wrong, 0)

    def test_step_rejects_a_state_the_model_rejects(self):
        model = _toy_model(_sign_identify)
        with pytest.raises(DomainError, match="'not-an-int' is outside the model's state space"):
            step(model, actual_state(model, 0), "not-an-int")


class TestInferState:
    def test_unique_candidate_returned(self):
        target = MetaCausalState([["⊥", "+"], ["⊥", "⊥"]])
        model = _toy_model(_sign_identify, candidates=lambda obs: frozenset({target}))
        assert infer_state(model, [1, 2, 3]) == target

    def test_multiple_candidates_ambiguous(self):
        pos = MetaCausalState([["⊥", "+"], ["⊥", "⊥"]])
        neg = MetaCausalState([["⊥", "-"], ["⊥", "⊥"]])
        model = _toy_model(_sign_identify, candidates=lambda obs: frozenset({pos, neg}))
        assert infer_state(model, [1]) is AMBIGUOUS

    def test_empty_candidates_error(self):
        model = _toy_model(_sign_identify, candidates=lambda obs: frozenset())
        with pytest.raises(NoConsistentStateError):
            infer_state(model, [1])

    def test_empty_observations_rejected(self):
        model = _toy_model(_sign_identify, candidates=lambda obs: frozenset())
        with pytest.raises(ValueError):
            infer_state(model, [])

    def test_ambiguous_marker_repr(self):
        assert repr(AMBIGUOUS) == "Ambiguous"


class TestReducibility:
    def test_constant_encoder_reducible(self):
        model = _toy_model(lambda s: _edge_01(POS))
        assert is_reducible(model, range(-5, 6))

    def test_sign_change_not_reducible(self):
        model = _toy_model(_sign_identify)
        # stepping -1 -> 0 flips the edge type
        assert not is_reducible(model, [-1])

    def test_empty_probe_set_rejected(self):
        model = _toy_model(_sign_identify)
        with pytest.raises(ValueError):
            is_reducible(model, [])

    def test_reducible_implies_constant_trajectories(self):
        model = _toy_model(lambda s: _edge_01(POS))
        probes = list(range(-3, 4))
        assert is_reducible(model, probes)
        for s in probes:
            t = actual_state(model, s)
            for _ in range(5):
                t_next, s = step(model, t, s)
                assert t_next == t
                t = t_next

    def test_reduction_table(self):
        model = _toy_model(_sign_identify, transition=lambda s, rng=None: s)
        table = reduction_table(model, [-2, -1, 0, 1])
        assert len(table) == 2
        assert set(table) == {0, 1}

    def test_reduction_table_keeps_first_appearance_order(self):
        model = _toy_model(_sign_identify, transition=lambda s, rng=None: s)
        pos, neg = actual_state(model, 0), actual_state(model, -1)
        assert reduction_table(model, [3, -1, 2, -4, 0]) == {0: pos, 1: neg}
        assert list(reduction_table(model, [-1, 3, -2]).values()) == [neg, pos]

    def test_each_probe_is_identified_twice(self):
        calls = []

        def identify(s):
            calls.append(s)
            return _edge_01(POS)

        model = _toy_model(identify, transition=lambda s, rng=None: s)
        reduction_table(model, [1, 2, 3])
        assert calls == [1, 1, 2, 2, 3, 3]  # before and after each step, the whole matrix each time

    def test_the_check_stops_stepping_at_the_first_probe_that_moves(self):
        stepped = []

        def transition(s, rng=None):
            stepped.append(s)
            return s + 1

        model = _toy_model(_sign_identify, transition=transition)
        assert not is_reducible(model, [3, -1, 5])
        assert stepped == [3, -1]

    def test_reduction_table_requires_reducibility(self):
        model = _toy_model(_sign_identify)
        with pytest.raises(ValueError):
            reduction_table(model, [-1])
