import numpy as np
import pytest

from metacausal.core import (
    AMBIGUOUS,
    NO_EDGE,
    DomainError,
    IdentificationFunction,
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


def _toy_model(encoder, candidates=None, transition=None):
    """2-variable model over integer environment states."""
    return MetaCausalModel(
        type_domain=DOMAIN,
        process=MediationProcess(
            transition=transition or (lambda s, rng=None: s + 1),
            validate=lambda s: isinstance(s, int),
        ),
        id_fn=IdentificationFunction(n=2, pair_encoder=encoder),
        candidate_states=candidates,
    )


def _sign_encoder(s, i, j):
    # edge 0 -> 1 typed by the sign of the environment integer
    if (i, j) == (0, 1):
        return POS if s >= 0 else NEG
    return NO_EDGE


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
            MetaCausalState.from_rows([["+", "-"]])
        with pytest.raises(ValueError):
            MetaCausalState(())

    def test_equality_and_hash(self):
        a = MetaCausalState.from_rows([["⊥", "+"], ["⊥", "⊥"]])
        b = MetaCausalState.from_rows([[NO_EDGE, POS], [NO_EDGE, NO_EDGE]])
        assert a == b
        assert hash(a) == hash(b)

    def test_edge_present(self):
        state = MetaCausalState.from_rows([["⊥", "+"], ["⊥", "⊥"]])
        assert edge_present(state, 0, 1)
        assert not edge_present(state, 1, 0)
        assert not edge_present(state, 0, 0)
        with pytest.raises(IndexError):
            edge_present(state, 0, 2)

    def test_all_no_edge_state(self):
        state = MetaCausalState.from_rows([["⊥"] * 2] * 2)
        assert not any(edge_present(state, i, j) for i in range(2) for j in range(2))


class TestModelParts:
    def test_size_comes_from_the_identification_function(self):
        model = _toy_model(_sign_encoder)
        assert model.n == model.id_fn.n == 2
        with pytest.raises(TypeError):
            MetaCausalModel(
                n=2,
                type_domain=DOMAIN,
                process=model.process,
                id_fn=model.id_fn,
            )

    def test_process_has_no_abstraction(self):
        with pytest.raises(TypeError):
            MediationProcess(transition=lambda s, rng=None: s, abstraction=lambda s: s)

    def test_encoder_alone_types_the_diagonal(self):
        with pytest.raises(TypeError):
            IdentificationFunction(n=2, pair_encoder=_sign_encoder, self_loops=frozenset())
        assert not hasattr(IdentificationFunction, "label")


class TestActualStateAndStep:
    def test_actual_state_reads_encoder(self):
        model = _toy_model(_sign_encoder)
        assert actual_state(model, 3).label(0, 1) == POS
        assert actual_state(model, -2).label(0, 1) == NEG

    def test_actual_state_pure(self):
        model = _toy_model(_sign_encoder)
        assert actual_state(model, 5) == actual_state(model, 5)

    def test_all_no_edge_encoder(self):
        model = _toy_model(lambda s, i, j: NO_EDGE)
        state = actual_state(model, 7)
        assert all(state.label(i, j) is NO_EDGE for i in range(2) for j in range(2))

    def test_diagonal_comes_from_the_encoder(self):
        model = _toy_model(lambda s, i, j: POS if (i, j) == (1, 1) else NO_EDGE)
        state = actual_state(model, 0)
        assert state.label(1, 1) == POS
        assert state.label(0, 0) is NO_EDGE

    def test_diagonal_label_outside_the_domain_raises(self):
        model = _toy_model(lambda s, i, j: TypeLabel("?") if i == j == 1 else NO_EDGE)
        message = r"label \? at \(1, 1\) is outside the type domain"
        with pytest.raises(DomainError, match=message):
            actual_state(model, 0)
        with pytest.raises(DomainError, match=message):
            step(model, _toy_model(_sign_encoder).id_fn.state_of(0), 0)

    def test_invalid_state_raises_domain_error(self):
        model = _toy_model(_sign_encoder)
        with pytest.raises(DomainError):
            actual_state(model, "not-an-int")

    def test_step_definitional_consistency(self):
        model = _toy_model(_sign_encoder)
        t0 = actual_state(model, -1)
        t1, s1 = step(model, t0, -1)
        assert s1 == 0
        assert t1 == actual_state(model, s1)

    def test_identity_transition_is_constant(self):
        model = _toy_model(_sign_encoder, transition=lambda s, rng=None: s)
        t0 = actual_state(model, 4)
        t1, s1 = step(model, t0, 4)
        assert (t1, s1) == (t0, 4)

    def test_label_outside_the_domain_raises(self):
        model = _toy_model(lambda s, i, j: TypeLabel("?") if (i, j) == (1, 0) else NO_EDGE)
        message = r"label \? at \(1, 0\) is outside the type domain \{\+, -, ⊥\}"
        with pytest.raises(DomainError, match=message):
            actual_state(model, 0)
        t0 = _toy_model(_sign_encoder).id_fn.state_of(0)
        with pytest.raises(DomainError, match=message):
            step(model, t0, 0)

    def test_step_checks_matrix_shape(self):
        model = _toy_model(_sign_encoder)
        wrong = MetaCausalState.from_rows([["⊥"]])
        with pytest.raises(DomainError):
            step(model, wrong, 0)

    def test_step_rejects_a_state_the_model_rejects(self):
        model = _toy_model(_sign_encoder)
        with pytest.raises(DomainError, match="'not-an-int' is outside the model's state space"):
            step(model, actual_state(model, 0), "not-an-int")


class TestInferState:
    def test_unique_candidate_returned(self):
        target = MetaCausalState.from_rows([["⊥", "+"], ["⊥", "⊥"]])
        model = _toy_model(_sign_encoder, candidates=lambda obs: frozenset({target}))
        assert infer_state(model, [1, 2, 3]) == target

    def test_multiple_candidates_ambiguous(self):
        pos = MetaCausalState.from_rows([["⊥", "+"], ["⊥", "⊥"]])
        neg = MetaCausalState.from_rows([["⊥", "-"], ["⊥", "⊥"]])
        model = _toy_model(_sign_encoder, candidates=lambda obs: frozenset({pos, neg}))
        assert infer_state(model, [1]) is AMBIGUOUS

    def test_empty_candidates_error(self):
        model = _toy_model(_sign_encoder, candidates=lambda obs: frozenset())
        with pytest.raises(NoConsistentStateError):
            infer_state(model, [1])

    def test_empty_observations_rejected(self):
        model = _toy_model(_sign_encoder, candidates=lambda obs: frozenset())
        with pytest.raises(ValueError):
            infer_state(model, [])

    def test_ambiguous_marker_repr(self):
        assert repr(AMBIGUOUS) == "Ambiguous"


class TestReducibility:
    def test_constant_encoder_reducible(self):
        model = _toy_model(lambda s, i, j: POS if (i, j) == (0, 1) else NO_EDGE)
        assert is_reducible(model, range(-5, 6))

    def test_sign_change_not_reducible(self):
        model = _toy_model(_sign_encoder)
        # stepping -1 -> 0 flips the edge type
        assert not is_reducible(model, [-1])

    def test_empty_probe_set_rejected(self):
        model = _toy_model(_sign_encoder)
        with pytest.raises(ValueError):
            is_reducible(model, [])

    def test_reducible_implies_constant_trajectories(self):
        model = _toy_model(
            lambda s, i, j: POS if (i, j) == (0, 1) else NO_EDGE
        )
        probes = list(range(-3, 4))
        assert is_reducible(model, probes)
        for s in probes:
            t = actual_state(model, s)
            for _ in range(5):
                t_next, s = step(model, t, s)
                assert t_next == t
                t = t_next

    def test_reduction_table(self):
        model = _toy_model(_sign_encoder, transition=lambda s, rng=None: s)
        table = reduction_table(model, [-2, -1, 0, 1])
        assert len(table) == 2
        assert set(table) == {0, 1}

    def test_reduction_table_requires_reducibility(self):
        model = _toy_model(_sign_encoder)
        with pytest.raises(ValueError):
            reduction_table(model, [-1])
