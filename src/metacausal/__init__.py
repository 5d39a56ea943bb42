"""Meta-causal models and switching-mechanism discovery.

A meta-causal state is an N x N matrix of type labels generalizing a causal
adjacency matrix; a meta-causal model is a finite-state machine over such
states driven by an environment process.  This package provides:

- the core formalism (states, models, state inference, reducibility checks),
- three worked dynamical systems (pursuit game, follower attribution,
  stress-fatigue) expressed as meta-causal models,
- an unsupervised pipeline that recovers the number and parameters of
  switching linear Laplace mechanisms from bivariate data (RANSAC-restarted
  EM with weighted median regression and Anderson-Darling validation),
- worst-case and empirical resample-count bounds for the restart budget,
- a batch CLI (``metacausal``) for dataset generation, discovery runs,
  bound tables, simulations, and reproduction of the reference tables.
"""

from .bounds import (
    empirical_resamples,
    expected_success_prob,
    lower_bound_success_prob,
    required_resamples,
    table2_theoretical,
)
from .core import (
    AMBIGUOUS,
    NO_EDGE,
    Ambiguous,
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
from .datagen import (
    Dataset,
    Direction,
    GeneratorInfo,
    MechanismParams,
    class_probabilities,
    generate_dataset,
    random_dataset,
    read_dataset_csv,
    sample_mechanisms,
    write_dataset_csv,
)
from .discovery import (
    DiscoveryConfig,
    DiscoveryResult,
    KDiagnostics,
    dominance_filter,
    lo_ransac_best,
    recover_mechanism_count,
    validate_k,
)
from .em import (
    EMConfig,
    MixtureState,
    check_convergence,
    em_step,
    init_from_pairs,
    mixture_log_likelihood,
    params_in_frame,
    responsibilities,
    run_em,
)
from .stats import (
    ADTestResult,
    DegenerateFitError,
    InsufficientDataError,
    LaplaceParams,
    anderson_darling_laplace,
    calibrate_critical_values,
    estimate_scale,
    l1_fit,
    laplace_cdf,
    laplace_logpdf,
    load_critical_values,
    sample_laplace,
)

__version__ = "0.1.0"
