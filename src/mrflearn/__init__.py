"""Structure learning for discrete Markov random fields with
higher-order interactions, plus exact desk-scale verification oracles."""

from .model import (
    CliqueTensor,
    MarkovRandomField,
    DerivedConstants,
    NonDegeneracyReport,
    canonicalize,
    is_centered,
    clique_graph,
    validate_nondegeneracy,
    energy,
    conditional_distribution,
    compute_gamma_delta,
    condition_on,
    effective_tensor,
    noncancellation_witness,
)
from .inference import (
    CapacityError,
    JointTable,
    exact_joint,
    marginal,
    exact_conditional_mi,
    exact_nu,
    nu_from_marginals,
)
from .sampling import ERASED, SampleSet, sample_exact, gibbs_sample, erase, spawn_rng
from .estimation import (
    EmpiricalDistribution,
    InsufficientCoverageError,
    QueryCapacityError,
    QueryOracle,
    nu_hat,
    nu_hat_erased,
    nu_hat_erased_sweep,
    nu_hat_queried,
    required_samples_full,
    required_samples_erased,
    log10_required_samples_full,
    log10_required_samples_erased,
)
from .learner import (
    LearnConfig,
    NeighborhoodResult,
    GraphResult,
    mrf_nbhd,
    learn_graph,
    learn_graph_full,
    learn_graph_erased,
    learn_graph_queried,
    learn_graph_exact,
    NuEstimator,
)
from .game import (
    GameRound,
    bob_phi,
    bob_wager,
    wager_cap,
    play_round,
    expected_payoff_exact,
    expected_payoff_mc,
    payoff_lower_bound,
    DetectionFloors,
    detection_floors,
    theoretical_constants,
    payoff_upper_bound_check,
    mean_nu_over_probe_sets,
    verify_payoff_bounds,
    verify_mi_chain,
    verify_conditioned_floor,
)
from .generate import FeasibilityError, GeneratorSpec, generate_model, random_raw_model
from .experiment import EdgeScore, ExperimentReport, score_edges, run_experiment, run_trial

__version__ = "0.1.0"
