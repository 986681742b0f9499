"""Simulator and analysis toolkit for one-hot social-sampling consensus.

Agents hold probability-vector estimates of an initial empirical opinion
distribution, exchange single randomly sampled one-hot messages over random
doubly stochastic networks, and update by decreasing-step stochastic
approximation.  The package simulates the protocol, predicts its consensus
limit and asymptotic covariance, and verifies both against Monte Carlo
trials.
"""

from .analysis import (
    asymptotic_report,
    build_projection,
    empirical_scaled_covariance,
    joint_stability_margin,
    lyapunov_residual,
    lyapunov_solve,
    q_star_prediction,
    reduced_drift,
    s0_matrix,
    s_tilde,
)
from .dynamics import (
    StepSchedule,
    TrialAborted,
    TrialResults,
    default_checkpoints,
    noise_norm_bound,
    run_chunk,
)
from .harness import (
    ExperimentConfig,
    audit_assumptions,
    config_digest,
    derive_trial_seed,
    load_config,
    replay_trial,
    run_experiment,
    run_trials,
)
from .network import (
    WeightMatrixModel,
    birkhoff_model,
    fixed_model,
    iid_model,
    jointly_connected,
    mean_matrix,
    metropolis_complete,
    spectral_gap,
    strongly_connected,
    switching_model,
    topology,
    union_window_connected,
    validate_doubly_stochastic,
)
from .sampling import (
    SamplingPolicy,
    categorical_covariance,
    message_uniform_blocks,
    substreams,
)
from .state import (
    as_opinion_vector,
    consensus_error,
    initial_state,
    network_average,
)

__version__ = "0.1.0"
