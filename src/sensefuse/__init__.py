"""Estimation distortion of distributed sensing systems.

A library for analyzing when separate source-channel coding ("coded"),
amplify-and-forward ("uncoded"), or a per-node mixture of the two
("hybrid") minimizes the BLUE fusion distortion of a Gaussian source
observed by K sensors over orthogonal Gaussian channels, plus greedy
searches for near-optimal hybrid policies and Monte Carlo validation of
every closed form.
"""

from .model import (
    CodingPolicy,
    PolicySearchResult,
    SensorLink,
    SystemModel,
    ValidationError,
    coding_rates,
    derived_noise_powers,
    snr_from_db,
    validate,
)
from .analytic import (
    DistortionBreakdown,
    blue_distortion,
    blue_weights,
    coded_hetero_distortion,
    coded_homo_distortion,
    coded_wins_hetero,
    coded_wins_homo,
    coded_wins_total,
    crossover_node_count,
    crossover_node_count_total,
    exp_integral_en,
    fading_coded_homo_distortion,
    hybrid_distortion,
    limiting_distortion,
    total_noise_covariance,
    total_power_distortions,
    uncoded_hetero_distortion,
    uncoded_homo_distortion,
)
from .optimize import (
    global_search,
    global_search_batch,
    group_greedy,
    group_greedy_batch,
    normalized_distortion,
    policy_error_rate,
    pure_greedy,
    sorted_greedy,
    sorted_greedy_batch,
)
from .simulate import (
    FoldedNormalSpec,
    TrialBatchStats,
    empirical_distortion,
    fading_empirical_distortion,
    generate_instance,
)

__version__ = "0.1.0"
