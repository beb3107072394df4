"""Desk-scale numerical lab for critic-free policy gradients on log-linear
softmax policies with verifiable one-hot rewards: exact REINFORCE and
on-policy GRPO, instances realizing the orthogonality assumptions, and an
auditor for every constant the convergence analysis depends on.
"""

from .policy import (
    FeatureSet,
    PromptStats,
    hessian_matrix,
    hessian_quadratic_form,
    policy_gradient,
    prompt_stats,
    spectral_norm,
)
from .scenarios import (
    DIFFICULTY_TARGETS,
    difficulty_preset,
    difficulty_profile,
    orthogonal_blocks,
    random_features,
)
from .trainers import (
    RelaxedConstants,
    TrainerConfig,
    TrajectoryLog,
    cumulative_bound_check,
    run_trajectory,
    select_prompt,
    step_size,
)

__version__ = "0.1.0"
