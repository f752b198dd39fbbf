"""Simply generated random plane trees with rapidly growing branching weights.

Exact log-domain partition-function tables, exact sequential samplers with
the cycle-lemma rotation, tree statistics under the left-ball local
topology, closed-form and variational asymptotic predictions, and an
experiment harness that verifies the condensation picture at desk scale.
"""

from .asymptotics import (
    AsymptoticPrediction,
    BoundaryHitError,
    DegreeLaw,
    center_first_order,
    degree_count_scale,
    degree_cutoff,
    gaussian_indices,
    predict,
    predict_log_zn,
    profile,
    solve_centers,
)
from .harness import (
    CheckResult,
    ExperimentReport,
    ExperimentSpec,
    collect_samples,
    run_experiment,
    sample_tree,
)
from .oracle import EnumeratedMeasure, enumerate_trees, exact_nu, tv_distance
from .partition import (
    TableSizeError,
    ZTable,
    build_ztable,
    load_ztable,
    log_z_n,
    save_ztable,
)
from .sampler import (
    RNG_ALGORITHM,
    SAMPLER_ALGORITHM,
    RandomSource,
    sample_composition,
)
from .trees import (
    DegreeProfile,
    PlaneTree,
    ball,
    branch_sizes,
    degree_profile,
    is_left_subtree,
    left_ball,
    path_tree,
    rotate_word,
    star_left_ball,
    star_tree,
    tree_distance,
)
from .weights import (
    WeightDecayError,
    WeightSequence,
    custom_weights,
    factorial_alpha_weights,
    lambda_factorial_weights,
    uniform_weights,
)

__version__ = "0.1.0"
