import types

import sgtree

PUBLIC_NAMES = [
    "AsymptoticPrediction",
    "BoundaryHitError",
    "CheckResult",
    "DegreeLaw",
    "DegreeProfile",
    "EnumeratedMeasure",
    "ExperimentReport",
    "ExperimentSpec",
    "PlaneTree",
    "RNG_ALGORITHM",
    "RandomSource",
    "SAMPLER_ALGORITHM",
    "TableSizeError",
    "WeightDecayError",
    "WeightSequence",
    "ZTable",
    "ball",
    "branch_sizes",
    "build_ztable",
    "center_first_order",
    "collect_samples",
    "custom_weights",
    "degree_count_scale",
    "degree_cutoff",
    "degree_profile",
    "enumerate_trees",
    "exact_nu",
    "factorial_alpha_weights",
    "gaussian_indices",
    "is_left_subtree",
    "lambda_factorial_weights",
    "left_ball",
    "load_ztable",
    "log_z_n",
    "path_tree",
    "predict",
    "predict_log_zn",
    "profile",
    "rotate_word",
    "run_experiment",
    "sample_composition",
    "sample_tree",
    "save_ztable",
    "solve_centers",
    "star_left_ball",
    "star_tree",
    "tree_distance",
    "tv_distance",
    "uniform_weights",
]


def test_public_surface_pinned():
    """Growing or shrinking the package's API means editing this list."""
    names = sorted(
        name
        for name in dir(sgtree)
        if not name.startswith("_") and not isinstance(getattr(sgtree, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


ZTABLE_ATTRIBUTES = [
    "log_table",
    "log_w",
    "log_w_list",
    "n_max",
    "root_degree_pmf",
    "row_views",
    "shift_inequality_holds",
    "sum_identity_residuals",
    "ws",
]


def test_ztable_surface_pinned():
    """The table is its float log values, a few views of them, and the laws
    and identities read from them; exact values come from exact_corner."""
    table = sgtree.build_ztable(sgtree.uniform_weights(), 3)
    assert sorted(name for name in dir(table) if not name.startswith("_")) == ZTABLE_ATTRIBUTES


WEIGHT_SEQUENCE_ATTRIBUTES = [
    "alpha",
    "exact_weight",
    "family",
    "from_config",
    "is_exact",
    "lam",
    "log_weights_upto",
    "regime",
    "shift_index",
    "table",
    "to_config",
]


def test_weight_sequence_surface_pinned():
    """Facts about a weight family (its values, exactness, growth regime and
    shift index) live on the weights; the growth exponent stays private."""
    ws = sgtree.factorial_alpha_weights(0.5)
    assert sorted(name for name in dir(ws) if not name.startswith("_")) == WEIGHT_SEQUENCE_ATTRIBUTES
