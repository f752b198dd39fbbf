import hashlib
import json
import math

import numpy as np
import pytest

from sgtree import (
    BoundaryHitError,
    ExperimentSpec,
    WeightDecayError,
    WeightSequence,
    build_ztable,
    factorial_alpha_weights,
    lambda_factorial_weights,
    predict_log_zn,
    run_experiment,
    uniform_weights,
)
from sgtree import harness, partition
from sgtree.harness import (
    DEGREE_BOUNDS,
    GAUSSIAN_FLUCTUATIONS,
    IDENTITIES,
    LOGZ_EXPANSION,
    POISSON_SURPLUS,
    STAR_CONVERGENCE,
    STAR_DOMINANCE,
    _ks_to_standard_normal,
    _tv_against_poisson,
    collect_samples,
)
from sgtree.sampler import RandomSource
from sgtree.weights import ALPHA_ABOVE_1, ALPHA_BELOW_1, LAMBDA_FAMILY


LAM1 = {"family": "lambda_factorial", "lam": "1"}  # identities-ready: A_0.1 = 11 <= 20


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentSpec("nope", LAM1, (20,))
    with pytest.raises(ValueError, match="positive sizes"):
        ExperimentSpec(IDENTITIES, LAM1, ())
    with pytest.raises(ValueError, match="samples"):
        ExperimentSpec(IDENTITIES, LAM1, (20,), samples=0)
    with pytest.raises(ValueError, match="tolerances must map names to positive numbers"):
        ExperimentSpec(IDENTITIES, LAM1, (20,), tolerances={"x": -1})
    with pytest.raises(ValueError, match="positive"):
        ExperimentSpec(IDENTITIES, LAM1, (20,), tolerances={"max_sum_residual": -1})
    with pytest.raises(ValueError, match="unknown weight family"):
        ExperimentSpec(IDENTITIES, {"family": "wat"}, (20,))
    with pytest.raises(ValueError, match="exact_upto"):
        ExperimentSpec(IDENTITIES, LAM1, (20,), exact_upto=-1)
    with pytest.raises(ValueError, match="rational"):
        ExperimentSpec(IDENTITIES, {"family": "factorial_alpha", "alpha": 0.5}, (10,), exact_upto=5)
    with pytest.raises(ValueError, match="radius"):
        ExperimentSpec(STAR_CONVERGENCE, {"family": "factorial_alpha", "alpha": 0.5}, (10,), radius=0)
    with pytest.raises(ValueError, match="eps"):
        ExperimentSpec(IDENTITIES, LAM1, (20,), eps_list=(0.5, 0.0))
    with pytest.raises(ValueError, match="eps_list"):
        ExperimentSpec(IDENTITIES, LAM1, (20,), eps_list=())
    ExperimentSpec(IDENTITIES, LAM1, (20,))  # the base every case above breaks is valid
    # each field takes its own JSON type only: no float for an int, no string or bool for a number
    identities = {"experiment": IDENTITIES, "weights": LAM1, "n_list": [20]}
    for key, value in [
        ("n_list", [12.7]),
        ("n_list", ["12"]),
        ("n_list", [True]),
        ("n_list", 12),
        ("samples", 2.5),
        ("seed", 1.5),
        ("stream", "0"),
        ("radius", 2.5),
        ("exact_upto", True),
        ("eps_list", ["0.5"]),
        ("eps_list", [True]),
        ("tolerances", {"max_sum_residual": "1e-9"}),
        ("tolerances", {"max_sum_residual": True}),
        ("tolerances", ["max_sum_residual"]),
        ("allow_large", "false"),
    ]:
        with pytest.raises(ValueError, match=key):
            ExperimentSpec.from_dict(dict(identities, **{key: value}))
    # radius is read by star_convergence only, eps_list and exact_upto by identities only
    star = {"experiment": STAR_DOMINANCE, "weights": {"family": "factorial_alpha", "alpha": 1.5}, "n_list": [10]}
    for key, value in [("radius", 5), ("eps_list", [0.2]), ("exact_upto", 5)]:
        with pytest.raises(ValueError, match=f"star_dominance does not read {key}"):
            ExperimentSpec.from_dict(dict(star, **{key: value}))
    with pytest.raises(ValueError, match="identities does not read radius"):
        ExperimentSpec.from_dict(dict(identities, radius=5))
    with pytest.raises(ValueError, match="star_convergence does not read eps_list"):
        ExperimentSpec.from_dict(dict(star, experiment=STAR_CONVERGENCE, eps_list=[0.5]))
    # the defaults, as every echoed spec carries them, are accepted anywhere
    echoed = ExperimentSpec.from_dict(dict(star, radius=3, eps_list=[0.1, 0.5], exact_upto=0))
    assert (echoed.radius, echoed.eps_list, echoed.exact_upto) == (3, (0.1, 0.5), 0)
    for experiment in (STAR_CONVERGENCE, LOGZ_EXPANSION):
        for n_list in ((80, 20), (20, 20)):
            with pytest.raises(ValueError, match="strictly increasing"):
                ExperimentSpec(experiment, {"family": "factorial_alpha", "alpha": 0.5}, n_list)
    for experiment, weights in [
        (POISSON_SURPLUS, {"family": "lambda_factorial", "lam": "2"}),
        (DEGREE_BOUNDS, {"family": "factorial_alpha", "alpha": 0.5}),
        (GAUSSIAN_FLUCTUATIONS, {"family": "factorial_alpha", "alpha": 0.5}),
        (STAR_DOMINANCE, {"family": "factorial_alpha", "alpha": 1.5}),
        (IDENTITIES, LAM1),
    ]:
        with pytest.raises(ValueError, match=experiment):  # only the largest size would run
            ExperimentSpec(experiment, weights, (10, 20))


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        POISSON_SURPLUS,
        {"family": "lambda_factorial", "lam": "2"},
        (60,),
        samples=500,
        seed=9,
        tolerances={"tv_poisson": 0.1},
    )
    again = ExperimentSpec.from_json(json.dumps(spec.to_dict()))
    assert again == spec


def test_runner_mismatched_family_rejected(monkeypatch):
    """A spec that constructs can run: weights the experiment cannot use
    fail at construction, before any table is built."""
    monkeypatch.setattr(harness, "build_ztable", lambda *args, **kwargs: pytest.fail("table built"))
    with pytest.raises(ValueError, match="poisson_surplus runs on the lambda_factorial family"):
        ExperimentSpec(POISSON_SURPLUS, {"family": "uniform"}, (20,))
    # uniform ratios never fall below eps, so there is no shift index A_eps
    with pytest.raises(WeightDecayError, match="no index below 20"):
        ExperimentSpec(IDENTITIES, {"family": "uniform"}, (20,))
    # alpha = 0.4 has A_0.1 = 317 (the least A with A^-0.4 < 0.1), past N = 300
    with pytest.raises(WeightDecayError, match="no index below 300 .* < 0.1"):
        ExperimentSpec(IDENTITIES, {"family": "factorial_alpha", "alpha": 0.4}, (300,))
    ExperimentSpec(IDENTITIES, {"family": "factorial_alpha", "alpha": 0.4}, (317,), eps_list=(0.1,))
    # the centers do not solve at alpha = 0.15, N = 700
    with pytest.raises(BoundaryHitError, match="increase n_edges"):
        ExperimentSpec(GAUSSIAN_FLUCTUATIONS, {"family": "factorial_alpha", "alpha": 0.15}, (700,))


_ANY = [STAR_CONVERGENCE, IDENTITIES]


@pytest.mark.parametrize(
    "weights, regime, kinds",
    [
        ({"family": "uniform"}, None, _ANY),
        ({"family": "custom", "weights": [1, 0, 1]}, None, _ANY),
        ({"family": "lambda_factorial", "lam": 1}, LAMBDA_FAMILY, _ANY + [POISSON_SURPLUS]),
        ({"family": "lambda_factorial", "lam": 2}, LAMBDA_FAMILY, _ANY + [POISSON_SURPLUS]),
        ({"family": "factorial_alpha", "alpha": 0.5}, ALPHA_BELOW_1,
         _ANY + [DEGREE_BOUNDS, GAUSSIAN_FLUCTUATIONS, LOGZ_EXPANSION]),
        ({"family": "factorial_alpha", "alpha": 1}, LAMBDA_FAMILY, _ANY + [POISSON_SURPLUS]),
        ({"family": "factorial_alpha", "alpha": 1.5}, ALPHA_ABOVE_1, _ANY + [STAR_DOMINANCE]),
    ],
    ids=["uniform", "custom", "lam1", "lam2", "alpha0.5", "alpha1", "alpha1.5"],
)
def test_growth_regime_decides_predictions_and_kinds(weights, regime, kinds):
    """One fact on the weights: the regime, whether log Z_N has an
    expansion, and which experiment kinds take a spec on them."""
    ws = WeightSequence.from_config(weights)
    assert ws.regime == regime
    if regime is None:
        with pytest.raises(ValueError, match="no log Z_N expansion"):
            predict_log_zn(ws, 600)
    else:
        assert math.isfinite(predict_log_zn(ws, 600))
    accepted = []
    for kind in harness._KINDS:
        try:
            ExperimentSpec(kind, weights, (600,))
        except WeightDecayError:  # uniform and [1, 0, 1] have no shift index for identities
            pass
        except ValueError as exc:
            assert str(exc).startswith(f"{kind} runs on ")
            continue
        accepted.append(kind)
    assert sorted(accepted) == sorted(kinds)


def test_alpha_one_runs_as_lam_one():
    """A poisson_surplus spec on alpha = 1 runs, and echoes the lam = 1 spelling."""
    spec = ExperimentSpec(POISSON_SURPLUS, {"family": "factorial_alpha", "alpha": 1}, (20,), samples=50)
    report = run_experiment(spec)
    assert report.to_dict()["spec"]["weights"] == {"family": "lambda_factorial", "lam": "1"}
    assert report.stats == run_experiment(ExperimentSpec(POISSON_SURPLUS, LAM1, (20,), samples=50)).stats


def test_gaussian_spec_rejects_an_unsolved_center():
    """At alpha = 0.16, N = 1000 damped Newton runs out of steps; that is the
    same error as a center outside the box."""
    with pytest.raises(BoundaryHitError, match="did not converge in 100 steps; increase n_edges"):
        ExperimentSpec(GAUSSIAN_FLUCTUATIONS, {"family": "factorial_alpha", "alpha": 0.16}, (1000,))


def test_every_draw_goes_through_the_harness_names(monkeypatch):
    """collect_samples and star_convergence draw each tree by one call each to
    harness.sample_composition and harness.rotate_word, the names a tracer
    wraps in place."""
    calls = {"sample_composition": 0, "rotate_word": 0}

    def counting(name):
        fn = getattr(harness, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    table = build_ztable(factorial_alpha_weights(0.5), 40)
    collect_samples(table, 40, 7, RandomSource(1).generator())
    assert calls == {"sample_composition": 7, "rotate_word": 7}
    spec = ExperimentSpec(STAR_CONVERGENCE, {"family": "factorial_alpha", "alpha": 0.5}, (10, 20), samples=5)
    run_experiment(spec)
    assert calls == {"sample_composition": 17, "rotate_word": 17}


def test_identities_at_one_edge_runs():
    """At N = 1 the sweep checks no shift inequality, so no A_eps is asked for."""
    report = run_experiment(ExperimentSpec(IDENTITIES, {"family": "factorial_alpha", "alpha": 0.5}, (1,)))
    assert report.passed and report.stats["shift_inequality_checked"] == 0


def test_shared_table_must_match():
    table = build_ztable(uniform_weights(), 30)
    spec = ExperimentSpec(
        STAR_CONVERGENCE, {"family": "factorial_alpha", "alpha": 0.5}, (20,), samples=10
    )
    with pytest.raises(ValueError):
        run_experiment(spec, table=table)


def test_shared_table_must_have_spec_size():
    """A larger shared table would widen the identity sweep past what the
    echoed spec reproduces (n_max 30 and 870 checks instead of 20 and 380)."""
    table = build_ztable(lambda_factorial_weights(1), 30)
    spec = ExperimentSpec(IDENTITIES, {"family": "lambda_factorial", "lam": "1"}, (20,), eps_list=(0.5,))
    with pytest.raises(ValueError, match="exactly 20"):
        run_experiment(spec, table=table)


def test_unknown_tolerance_name_rejected():
    with pytest.raises(ValueError, match="min_star_frequncy"):
        ExperimentSpec(
            STAR_DOMINANCE,
            {"family": "factorial_alpha", "alpha": 1.5},
            (30,),
            tolerances={"min_star_frequncy": 0.5},
        )


def test_unknown_spec_key_rejected():
    d = {"experiment": IDENTITIES, "weights": LAM1, "n_list": [20], "truncate": True}
    with pytest.raises(ValueError, match="truncate"):
        ExperimentSpec.from_dict(d)
    del d["truncate"]
    with pytest.raises(ValueError, match="sampels"):
        ExperimentSpec.from_json(json.dumps(dict(d, sampels=5)))
    for key in ("experiment", "weights", "n_list"):
        with pytest.raises(ValueError, match=f"missing spec keys: \\['{key}'\\]"):
            ExperimentSpec.from_dict({k: v for k, v in d.items() if k != key})
    with pytest.raises(ValueError, match="missing spec keys"):
        ExperimentSpec.from_json("{}")
    for not_object in ([], "identities", 10, None):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentSpec.from_json(json.dumps(not_object))


def test_weights_normalized_for_shared_table():
    """`"lam": 2` and `"lam": "2"` name one family, so a shared table fits both."""
    table = build_ztable(lambda_factorial_weights(2), 30)
    spec = ExperimentSpec(POISSON_SURPLUS, {"family": "lambda_factorial", "lam": 2}, (30,), samples=20, seed=1)
    assert spec.weights == {"family": "lambda_factorial", "lam": "2"}
    assert run_experiment(spec, table=table).stats == run_experiment(spec).stats


def test_poisson_surplus_stats_pinned():
    """Same seed, same statistics: pins the draws of the harness path."""
    spec = ExperimentSpec(POISSON_SURPLUS, {"family": "lambda_factorial", "lam": "2"}, (40,), samples=300, seed=7)
    stats = run_experiment(spec).stats
    assert stats["surplus_histogram"] == [36, 51, 79, 56, 36, 14, 2, 1, 2, 0, 1] + [0] * 26 + [1, 21]
    assert stats["branch_structure_frequency"] == 229 / 300
    assert (stats["n_edges"], stats["lam"]) == (40, 2.0)
    assert stats["log_zn"] == pytest.approx(108.69306454459961, rel=1e-12)
    assert stats["zn_rel_error"] == pytest.approx(0.06322238648500822, rel=1e-8)
    assert stats["tv_surplus_poisson"] == pytest.approx(0.12900922984009833, rel=1e-12)


def test_tv_against_poisson_sanity():
    gen = RandomSource(4).generator()
    draws = gen.poisson(2.0, size=40_000)
    assert _tv_against_poisson(draws, 2.0) < 0.02
    assert _tv_against_poisson(np.zeros(1000, dtype=int), 2.0) > 0.8


def test_ks_helper_sanity():
    gen = RandomSource(5).generator()
    z = gen.standard_normal(20_000)
    assert _ks_to_standard_normal(z) < 0.015
    assert _ks_to_standard_normal(z + 1.0) > 0.3


def test_collect_samples_statistics():
    table = build_ztable(uniform_weights(), 8)
    batch = collect_samples(table, 8, 200, RandomSource(6).generator(), track_degrees=(1, 2, 3))
    # handshake bookkeeping per sample: sum_i i*X_i = 2N needs all degrees,
    # but the tracked small ones must stay consistent with sigma_s
    assert (batch.sigma_s >= 2).all()
    assert (batch.max_branch_size <= 7).all()
    assert (batch.branch_size2_count >= 0).all()
    assert batch.degree_counts[1].min() >= 1  # r always counts


def test_star_convergence_runner():
    spec = ExperimentSpec(
        STAR_CONVERGENCE,
        {"family": "factorial_alpha", "alpha": 0.5},
        (60, 120, 240),
        samples=400,
        seed=12,
        radius=3,
        tolerances={"min_final_fraction": 0.75, "trend_slack": 0.08},
    )
    report = run_experiment(spec)
    assert json.loads(report.to_json())["stats"] == report.stats  # plain JSON types only
    fr = report.stats["fractions"]
    assert len(fr) == 3
    assert fr[-1] >= 0.75
    assert fr[-1] >= fr[0]
    assert report.passed
    # a star input trivially matches the star left ball at any size
    from sgtree import left_ball, star_left_ball, star_tree

    assert left_ball(star_tree(240), 3).word == star_left_ball(3).word


def test_poisson_surplus_runner_small():
    spec = ExperimentSpec(
        POISSON_SURPLUS,
        {"family": "lambda_factorial", "lam": "2"},
        (120,),
        samples=3000,
        seed=13,
        tolerances={"zn_rel_error": 0.05, "tv_poisson": 0.08, "min_branch_frequency": 0.9},
    )
    report = run_experiment(spec)
    assert json.loads(report.to_json())["stats"] == report.stats  # plain JSON types only
    assert report.passed
    assert report.stats["tv_surplus_poisson"] < 0.08


def test_degree_bounds_runner_small():
    spec = ExperimentSpec(
        DEGREE_BOUNDS,
        {"family": "factorial_alpha", "alpha": 0.5},
        (200,),
        samples=1500,
        seed=14,
        tolerances={
            "min_degree_bound_frequency": 0.5,
            "min_branch_bound_frequency": 0.35,
            # population value ~0.503 (80,000 draws); 4.5 se of 1,500 draws below it
            "min_ratio_frequency": 0.44,
            "tv_poisson": 0.08,
        },
    )
    report = run_experiment(spec)
    assert json.loads(report.to_json())["stats"] == report.stats  # plain JSON types only
    assert report.passed
    assert "tv_boundary_poisson" in report.stats


def test_logz_expansion_runner():
    spec = ExperimentSpec(
        LOGZ_EXPANSION, {"family": "factorial_alpha", "alpha": 0.6}, (50, 100, 200), seed=15
    )
    report = run_experiment(spec)
    assert json.loads(report.to_json())["stats"] == report.stats  # plain JSON types only
    assert report.passed
    assert list(report.stats["residuals"]) == ["50", "100", "200"]
    # the expansion reads no cutoff K, so an alpha below 1/171 runs
    tiny = run_experiment(ExperimentSpec(LOGZ_EXPANSION, {"family": "factorial_alpha", "alpha": 0.001}, (50, 100)))
    assert all(map(math.isfinite, tiny.stats["residuals"].values()))


def test_logz_expansion_builds_no_table(monkeypatch):
    """log Z_N comes from one row per size, with no table and no table cap."""
    monkeypatch.setattr(harness, "build_ztable", lambda *args, **kwargs: pytest.fail("table built"))
    spec = ExperimentSpec(LOGZ_EXPANSION, {"family": "factorial_alpha", "alpha": 0.6}, (50, 100), seed=15)
    assert run_experiment(spec).passed


def test_logz_expansion_rejects_a_shared_table():
    table = build_ztable(factorial_alpha_weights(0.6), 100)
    spec = ExperimentSpec(LOGZ_EXPANSION, {"family": "factorial_alpha", "alpha": 0.6}, (50, 100))
    with pytest.raises(ValueError, match="logz_expansion .* no shared table"):
        run_experiment(spec, table=table)


def test_allow_large_only_where_a_table_is_built():
    """allow_large lifts the square table's size cap, so logz_expansion,
    which builds no table, rejects it; the default stays valid in echoed specs."""
    alpha05 = {"family": "factorial_alpha", "alpha": 0.5}
    with pytest.raises(ValueError, match="logz_expansion builds no table, so it does not read allow_large"):
        ExperimentSpec(LOGZ_EXPANSION, alpha05, (20,), allow_large=True)
    assert not ExperimentSpec(LOGZ_EXPANSION, alpha05, (20,), allow_large=False).allow_large
    assert ExperimentSpec(DEGREE_BOUNDS, alpha05, (20,), allow_large=True).allow_large


def test_logz_expansion_past_the_table_cap():
    """alpha = 0.5 past the table cap without allow_large: the residual
    against predict_log_zn over N^(1-3 alpha) is 2.27 at N = 1000 and 2.14
    at N = 3000."""
    spec = ExperimentSpec(LOGZ_EXPANSION, {"family": "factorial_alpha", "alpha": 0.5}, (1000, 3000))
    report = run_experiment(spec)
    assert report.passed
    scaled = report.stats["residuals_scaled"]
    assert scaled["1000"] == pytest.approx(2.27, abs=0.01)
    assert scaled["3000"] == pytest.approx(2.14, abs=0.01)


def test_star_dominance_runner():
    spec = ExperimentSpec(
        STAR_DOMINANCE,
        {"family": "factorial_alpha", "alpha": 2.0},
        (60,),
        samples=400,
        seed=16,
        tolerances={"zn_rel_error": 0.02, "min_star_frequency": 0.95},
    )
    report = run_experiment(spec)
    assert json.loads(report.to_json())["stats"] == report.stats  # plain JSON types only
    assert report.passed
    assert report.stats["star_frequency"] >= 0.95


def test_identities_runner():
    spec = ExperimentSpec(
        IDENTITIES, {"family": "factorial_alpha", "alpha": 0.5}, (120,), exact_upto=0, seed=17
    )
    report = run_experiment(spec)
    assert json.loads(report.to_json())["stats"] == report.stats  # plain JSON types only
    assert report.passed
    assert report.stats["worst_sum_residual"] < 1e-9
    assert report.stats["shift_inequality_all_hold"]


def test_identities_exact_mode():
    spec = ExperimentSpec(
        IDENTITIES, {"family": "lambda_factorial", "lam": "1"}, (30,), exact_upto=10, seed=18
    )
    report = run_experiment(spec)
    assert report.stats["exact_sum_residual_is_zero"] is True
    assert report.passed


def test_identities_stats_pinned():
    """Same spec, same identity statistics, down to the last bit."""
    digests = []
    for spec in (
        ExperimentSpec(IDENTITIES, {"family": "factorial_alpha", "alpha": 0.5}, (120,), eps_list=(0.1, 0.5)),
        ExperimentSpec(IDENTITIES, {"family": "lambda_factorial", "lam": "1"}, (20,), exact_upto=12),
    ):
        stats = run_experiment(spec).stats
        digests.append(hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest())
    assert digests == [
        "ffbe613e89bff45cafa65899d108fef29ea0ed34a9827ef4735d7c8122b469d5",
        "8e190a815bb854411af16d91096bbdfa8aac6fdba145bb7a8ea0bf751e323cd2",
    ]


def test_identities_exact_sweep_on_shared_table(monkeypatch):
    """The spec alone sets the exact sweep: one corner of size 12 on a 20-row table."""
    sizes = []
    corner = partition.exact_corner
    monkeypatch.setattr(partition, "exact_corner", lambda ws, m: sizes.append(m) or corner(ws, m))
    table = build_ztable(lambda_factorial_weights(1), 20)
    spec = ExperimentSpec(IDENTITIES, {"family": "lambda_factorial", "lam": "1"}, (20,), exact_upto=12, eps_list=(0.5,))
    report = run_experiment(spec, table=table)
    assert sizes == [12]
    assert report.stats["exact_sum_residual_is_zero"] is True


def test_report_reproducible_from_echo():
    """Re-running the echoed spec reproduces every statistic exactly."""
    spec = ExperimentSpec(
        POISSON_SURPLUS,
        {"family": "lambda_factorial", "lam": "1"},
        (40,),
        samples=800,
        seed=19,
    )
    first = run_experiment(spec)
    echoed = ExperimentSpec.from_dict(json.loads(first.to_json())["spec"])
    second = run_experiment(echoed)
    assert first.stats == second.stats
    assert [c.to_dict() for c in first.checks] == [c.to_dict() for c in second.checks]


def test_emit_csv(tmp_path):
    spec = ExperimentSpec(
        STAR_DOMINANCE,
        {"family": "factorial_alpha", "alpha": 1.5},
        (30,),
        samples=50,
        seed=20,
        tolerances={"zn_rel_error": 0.5, "min_star_frequency": 0.5},
    )
    run_experiment(spec, emit_csv_dir=str(tmp_path))
    csv = tmp_path / "star_dominance_n30.csv"
    assert csv.exists()
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 51
    assert lines[0].startswith("sigma_s,")


def test_verdicts_are_pure_functions_of_stats():
    spec = ExperimentSpec(
        LOGZ_EXPANSION, {"family": "factorial_alpha", "alpha": 0.6}, (50, 100), seed=21
    )
    report = run_experiment(spec)
    for check in report.checks:
        if check.op == "<=":
            assert check.passed == (check.value <= check.threshold)
        else:
            assert check.passed == (check.value >= check.threshold)
