"""Acceptance suite: every release criterion at its configured tolerance.

Each check prints one ``ACCEPTANCE <id> <PASS|FAIL>`` line (visible with
``pytest -rA``) and then asserts.  Six checks are known to fail: their
configured thresholds sit beyond what these tree sizes can mathematically
produce (convergence rates of order N^(1-3a) and integer-lattice effects);
the docstrings carry the quantitative floors.  They are kept failing
rather than loosened so the gap stays visible.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest

from sgtree import (
    ExperimentSpec,
    PlaneTree,
    RandomSource,
    build_ztable,
    center_first_order,
    degree_count_scale,
    exact_nu,
    factorial_alpha_weights,
    lambda_factorial_weights,
    left_ball,
    profile,
    run_experiment,
    sample_tree,
    solve_centers,
    tree_distance,
    tv_distance,
    uniform_weights,
)
from sgtree.partition import exact_corner


def _check(cid: str, name: str, value: float, op: str, threshold: float) -> None:
    ok = value <= threshold if op == "<=" else value >= threshold
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} {name} = {value:.6g} (need {op} {threshold:g})")
    assert ok, f"{cid} {name}: measured {value:.6g}, required {op} {threshold:g}"


# -- shared runs ------------------------------------------------------------


@pytest.fixture(scope="module")
def degree_bounds_a04_report():
    spec = ExperimentSpec(
        "degree_bounds",
        {"family": "factorial_alpha", "alpha": 0.4},
        (1000,),
        samples=1000,
        seed=5040,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def degree_bounds_a05_report(table_alpha05_1500):
    spec = ExperimentSpec(
        "degree_bounds",
        {"family": "factorial_alpha", "alpha": 0.5},
        (1500,),
        samples=10_000,
        seed=5050,
    )
    return run_experiment(spec, table=table_alpha05_1500)


@pytest.fixture(scope="module")
def gaussian_a05_report(table_alpha05_1500):
    spec = ExperimentSpec(
        "gaussian_fluctuations",
        {"family": "factorial_alpha", "alpha": 0.5},
        (1500,),
        samples=10_000,
        seed=6060,
    )
    return run_experiment(spec, table=table_alpha05_1500)


# -- criterion 1: table vs enumeration --------------------------------------


def test_c1_oracle_equivalence():
    """Exact equality for rational families, 1e-12 in the log domain, N <= 9."""
    t0 = time.time()
    rational = [uniform_weights(), lambda_factorial_weights(2), lambda_factorial_weights(1)]
    worst_log = 0.0
    for ws in rational:
        table, exact = build_ztable(ws, 9), exact_corner(ws, 9)
        for n in range(1, 10):
            measure = exact_nu(n, ws)
            assert measure.total == exact[n][n - 1] / n
            worst_log = max(
                worst_log, abs(math.expm1(measure.log_total - (table.log_table[n, n - 1] - math.log(n))))
            )
    ws = factorial_alpha_weights(0.5)
    table = build_ztable(ws, 9)
    worst_irr = 0.0
    for n in range(1, 10):
        measure = exact_nu(n, ws)
        worst_irr = max(
            worst_irr, abs(math.expm1(measure.log_total - (table.log_table[n, n - 1] - math.log(n))))
        )
    elapsed = time.time() - t0
    _check("C1", "log_mode_rel_error_rational", worst_log, "<=", 1e-12)
    _check("C1", "log_mode_rel_error_alpha05", worst_irr, "<=", 1e-12)
    _check("C1", "runtime_seconds", elapsed, "<=", 60.0)


# -- criterion 2: identity suite ---------------------------------------------


def test_c2_identity_suite():
    """Size-bias identity residuals over the full 300x300 table and the
    shift inequality across the documented grid; exact mode exactly zero."""
    t0 = time.time()
    spec = ExperimentSpec(
        "identities",
        {"family": "factorial_alpha", "alpha": 0.5},
        (300,),
        seed=7070,
        eps_list=(0.1, 0.5),
    )
    report = run_experiment(spec)
    exact_spec = ExperimentSpec(
        "identities",
        {"family": "lambda_factorial", "lam": "1"},
        (20,),
        seed=7071,
        exact_upto=12,
        eps_list=(0.5,),
    )
    exact_report = run_experiment(exact_spec)
    elapsed = time.time() - t0
    _check("C2", "worst_sum_identity_residual", report.stats["worst_sum_residual"], "<=", 1e-9)
    _check(
        "C2",
        "shift_inequality_holds_everywhere",
        1.0 if report.stats["shift_inequality_all_hold"] else 0.0,
        ">=",
        1.0,
    )
    _check(
        "C2",
        "exact_mode_residual_zero",
        1.0 if exact_report.stats["exact_sum_residual_is_zero"] else 0.0,
        ">=",
        1.0,
    )
    _check("C2", "runtime_seconds", elapsed, "<=", 120.0)


# -- criterion 3: sampler exactness ------------------------------------------


def test_c3_sampler_exactness():
    """1e5 draws at N = 6 against the enumerated measure (42 trees)."""
    t0 = time.time()
    ws = lambda_factorial_weights(1)
    table = build_ztable(ws, 6)
    gen = RandomSource(303).generator()
    counts = Counter(sample_tree(table, 6, gen).word for _ in range(100_000))
    tv = tv_distance(counts, exact_nu(6, ws))
    elapsed = time.time() - t0
    _check("C3", "tv_sampler_vs_enumeration", tv, "<=", 0.02)
    _check("C3", "runtime_seconds", elapsed, "<=", 60.0)


# -- criterion 4: pinned-w_2 family at lam = 2 --------------------------------


@pytest.fixture(scope="module")
def poisson_report():
    spec = ExperimentSpec(
        "poisson_surplus",
        {"family": "lambda_factorial", "lam": "2"},
        (400,),
        samples=20_000,
        seed=404,
    )
    return run_experiment(spec)


def test_c4_partition_function_ratio(poisson_report):
    _check("C4", "zn_rel_error", poisson_report.stats["zn_rel_error"], "<=", 0.01)


def test_c4_surplus_poisson_tv(poisson_report):
    _check("C4", "tv_surplus_poisson", poisson_report.stats["tv_surplus_poisson"], "<=", 0.05)


def test_c4_branch_structure(poisson_report):
    _check(
        "C4",
        "branch_structure_frequency",
        poisson_report.stats["branch_structure_frequency"],
        ">=",
        0.95,
    )


# -- criterion 5: degree profile at alpha = 0.4 and 0.5 ------------------------


def test_c5_degree_bound_frequency(degree_bounds_a04_report):
    """Known failing: degree-4 vertices appear at rate 6^0.4 N^(-0.2)
    (~0.51 at N = 1000), so no-degree-above-3 has probability ~ e^-0.5,
    near 0.5 - far below the configured 0.99.  The rate decays only like
    N^(-0.2), so no desk-scale N reaches 0.99."""
    _check(
        "C5",
        "degree_bound_frequency",
        degree_bounds_a04_report.stats["degree_bound_frequency"],
        ">=",
        0.99,
    )


def test_c5_branch_bound_frequency(degree_bounds_a04_report):
    """Known failing: branches of size 4 arise from chained small degrees
    at rate ~ N^(1-3a) plus mixed patterns (~1.7 expected at N = 1000,
    alpha = 0.4), leaving all-branches-small probability near 0.17."""
    _check(
        "C5",
        "branch_bound_frequency",
        degree_bounds_a04_report.stats["branch_bound_frequency"],
        ">=",
        0.99,
    )


def test_c5_x2_concentration(degree_bounds_a04_report):
    """Known failing: X_2 has spread sqrt(N^0.6) ~ 7.9 around a center
    ~0.96 N^0.6, so the +-20% window captures ~87% of samples; even a
    perfectly centered window of that width caps at 2*Phi(0.2*sqrt(n_1))-1
    = 0.888 at N = 1000."""
    _check(
        "C5",
        "x2_ratio_frequency",
        degree_bounds_a04_report.stats["x2_ratio_frequency"],
        ">=",
        0.95,
    )


def test_c5_boundary_poisson_tv(degree_bounds_a05_report):
    _check(
        "C5",
        "tv_x3_poisson_sqrt2",
        degree_bounds_a05_report.stats["tv_boundary_poisson"],
        "<=",
        0.05,
    )


# -- criterion 6: Gaussian fluctuations at alpha = 0.5 -------------------------


def test_c6_gaussian_ks(gaussian_a05_report):
    """Known failing: X_2 is integer-valued with sd = N^0.25 ~ 6.2, so its
    standardized empirical cdf has jumps of phi(0)/6.2 ~ 0.064; the sup
    distance to the continuous normal cdf is therefore at least ~0.032
    before skewness (~ +0.015) and sampling noise, measured ~0.05 > 0.03."""
    _check("C6", "ks_standardized_x2", gaussian_a05_report.stats["ks_by_degree"]["2"], "<=", 0.03)


def test_c6_decorrelation(gaussian_a05_report):
    _check("C6", "max_abs_corr_x2_x3", gaussian_a05_report.stats["max_abs_corr"], "<=", 0.05)


# -- criterion 7: partition expansions -----------------------------------------


def test_c7_expansion_residuals():
    spec = ExperimentSpec(
        "logz_expansion",
        {"family": "factorial_alpha", "alpha": 0.6},
        (100, 200, 400, 800),
        seed=707,
    )
    report = run_experiment(spec)
    worst = max(report.stats["residuals_scaled"].values())
    _check("C7", "expansion_residual_over_N^(1-3a)", worst, "<=", 5.0)
    _check("C7", "coarse_ratio_at_800_low", report.stats["coarse_ratio"], ">=", 0.5)
    _check("C7", "coarse_ratio_at_800_high", report.stats["coarse_ratio"], "<=", 1.5)


@pytest.fixture(scope="module")
def dominance_report():
    spec = ExperimentSpec(
        "star_dominance",
        {"family": "factorial_alpha", "alpha": 1.5},
        (400,),
        samples=1000,
        seed=708,
    )
    return run_experiment(spec)


def test_c7_star_dominance_zn(dominance_report):
    """Known failing: the first correction to Z_N/(N-1)!^1.5 is
    (N-1)^(1-a) = (N-1)^(-0.5) ~ 0.050 at N = 400 (trees with one pendant
    path of length 2), five times the configured 0.01."""
    _check("C7", "star_dominance_zn_rel_error", dominance_report.stats["zn_rel_error"], "<=", 0.01)


def test_c7_star_dominance_frequency(dominance_report):
    """Known failing: the same correction term is non-star probability
    ~0.048, so star frequency sits near 0.95, below the configured 0.99."""
    _check("C7", "star_frequency", dominance_report.stats["star_frequency"], ">=", 0.99)


# -- criterion 8: numerical-analysis properties --------------------------------


def test_c8_gradient_matches_finite_differences():
    """Analytic gradient vs central differences at 100 random points of the
    search box, relative to max(1, |gradient|)."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for alpha, n in [(0.45, 1500), (0.4, 1000)]:
        k = 2
        scales = np.array([degree_count_scale(alpha, n, i) for i in range(1, k + 1)])
        for _ in range(50):
            m = scales * rng.uniform(0.5, 1.5, size=k)
            g = profile(alpha, n, m)[1]
            for i in range(k):
                h = 1e-4 * m[i]
                up, dn = m.copy(), m.copy()
                up[i] += h
                dn[i] -= h
                fd = (profile(alpha, n, up)[0] - profile(alpha, n, dn)[0]) / (2 * h)
                worst = max(worst, abs(g[i] - fd) / max(1.0, abs(g[i])))
    _check("C8", "gradient_vs_central_differences", worst, "<=", 1e-6)


def test_c8_center_expansion_order():
    """Solved center vs first-order expansion at alpha = 0.5 over
    N in {1e2, 1e3, 1e4}.

    The residual's exact order is N^(-2a) + N^(a-1): the second term comes
    from the half-log curvature (-1/(2m) in the gradient) and dominates at
    alpha = 1/2, where the residual times N^(1-a) converges to -1/2.  The
    ratio against that scale must stay bounded by a small constant."""
    alpha = 0.5
    worst = 0.0
    scaled_naive = []
    for n in (10**2, 10**3, 10**4):
        m1 = solve_centers(alpha, n)[0]
        rel = m1 / degree_count_scale(alpha, n, 1) - 1.0 + (1.0 - alpha) * n ** (-alpha)
        worst = max(worst, abs(rel) / (n ** (-2 * alpha) + n ** (alpha - 1)))
        scaled_naive.append(rel * n ** (2 * alpha))
    print(f"ACCEPTANCE C8 INFO residual*N^(2a) sequence = {[round(v, 3) for v in scaled_naive]}")
    _check("C8", "center_residual_over_error_scale", worst, "<=", 5.0)


# -- criterion 9: metric and topology properties --------------------------------


def test_c9_left_ball_idempotence(random_words):
    rng = np.random.default_rng(909)
    for word in random_words:
        t = PlaneTree(word)
        radius = int(rng.integers(1, 7))
        once = left_ball(t, radius)
        assert left_ball(once, radius).word == once.word
    _check("C9", "left_ball_idempotence_violations", 0.0, "<=", 0.0)


def test_c9_metric_symmetry_and_ultrametric(random_words):
    words = random_words
    n = len(words)
    violations = 0
    for j in range(0, n - 2, 3):
        t1, t2, t3 = PlaneTree(words[j]), PlaneTree(words[j + 1]), PlaneTree(words[j + 2])
        d12 = tree_distance(t1, t2)
        d21 = tree_distance(t2, t1)
        d13 = tree_distance(t1, t3)
        d23 = tree_distance(t2, t3)
        if d12 != d21:
            violations += 1
        if d13 > max(d12, d23):
            violations += 1
    _check("C9", "symmetry_and_ultrametric_violations", float(violations), "<=", 0.0)


def test_c9_left_ball_radius_monotone(random_words):
    """If left balls agree at radius R they agree at every radius below:
    the agreement set must be an initial segment of radii."""
    words = random_words
    violations = 0
    for j in range(0, len(words) - 1, 2):
        t1, t2 = PlaneTree(words[j]), PlaneTree(words[j + 1])
        agree = []
        radius = 1
        while True:
            b1, b2 = left_ball(t1, radius), left_ball(t2, radius)
            agree.append(b1.word == b2.word)
            if b1.word == t1.word and b2.word == t2.word:
                break
            radius += 1
        seen_false = False
        for a in agree:
            if not a:
                seen_false = True
            elif seen_false:
                violations += 1
                break
    _check("C9", "radius_monotone_violations", float(violations), "<=", 0.0)
