import math
from fractions import Fraction

import pytest

from sgtree import (
    PlaneTree,
    build_ztable,
    enumerate_trees,
    exact_nu,
    factorial_alpha_weights,
    lambda_factorial_weights,
    tv_distance,
    uniform_weights,
)
from sgtree.partition import exact_corner

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def test_counts_are_catalan():
    for n in range(1, 10):
        assert len(enumerate_trees(n)) == CATALAN[n - 1]


def test_enumeration_unique_and_valid():
    trees = enumerate_trees(7)
    words = {t.word for t in trees}
    assert len(words) == len(trees)
    # validity is enforced by the PlaneTree constructor on each


def test_cap():
    with pytest.raises(ValueError):
        enumerate_trees(13)
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_exact_nu_uniform():
    m = exact_nu(3, uniform_weights())
    probs = m.probabilities()
    assert probs[(1, 1, 0)] == Fraction(1, 2)
    assert probs[(2, 0, 0)] == Fraction(1, 2)
    assert sum(probs.values()) == 1


def test_exact_nu_lam1():
    m = exact_nu(3, lambda_factorial_weights(1))
    probs = m.probabilities()
    assert probs[(2, 0, 0)] == Fraction(2, 3)
    assert probs[(1, 1, 0)] == Fraction(1, 3)


def test_probabilities_sum_to_one_exactly():
    for ws in (uniform_weights(), lambda_factorial_weights(2)):
        for n in (4, 6):
            m = exact_nu(n, ws)
            assert sum(m.probabilities().values()) == 1


def test_normalization_matches_table():
    """Sum of tree weights equals Z_N = Z(N, N-1)/N, exactly."""
    for ws in (uniform_weights(), lambda_factorial_weights(2)):
        z = exact_corner(ws, 10)
        for n in range(1, 11):
            assert n * exact_nu(n, ws).total == z[n][n - 1]


def test_float_fallback_for_irrational_family():
    ws = factorial_alpha_weights(0.5)
    m = exact_nu(6, ws)
    assert not m.exact
    table = build_ztable(ws, 6)
    assert m.log_total == pytest.approx(table.log_table[6, 5] - math.log(6), abs=1e-12)


def test_log_total_when_the_path_tree_underflows():
    """At alpha = 50.5 the path tree's scaled weight is e^(-760) = 0, yet the
    stored log total still matches the table."""
    ws = factorial_alpha_weights(50.5)
    m = exact_nu(11, ws)
    assert abs(math.expm1(m.log_total - (build_ztable(ws, 11).log_table[11, 10] - math.log(11)))) <= 1e-12


def test_oracle_confirms_root_degree_law():
    """Summing the exact measure over trees with a given sigma(s)
    reproduces the closed-form law, exactly in exact mode."""
    ws = lambda_factorial_weights(2)
    table = build_ztable(ws, 8)
    for n in (5, 8):
        m = exact_nu(n, ws)
        by_sigma: dict[int, Fraction] = {}
        for t, w in m.entries:
            by_sigma[t.sigma_s] = by_sigma.get(t.sigma_s, Fraction(0)) + w
        p = table.root_degree_pmf(n)
        for sigma, mass in by_sigma.items():
            assert float(mass / m.total) == pytest.approx(p[sigma - 1], abs=1e-12)


def test_oracle_confirms_joint_law():
    """Joint (sigma(s), sigma(s_1)) = (k+1, l+1) of the exact measure is, in
    exact arithmetic at N <= 8, the forest-removal formula
    N (k+l-1) w_{k+1} w_{l+1} Z(N-2, N-1-k-l) / ((N-2) Z(N, N-1)):
    removing r, s and s_1 leaves an ordered forest of k+l-1 trees on N-2 edges."""
    ws = lambda_factorial_weights(1)
    z = exact_corner(ws, 8)
    w = [ws.exact_weight(d + 1) for d in range(8)]  # w[d] = w_{d+1}
    for n in (4, 8):
        m = exact_nu(n, ws)
        acc: dict[tuple[int, int], Fraction] = {}
        for t, weight in m.entries:
            acc[t.word[:2]] = acc.get(t.word[:2], Fraction(0)) + weight  # s_1 is at word position 1
        for k in range(1, n):
            for ell in range(n - 1):
                rest = n - 1 - k - ell
                law = Fraction(0)
                if k + ell >= 2 and rest >= 0:
                    law = Fraction(n * (k + ell - 1), n - 2) * w[k] * w[ell] * z[n - 2][rest] / z[n][n - 1]
                assert acc.get((k, ell), 0) / m.total == law


def test_tv_distance_basic():
    m = exact_nu(3, uniform_weights())
    assert tv_distance({(1, 1, 0): 1, (2, 0, 0): 1}, m) == 0
    assert tv_distance({(1, 1, 0): 3, (2, 0, 0): 2}, m) == pytest.approx(0.1)
    # disjoint support: a key the measure does not carry
    assert tv_distance({(0,): 5}, m) == 1.0


def test_zero_total_rejected():
    from sgtree import custom_weights

    # no tree of size 2 exists with w_2 = 0 (s would need degree 2)
    ws = custom_weights(["1", "0", "1"])
    with pytest.raises(ValueError):
        exact_nu(2, ws)
    m = exact_nu(3, ws)  # the star survives: s has degree 3
    assert m.probabilities()[(2, 0, 0)] == 1
