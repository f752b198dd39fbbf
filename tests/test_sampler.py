import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgtree import (
    PlaneTree,
    RandomSource,
    build_ztable,
    custom_weights,
    exact_nu,
    factorial_alpha_weights,
    lambda_factorial_weights,
    rotate_word,
    sample_composition,
    sample_tree,
    tv_distance,
    uniform_weights,
)


def test_random_source_reproducible():
    a = RandomSource(123, 4).generator().random(5)
    b = RandomSource(123, 4).generator().random(5)
    assert np.array_equal(a, b)
    c = RandomSource(123, 5).generator().random(5)
    assert not np.array_equal(a, c)


def test_rotation_examples():
    assert rotate_word((0, 2, 0)) == [2, 0, 0]
    assert rotate_word((1, 1, 0)) == [1, 1, 0]  # already valid
    assert rotate_word((0, 0, 2)) == [2, 0, 0]
    with pytest.raises(ValueError):
        rotate_word((1, 1))  # wrong sum


@given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
def test_rotation_always_valid(raw):
    # patch the list so it sums to len-1, then the rotation must validate
    raw = list(raw)
    want = len(raw) - 1
    i = 0
    while sum(raw) > want:
        if raw[i % len(raw)] > 0:
            raw[i % len(raw)] -= 1
        i += 1
    raw[0] += want - sum(raw)
    t = PlaneTree(tuple(rotate_word(raw)))
    assert sorted(t.word) == sorted(raw)  # same outdegree multiset


def test_composition_distribution_uniform():
    """All 6 compositions of 2 into 3 slots equally likely under unit weights."""
    table = build_ztable(uniform_weights(), 5)
    gen = RandomSource(1).generator()
    counts = Counter(tuple(sample_composition(table, 3, 2, gen)) for _ in range(60_000))
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / 60_000 - 1 / 6) < 0.01


def test_composition_distribution_lam1():
    """Pinned family at lam=1: types (2,0,0) carry 2/9 each, (1,1,0) 1/9."""
    table = build_ztable(lambda_factorial_weights(1), 5)
    gen = RandomSource(2).generator()
    n = 90_000
    counts = Counter(tuple(sample_composition(table, 3, 2, gen)) for _ in range(n))
    for comp in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]:
        assert abs(counts[comp] / n - 2 / 9) < 0.01
    for comp in [(1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        assert abs(counts[comp] / n - 1 / 9) < 0.01


def test_single_slot_composition():
    table = build_ztable(uniform_weights(), 5)
    assert sample_composition(table, 1, 4, RandomSource(0).generator()) == [4]


def test_sample_tree_smallest():
    table = build_ztable(uniform_weights(), 3)
    assert sample_tree(table, 1, RandomSource(9).generator()).word == (0,)


def test_sample_tree_n3():
    table = build_ztable(lambda_factorial_weights(1), 3)
    gen = RandomSource(3).generator()
    counts = Counter(sample_tree(table, 3, gen).word for _ in range(30_000))
    assert abs(counts[(2, 0, 0)] / 30_000 - 2 / 3) < 0.01
    assert abs(counts[(1, 1, 0)] / 30_000 - 1 / 3) < 0.01


def test_exactness_tv_small_sizes():
    """TV between sampled and enumerated measures, sizes up to 7.

    The uniform size-7 case spreads mass over all 132 trees, the worst
    case for multinomial noise, hence the larger draw count there.
    """
    cases = [
        (lambda_factorial_weights(1), 4, 20_000, 0.03),
        (lambda_factorial_weights(2), 5, 20_000, 0.03),
        (lambda_factorial_weights(1), 7, 50_000, 0.02),
        (factorial_alpha_weights(0.5), 7, 100_000, 0.02),
        (uniform_weights(), 7, 100_000, 0.02),
    ]
    for ws, n_edges, draws, bound in cases:
        table = build_ztable(ws, n_edges)
        gen = RandomSource(40 + n_edges).generator()
        counts = Counter(sample_tree(table, n_edges, gen).word for _ in range(draws))
        assert tv_distance(counts, exact_nu(n_edges, ws)) < bound


def test_exactness_tv_custom_zero_weights():
    """Custom families with zero weights put -inf entries in the table
    columns that the zero-run search crosses."""
    for weights in (["1", "0", "1"], ["1", "0", "2", "0", "5", "1", "0", "3"]):
        ws = custom_weights(weights)
        table = build_ztable(ws, 7)
        gen = RandomSource(47).generator()
        counts = Counter(sample_tree(table, 7, gen).word for _ in range(50_000))
        assert tv_distance(counts, exact_nu(7, ws)) < 0.02


_PROPERTY_TABLES = [
    build_ztable(ws, 30)
    for ws in (
        uniform_weights(),
        lambda_factorial_weights(2),
        factorial_alpha_weights(0.5),
        factorial_alpha_weights(1.5),
        custom_weights(["1", "0", "1"]),
    )
]


@given(
    st.sampled_from(_PROPERTY_TABLES),
    st.integers(1, 30),
    st.integers(0, 30),
    st.integers(0, 2**32 - 1),
)
def test_composition_has_admissible_parts(table, n_slots, total, seed):
    """Any admissible (n_slots, total): n_slots parts summing to total, each
    of positive weight."""
    if table.log_table[n_slots, total] == -math.inf:
        return
    comp = sample_composition(table, n_slots, total, RandomSource(seed).generator())
    assert len(comp) == n_slots and sum(comp) == total
    assert all(table.log_w_list[d] > -math.inf for d in comp)


def test_sigma_mean_condensed():
    """E[sigma(s)] from 20,000 trees at alpha=1.5, N=400, where one vertex
    takes almost every edge, within 4.5 standard errors of the exact law."""
    n, draws = 400, 20_000
    table = build_ztable(factorial_alpha_weights(1.5), n)
    p = table.root_degree_pmf(n)
    k = np.arange(1, n + 1)
    mean = float(p @ k)
    se = math.sqrt((float(p @ k**2) - mean**2) / draws)
    gen = RandomSource(21).generator()
    sampled = sum(sample_tree(table, n, gen).word[0] + 1 for _ in range(draws)) / draws
    assert abs(sampled - mean) < 4.5 * se


def test_sigma_marginal_agreement():
    """sigma(s) frequencies from whole-tree samples match the closed-form
    law within 3 standard errors per bin."""
    ws = lambda_factorial_weights(1)
    table = build_ztable(ws, 6)
    gen = RandomSource(77).generator()
    n, draws = 6, 40_000
    p = table.root_degree_pmf(n)
    from_trees = np.zeros(n + 1)
    for _ in range(draws):
        from_trees[sample_tree(table, n, gen).word[0] + 1] += 1
    for k in range(1, n):
        se = math.sqrt(p[k] * (1 - p[k]) / draws)
        assert abs(from_trees[k + 1] / draws - p[k]) < 3.5 * se + 1e-9


def test_determinism_same_seed_same_trees():
    table = build_ztable(lambda_factorial_weights(2), 30)

    def words(stream):
        gen = RandomSource(5, stream).generator()
        return [sample_tree(table, 30, gen).word for _ in range(20)]

    first = words(7)
    assert first == words(7)
    assert first != words(8)


def test_zero_mass_rejected():
    from sgtree import custom_weights

    ws = custom_weights(["1", "0", "1"])  # only even outdegree blocks
    table = build_ztable(ws, 6)
    with pytest.raises(ValueError):
        sample_composition(table, 2, 3, RandomSource(0).generator())
