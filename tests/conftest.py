"""Shared fixtures; the expensive tables are built once per session."""

from __future__ import annotations

import pytest

from sgtree import (
    RandomSource,
    build_ztable,
    factorial_alpha_weights,
    lambda_factorial_weights,
    rotate_word,
    sample_composition,
    uniform_weights,
)


@pytest.fixture(scope="session")
def table_uniform_small():
    return build_ztable(uniform_weights(), 12)


@pytest.fixture(scope="session")
def table_lam1_small():
    return build_ztable(lambda_factorial_weights(1), 12)


@pytest.fixture(scope="session")
def table_lam2_small():
    return build_ztable(lambda_factorial_weights(2), 12)


@pytest.fixture(scope="session")
def table_alpha05_small():
    return build_ztable(factorial_alpha_weights(0.5), 60)


@pytest.fixture(scope="session")
def table_alpha05_1500():
    """The heavyweight build shared by the large-scale verification tests."""
    return build_ztable(factorial_alpha_weights(0.5), 1500)


@pytest.fixture(scope="session")
def random_words():
    """10^4 uniformly weighted random trees of mixed sizes, as words."""
    table = build_ztable(uniform_weights(), 40)
    gen = RandomSource(90210).generator()
    words = []
    for j in range(10_000):
        n = 2 + (j % 39)
        words.append(tuple(rotate_word(sample_composition(table, n, n - 1, gen))))
    return words
