"""Exact sampling from the N-edge tree measure.

A tree is drawn in two stages: first a weight-proportional composition
(d_1, ..., d_N) with sum N-1 is sampled sequentially against the Z-table,
P(d_1 = d) = w_{d+1} Z(N-1, n-d) / Z(N, n); then the unique cyclic rotation
that forms a valid outdegree word is applied.  Every tree corresponds to
exactly N compositions of equal weight (its rotations), so the rotated
sample is distributed exactly as the tree measure.

The sequential draw scans d = 0, 1, 2, ... accumulating exact conditional
probabilities until the uniform variate is covered.  The expected scan
length is E[d_i] + 1, so a whole composition costs O(N) expected work even
though single draws can have support of size N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import ZTable
from .trees import PlaneTree

RNG_ALGORITHM = "philox4x64"  # counter-based; (seed, stream) is the key


@dataclass(frozen=True)
class RandomSource:
    """Reproducible randomness: (seed, stream) keys a Philox
    counter-based generator, so distinct streams are independent and any
    pair of integers reproduces the identical draw sequence.  The sampling
    functions take the generator(), whose state advances across calls."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        mask = (1 << 64) - 1
        key = [self.seed & mask, self.stream & mask]
        return np.random.Generator(np.random.Philox(key=key))


def sample_composition(table: ZTable, n_slots: int, total: int, rng: np.random.Generator) -> list[int]:
    """Draw (d_1, ..., d_N) with sum `total`, distributed ~ prod w_{d_i+1}.

    Requires Z(N, total) > 0; with all-positive weights that always holds.
    Each slot scans its conditional pmf from d = 0 upward; the probabilities
    sum to 1 analytically, and any float shortfall (~1e-14 mass) falls back
    to the largest d seen with positive probability.
    """
    if not (1 <= n_slots <= table.n_max and 0 <= total <= table.n_max):
        raise ValueError("arguments outside table bound")
    if table.log_table[n_slots, total] == -math.inf:
        raise ValueError(f"Z({n_slots},{total}) = 0: no admissible composition")
    if n_slots == 1:
        return [total]
    uniforms = rng.random(n_slots - 1).tolist()
    log_w, rows = table.log_w_list, table.row_views
    out: list[int] = []
    n = total
    exp = math.exp
    for i in range(n_slots, 1, -1):
        denom = rows[i][n]
        row = rows[i - 1]
        u = uniforms[n_slots - i]
        acc = 0.0
        d = 0
        last_positive = -1
        while True:
            p = exp(log_w[d] + row[n - d] - denom)
            acc += p
            if p > 0.0:
                last_positive = d
            if acc > u or d == n:
                break
            d += 1
        if acc <= u:
            d = last_positive  # float shortfall; cannot be -1 since Z(i, n) > 0
        out.append(d)
        n -= d
    out.append(n)
    return out


def rotate_word(word: Sequence[int]) -> list[int]:
    """The unique cyclic rotation of a composition with sum len-1 that is a
    valid outdegree word: start right after the first prefix-sum minimum of
    (d_i - 1)."""
    total = sum(word)
    if total != len(word) - 1:
        raise ValueError("composition must sum to length - 1")
    s = 0
    s_min = 1
    cut = 0
    for i, d in enumerate(word):
        s += d - 1
        if s < s_min:
            s_min = s
            cut = i + 1
    return list(word[cut:]) + list(word[:cut])


def sample_tree(table: ZTable, n_edges: int, rng: np.random.Generator) -> PlaneTree:
    """One exact draw from the N-edge tree measure."""
    comp = sample_composition(table, n_edges, n_edges - 1, rng)
    return PlaneTree(tuple(rotate_word(comp)))
