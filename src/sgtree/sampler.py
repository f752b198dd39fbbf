"""Exact sampling from the N-edge tree measure.

A tree is drawn in two stages: first a weight-proportional composition
(d_1, ..., d_N) with sum N-1 is sampled sequentially against the Z-table,
P(d_1 = d) = w_{d+1} Z(N-1, n-d) / Z(N, n); then the unique cyclic rotation
that forms a valid outdegree word is applied (harness.sample_tree chains
the two).  Every tree corresponds to
exactly N compositions of equal weight (its rotations), so the rotated
sample is distributed exactly as the tree measure.

The sequential draw alternates two steps from a state of i slots left and
remaining sum n.  First the number J of leading zero slots is drawn with one
uniform: P(J >= j) = w_1^j Z(i-j, n) / Z(i, n) falls in j, so J is found by
galloping (1, 2, 4, ...) and bisecting on column n of the table.  Then the
next part, conditioned to be non-zero, is drawn by scanning d in the fixed
order 1, n, 2, n-1, ..., which reaches a small part in about 2d steps and a
part near n in about 2(n-d).  With l non-zero parts a composition costs
O(l log N) table reads plus the scans, and its runs of zeros go into the
dense list it returns as C-level list repeats.  rotate_word finds its cut
from the l non-zero positions after one C-level scan of the word.  So the
Python work on a condensed tree (one giant part and a few small ones) is
O(l), not N; only the C-level scans and copies still touch every slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import ZTable
from .trees import _nonleaf_positions

RNG_ALGORITHM = "philox4x64"  # counter-based; (seed, stream) is the key
SAMPLER_ALGORITHM = "zero-run-search"  # the map from uniforms to compositions
_UNIFORM_BLOCK = 64  # uniforms taken from the generator per call to it


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
    Each step draws a run of zero slots by a search on the table and then
    one non-zero part by a scan (module docstring).  The part's
    probabilities sum to its share analytically, and any float shortfall
    (~1e-14 mass) falls back to the last d scanned with positive
    probability.  Uniforms come from `rng` in blocks of _UNIFORM_BLOCK.
    """
    if not (1 <= n_slots <= table.n_max and 0 <= total <= table.n_max):
        raise ValueError("arguments outside table bound")
    if table.log_table[n_slots, total] == -math.inf:
        raise ValueError(f"Z({n_slots},{total}) = 0: no admissible composition")
    log_w, rows = table.log_w_list, table.row_views
    lw1 = log_w[0]
    exp, expm1, log = math.exp, math.expm1, math.log
    uniforms: list[float] = []
    out: list[int] = []
    i, n = n_slots, total
    while i > 1 and n > 0:
        if len(uniforms) < 2:
            uniforms += rng.random(_UNIFORM_BLOCK).tolist()
        # Zero run: J >= j iff 1-u <= P(J >= j), for j = 0..i-1.
        bar = rows[i][n] + log(1.0 - uniforms.pop())
        good, bad, j = 0, i, 1
        while j < i:
            if j * lw1 + rows[i - j][n] >= bar:
                good, j = j, 2 * j
            else:
                bad = j
                break
        while bad - good > 1:
            j = (good + bad) >> 1
            if j * lw1 + rows[i - j][n] >= bar:
                good = j
            else:
                bad = j
        if good:
            out += [0] * good
            i -= good
            if i == 1:
                break
        # The next part, given that it is not zero: d = 1, n, 2, n-1, ...
        denom = rows[i][n]
        row = rows[i - 1]
        target = uniforms.pop() * -expm1(lw1 + row[n] - denom)
        acc = 0.0
        d = last = -1
        lo, hi = 1, n
        while lo <= hi:
            p = exp(log_w[lo] + row[n - lo] - denom)
            if p > 0.0:
                acc, last = acc + p, lo
                if acc > target:
                    d = lo
                    break
            if lo == hi:
                break
            p = exp(log_w[hi] + row[n - hi] - denom)
            if p > 0.0:
                acc, last = acc + p, hi
                if acc > target:
                    d = hi
                    break
            lo, hi = lo + 1, hi - 1
        if d < 0:
            d = last  # float shortfall; the run stopped, so some p > 0
        out.append(d)
        n -= d
        i -= 1
    out += [0] * (i - 1)
    out.append(n)
    return out


def rotate_word(word: Sequence[int]) -> list[int]:
    """The unique cyclic rotation of a composition with sum len-1 that is a
    valid outdegree word: start right after the first prefix-sum minimum of
    (d_i - 1)."""
    n = len(word)
    if sum(word) != n - 1:
        raise ValueError("composition must sum to length - 1")
    # The partial sums fall by one per zero, so the first minimum sits just
    # before a non-zero position p, where it is acc - p, or at the end (-1).
    acc, s_min, cut = 0, 0, n
    for p in _nonleaf_positions(word):
        if acc - p < s_min:
            s_min, cut = acc - p, p
        acc += word[p]
    return list(word[cut:]) + list(word[:cut])

