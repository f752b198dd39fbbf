"""Brute-force ground truth at small sizes.

Exhaustive enumeration of all plane trees with N edges (there are
Catalan(N-1) of them) and the exact tree measure over them.  Rational
weight families get Fraction arithmetic end to end; irrational ones fall
back to high-precision floats, adequate for the 1e-12 comparisons used in
verification because every quantity at these sizes is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .trees import PlaneTree
from .weights import WeightSequence

ENUMERATION_CAP = 12  # Catalan(11) = 58786 trees; exact arithmetic stays fast

Weight = Union[Fraction, float]


def _words(n_edges: int) -> Iterator[tuple[int, ...]]:
    """All valid outdegree words of the given length, pruned prefix-first."""
    word = [0] * n_edges

    def extend(pos: int, prefix: int) -> Iterator[tuple[int, ...]]:
        # prefix carries sum(d_i - 1) so far; it must stay >= 0 until the
        # final position and drop to -1 exactly at the end.
        remaining = n_edges - pos
        if remaining == 1:
            if prefix == 0:
                word[pos] = 0
                yield tuple(word)
            return
        lo = max(0, 1 - prefix)
        hi = remaining - 1 - prefix  # larger d leaves too few slots to close
        for d in range(lo, hi + 1):
            word[pos] = d
            yield from extend(pos + 1, prefix + d - 1)

    return extend(0, 0)


def enumerate_trees(n_edges: int) -> list[PlaneTree]:
    """Every plane tree with n_edges edges, exactly once."""
    if n_edges < 1:
        raise ValueError("n_edges must be >= 1")
    if n_edges > ENUMERATION_CAP:
        raise ValueError(f"n_edges={n_edges} above enumeration cap {ENUMERATION_CAP}")
    return [PlaneTree(w) for w in _words(n_edges)]


@dataclass(frozen=True)
class EnumeratedMeasure:
    """Exact tree measure on all trees of one size.

    Weights are Fractions when the family is rational (then probabilities
    sum to exactly 1), floats otherwise; float weights are scaled by
    e^-max(log weight).  log_total is log Z_N in either mode.
    """

    n_edges: int
    entries: tuple[tuple[PlaneTree, Weight], ...]
    total: Weight
    exact: bool
    log_total: float

    def probabilities(self) -> dict[tuple[int, ...], Weight]:
        return {t.word: w / self.total for t, w in self.entries}


def exact_nu(n_edges: int, ws: WeightSequence) -> EnumeratedMeasure:
    """The tree measure over the full enumeration of one size."""
    trees = enumerate_trees(n_edges)
    exact = ws.is_exact
    entries: list[tuple[PlaneTree, Weight]] = []
    if exact:
        ew = [ws.exact_weight(d + 1) for d in range(n_edges + 1)]  # ew[d] = w_{d+1}
        total: Weight = Fraction(0)
        for t in trees:
            w = Fraction(1)
            for d in t.word:
                w *= ew[d]
            entries.append((t, w))
            total += w
    else:
        lw = ws.log_weights_upto(n_edges).tolist()
        logs = [math.fsum(lw[d] for d in t.word) for t in trees]
        shift = max(logs)
        weights = [math.exp(v - shift) for v in logs]
        total = math.fsum(weights)
        entries = list(zip(trees, weights))
    if total == 0:
        raise ValueError(f"no tree of size {n_edges} carries positive weight")
    log_total = math.log(total.numerator) - math.log(total.denominator) if exact else math.log(total) + shift
    return EnumeratedMeasure(n_edges, tuple(entries), total, exact, log_total)


def tv_distance(
    empirical: Mapping[tuple[int, ...], Union[int, float]], measure: EnumeratedMeasure
) -> float:
    """Half the l1 distance between an empirical tree histogram and the
    exact measure; keys missing on either side count as zero mass."""
    n = float(sum(empirical.values()))
    if n <= 0:
        raise ValueError("empirical histogram is empty")
    probs = {word: float(p) for word, p in measure.probabilities().items()}
    support = set(probs) | set(empirical)
    return 0.5 * sum(
        abs(empirical.get(word, 0) / n - probs.get(word, 0.0)) for word in support
    )
