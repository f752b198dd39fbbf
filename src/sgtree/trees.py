"""Rooted plane trees as depth-first outdegree words.

Conventions: the root r has degree 1 and is implicit; the word lists the
outdegrees of the remaining vertices in depth-first order, starting with
r's unique child s.  A word of length N describes a tree with N edges
(counting the r-s edge) and N+1 vertices.  Validity is the Lukasiewicz
condition: every proper prefix sum of (outdeg - 1) stays >= 0 and the full
sum is -1.  The empty word is allowed as the degenerate radius-0 ball
consisting of r alone.

A condensed word is mostly leaves: l << N non-zero entries.  Validation
finds their positions by one C-level scan of the word and keeps them, and
the degree profile and the branch sizes reuse them: O(l) Python steps over
the non-zero entries and the runs between them, with no second scan.
rotate_word, the cycle-lemma rotation of a sampled composition, finds its
cut from the same scan.

The local topology is compared through left balls: the radius-R left ball
keeps, top-down from s, only vertices at distance <= R from r, and at most
the R-1 leftmost children of any kept vertex (so kept vertices have degree
<= R in the result).  Two stars of different sizes therefore share the
same small left balls, which is what lets a sequence of finite trees
converge to the infinite star.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from typing import Callable, Sequence


def _nonleaf_positions(word) -> tuple[int, ...]:
    """Positions of the non-zero entries of word, by one C-level scan."""
    return tuple(compress(range(len(word)), word))


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
    return [*word[cut:], *word[:cut]]


@dataclass(frozen=True)
class PlaneTree:
    word: tuple[int, ...]
    # the non-leaf positions that validation finds, for the per-tree statistics
    _nonleaf: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        nonleaf = _nonleaf_positions(word)
        object.__setattr__(self, "_nonleaf", nonleaf)
        if not word:
            return  # degenerate: just the root r
        # The prefix sum of (d - 1) falls by one per leaf: its low points are
        # acc - p just before each non-leaf p, and total - (N - 1) at slot N-2.
        acc = 0
        for p in nonleaf:
            if acc < p:
                raise ValueError("invalid outdegree word: prefix closes early")
            if word[p] < 0:
                raise ValueError(f"negative outdegree at position {p}")
            acc += word[p]
        if acc < len(word) - 1:
            raise ValueError("invalid outdegree word: prefix closes early")
        if acc != len(word) - 1:
            raise ValueError("invalid outdegree word: total must be length - 1")

    @property
    def n_edges(self) -> int:
        return len(self.word)

    @property
    def sigma_s(self) -> int:
        """Degree of s, the unique neighbour of the root."""
        if not self.word:
            raise ValueError("degenerate tree has no vertex s")
        return self.word[0] + 1

    def __str__(self) -> str:
        return " ".join(str(d) for d in self.word)

    @staticmethod
    def from_text(text: str) -> "PlaneTree":
        stripped = text.split()
        return PlaneTree(tuple(int(tok) for tok in stripped))


def star_tree(n_edges: int) -> PlaneTree:
    """s with n_edges - 1 leaf children."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    return PlaneTree((n_edges - 1,) + (0,) * (n_edges - 1))


def path_tree(n_edges: int) -> PlaneTree:
    """The path r-s-...-leaf with the given number of edges."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    return PlaneTree((1,) * (n_edges - 1) + (0,))


def star_left_ball(radius: int) -> PlaneTree:
    """Left ball of the infinite star: s plus radius-1 leaf children."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return PlaneTree((radius - 1,) + (0,) * (radius - 1))


@dataclass(frozen=True)
class DegreeProfile:
    """Counts of vertices by degree, including the implicit root in X_1."""

    counts: dict[int, int]

    def count(self, degree: int) -> int:
        return self.counts.get(degree, 0)


def degree_profile(t: PlaneTree) -> DegreeProfile:
    """Degree counts X_i.  Satisfies sum X_i = N+1 and sum i*X_i = 2N."""
    word, nonleaf = t.word, t._nonleaf
    counts = {d + 1: c for d, c in Counter(map(word.__getitem__, nonleaf)).items()}  # the non-leaf vertices
    counts[1] = len(word) - len(nonleaf) + 1  # the leaves and the root r
    return DegreeProfile(counts)


def branch_sizes(t: PlaneTree) -> list[int]:
    """Vertex counts of the sigma(s)-1 branches below s, left to right;
    they sum to N-1.

    The prefix sum S of word[0] and then (d - 1) falls by one per leaf, and
    the k-th branch closes where S first reaches word[0] - k.  So a run of
    leaves that takes S to a new low closes one branch that began after the
    last close, and then one leaf branch per further step down.
    """
    word, nonleaf = t.word, t._nonleaf
    if not word or not word[0]:
        return []
    sizes: list[int] = []
    low, last = word[0], 0  # the lowest S so far, and where the last branch closed
    for p, acc in zip(nonleaf[1:] + (len(word),), accumulate(map(word.__getitem__, nonleaf))):
        level = acc - p + 1  # S at p - 1, where the run of leaves before p ends
        if level < low:
            sizes.append(p - low + level - last)  # closes where S first reaches low - 1
            sizes += [1] * (low - 1 - level)
            low, last = level, p - 1
    return sizes


def _pruned_word(word: tuple[int, ...], keep: Callable[[int, int, int], int]) -> tuple[int, ...]:
    """Preorder scan of word keeping, at output vertex i at depth `depth`
    (s is at depth 1) with d children, its first keep(depth, i, d) children.

    Subtrees that are not kept are skipped without being emitted, and the
    scan stops once s closes, so s's dropped children are never read.
    """
    if not word:
        return ()
    out: list[int] = []
    stack: list[list[int]] = []  # per open vertex: [kept children to come, children skipped after]
    pos = 0
    while True:
        d = word[pos]
        pos += 1
        kept = keep(len(stack) + 1, len(out), d)
        out.append(kept)
        stack.append([kept, d - kept])
        while not stack[-1][0]:
            need = stack.pop()[1]
            if not stack:
                return tuple(out)
            while need:
                need += word[pos] - 1
                pos += 1
        stack[-1][0] -= 1


def ball(t: PlaneTree, radius: int) -> PlaneTree:
    """Subtree induced by vertices at distance <= radius from r."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return PlaneTree(())  # r alone
    return PlaneTree(_pruned_word(t.word, lambda depth, i, d: d if depth < radius else 0))


def _left_ball_word(word: tuple[int, ...], radius: int) -> tuple[int, ...]:
    cap = radius - 1
    return _pruned_word(word, lambda depth, i, d: min(d, cap) if depth < radius else 0)


def left_ball(t: PlaneTree, radius: int) -> PlaneTree:
    """Radius-R left ball: depth-capped at R, at most R-1 children kept.

    Idempotent at fixed radius, and equal to t whenever all degrees and the
    height already fit inside the radius.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return PlaneTree(_left_ball_word(t.word, radius))


def tree_distance(t1: PlaneTree, t2: PlaneTree) -> Fraction:
    """Local-topology distance: 1/R at the first radius R where the left
    balls disagree, 0 for equal trees.

    Equivalently inf of 1/(R+1) over the radii where the left balls agree;
    radius 1 always agrees (both collapse to the single edge r-s), so
    distinct trees have distance <= 1/2.

    Balls that agree at radius R agree below it (the radius-r left ball of
    the radius-R left ball is the radius-r left ball), so the first
    differing radius is found by doubling, then bisection.
    """
    if t1.word == t2.word:
        return Fraction(0)

    def agree(radius: int) -> bool:
        return _left_ball_word(t1.word, radius) == _left_ball_word(t2.word, radius)

    lo, hi = 0, 1  # after doubling: the balls differ at hi and agree at lo, unless lo == 0
    while agree(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if agree(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(1, hi)


def is_left_subtree(t1: PlaneTree, t2: PlaneTree) -> bool:
    """True when t1's vertex set embeds in t2's at identical positions.

    Both trees are closed under ancestors and left siblings by
    construction, so t1 embeds exactly when pruning t2 to at most t1's
    outdegree at each matched vertex gives back t1's word.
    """
    w1 = t1.word
    if not w1:
        return True
    return _pruned_word(t2.word, lambda depth, i, d: min(d, w1[i])) == w1


def read_trees(path: str) -> list[PlaneTree]:
    with open(path, "r", encoding="ascii") as fh:
        return [PlaneTree.from_text(line) for line in fh if line.strip()]
