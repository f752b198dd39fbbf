import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sgtree import (
    PlaneTree,
    ball,
    branch_sizes,
    degree_profile,
    enumerate_trees,
    is_left_subtree,
    left_ball,
    path_tree,
    star_left_ball,
    star_tree,
    tree_distance,
)
from sgtree.trees import rotate_word


def _tree_words(max_size: int = 24):
    """Hypothesis strategy: arbitrary outdegree lists patched up to sum to
    length-1, then rotated into a valid word."""

    def fix(raw: list[int]) -> tuple[int, ...]:
        raw = list(raw)
        want = len(raw) - 1
        total = sum(raw)
        i = 0
        while total > want:
            if raw[i % len(raw)] > 0:
                raw[i % len(raw)] -= 1
                total -= 1
            i += 1
        raw[0] += want - total
        return tuple(rotate_word(raw))

    return st.lists(st.integers(0, 4), min_size=1, max_size=max_size).map(fix)


def test_validation():
    PlaneTree((2, 0, 0))
    PlaneTree(())  # degenerate root-only tree
    with pytest.raises(ValueError):
        PlaneTree((1, 1))  # wrong total
    with pytest.raises(ValueError):
        PlaneTree((0, 1))  # prefix closes early
    with pytest.raises(ValueError):
        PlaneTree((2, -1, 0, 0))
    with pytest.raises(ValueError, match="no vertex s"):
        PlaneTree(()).sigma_s


@given(_tree_words())
def test_generated_words_are_valid(word):
    t = PlaneTree(word)
    assert t.n_edges == len(word)
    assert sum(word) == len(word) - 1


def test_degree_profile_star_and_path():
    star = star_tree(5)
    prof = degree_profile(star)
    assert star.sigma_s == 5
    assert prof.counts == {1: 5, 5: 1}  # four leaves plus r, and s itself
    path = path_tree(3)
    assert degree_profile(path).counts == {1: 2, 2: 2}


@given(_tree_words())
def test_degree_profile_identities(word):
    t = PlaneTree(word)
    prof = degree_profile(t)
    n = t.n_edges
    assert sum(prof.counts.values()) == n + 1
    assert sum(i * c for i, c in prof.counts.items()) == 2 * n


def test_degree_profile_identities_bulk(random_words):
    """Vertex-count and handshake identities across 10^4 sampled trees."""
    for word in random_words:
        prof = degree_profile(PlaneTree(word))
        n = len(word)
        assert sum(prof.counts.values()) == n + 1
        assert sum(i * c for i, c in prof.counts.items()) == 2 * n


def test_branch_sizes():
    assert branch_sizes(star_tree(6)) == [1] * 5
    assert branch_sizes(path_tree(3)) == [2]
    # one size-2 pendant path among leaves
    t = PlaneTree((3, 1, 0, 0, 0))
    assert branch_sizes(t) == [2, 1, 1]


@given(_tree_words())
def test_branch_sizes_sum(word):
    t = PlaneTree(word)
    sizes = branch_sizes(t)
    assert len(sizes) == t.sigma_s - 1
    assert sum(sizes) == t.n_edges - 1


def test_ball():
    p3 = path_tree(3)
    assert ball(p3, 0).word == ()
    assert ball(p3, 2).word == path_tree(2).word
    assert ball(p3, 7).word == p3.word  # radius beyond the height


def test_left_ball_examples():
    # capacity rule: s keeps R-1 leftmost children
    assert left_ball(star_tree(10), 4).word == (3, 0, 0, 0)
    assert left_ball(star_tree(20), 4).word == left_ball(star_tree(10), 4).word
    t = PlaneTree((2, 1, 0, 0))
    assert left_ball(t, 3).word == t.word  # degrees and height fit
    with pytest.raises(ValueError):
        left_ball(t, 0)


def test_left_ball_of_star_helper():
    assert star_left_ball(1).word == (0,)
    assert star_left_ball(4).word == (3, 0, 0, 0)
    assert left_ball(star_tree(50), 4).word == star_left_ball(4).word


@given(_tree_words(), st.integers(1, 6))
def test_left_ball_idempotent(word, radius):
    t = PlaneTree(word)
    once = left_ball(t, radius)
    assert left_ball(once, radius).word == once.word


def test_distance_examples():
    assert tree_distance(path_tree(2), path_tree(2)) == 0
    # left balls agree at R = 1, 2 and first differ at R = 3
    assert tree_distance(path_tree(2), path_tree(3)) == Fraction(1, 3)
    # stars with 9 vs 19 children first part at R = 11, where the capacity
    # rule keeps 9 vs 10 children
    assert tree_distance(star_tree(10), star_tree(20)) == Fraction(1, 11)


def _distance_by_radius(t1: PlaneTree, t2: PlaneTree) -> Fraction:
    """The definition read literally: 1/R at the first radius R where the
    left balls differ, trying R = 1, 2, 3, ... in turn."""
    if t1 == t2:
        return Fraction(0)
    radius = 1
    while left_ball(t1, radius) == left_ball(t2, radius):
        radius += 1
    return Fraction(1, radius)


def test_distance_against_radius_by_radius():
    """Every pair of trees with at most 6 edges, plus the root-only tree,
    and two stars that first differ at radius 1500."""
    trees = [PlaneTree(())] + [t for n in range(1, 7) for t in enumerate_trees(n)]
    assert len(trees) == 66
    for t1 in trees:
        for t2 in trees:
            assert tree_distance(t1, t2) == _distance_by_radius(t1, t2)
    assert tree_distance(star_tree(1500), star_tree(1499)) == Fraction(1, 1500)


@given(_tree_words(12), _tree_words(12))
def test_distance_symmetric(w1, w2):
    t1, t2 = PlaneTree(w1), PlaneTree(w2)
    assert tree_distance(t1, t2) == tree_distance(t2, t1)


def test_left_subtree():
    p = path_tree(3)
    assert is_left_subtree(p, p)
    # first child of s carries the path vs. first child a leaf
    assert is_left_subtree(p, PlaneTree((2, 1, 0, 0)))
    assert not is_left_subtree(p, PlaneTree((2, 0, 1, 0)))
    single = star_tree(1)
    for word in [(2, 0, 0), (1, 1, 0), (3, 1, 0, 0, 0)]:
        assert is_left_subtree(single, PlaneTree(word))


def test_text_round_trip(tmp_path):
    from sgtree.trees import read_trees

    trees = [star_tree(4), path_tree(5), PlaneTree((2, 1, 0, 0))]
    path = tmp_path / "trees.txt"
    path.write_text("".join(str(t) + "\n" for t in trees), encoding="ascii")
    again = read_trees(str(path))
    assert [t.word for t in again] == [t.word for t in trees]


def test_tree_walks_pinned(random_words):
    """Pins ball, left_ball and is_left_subtree over the sampled trees, and
    the distance of two paths whose left balls agree up to radius 700."""
    h = hashlib.sha256()
    trees = [PlaneTree(word) for word in random_words]
    for t in trees:
        for radius in range(7):
            h.update(repr(ball(t, radius).word).encode())
        for radius in range(1, 7):
            h.update(repr(left_ball(t, radius).word).encode())
    for t, u in zip(trees, trees[1:]):
        h.update(b"1" if is_left_subtree(left_ball(t, 3), u) else b"0")
    assert h.hexdigest() == "0da4f173bfc6da6b0bff0136136b4be09b51c5d5323f56b3fdc189dfb71457f3"
    assert tree_distance(path_tree(700), path_tree(701)) == Fraction(1, 701)
