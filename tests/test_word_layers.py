"""The per-tree word layers against the slot-by-slot loops they replaced.

rotate_word, PlaneTree's validation, degree_profile and branch_sizes work
over the non-leaf positions of a word and skip its runs of leaves.  The
reference functions below are the earlier bodies, which visit every slot;
both must give the same results and, on invalid words, the same error
text.
"""

from collections import Counter

from hypothesis import given, strategies as st

from sgtree import (
    PlaneTree,
    RandomSource,
    branch_sizes,
    build_ztable,
    degree_profile,
    rotate_word,
    sample_composition,
    uniform_weights,
)
from sgtree.harness import collect_samples
from sgtree.trees import branch_sizes_word


def ref_rotate_word(word):
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


def ref_validate(word):
    if not word:
        return
    s = 0
    for i, d in enumerate(word):
        if d < 0:
            raise ValueError(f"negative outdegree at position {i}")
        s += d - 1
        if s < 0 and i < len(word) - 1:
            raise ValueError("invalid outdegree word: prefix closes early")
    if s != -1:
        raise ValueError("invalid outdegree word: total must be length - 1")


def ref_degree_counts(word):
    counts = {d + 1: c for d, c in Counter(word).items()}
    counts[1] = counts.get(1, 0) + 1  # the root r
    return counts


def ref_branch_sizes(word):
    if not word:
        return []
    sizes = []
    pos = 1
    for _ in range(word[0]):
        need, i = 1, pos
        while need:
            need += word[i] - 1
            i += 1
        sizes.append(i - pos)
        pos = i
    return sizes


def _outcome(fn, word):
    try:
        return "ok", fn(word)
    except ValueError as exc:
        return "error", str(exc)


def _verdict(check, word):
    """None when check accepts the word, else its error text."""
    try:
        check(tuple(word))
    except ValueError as exc:
        return str(exc)
    return None


def _assert_tree_layers_agree(word):
    word = tuple(word)
    t = PlaneTree(word)
    assert degree_profile(t).counts == ref_degree_counts(word)
    assert branch_sizes(t) == ref_branch_sizes(word)


def _assert_layers_agree(comp):
    """rotate_word on a composition, then every layer on its rotation."""
    assert _outcome(rotate_word, comp) == _outcome(ref_rotate_word, comp)
    _assert_tree_layers_agree(ref_rotate_word(comp))


def _fix_total(comp):
    """Patch parts to total length - 1: a deficit goes on the last part,
    and a surplus is matched by as many appended zeros."""
    comp = list(comp)
    short = len(comp) - 1 - sum(comp)
    if short >= 0:
        comp[-1] += short
    else:
        comp += [0] * -short
    return comp


def _sparse_comp(n, small, spots, giant_at):
    """n slots: a few small parts at the given spots, the giant takes the rest."""
    comp = [0] * n
    room = n - 1
    for d, spot in zip(small, spots):
        if d <= room:
            comp[spot % n] += d
            room -= d
    comp[giant_at % n] += room
    return comp


@given(
    st.integers(1, 300),
    st.lists(st.integers(1, 3), max_size=5),
    st.lists(st.integers(0, 10**6), min_size=5, max_size=5),
    st.integers(0, 10**6),
)
def test_sparse_words_agree(n, small, spots, giant_at):
    """One giant part, a few small ones and many leaves: star-like."""
    _assert_layers_agree(_sparse_comp(n, small, spots, giant_at))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=200), st.randoms(use_true_random=False))
def test_dense_words_agree(raw, rnd):
    """Many small parts, about half the slots non-zero: uniform-like."""
    comp = _fix_total(raw)
    rnd.shuffle(comp)
    _assert_layers_agree(comp)


@given(st.integers(1, 200))
def test_path_and_star_agree(n):
    path = [1] * (n - 1) + [0]
    star = [n - 1] + [0] * (n - 1)
    for comp in (path, star, path[::-1], star[::-1]):
        _assert_layers_agree(comp)


@given(st.integers(0, 40), st.lists(st.integers(0, 4), min_size=1, max_size=30), st.integers(0, 40))
def test_zero_runs_at_either_end_agree(lead, core, trail):
    """A composition that starts and ends with runs of zeros, and the words
    cut from it, which are mostly invalid."""
    comp = [0] * lead + list(core) + [0] * trail
    comp[lead] += max(0, len(comp) - 1 - sum(comp))
    comp += [0] * (sum(comp) - (len(comp) - 1))
    _assert_layers_agree(comp)
    for word in (comp, comp[lead:], comp[: lead + len(core)], comp[lead : lead + len(core)]):
        assert _verdict(PlaneTree, word) == _verdict(ref_validate, word)
        assert _outcome(rotate_word, word) == _outcome(ref_rotate_word, word)


@given(st.lists(st.integers(-2, 4), max_size=16))
def test_invalid_words_agree(word):
    """Any list, with negatives and short or long totals: the same error
    text from PlaneTree and rotate_word, and the same layers when valid."""
    assert _verdict(PlaneTree, word) == _verdict(ref_validate, word)
    assert _outcome(rotate_word, word) == _outcome(ref_rotate_word, word)
    if _verdict(ref_validate, word) is None:
        _assert_tree_layers_agree(word)


@given(st.integers(1, 12), st.integers(0, 3), st.booleans())
def test_wrong_totals_agree(n, extra, long):
    """Totals above and below length - 1, each way round: the short total
    closes inside the trailing run of zeros."""
    word = [n + extra] + [0] * n if long else [max(n - 1 - extra, 0)] + [0] * n
    for candidate in (word, word[::-1]):
        assert _verdict(PlaneTree, candidate) == _verdict(ref_validate, candidate)
        assert _outcome(rotate_word, candidate) == _outcome(ref_rotate_word, candidate)


def _assert_batch_agrees(table, n, count, seed):
    """Every per-tree statistic of `count` N-edge draws, from the word layers
    and collect_samples, against the reference loops on the same draws."""
    gen = RandomSource(seed).generator()
    words = []
    for _ in range(count):
        comp = sample_composition(table, n, n - 1, gen)
        word = rotate_word(comp)
        assert word == ref_rotate_word(comp)
        _assert_tree_layers_agree(word)
        assert branch_sizes_word(word) == ref_branch_sizes(word)
        words.append(word)
    batch = collect_samples(table, n, count, RandomSource(seed).generator(), track_degrees=(1, 2, 3, 4))
    sizes = [ref_branch_sizes(w) for w in words]
    assert batch.sigma_s.tolist() == [w[0] + 1 for w in words]
    assert batch.max_other_degree.tolist() == [max(w[1:]) + 1 for w in words]
    assert batch.max_branch_size.tolist() == [max(s) for s in sizes]
    assert batch.branch_size2_count.tolist() == [s.count(2) for s in sizes]
    for d in (1, 2, 3, 4):
        assert batch.degree_counts[d].tolist() == [ref_degree_counts(w).get(d, 0) for w in words]


def test_condensed_draws_agree(table_alpha05_1500):
    """200 alpha = 0.5, N = 1000 trees: one giant and about 40 non-leaf slots."""
    _assert_batch_agrees(table_alpha05_1500, 1000, 200, 2012)


def test_uniform_draws_agree():
    """200 uniform N = 60 trees: about half the slots are non-leaf."""
    _assert_batch_agrees(build_ztable(uniform_weights(), 60), 60, 200, 2012)
