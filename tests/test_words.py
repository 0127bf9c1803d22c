import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wordrep import (
    alternate,
    alternation_graph,
    concat_permutations,
    induced_subgraph,
    make_graph,
    project,
    represents,
    uniformity,
    word_from_text,
    word_to_text,
)
from helpers import complete, cycle


words = st.lists(st.integers(0, 5), min_size=1, max_size=14).map(tuple)


def test_project():
    w = (0, 1, 2, 0, 1)  # "abcab" with a=0 b=1 c=2
    assert project(w, {0, 1}) == (0, 1, 0, 1)
    assert project(w, set()) == ()
    assert project(w, {2}) == (2,)
    assert project(w, {2, 9}) == (2,)  # absent letters contribute nothing


def test_alternate():
    assert alternate((0, 1, 0, 1, 0), 0, 1)
    assert not alternate((0, 0, 1, 1), 0, 1)
    assert alternate((0, 1), 0, 1)


def test_alternate_rejects_bad_input():
    with pytest.raises(ValueError):
        alternate((0, 1), 0, 0)
    with pytest.raises(ValueError):
        alternate((0, 1), 0, 2)


def test_alternation_graph_of_permutation_is_complete():
    g, relabel = alternation_graph((2, 0, 1))
    assert g == complete(3)
    assert relabel == {0: 0, 1: 1, 2: 2}


def test_alternation_graph_abab():
    g, _ = alternation_graph((0, 1, 0, 1))
    assert g == complete(2)


def test_alternation_graph_aabb():
    g, _ = alternation_graph((0, 0, 1, 1))
    assert g.n == 2 and g.m == 0


def test_alternation_graph_relabels_sparse_letters():
    g, relabel = alternation_graph((7, 3, 7))
    assert relabel == {3: 0, 7: 1}
    assert g.n == 2 and g.m == 1  # 7 3 7 alternates, so the pair is adjacent


def test_represents_permutation_of_complete():
    assert represents((3, 1, 0, 2), complete(4))


def test_represents_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        represents((0, 1), complete(3))
    with pytest.raises(ValueError):
        represents((0, 1, 3), complete(3))


def test_represents_aabb_is_not_k2():
    assert not represents((0, 0, 1, 1), complete(2))


def test_uniformity():
    assert uniformity((0, 1, 0, 1)).uniform_k == 2
    profile = uniformity((0, 1, 0))
    assert profile.uniform_k is None and profile.counts == {0: 2, 1: 1}
    assert uniformity((0, 1, 2)).uniform_k == 1


def test_concat_permutations():
    assert concat_permutations([(0, 1, 2), (2, 1, 0)]) == (0, 1, 2, 2, 1, 0)
    assert concat_permutations([(0, 1)]) == (0, 1)
    w = concat_permutations([(0, 1, 2)] * 3)
    assert uniformity(w).uniform_k == 3
    assert represents(w, complete(3))


def test_concat_permutations_rejects_bad_parts():
    with pytest.raises(ValueError):
        concat_permutations([(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        concat_permutations([(0, 1), (1, 2)])


def test_word_text_round_trip():
    w = (0, 10, 2, 0)
    assert word_from_text(word_to_text(w)) == w
    assert word_to_text(w) == "0 10 2 0"
    with pytest.raises(ValueError):
        word_from_text("0 x 1")


@given(words)
def test_round_trip_word_represents_its_alternation_graph(w):
    g, relabel = alternation_graph(w)
    assert represents(tuple(relabel[c] for c in w), g)


@given(words, st.randoms(use_true_random=False))
def test_alternation_depends_only_on_projection(w, rnd):
    letters = sorted(set(w))
    if len(letters) < 2:
        return
    x, y = letters[0], letters[1]
    # interleaving noise letters anywhere leaves the pair projection alone
    noise = max(letters) + 1
    rng = random.Random(rnd.getrandbits(32))
    padded = []
    for c in w:
        if rng.random() < 0.5:
            padded.append(noise)
        padded.append(c)
    assert project(padded, {x, y}) == project(w, {x, y})
    assert alternate(w, x, y) == alternate(tuple(padded), x, y)


@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_one_uniform_words_represent_exactly_complete(n, rnd):
    perm = list(range(n))
    random.Random(rnd.getrandbits(32)).shuffle(perm)
    g, _ = alternation_graph(tuple(perm))
    assert g == complete(n)


@given(words)
def test_hereditary_under_projection(w):
    g, relabel = alternation_graph(w)
    mapped = tuple(relabel[c] for c in w)
    letters = sorted(set(mapped))
    for size in range(1, len(letters) + 1):
        subset = letters[:size]
        sub, sub_relabel = induced_subgraph(g, subset)
        proj = tuple(sub_relabel[c] for c in project(mapped, subset))
        assert represents(proj, sub)


@st.composite
def words_with_single_letters(draw):
    """Non-uniform words over 0..6 with some of the letters 7..9 placed once."""
    word = draw(st.lists(st.integers(0, 6), min_size=1, max_size=18))
    for letter in sorted(draw(st.sets(st.integers(7, 9)))):
        word.insert(draw(st.integers(0, len(word))), letter)
    return tuple(word)


@st.composite
def uniform_words(draw):
    """k copies of each of n <= 9 letters, shuffled, for k = 1..4."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    return tuple(draw(st.permutations(list(range(n)) * k)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(words_with_single_letters(), uniform_words()))
def test_alternation_graph_matches_pairwise_alternate(w):
    # alternate() works on two-letter projections and shares no code with
    # the mask pass behind alternation_graph() and represents()
    g, relabel = alternation_graph(w)
    letters = sorted(relabel)
    assert g.edges == {
        (relabel[x], relabel[y])
        for x, y in combinations(letters, 2)
        if alternate(w, x, y)
    }
    mapped = tuple(relabel[c] for c in w)
    assert represents(mapped, g)
    for pair in combinations(range(g.n), 2):
        assert not represents(mapped, make_graph(g.n, g.edges ^ {pair}))
