import random
import time

import pytest

from wordrep import (
    CapExceeded,
    DomainError,
    Representation,
    alternation_graph,
    compose_product,
    exists_word,
    find_transitive_orientation,
    lex_product,
    make_graph,
    orient,
    prn,
    product_certificates,
    rep_number,
    representing_words,
    represents,
    substitute,
    uniformity,
    uniformize,
)
from helpers import (
    atlas_connected,
    complete,
    count_searches,
    crown,
    cycle,
    empty,
    path_graph,
    random_connected_graph,
    wheel,
)
from oracles import (
    brute_is_semi_transitive,
    brute_rep_number,
    brute_representing_words,
    perm_concat_representable,
)


def test_representation_validates_on_construction():
    k2 = make_graph(2, [(0, 1)])
    Representation((0, 1, 0, 1), "general", k2)
    with pytest.raises(ValueError):
        Representation((0, 0, 1, 1), "general", k2)  # wrong graph
    with pytest.raises(ValueError):
        Representation((0, 1, 0), "general", k2)  # not uniform
    with pytest.raises(ValueError):
        Representation((0, 1, 1, 0), "permutational", complete(2))


def test_rep_number_k2_is_one():
    rep = rep_number(make_graph(2, [(0, 1)]))
    assert rep.k == 1 and rep.word == (0, 1)


def test_rep_number_complete_is_one():
    assert rep_number(complete(5)).k == 1


def test_rep_number_c6_is_two():
    rep = rep_number(cycle(6))
    assert rep.k == 2
    assert represents(rep.word, cycle(6))


def test_rep_number_w6_is_three():
    rep = rep_number(wheel(6))
    assert rep.k == 3
    assert represents(rep.word, wheel(6))


def test_rep_number_none_within_cap_on_non_representable():
    assert rep_number(wheel(5), cap=2) is None


def test_rep_number_rejects_bad_cap():
    with pytest.raises(ValueError):
        rep_number(complete(2), cap=0)


def test_search_is_deterministic():
    got = [rep_number(cycle(6)).word for _ in range(3)]
    assert len(set(got)) == 1


def test_pruned_search_equals_unpruned_enumeration():
    # the pruned generator must yield exactly the representing words, and in
    # the same lexicographic order the raw enumeration produces them
    for g in atlas_connected(4):
        for k in (1, 2):
            assert list(representing_words(g, k)) == brute_representing_words(g, k)


def test_pruned_search_equals_unpruned_on_5_vertices():
    rng = random.Random(50)
    graphs = list(atlas_connected(5, min_n=5))
    for g in rng.sample(graphs, 8):
        assert list(representing_words(g, 2)) == brute_representing_words(g, 2)


def test_rep_number_matches_unpruned_minimum():
    for g in atlas_connected(5):
        rep = rep_number(g, cap=2)
        assert (rep.k if rep else None) == brute_rep_number(g, cap=2)


def test_certificate_is_lexicographically_smallest():
    for g in (cycle(4), path_graph(4), complete(3)):
        rep = rep_number(g)
        assert rep.word == brute_representing_words(g, rep.k)[0]


def test_certificate_rotations_represent_and_k_ignores_labels():
    # the search only tries first letters after 0 when some word starts
    # with 0, which is sound because rotating a uniform representing word
    # keeps it representing; relabelling moves which vertex is letter 0
    rng = random.Random(4)
    unrepresented = []
    for g in atlas_connected(6, min_n=2):
        rep = rep_number(g)
        if rep is None:
            unrepresented.append(g)
            continue
        w = rep.word
        for i in range(len(w)):
            rotated = w[i:] + w[:i]
            assert represents(rotated, g)
            assert uniformity(rotated).uniform_k == rep.k
        for _ in range(3):
            label = list(range(g.n))
            rng.shuffle(label)
            h = make_graph(g.n, [(label[u], label[v]) for u, v in g.edges])
            assert rep_number(h).k == rep.k
    assert [(g.n, g.m) for g in unrepresented] == [(6, 10)]  # W5 alone


def test_first_occurrences_of_every_word_orient_semi_transitively():
    # the lemma behind the first-occurrence cut: orienting each edge from the
    # letter that occurs first gives a semi-transitive orientation, judged by
    # the definition
    for g in atlas_connected(5):
        orders = {
            tuple(dict.fromkeys(w)) for k in (2, 3) for w in representing_words(g, k)
        }
        for order in orders:
            rank = {c: i for i, c in enumerate(order)}
            o = orient(g, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges])
            assert brute_is_semi_transitive(o), (g, order)


def test_graph_of_a_uniform_word_is_found_at_or_before_the_word():
    # a k-uniform word represents its own graph, so the search succeeds at
    # level <= k, and at level k its first word sorts at or before every
    # rotation of the input that starts with 0. Shuffled words almost never
    # need k = 3, so relabelled, rotated words of W6 and W8 (R = 3) join them.
    rng = random.Random(11)
    words = []
    for i in range(40):
        n, k = rng.randint(6, 9), 2 + i % 2
        w = [c for c in range(n) for _ in range(k)]
        rng.shuffle(w)
        words.append((tuple(w), k))
    for rim, copies in ((6, 4), (8, 2)):
        base = rep_number(wheel(rim)).word
        for _ in range(copies):
            label = rng.sample(range(rim + 1), rim + 1)
            shift = rng.randrange(len(base))
            words.append((tuple(label[c] for c in base[shift:] + base[:shift]), 3))
    found_at_k = {2: 0, 3: 0}
    for w, k in words:
        g, _ = alternation_graph(w)
        rep = rep_number(g, cap=k)
        assert rep is not None, w
        if rep.k == k:
            found_at_k[k] += 1
            assert rep.word <= min(w[i:] + w[:i] for i, c in enumerate(w) if c == 0), w
    assert found_at_k[2] and found_at_k[3] == 6


def test_word_search_and_oracle_agree_up_to_six_vertices():
    # two independent decision routes: k-uniform word search vs orientation
    # enumeration; on <= 6 vertices every representable graph has a word
    # with multiplicity <= 3
    from wordrep import exists_semi_transitive_orientation

    for g in atlas_connected(6):
        by_words = rep_number(g, cap=3) is not None
        assert by_words == exists_semi_transitive_orientation(g)


def test_decider_equals_letter_search_up_to_six_vertices():
    # every connected graph with at most 6 vertices, W5 (no word at any
    # level) included, at every level the letter search can settle quickly
    for g in atlas_connected(6):
        for k in (1, 2, 3):
            assert exists_word(g, k) == (next(representing_words(g, k), None) is not None), (
                sorted(g.edges), k
            )


def test_decider_accepts_random_uniform_words():
    # a k-uniform word represents its own graph, so the decider must find a
    # word at its k; shuffled words are sparse, so concatenated permutations
    # with a few adjacent swaps add dense graphs
    rng = random.Random(13)
    for n in range(8, 13):
        for k in (2, 3):
            for dense in (False, True):
                if dense:
                    w = [c for _ in range(k) for c in rng.sample(range(n), n)]
                    for _ in range(n):
                        i = rng.randrange(len(w) - 1)
                        w[i], w[i + 1] = w[i + 1], w[i]
                else:
                    w = [c for c in range(n) for _ in range(k)]
                    rng.shuffle(w)
                g, _ = alternation_graph(tuple(w))
                assert exists_word(g, k), w


def test_decider_rejects_bad_arguments():
    with pytest.raises(ValueError):
        exists_word(complete(2), 0)
    with pytest.raises(ValueError):
        exists_word(make_graph(0, []), 2)


def test_letter_search_rejects_bad_arguments_at_the_call():
    # no next(): the checks run when the generator is made, not when it is read
    with pytest.raises(ValueError):
        representing_words(make_graph(0, []), 2)
    with pytest.raises(ValueError):
        representing_words(complete(2), 0)


def test_letter_search_finds_a_word_for_a_long_path():
    # one stack entry per letter, 2,002 of them: a recursive search ran past
    # Python's recursion limit here
    g = path_graph(1001)
    assert represents(next(representing_words(g, 2)), g)


def test_letter_search_finds_a_one_uniform_word_only_for_complete_graphs():
    # at k = 1 every letter starts with fewer than two copies left
    for g in atlas_connected(5):
        word = next(representing_words(g, 1), None)
        assert (word is not None) == (g.m == g.n * (g.n - 1) // 2), g
        assert word is None or word == tuple(range(g.n))


def test_rep_number_refutes_wheels_at_a_high_cap_quickly():
    # levels 2..7 of a graph with no word: the oracle ends the search after
    # level 2, where an insertion search would list every word of the graph
    # before its last vertex, at every level
    w5_pendant = make_graph(7, sorted(wheel(5).edges) + [(1, 6)])
    for g in (wheel(5), wheel(7), w5_pendant):
        started = time.perf_counter()
        assert rep_number(g, cap=8) is None
        assert time.perf_counter() - started < 10, (g.n, g.m)


def test_letter_search_finds_the_c10_certificate_quickly():
    # the collide cut drops a prefix when the first letter of a non-adjacent
    # pair that still alternates runs out; a cut that waits for the second
    # letter lists the same words, but took 135 s against 2 s on a 2-vCPU VM
    started = time.perf_counter()
    assert rep_number(cycle(10)).k == 2
    assert time.perf_counter() - started < 30


def test_prn_k_n_is_one():
    assert prn(complete(4)).k == 1


def test_prn_c6_is_three():
    rep = prn(cycle(6))
    assert rep.k == 3
    assert rep.mode == "permutational"
    assert represents(rep.word, cycle(6))


def test_prn_c5_absent():
    assert prn(cycle(5)) is None


def test_prn_p3_is_two():
    assert prn(path_graph(3)).k == 2


def test_prn_cap():
    assert prn(cycle(6), cap=2) is None


def test_prn_rejects_a_cap_below_one():
    # before any search, whether g is a comparability graph (P4) or not (C5)
    for g in (cycle(5), path_graph(4)):
        with pytest.raises(ValueError):
            prn(g, 0)


def test_complete_and_edgeless_graphs_are_neither_oriented_nor_searched(monkeypatch):
    oriented, realized = count_searches(monkeypatch)
    assert product_certificates(complete(3), complete(2))[1].k == 1
    assert product_certificates(complete(2), complete(3), 0)[1].k == 1
    assert product_certificates(empty(2), complete(2))[1].k == 2
    assert prn(empty(3), 1) is None  # its prn, 2, is past the cap
    assert oriented == realized == []


def test_word_products_take_a_complete_or_edgeless_inner_factor_in_closed_form(monkeypatch):
    # each factor is oriented and realized at most once, and a complete or
    # edgeless one not at all; K2 and the edgeless inner factor used to be
    # oriented and realized too, and C6 twice
    oriented, realized = count_searches(monkeypatch)
    word, perm, _ = product_certificates(cycle(6), complete(2))
    assert (word.k, perm.k) == (2, 3)
    assert oriented == [cycle(6)] and len(realized) == 1
    del oriented[:], realized[:]
    word, perm, _ = product_certificates(cycle(6), empty(3), 0)
    assert (word.k, perm.k) == (2, 3)
    assert oriented == [cycle(6)] and len(realized) == 1
    for at in (None, 0):
        del oriented[:], realized[:]
        word, perm, _ = product_certificates(cycle(6), crown(4), at)
        assert (word.k, perm.k) == (4, 4)
        assert oriented == [crown(4), cycle(6)] and len(realized) == 2
    del oriented[:], realized[:]
    word, perm, _ = product_certificates(complete(2), cycle(6))
    assert (word.k, perm.k) == (3, 3)
    assert oriented == [cycle(6)] and len(realized) == 1


def test_prn_matches_direct_concatenation_search():
    # the dimension route must agree with raw search over permutation tuples
    for g in atlas_connected(5, min_n=2):
        rep = prn(g, cap=3)
        if rep is None:
            if find_transitive_orientation(g) is None:
                assert not perm_concat_representable(g, 3)
            continue
        assert perm_concat_representable(g, rep.k)
        if rep.k > 1:
            assert not perm_concat_representable(g, rep.k - 1)


def test_prn_c6_minimality_direct():
    assert not perm_concat_representable(cycle(6), 2)
    assert perm_concat_representable(cycle(6), 3)


def test_r_at_most_prn_on_comparability_graphs():
    for g in atlas_connected(6):
        rep = prn(g, cap=4)
        if rep is not None:
            assert rep_number(g, cap=4).k <= rep.k


def test_uniformize_keeps_graph():
    rng = random.Random(51)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6))
        rep = rep_number(g, cap=3)
        if rep is None:
            continue
        for t in range(rep.k, rep.k + 3):
            w = uniformize(rep.word, g, t)
            assert uniformity(w).uniform_k == t
            assert represents(w, g)


def test_uniformize_rejects_shrinking_and_non_uniform():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        uniformize((0, 1, 0, 1), k2, 1)
    with pytest.raises(ValueError):
        uniformize((0, 1, 0), k2, 3)


def test_padding_by_repeating_last_permutation_keeps_graph():
    rng = random.Random(52)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6))
        rep = prn(g, cap=4)
        if rep is None:
            continue
        padded = rep.word + rep.permutations()[-1]
        assert represents(padded, g)


def test_substitute_representation_k1_into_k2():
    k2 = make_graph(2, [(0, 1)])
    outer = Representation((0, 1), "permutational", k2)
    inner = Representation((0,), "permutational", make_graph(1, []))
    rep = compose_product(outer, inner, 0)
    assert rep.k == 1 and rep.target == k2


def test_substitute_representation_w6():
    k2 = make_graph(2, [(0, 1)])
    rep = compose_product(rep_number(k2), prn(cycle(6)), 0)
    assert rep.k == 3
    assert rep.target == wheel(6)


def test_substitute_representation_k2_into_k2_gives_k3():
    k2 = make_graph(2, [(0, 1)])
    rep = compose_product(prn(k2), prn(complete(2)), 1)
    assert rep.target == complete(3)
    assert rep.k == 1


def test_substitute_representation_requires_permutational_inner():
    k2 = make_graph(2, [(0, 1)])
    outer = rep_number(k2)
    bad_inner = Representation((0, 1, 0, 1), "general", complete(2))
    for at in (0, None):
        with pytest.raises(ValueError):
            compose_product(outer, bad_inner, at)


def test_rep_number_composed_examples():
    k2 = make_graph(2, [(0, 1)])
    assert product_certificates(k2, cycle(6), 0)[0].k == 3
    assert product_certificates(k2, complete(2), 0)[0].k == 1
    rep = product_certificates(cycle(6), complete(2), 0)[0]
    assert rep.k == 2 and rep.target.n == 7


def test_rep_number_composed_rejects_non_comparability_inner():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(DomainError, match="inner"):
        product_certificates(k2, cycle(5), 0)


def test_rep_number_composed_rejects_non_representable_outer():
    with pytest.raises(DomainError, match="outer"):
        product_certificates(wheel(5), complete(2), 0)


def test_prn_composed_examples():
    k2 = make_graph(2, [(0, 1)])
    assert product_certificates(k2, cycle(6), 0)[1].k == 3
    assert product_certificates(k2, complete(2), 0)[1].k == 1
    assert product_certificates(path_graph(3), complete(2), 1)[1].k == 2


def test_prn_composed_rejects_non_comparability():
    # a non-comparability inner graph is a DomainError; a word-representable
    # outer graph that is not a comparability graph leaves only the word
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(DomainError):
        product_certificates(k2, cycle(5), 0)
    word, perm, capped = product_certificates(cycle(5), k2, 0)
    assert word.k == 2 and perm is None and capped is None


def test_lex_rep_number_examples():
    k2 = make_graph(2, [(0, 1)])
    assert product_certificates(k2, cycle(6))[0].k == 3
    assert product_certificates(k2, complete(2))[0].k == 1
    assert product_certificates(cycle(6), k2)[0].k == 2


def test_lex_rep_number_rejects_non_comparability_second_factor():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(DomainError, match="second factor"):
        product_certificates(k2, cycle(5))


def test_lex_prn_examples():
    k2 = make_graph(2, [(0, 1)])
    assert product_certificates(k2, cycle(6))[1].k == 3
    assert product_certificates(k2, complete(2))[1].k == 1


def test_lex_prn_c6_c6_certificate_on_36_vertices():
    rep = product_certificates(cycle(6), cycle(6))[1]
    assert rep.k == 3
    assert rep.target.n == 36
    # construction re-verified represents() already; check the split too
    assert all(len(set(p)) == 36 for p in rep.permutations())


def test_composed_k_matches_brute_force_at_small_scale():
    rng = random.Random(53)
    small = [g for g in atlas_connected(3, min_n=2)]
    for _ in range(20):
        g = rng.choice(small)
        inner = rng.choice(small)
        pivot = rng.randrange(g.n)
        rep = product_certificates(g, inner, pivot)[0]
        target, _, _ = substitute(g, pivot, inner)
        assert rep.target == target
        assert brute_rep_number(target, cap=3) == rep.k


def test_cap_exceeded_signalled():
    # prn(C6) = 3 is past cap 2, so the inner factor has no word within it;
    # C5 is no comparability graph, and its oracle's cap error comes out as is
    k2 = make_graph(2, [(0, 1)])
    for at in (0, None):
        with pytest.raises(CapExceeded, match="representation search capped at k=2"):
            product_certificates(k2, cycle(6), at, cap=2)
        with pytest.raises(CapExceeded, match="5 edges exceed the orientation-enumeration cap 1"):
            product_certificates(cycle(5), k2, at, oracle_edge_cap=1)


def test_permutational_products_signal_a_capped_realizer():
    # prn(C6) = 3: C6 has its word at k = 2, but its realizer stops at cap
    # 2, so the product's word comes with the realizer's message
    k2 = make_graph(2, [(0, 1)])
    for at in (0, None):
        word, perm, capped = product_certificates(cycle(6), k2, at, cap=2)
        assert word.k == 2 and perm is None
        assert capped == "realizer search capped at k=2"


@pytest.mark.parametrize(
    "g, at",
    [(complete(1), None), (empty(2), None), (make_graph(3, [(0, 1)]), 2)],
    ids=["k1-lex", "2k1-lex", "k2+k1-at-2"],
)
def test_a_product_with_no_cone_over_the_inner_factor_claims_no_r(g, at):
    # each product is C6 or C6 beside a graph with R <= 2, so its R is 2,
    # not max(R(g), prn(C6)) = 3: it is not complete and has a 2-uniform word
    with pytest.raises(DomainError, match=r"may be below prn\(.*\) = 3"):
        product_certificates(g, cycle(6), at)
    product = lex_product(g, cycle(6))[0] if at is None else substitute(g, at, cycle(6))[0]
    assert exists_word(product, 2)
