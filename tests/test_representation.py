import random
import time

import pytest

from wordrep import (
    CapExceeded,
    DomainError,
    Representation,
    SubstitutionPlan,
    alternation_graph,
    exists_word,
    find_transitive_orientation,
    lex_prn,
    lex_product,
    lex_rep_number,
    make_graph,
    orient,
    prn,
    prn_composed,
    rep_number,
    rep_number_composed,
    representing_words,
    represents,
    substitute,
    substitute_representation,
    uniformity,
    uniformize,
)
from helpers import (
    atlas_connected,
    complete,
    count_searches,
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
    assert lex_prn(complete(3), complete(2)).k == 1
    assert prn_composed(complete(2), 0, complete(3)).k == 1
    assert prn(empty(3), 1) is None  # its prn, 2, is past the cap
    assert oriented == realized == []


def test_word_products_take_a_complete_or_edgeless_inner_factor_in_closed_form(monkeypatch):
    # only C6 is oriented, once per call, and only lex_prn runs a realizer;
    # K2 and the edgeless inner factor used to be oriented and realized too
    oriented, realized = count_searches(monkeypatch)
    assert lex_rep_number(cycle(6), complete(2)).k == 2
    assert lex_prn(cycle(6), complete(2)).k == 3
    assert oriented == [cycle(6)] * 2 and len(realized) == 1
    del oriented[:], realized[:]
    assert rep_number_composed(cycle(6), 0, empty(3)).k == 2
    assert oriented == [cycle(6)] and realized == []


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
    plan = SubstitutionPlan(
        outer=Representation((0, 1), "permutational", k2),
        pivot=0,
        inner=Representation((0,), "permutational", make_graph(1, [])),
    )
    rep = substitute_representation(plan)
    assert rep.k == 1 and rep.target == k2


def test_substitute_representation_w6():
    k2 = make_graph(2, [(0, 1)])
    plan = SubstitutionPlan(
        outer=rep_number(k2), pivot=0, inner=prn(cycle(6))
    )
    rep = substitute_representation(plan)
    assert rep.k == 3
    assert rep.target == wheel(6)


def test_substitute_representation_k2_into_k2_gives_k3():
    k2 = make_graph(2, [(0, 1)])
    plan = SubstitutionPlan(outer=prn(k2), pivot=1, inner=prn(complete(2)))
    rep = substitute_representation(plan)
    assert rep.target == complete(3)
    assert rep.k == 1


def test_substitute_representation_requires_permutational_inner():
    k2 = make_graph(2, [(0, 1)])
    outer = rep_number(k2)
    bad_inner = Representation((0, 1, 0, 1), "general", complete(2))
    with pytest.raises(ValueError):
        substitute_representation(SubstitutionPlan(outer, 0, bad_inner))


def test_rep_number_composed_examples():
    k2 = make_graph(2, [(0, 1)])
    assert rep_number_composed(k2, 0, cycle(6)).k == 3
    assert rep_number_composed(k2, 0, complete(2)).k == 1
    rep = rep_number_composed(cycle(6), 0, complete(2))
    assert rep.k == 2 and rep.target.n == 7


def test_rep_number_composed_rejects_non_comparability_inner():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(DomainError, match="inner"):
        rep_number_composed(k2, 0, cycle(5))


def test_rep_number_composed_rejects_non_representable_outer():
    with pytest.raises(DomainError, match="outer"):
        rep_number_composed(wheel(5), 0, complete(2))


def test_prn_composed_examples():
    k2 = make_graph(2, [(0, 1)])
    assert prn_composed(k2, 0, cycle(6)).k == 3
    assert prn_composed(k2, 0, complete(2)).k == 1
    assert prn_composed(path_graph(3), 1, complete(2)).k == 2


def test_prn_composed_rejects_non_comparability():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(DomainError):
        prn_composed(k2, 0, cycle(5))
    with pytest.raises(DomainError):
        prn_composed(cycle(5), 0, k2)


def test_lex_rep_number_examples():
    k2 = make_graph(2, [(0, 1)])
    assert lex_rep_number(k2, cycle(6)).k == 3
    assert lex_rep_number(k2, complete(2)).k == 1
    assert lex_rep_number(cycle(6), k2).k == 2


def test_lex_rep_number_rejects_non_comparability_second_factor():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(DomainError, match="second factor"):
        lex_rep_number(k2, cycle(5))


def test_lex_prn_examples():
    k2 = make_graph(2, [(0, 1)])
    assert lex_prn(k2, cycle(6)).k == 3
    assert lex_prn(k2, complete(2)).k == 1


def test_lex_prn_c6_c6_certificate_on_36_vertices():
    rep = lex_prn(cycle(6), cycle(6))
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
        rep = rep_number_composed(g, pivot, inner)
        target, _, _ = substitute(g, pivot, inner)
        assert rep.target == target
        assert brute_rep_number(target, cap=3) == rep.k


def test_cap_exceeded_signalled():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(CapExceeded):
        rep_number_composed(k2, 0, cycle(6), cap=2)


def test_permutational_products_signal_a_capped_realizer():
    # prn(C6) = 3, so both factors orient but the realizer stops at cap 2
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(CapExceeded, match="realizer search capped at k=2"):
        lex_prn(cycle(6), k2, cap=2)
    with pytest.raises(CapExceeded, match="realizer search capped at k=2"):
        prn_composed(k2, 0, cycle(6), cap=2)
