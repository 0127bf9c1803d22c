import dataclasses
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from wordrep import (
    Caps,
    DomainError,
    Representation,
    Status,
    Verdict,
    classify,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
    induced_subgraph,
    make_graph,
    maximal_modular_partition,
    minimum_realizer,
    module_comparability_test,
    nonwr_screen,
    poset_of,
    rep_number,
    substitute,
    uniformize,
    verify,
)
from wordrep.modular import induced_block_graphs
from wordrep.representation import closed_form_prn, prn_of_orientation
from helpers import atlas_connected, complete, cone, crown, cycle, empty, path_graph, prism, random_connected_graph, star, wheel
from oracles import brute_exists_semi_transitive, brute_has_transitive_orientation


def is_wr_status(status):
    return status in (Status.WORD_REPRESENTABLE, Status.COMPARABILITY)


def test_module_comparability_w5_flags_rim():
    results = module_comparability_test(wheel(5))
    assert results == [(frozenset({0}), True), (frozenset(range(1, 6)), False)]


def test_module_comparability_w6_rim_passes():
    results = module_comparability_test(wheel(6))
    assert results == [(frozenset({0}), True), (frozenset(range(1, 7)), True)]


def test_module_comparability_rejects_singleton_partitions():
    with pytest.raises(DomainError):
        module_comparability_test(cycle(5))  # prime
    with pytest.raises(DomainError):
        module_comparability_test(complete(4))  # canonical partition is singletons
    with pytest.raises(DomainError):
        module_comparability_test(complete(1))  # K1 is complete too


def test_screen_w5_returns_rim():
    assert nonwr_screen(wheel(5)) == frozenset(range(1, 6))


def test_screen_silent_on_w6_and_c5():
    assert nonwr_screen(wheel(6)) is None
    assert nonwr_screen(cycle(5)) is None


def test_screen_never_contradicts_the_oracle():
    rng = random.Random(60)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7))
        witness = nonwr_screen(g)
        if witness is not None:
            assert not exists_semi_transitive_orientation(g)


def test_classify_w5():
    verdict = classify(wheel(5))
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness == frozenset(range(1, 6))
    assert verify(verdict, wheel(5))


def test_classify_w6():
    verdict = classify(wheel(6))
    assert is_wr_status(verdict.status)
    assert verdict.r_number == 3
    assert verdict.quotient_r == 1
    assert verdict.block_prns == (1, 3)
    assert verify(verdict, wheel(6))


def test_classify_c6_prime_route():
    verdict = classify(cycle(6))
    assert verdict.status == Status.COMPARABILITY
    assert verdict.r_number == 2 and verdict.prn_number == 3
    assert verify(verdict, cycle(6))


def test_classify_prism_is_wr_not_comparability():
    verdict = classify(prism())
    assert verdict.status == Status.WORD_REPRESENTABLE
    assert verdict.r_number == 3
    assert verify(verdict, prism())


def test_classify_complete_graphs_terminate():
    for n in (1, 2, 3, 6):
        verdict = classify(complete(n))
        assert verdict.status == Status.COMPARABILITY
        assert verdict.r_number == 1 and verdict.prn_number == 1
        assert verify(verdict, complete(n))


def test_classify_star():
    verdict = classify(star(4))
    assert verdict.status == Status.COMPARABILITY
    assert verdict.r_number == 2 and verdict.prn_number == 2
    assert verdict.block_prns == (1, 2)


def test_classify_rejects_disconnected_and_empty():
    with pytest.raises(ValueError):
        classify(make_graph(2, []))
    with pytest.raises(ValueError):
        classify(make_graph(0, []))


def test_classify_certificate_k_matches_r_number():
    rng = random.Random(61)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 7))
        verdict = classify(g)
        if is_wr_status(verdict.status):
            assert verdict.certificate.k == verdict.r_number
            if verdict.status == Status.COMPARABILITY:
                assert verdict.perm_certificate.k == verdict.prn_number


def test_classify_doubled_w5_rim_is_its_own_witness():
    # W5 with rim vertex 3 doubled: the hub is a co-component, so the
    # quotient is K2 and the witness is the whole rim block {1..6}
    w5 = wheel(5)
    blown, _, _ = substitute(w5, 3, make_graph(2, []))
    verdict = classify(blown)
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness is not None
    assert verdict.witness == frozenset(range(1, 7))
    assert maximal_modular_partition(blown).quotient == complete(2)
    assert verify(verdict, blown)


def test_classify_reduced_when_caps_too_small():
    caps = Caps(word_cap=1, oracle_edge_cap=1)
    verdict = classify(cycle(6), caps)
    assert verdict.status == Status.REDUCED_TO_QUOTIENT
    assert verdict.quotient_ref == cycle(6)
    assert verify(verdict, cycle(6))


def test_classify_reduced_carries_prime_quotient_through_blocks():
    w6 = wheel(6)
    caps = Caps(word_cap=2, oracle_edge_cap=24)  # prn(C6)=3 exceeds the cap
    verdict = classify(w6, caps)
    assert verdict.status == Status.REDUCED_TO_QUOTIENT
    assert verify(verdict, w6)


def test_classify_agrees_with_oracle_small():
    for g in atlas_connected(6):
        verdict = classify(g)
        assert is_wr_status(verdict.status) == exists_semi_transitive_orientation(g)


def test_classify_agrees_with_oracle_on_seven_vertices():
    # the full 853-graph level; exactly 25 are not representable
    refuted = 0
    for g in atlas_connected(7, min_n=7):
        verdict = classify(g)
        by_oracle = exists_semi_transitive_orientation(g)
        assert verdict.status != Status.REDUCED_TO_QUOTIENT
        assert is_wr_status(verdict.status) == by_oracle
        if not by_oracle:
            refuted += 1
    assert refuted == 25


def test_classify_prn_matches_direct_computation_for_decomposables():
    from wordrep import prn

    for g in atlas_connected(6, min_n=2):
        partition = maximal_modular_partition(g)
        if all(len(b) == 1 for b in partition.blocks):
            continue
        verdict = classify(g)
        direct = prn(g, cap=4)
        if verdict.status == Status.COMPARABILITY:
            assert direct is not None and verdict.prn_number == direct.k
        else:
            assert direct is None


def test_classify_reduced_propagates_prime_quotient():
    # one vertex of C5 blown into an edge: quotient C5 stays undecided when
    # the orientation enumeration is capped below its edge count
    from wordrep import substitute

    g, _, _ = substitute(cycle(5), 0, complete(2))
    caps = Caps(word_cap=1, oracle_edge_cap=1)
    verdict = classify(g, caps)
    assert verdict.status == Status.REDUCED_TO_QUOTIENT
    assert verdict.quotient_ref == cycle(5)
    assert verify(verdict, g)


def test_theorem_regression_comparability_decomposes():
    # comparability of the whole iff comparability of quotient and all blocks
    for g in atlas_connected(6, min_n=2):
        partition = maximal_modular_partition(g)
        if all(len(b) == 1 for b in partition.blocks):
            continue
        whole = find_transitive_orientation(g) is not None
        parts = find_transitive_orientation(partition.quotient) is not None and all(
            find_transitive_orientation(bg) is not None
            for bg in induced_block_graphs(partition)
        )
        assert whole == parts


def test_classify_r_equals_brute_force_for_decomposables():
    for g in atlas_connected(5, min_n=2):
        partition = maximal_modular_partition(g)
        if all(len(b) == 1 for b in partition.blocks):
            continue
        verdict = classify(g)
        if is_wr_status(verdict.status):
            assert verdict.r_number == rep_number(g).k


def test_verify_rejects_tampered_certificate():
    verdict = classify(wheel(6))
    broken = Verdict(
        verdict.status,
        verdict.caps,
        certificate=Representation(
            verdict.certificate.word, verdict.certificate.k, "general", wheel(6)
        ),
        perm_certificate=verdict.perm_certificate,
        r_number=verdict.r_number,
        prn_number=verdict.prn_number,
    )
    # certificate for the wrong graph must fail verification
    assert not verify(broken, cycle(6))


@pytest.mark.parametrize(
    "other",
    [
        cycle(6),  # fewer vertices: the word's alphabet does not match
        make_graph(7, [((u + 3) % 7, (v + 3) % 7) for u, v in wheel(6).edges]),
    ],
    ids=["smaller-graph", "relabelled-copy"],
)
def test_verify_is_false_for_a_certificate_of_another_graph(other):
    verdict = classify(wheel(6))
    assert verify(verdict, wheel(6))
    assert other != wheel(6)
    assert verify(verdict, other) is False


def test_verify_rejects_wrong_witness():
    bogus = Verdict(
        Status.NOT_WORD_REPRESENTABLE, Caps(), witness=frozenset({0, 1, 2})
    )
    assert not verify(bogus, wheel(5))  # not a module
    trivial = Verdict(
        Status.NOT_WORD_REPRESENTABLE, Caps(), witness=frozenset(range(6))
    )
    assert not verify(trivial, wheel(5))  # the whole vertex set proves nothing


def test_verify_rejects_a_reduced_verdict_on_a_disconnected_graph():
    # no quotient is reached for a disconnected graph, so no reduced verdict
    # replays against one
    two_k2 = make_graph(4, [(0, 1), (2, 3)])
    reduced = Verdict(Status.REDUCED_TO_QUOTIENT, Caps(), quotient_ref=complete(2))
    assert not verify(reduced, two_k2)


def test_classify_decomposable_nonwr_with_pendant_on_hub():
    # wheel(5) plus a pendant on the hub: the rim+pendant block fails
    g = make_graph(7, sorted(wheel(5).edges) + [(0, 6)])
    verdict = classify(g)
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness == frozenset(range(1, 7))
    assert verify(verdict, g)


def test_verify_oracle_replay_for_prime_refutations():
    # a prime non-representable graph has no module witness; verification
    # falls back to replaying the orientation oracle
    g = make_graph(
        7,
        [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 5),
         (3, 4), (3, 5), (4, 5)],
    )
    partition = maximal_modular_partition(g)
    assert all(len(b) == 1 for b in partition.blocks)
    verdict = classify(g)
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness is None
    assert verify(verdict, g)


def p3_join_c5():
    # P3 on 0-2 joined to C5 on 3-7: blocks {0, 2}, {1} and the C5 rim
    edges = [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
    edges += [(a, b) for a in range(3) for b in range(3, 8)]
    return make_graph(8, edges)


def test_classify_finds_witness_behind_a_capped_block():
    # prn of the {0, 2} block is 2, over the word cap; the C5 block after it
    # still decides the answer
    g = p3_join_c5()
    verdict = classify(g, Caps(1, 24))
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness == frozenset(range(3, 8))
    assert verify(verdict, g)


def test_screen_block_is_the_classify_witness_at_any_caps():
    for g in atlas_connected(6, min_n=2) + (p3_join_c5(),):
        block = nonwr_screen(g)
        if block is None:
            continue
        for caps in (Caps(), Caps(1, 24)):
            verdict = classify(g, caps)
            assert verdict.status == Status.NOT_WORD_REPRESENTABLE
            assert verdict.witness == block


@pytest.mark.parametrize(
    "g, caps",
    [
        (wheel(6), Caps()),
        (substitute(cycle(5), 0, complete(2))[0], Caps(1, 1)),  # reduced
        (p3_join_c5(), Caps()),
    ],
    ids=["w6", "c5-blown-reduced", "p3-join-c5"],
)
def test_one_partition_per_classify_and_reduced_verify(monkeypatch, g, caps):
    import wordrep.characterizer as characterizer

    calls = []

    def counted(graph):
        calls.append(graph)
        return maximal_modular_partition(graph)

    monkeypatch.setattr(characterizer, "maximal_modular_partition", counted)
    verdict = classify(g, caps)
    assert calls == [g]
    calls.clear()
    assert verify(verdict, g)
    # only a reduced verdict replays the partition
    reduced = verdict.status == Status.REDUCED_TO_QUOTIENT
    assert calls == ([g] if reduced else [])


def test_clique_and_edgeless_blocks_are_neither_oriented_nor_searched(monkeypatch):
    import wordrep.characterizer as characterizer
    import wordrep.representation as representation

    # C5 with vertex 0 replaced by K12, vertex 2 by an edgeless 12-set and
    # vertex 3 by P4; vertices 1 and 4 stay single
    g, _, _ = substitute(cycle(5), 0, complete(12))
    g, _, _ = substitute(g, 1, empty(12))
    g, _, p4_map = substitute(g, 1, path_graph(4))
    p4, _ = induced_subgraph(g, p4_map.values())
    q = maximal_modular_partition(g).quotient
    oriented, realized = [], []

    def counted_orientation(graph):
        oriented.append(graph)
        return find_transitive_orientation(graph)

    def counted_realizer(poset, cap):
        realized.append(poset)
        return minimum_realizer(poset, cap)

    for module in (characterizer, representation):
        monkeypatch.setattr(module, "find_transitive_orientation", counted_orientation)
    monkeypatch.setattr(representation, "minimum_realizer", counted_realizer)
    verdict = classify(g)
    assert oriented == [p4, q] and q.n == q.m == 5
    assert realized == [poset_of(find_transitive_orientation(p4))]
    assert verdict.status == Status.WORD_REPRESENTABLE
    assert sorted(verdict.block_prns) == [1, 1, 1, 2, 2]
    assert verify(verdict, g)
    monkeypatch.undo()

    # the closed forms are the words the search returns
    for s in range(1, 41):
        for h in [complete(s)] + ([empty(s)] if s > 1 else []):
            assert closed_form_prn(h) == prn_of_orientation(find_transitive_orientation(h))


def test_classify_reduces_to_the_quotient_at_an_edgeless_block_over_the_cap():
    # prn of the edgeless block is 2, over the word cap of 1: the search
    # runs as for any block, and the quotient is what is left undecided
    g, _, _ = substitute(cycle(5), 0, empty(3))
    verdict = classify(g, Caps(1, 24))
    assert verdict.status == Status.REDUCED_TO_QUOTIENT
    assert verdict.quotient_ref == cycle(5)
    assert verify(verdict, g)


def test_classify_reduces_the_5_crown_past_the_word_cap_quickly():
    # prn is 5, above the word cap of 3: the realizer must refute k = 3,
    # which took 22 s before its dead-pair cut
    g = crown(5)
    started = time.perf_counter()
    verdict = classify(g, Caps(3, 24))
    assert time.perf_counter() - started < 10
    assert verdict.status == Status.REDUCED_TO_QUOTIENT
    assert verify(verdict, g)


@pytest.mark.parametrize(
    "g, quotient_ref",
    [
        (wheel(5), wheel(5)),
        (wheel(5), complete(2)),
        (p3_join_c5(), p3_join_c5()),
        (p3_join_c5(), maximal_modular_partition(p3_join_c5()).quotient),
        (complete(1), complete(1)),
        (complete(2), complete(2)),
        (complete(4), complete(4)),
    ],
    ids=["w5-names-w5", "w5-names-k2", "p3-join-c5-names-itself",
         "p3-join-c5-names-its-quotient", "k1", "k2", "k4"],
)
def test_verify_rejects_a_reduced_verdict_classify_never_makes(g, quotient_ref):
    # a block that is not a comparability graph decides "no" and a complete
    # graph is decided, whatever the caps, so neither is ever reduced
    reduced = Verdict(Status.REDUCED_TO_QUOTIENT, Caps(), quotient_ref=quotient_ref)
    assert not verify(reduced, g)


def test_verify_checks_a_composed_verdicts_numbers_against_its_parts():
    # W6 is K1 joined to C6: blocks of prn 1 and 3 over a K2 quotient
    g = wheel(6)
    verdict = classify(g)
    assert (verdict.r_number, verdict.prn_number) == (3, 3)
    assert (verdict.block_prns, verdict.quotient_r) == ((1, 3), 1)
    assert verify(verdict, g)
    # a 4-uniform word replays at r = 4, so only the prn rule rejects
    # blocks of prn 4 under a permutational certificate of 3 permutations
    word4 = uniformize(verdict.certificate.word, g, 4)
    high_r = dataclasses.replace(
        verdict, certificate=Representation(word4, 4, "general", g), r_number=4
    )
    assert verify(dataclasses.replace(high_r, block_prns=None, quotient_r=None), g)
    for forged in (
        dataclasses.replace(verdict, block_prns=(99, 99), quotient_r=7),
        dataclasses.replace(verdict, quotient_r=7),
        dataclasses.replace(verdict, block_prns=(1, 2)),
        dataclasses.replace(verdict, block_prns=None),
        dataclasses.replace(verdict, quotient_r=None),
        dataclasses.replace(verdict, block_prns=()),
        dataclasses.replace(high_r, block_prns=(1, 4)),
    ):
        assert not verify(forged, g)


LARGE_INPUTS = {
    # the transitive orientation search recursed once per free edge and the
    # realizer once per incomparable pair, so each of these raised
    # RecursionError (K60 only when oriented directly: classify decides a
    # complete graph without orienting it)
    "cone-k60+k1": (cone(make_graph(61, complete(60).edges)), 2, 2),
    "k60": (complete(60), 1, 1),
    "p40": (path_graph(40), 2, 2),
    "p4-antichain40": (substitute(path_graph(4), 0, make_graph(40))[0], 2, 2),
}


@pytest.mark.parametrize("name", LARGE_INPUTS)
def test_large_inputs_decide_without_recursion_error(name):
    g, r, prn = LARGE_INPUTS[name]
    assert find_transitive_orientation(g) is not None
    verdict = classify(g)
    assert verdict.status == Status.COMPARABILITY
    assert (verdict.r_number, verdict.prn_number) == (r, prn)
    assert verify(verdict, g)


@st.composite
def connected_graphs(draw, max_n, max_m):
    # a random spanning tree plus random edges, relabelled; graphs with six
    # or more vertices may start from W5 instead, so that refutations come up
    n = draw(st.integers(2, max_n))
    edges, start = set(), 1
    if n >= 6 and draw(st.booleans()):
        edges, start = set(wheel(5).edges), 6
    edges |= {(draw(st.integers(0, v - 1)), v) for v in range(start, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m - len(edges))))
    label = draw(st.permutations(range(n)))
    return make_graph(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def classify_inputs(draw):
    # connected, at most 8 vertices and 14 edges; half substitute a piece,
    # connected or not, for a vertex, so that nontrivial partitions occur
    if draw(st.booleans()):
        return draw(connected_graphs(8, 14))
    base = draw(connected_graphs(5, 8))
    k = draw(st.integers(2, 9 - base.n))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    inner = make_graph(k, draw(st.lists(st.sampled_from(pairs), unique=True)))
    g, _, _ = substitute(base, draw(st.integers(0, base.n - 1)), inner)
    assume(g.m <= 14)
    return g


@settings(derandomize=True, deadline=None, max_examples=200)
@given(g=classify_inputs())
def test_classify_matches_raw_enumeration_on_random_graphs(g):
    verdict = classify(g)
    assert is_wr_status(verdict.status) == brute_exists_semi_transitive(g)
    assert (verdict.status == Status.COMPARABILITY) == brute_has_transitive_orientation(g)
    assert verify(verdict, g)
