import hashlib
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wordrep import (
    CapExceeded,
    alternation_graph,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
    is_connected,
    is_semi_transitive,
    is_transitive,
    make_graph,
    make_poset,
    minimum_realizer,
    orient,
    poset_dimension,
    poset_of,
)
from wordrep import orientations
from wordrep.orientations import (
    Orientation,
    Poset,
    _closure,
    _place,
    _some_neighbourhood_is_not_comparability,
    _transitive_masks,
    placement_order,
)
from helpers import (
    atlas_connected,
    complete,
    crown,
    cycle,
    graph6_graphs,
    path_graph,
    petersen,
    prism,
    random_graph,
    two_dimensional_order,
    wheel,
)
from oracles import (
    all_orientations,
    brute_exists_semi_transitive,
    brute_has_transitive_orientation,
    brute_is_semi_transitive,
    copy_first_place,
    reference_realizer,
    reference_semi_transitive_search,
    reference_transitive_masks,
)


def test_orient_validates():
    k2 = make_graph(2, [(0, 1)])
    o = orient(k2, [(1, 0)])
    assert o.arcs == frozenset({(1, 0)})
    with pytest.raises(ValueError):
        orient(k2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        orient(k2, [])
    with pytest.raises(ValueError):
        orient(k2, [(0, 2)])


def test_orient_rejects_a_vertex_outside_the_graph():
    # (-1, 0) used to pass as the arc 1 -> 0 and be kept as (-1, 0)
    with pytest.raises(ValueError, match=r"outside 0\.\.1$"):
        orient(make_graph(2, [(0, 1)]), [(-1, 0)])


def test_an_orientation_stores_only_its_successor_masks(monkeypatch):
    # arcs is built from the masks on each read: it round-trips through
    # orient, is not kept, and no check reads it
    reads = []
    arcs = Orientation.arcs

    def counted(o):
        reads.append(o)
        return arcs.fget(o)

    firsts = [o for o in map(find_transitive_orientation, atlas_connected(6)) if o is not None]
    assert len(firsts) > 100
    for o in firsts:
        assert orient(o.base, o.arcs) == o
        assert sorted(vars(o)) == ["base", "succ"]
    monkeypatch.setattr(Orientation, "arcs", property(counted))
    for g in atlas_connected(6):
        o = find_transitive_orientation(g)
        assert o is None or is_transitive(o) and is_semi_transitive(o)
    assert reads == []


def test_k2_both_orientations_transitive():
    k2 = make_graph(2, [(0, 1)])
    assert is_transitive(orient(k2, [(0, 1)]))
    assert is_transitive(orient(k2, [(1, 0)]))


def test_directed_path_without_closing_edge_is_not_transitive():
    p3 = path_graph(3)
    assert not is_transitive(orient(p3, [(0, 1), (1, 2)]))
    assert is_transitive(orient(p3, [(0, 1), (2, 1)]))


def test_no_orientation_of_c5_is_transitive():
    # frozen from raw enumeration of all 2^5 orientations
    assert not any(is_transitive(o) for o in all_orientations(cycle(5)))
    assert find_transitive_orientation(cycle(5)) is None


def test_c6_has_transitive_orientation():
    o = find_transitive_orientation(cycle(6))
    assert o is not None and is_transitive(o)


def test_transitive_orientation_returned_is_transitive_on_samples():
    for g in atlas_connected(5):
        o = find_transitive_orientation(g)
        if o is not None:
            assert is_transitive(o)


def test_find_transitive_orientation_agrees_with_brute_force():
    for g in atlas_connected(5):
        assert (find_transitive_orientation(g) is not None) == (
            brute_has_transitive_orientation(g)
        )


def test_transitive_orientation_is_the_lexicographically_first():
    # all_orientations lists orientations in lexicographic order over the
    # sorted edges, each edge's stored direction first; the forcing pass
    # must return the first transitive one, as a backtracking search would
    import networkx as nx

    graphs = [
        make_graph(g.number_of_nodes(), [(int(u), int(v)) for u, v in g.edges()])
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 6
    ]
    assert len(graphs) == 208
    for g in graphs:
        first = next((o for o in all_orientations(g) if is_transitive(o)), None)
        assert find_transitive_orientation(g) == first


def test_forcing_pass_equals_the_per_arc_reference():
    # setting an arc when it is queued, not when it is popped, keeps the
    # closed set of every call and the conflicts it meets, so the masks, or
    # None, are those of the pass that queued an arc once per forcing arc
    def incomparability(g):
        full = (1 << g.n) - 1
        return [full & ~a & ~(1 << v) for v, a in enumerate(g.adj)]

    rng = random.Random(11)
    masks = [
        random_graph(rng, n, p).adj
        for n in range(1, 31)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9)
        for _ in range(4)
    ]
    masks += [g.adj for g in atlas_connected(7)]
    masks += [incomparability(two_dimensional_order(seed, n)) for seed in range(5) for n in (8, 20, 40)]
    masks += [incomparability(path_graph(n)) for n in range(1, 81)]
    found = 0
    for adj in masks:
        expected = reference_transitive_masks(adj)
        assert orientations._transitive_masks(adj) == expected, adj
        found += expected is not None
    assert 0 < found < len(masks)


def test_every_transitive_orientation_is_semi_transitive():
    for g in atlas_connected(5):
        for o in all_orientations(g):
            if is_transitive(o):
                assert is_semi_transitive(o)


def test_cyclic_triangle_is_not_semi_transitive():
    c3 = cycle(3)
    assert not is_semi_transitive(orient(c3, [(0, 1), (1, 2), (2, 0)]))


def test_all_orientations_of_w5_fail_semi_transitivity():
    # frozen from raw enumeration of all 2^10 orientations
    assert not any(is_semi_transitive(o) for o in all_orientations(wheel(5)))


def test_shortcut_detection_minimal_example():
    # path 0->1->2->3 closed by 0->3 with the pair (0, 2) missing
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    o = orient(g, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    assert not is_semi_transitive(o)
    # adding the missing pair resolves it
    g2 = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2)])
    o2 = orient(g2, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2)])
    assert is_semi_transitive(o2)


def test_semi_transitivity_matches_the_definition():
    # every orientation, cyclic ones included, of the small connected graphs
    # and of W5, then seeded random acyclic orientations (each edge points
    # along a random vertex order)
    for g in atlas_connected(5) + (wheel(5),):
        for o in all_orientations(g):
            assert is_semi_transitive(o) == brute_is_semi_transitive(o), o
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.random())
        rank = rng.sample(range(n), n)
        o = orient(g, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges])
        assert is_semi_transitive(o) == brute_is_semi_transitive(o), o


def test_semi_transitivity_check_is_polynomial_on_transitive_orientations():
    # a transitive orientation has exponentially many paths between the ends
    # of its arcs, which a path search would walk one by one
    assert is_semi_transitive(find_transitive_orientation(complete(40)))
    rng = random.Random(40)
    points = [(rng.random(), rng.random()) for _ in range(40)]
    order = [
        (a, b)
        for a in range(40)
        for b in range(40)
        if points[a][0] < points[b][0] and points[a][1] < points[b][1]
    ]
    g = make_graph(40, order)
    assert g.m > 300
    assert is_semi_transitive(orient(g, order))


def test_oracle_w5_false_w6_true_c5_true():
    assert not exists_semi_transitive_orientation(wheel(5))
    assert exists_semi_transitive_orientation(wheel(6))
    assert exists_semi_transitive_orientation(cycle(5))


def test_oracle_matches_raw_enumeration_small():
    for g in atlas_connected(5):
        assert exists_semi_transitive_orientation(g) == brute_exists_semi_transitive(g)


def test_oracle_matches_raw_enumeration_with_refutations():
    # 6 vertices is the first size with a non-representable graph (W5), so
    # unlike the test above this exercises refutation
    graphs = [wheel(5)] + [g for g in atlas_connected(6, min_n=6) if g.m <= 9]
    for g in graphs:
        assert exists_semi_transitive_orientation(g) == brute_exists_semi_transitive(g)


def test_oracle_refutes_exactly_the_26_atlas_graphs():
    # Kitaev & Lozin, Words and Graphs: of the connected graphs on at most 7
    # vertices, 1 on 6 vertices and 25 on 7 are not word-representable
    refuted = [
        g.n for g in atlas_connected(7, min_n=2) if not exists_semi_transitive_orientation(g)
    ]
    assert (refuted.count(6), refuted.count(7), len(refuted)) == (1, 25, 26)


def test_oracle_refutes_929_of_the_11117_connected_8_vertex_graphs():
    # Kitaev, DLT 2017: 929 of the 11,117 connected graphs on 8 vertices are
    # not word-representable. The list is regenerated by tests/make_atlas8.py;
    # the nine graphs with more than 24 edges all have semi-transitive
    # orientations, and the cap is raised to 28 so that they are searched too
    graphs = graph6_graphs(Path(__file__).resolve().parent / "atlas8.g6")
    assert len(graphs) == 11_117 and len(set(graphs)) == 11_117
    assert all(g.n == 8 and is_connected(g) for g in graphs)
    assert max(g.m for g in graphs) == 28 and sum(g.m > 24 for g in graphs) == 9
    refuted = [g for g in graphs if not exists_semi_transitive_orientation(g, max_edges=28)]
    assert len(refuted) == 929 and max(g.m for g in refuted) <= 24
    # which 929, not only how many: the SHA-256 of the 0-based line numbers
    # of the refuted graphs in atlas8.g6, ascending, written in decimal and
    # joined by single spaces
    refuted_set = set(refuted)
    lines = " ".join(str(i) for i, g in enumerate(graphs) if g in refuted_set)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "105145eb794d1197aba827169abbe0cc540eec95e943b32f0226a56df745eb89"
    )


def labelled_graphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for chosen in range(1 << len(pairs)):
        yield make_graph(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])


def test_every_labelled_graph_on_at_most_4_vertices_is_a_comparability_graph():
    # why the neighbourhood screen skips vertices of degree at most 4
    for n in range(1, 5):
        assert all(_transitive_masks(g.adj) is not None for g in labelled_graphs(n))


def test_on_5_vertices_only_the_12_labellings_of_c5_are_not_comparability_graphs():
    failed = [g for g in labelled_graphs(5) if _transitive_masks(g.adj) is None]
    assert len(failed) == 12 == len(set(failed))
    assert all(g.m == 5 and is_connected(g) and {a.bit_count() for a in g.adj} == {2} for g in failed)


def screen_off_refutes(monkeypatch, graphs) -> bool:
    # the search alone, with the neighbourhood screen patched out
    with monkeypatch.context() as m:
        m.setattr(orientations, "_some_neighbourhood_is_not_comparability", lambda adj: False)
        return not any(exists_semi_transitive_orientation(g, max_edges=g.m) for g in graphs)


def test_the_neighbourhood_screen_fires_on_20_of_the_26_atlas_refutations(monkeypatch):
    graphs = atlas_connected(7, min_n=2)
    screened = [g for g in graphs if _some_neighbourhood_is_not_comparability(g.adj)]
    assert len(screened) == 20 and screen_off_refutes(monkeypatch, screened)


def test_the_neighbourhood_screen_fires_on_681_of_the_929_8_vertex_refutations(monkeypatch):
    # each graph it fires on is refuted by the search alone, so it fires on
    # none of the 10,188 word-representable 8-vertex graphs
    graphs = graph6_graphs(Path(__file__).resolve().parent / "atlas8.g6")
    screened = [g for g in graphs if _some_neighbourhood_is_not_comparability(g.adj)]
    assert len(screened) == 681 and screen_off_refutes(monkeypatch, screened)


@st.composite
def small_graphs(draw):
    # connected or not, at most 7 vertices and 12 edges; some start from a
    # relabelled W5, so that refutations and near misses come up too
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set()
    if n >= 6 and draw(st.booleans()):
        label = draw(st.permutations(range(n)))
        edges = {(min(label[u], label[v]), max(label[u], label[v])) for u, v in wheel(5).edges}
    edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12 - len(edges))))
    return make_graph(n, edges)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(g=small_graphs())
def test_oracle_matches_raw_enumeration_on_random_graphs(g):
    assert exists_semi_transitive_orientation(g) == brute_exists_semi_transitive(g)


def test_oracle_accepts_graphs_of_random_words():
    # a word's alternation graph is word-representable by definition
    rng = random.Random(8)
    for n in range(8, 13):
        for _ in range(10):
            word = [v for v in range(n) for _ in range(rng.randint(2, 3))]
            rng.shuffle(word)
            g, _ = alternation_graph(word)
            assert exists_semi_transitive_orientation(g, max_edges=g.m), word


def test_oracle_refutes_graphs_with_an_induced_odd_wheel():
    # W5 and W7 are not word-representable, and the property is hereditary;
    # extra vertices join the wheel and each other at random, leaving it induced
    rng = random.Random(9)
    for n in range(8, 13):
        for rim in (5, 7):
            for _ in range(3):
                edges = list(wheel(rim).edges)
                for v in range(rim + 1, n):
                    edges += [(u, v) for u in range(v) if rng.random() < 0.5]
                g = make_graph(n, edges)
                assert not exists_semi_transitive_orientation(g, max_edges=g.m), edges


def test_oracle_reach_past_the_leaf_enumeration():
    # a prime W5 plus 6 vertices with 30 edges
    # (perfbench.workloads.wheel_plus(Random(1), 5, 6, 30)): about 2^30
    # complete orientations, but a shortcut shows on a few placed vertices
    g = make_graph(12, [
        (0, 1), (0, 4), (0, 6), (0, 7), (0, 8), (0, 10), (0, 11), (1, 6), (1, 8),
        (2, 3), (2, 4), (2, 5), (2, 8), (2, 11), (3, 5), (3, 7), (3, 8), (3, 9),
        (3, 11), (4, 6), (4, 9), (5, 6), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9),
        (8, 9), (8, 11), (9, 10),
    ])
    assert g.m == 30
    assert not exists_semi_transitive_orientation(g, max_edges=30)


def test_oracle_on_disconnected_graphs():
    # each component's first arc is fixed, and a component that fails
    # decides, also when it is placed after another (the star's hub has the
    # higher degree)
    w5_k2 = make_graph(8, list(wheel(5).edges) + [(6, 7)])
    star_w5 = make_graph(13, [(0, i) for i in range(1, 7)] + [(u + 7, v + 7) for u, v in wheel(5).edges])
    c5_k1 = make_graph(6, cycle(5).edges)
    two_c5 = make_graph(10, list(cycle(5).edges) + [(u + 5, v + 5) for u, v in cycle(5).edges])
    assert not exists_semi_transitive_orientation(w5_k2)
    assert not exists_semi_transitive_orientation(star_w5)
    assert exists_semi_transitive_orientation(c5_k1)
    assert exists_semi_transitive_orientation(two_c5)
    assert exists_semi_transitive_orientation(make_graph(3, []))


def test_oracle_equals_the_full_closure_search():
    # carrying reachability masks from node to node keeps every answer of
    # the same search with a from-scratch check at each node: all connected
    # atlas graphs on at most 7 vertices, seeded random graphs with at most
    # 24 edges, and W5 or W7 plus random vertices, which are all refuted
    rng = random.Random(22)
    graphs = list(atlas_connected(7, min_n=2))
    for _ in range(300):
        n = rng.randint(5, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(make_graph(n, rng.sample(pairs, rng.randint(1, min(24, len(pairs))))))
    wheels = []
    for _ in range(60):
        rim = rng.choice((5, 7))
        n = rim + 1 + rng.randint(1, 4)
        edges = list(wheel(rim).edges)
        for v in range(rim + 1, n):
            edges += [(u, v) for u in range(v) if rng.random() < 0.3]
        wheels.append(make_graph(n, edges))
    answers = [exists_semi_transitive_orientation(g, max_edges=g.m) for g in graphs + wheels]
    assert answers == [reference_semi_transitive_search(g) for g in graphs + wheels]
    assert not any(answers[len(graphs):])
    assert answers.count(False) > 26 + len(wheels)  # the atlas has 26


def test_placement_step_matches_the_definition_at_every_prefix():
    # seeded random orientations, cyclic ones included, placed one vertex at
    # a time in a random order: the step refuses a vertex exactly when the
    # prefix up to it stops being semi-transitive (the property is
    # hereditary, so it never comes back), and while it accepts, its masks
    # are the prefix's closure (descendants) and its transpose (ancestors).
    # The step reads arcs off the graph's neighbour masks; given the
    # orientation's successor masks instead, it returns the same result
    rng = random.Random(23)
    for _ in range(3000):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        rank = rng.sample(range(n), n)
        flip = rng.choice((0.0, 0.05, 0.2, 0.5))
        arcs = [
            (u, v) if (rank[u] < rank[v]) != (rng.random() < flip) else (v, u)
            for u, v in g.edges
        ]
        succ, pred = [0] * n, [0] * n
        for x, y in arcs:
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        masks: tuple[list[int], list[int]] | None = ([0] * n, [0] * n)
        placed = 0
        for v in rng.sample(range(n), n):
            if masks is not None:
                step = (v, succ[v] & placed, pred[v] & placed)
                by_adj = _place(*step, g.adj, *masks)
                assert by_adj == _place(*step, succ, *masks), (arcs, v)
                masks = by_adj
            placed |= 1 << v
            prefix = [s & placed if placed >> x & 1 else 0 for x, s in enumerate(succ)]
            sub = Orientation(g, tuple(prefix))
            assert (masks is not None) == brute_is_semi_transitive(sub), (arcs, v)
            if masks is not None:
                desc = _closure(n, prefix)
                anc = [sum(1 << x for x in range(n) if desc[x] >> y & 1) for y in range(n)]
                assert masks == (desc, anc)


def test_placement_step_leaves_its_inputs_alone():
    # the oracle starts every step slot from one shared pair of lists and
    # reads a step's masks again on backtrack, so the step must never write
    # the lists it is given, whether it places v, finds a cycle or fails an
    # interval; and it returns what the copy-first step returns. Seeded
    # random graphs in placement order, every choice of arcs at each step,
    # going on from a random placed one
    rng = random.Random(32)
    seen = Counter()
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        masks = ([0] * g.n, [0] * g.n)
        for v, below in placement_order(g):
            placed = []
            out = below
            while True:
                before = (list(masks[0]), list(masks[1]))
                got = _place(v, out, below & ~out, g.adj, *masks)
                assert masks == before, (g.adj, v, out)
                expected, outcome = copy_first_place(v, out, below & ~out, g.adj, *masks)
                assert got == expected, (g.adj, v, out)
                seen[outcome] += 1
                if got is not None:
                    assert got[0] is not masks[0] and got[1] is not masks[1]
                    placed.append(got)
                if not out:
                    break
                out = (out - 1) & below
            if not placed:
                break
            masks = rng.choice(placed)
    assert min(seen[k] for k in ("placed", "cycle", "interval")) > 100, seen


@pytest.mark.parametrize(
    "name, g, answer, steps",
    [
        ("W5", wheel(5), False, 102),
        ("W7", wheel(7), False, 290),
        ("W9", wheel(9), False, 782),
        ("Petersen", petersen(), True, 12),
        ("Pr6", prism(6), True, 14),
        ("5-crown", crown(5), True, 21),
    ],
)
def test_oracle_search_tree_is_pinned(monkeypatch, name, g, answer, steps):
    # the placement order, choices and cuts fix how many steps the search
    # takes before it answers; a faster step must take the same ones. The
    # neighbourhood screen refutes the odd wheels before any step, as each
    # hub sees an odd cycle, and checks no vertex of the others, whose
    # maximum degree is at most 4; with the screen patched out, the search
    # takes the pinned steps on all six
    calls = []
    step = orientations._place
    monkeypatch.setattr(orientations, "_place", lambda *args: calls.append(1) or step(*args))
    assert exists_semi_transitive_orientation(g, max_edges=g.m) is answer
    assert len(calls) == (steps if answer else 0), name
    monkeypatch.setattr(orientations, "_some_neighbourhood_is_not_comparability", lambda adj: False)
    calls.clear()
    assert exists_semi_transitive_orientation(g, max_edges=g.m) is answer
    assert len(calls) == steps, name


def test_oracle_refuses_past_edge_cap():
    with pytest.raises(CapExceeded):
        exists_semi_transitive_orientation(complete(8), max_edges=24)
    assert exists_semi_transitive_orientation(complete(8), max_edges=28)


def test_poset_of_chain():
    k2 = make_graph(2, [(0, 1)])
    p = poset_of(orient(k2, [(0, 1)]))
    assert p.relation == frozenset({(0, 1)})


def test_poset_of_rejects_non_transitive():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        poset_of(orient(p3, [(0, 1), (1, 2)]))


def test_poset_of_p3_middle_sink():
    p = poset_of(orient(path_graph(3), [(0, 1), (2, 1)]))
    assert p.relation == frozenset({(0, 1), (2, 1)})


def test_poset_of_transitive_tournament_is_chain():
    k3 = complete(3)
    o = find_transitive_orientation(k3)
    p = poset_of(o)
    assert len(p.relation) == 3  # a three-chain


def test_make_poset_validates():
    with pytest.raises(ValueError):
        make_poset({0}, [(0, 0)])
    with pytest.raises(ValueError):
        make_poset({0, 1}, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_poset({0, 1, 2}, [(0, 1), (1, 2)])  # missing (0, 2)
    make_poset({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])


def test_dimension_of_chain_is_one():
    p = make_poset({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    assert poset_dimension(p) == 1


def test_dimension_of_antichain_is_two():
    for size in (2, 3, 8):
        p = make_poset(range(size), [])
        assert poset_dimension(p) == 2


def test_dimension_of_singleton_is_one():
    assert poset_dimension(make_poset({0}, [])) == 1


def test_dimension_of_c6_poset_is_three():
    o = find_transitive_orientation(cycle(6))
    assert poset_dimension(poset_of(o)) == 3


def test_dimension_cap_returns_none():
    o = find_transitive_orientation(cycle(6))
    assert poset_dimension(poset_of(o), cap=2) is None


def test_realizer_intersects_back_to_poset():
    p = make_poset({0, 1, 2, 3}, [(0, 2), (0, 3), (1, 2), (1, 3)])
    realizer = minimum_realizer(p)
    assert realizer is not None and len(realizer) == 2
    pos = [{v: i for i, v in enumerate(ext)} for ext in realizer]
    meets = {
        (a, b)
        for a in p.elements
        for b in p.elements
        if a != b and all(q[a] < q[b] for q in pos)
    }
    assert meets == set(p.relation)


def test_realizer_on_large_antichain_terminates():
    p = make_poset(range(11), [])
    realizer = minimum_realizer(p, cap=4)
    assert realizer is not None and len(realizer) == 2


def test_realizer_of_unclosed_relation_is_none():
    # 0 < 1 < 2 without (0, 2): the pair (0, 2) can be reversed in no slot,
    # because 0 reaches 2 through 1
    p = Poset(frozenset(range(5)), frozenset({(0, 1), (1, 2)}))
    assert minimum_realizer(p) is None


@pytest.mark.parametrize(
    "relation, cycle_text",
    [
        ({(0, 1), (1, 0)}, "0 -> 1 -> 0"),
        ({(3, 0), (0, 1), (1, 2), (2, 0)}, "0 -> 1 -> 2 -> 0"),
        ({(4, 2), (2, 4), (0, 1)}, "2 -> 4 -> 2"),
    ],
)
def test_realizer_of_cyclic_relation_names_the_cycle(relation, cycle_text):
    # it used to fail with "min() arg is an empty sequence" in the sort of
    # the first extension
    p = Poset(frozenset(range(5)), frozenset(relation))
    with pytest.raises(ValueError, match=f"^relation is cyclic: {cycle_text}$"):
        minimum_realizer(p)


def random_order(rng: random.Random, n: int, d: int) -> Poset:
    """The intersection of d random linear orders of 0..n-1."""
    positions = []
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        positions.append({v: i for i, v in enumerate(perm)})
    relation = [
        (a, b) for a in range(n) for b in range(n)
        if a != b and all(pos[a] < pos[b] for pos in positions)
    ]
    return make_poset(range(n), relation)


def test_realizer_equals_the_plain_slot_search():
    # the k = 2 forcing pass and the dead-pair cut at k >= 3 keep the first
    # leaf of the unpruned search: same extensions, same order, same None
    rng = random.Random(19)
    posets = [random_order(rng, rng.randint(2, 10), d) for d in (1, 2, 3, 4) for _ in range(100)]
    posets += [
        poset_of(o)
        for g in atlas_connected(6, min_n=2)
        if (o := find_transitive_orientation(g)) is not None
    ]
    # the 4-crown has dimension 4 (under random labels the plain search
    # takes minutes to refute k = 3 on it)
    posets.append(poset_of(find_transitive_orientation(crown(4))))
    sizes, nones = set(), 0
    for p in posets:
        for cap in (1, 2, 3, 4):
            expected = reference_realizer(p, cap)
            assert minimum_realizer(p, cap) == expected, (sorted(p.relation), cap)
            if expected is None:
                nones += 1
            else:
                sizes.add(len(expected))
    assert sizes == {1, 2, 3, 4} and nones > 0


def test_realizer_of_unclosed_relation_is_none_at_every_cap():
    relations = [
        {(0, 1), (1, 2)},
        {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)},  # (0, 3) missing
        {(3, 1), (1, 4)},
    ]
    for relation in relations:
        p = Poset(frozenset(range(5)), frozenset(relation))
        for cap in (1, 2, 3, 4):
            assert minimum_realizer(p, cap) is None
            assert reference_realizer(p, cap) is None


@pytest.mark.parametrize(
    "arcs",
    [
        "02 06 14 15 32 34 75 76",
        "02 05 13 14 62 63 74 75",
    ],
)
def test_realizer_of_randomly_labelled_8_cycles_is_quick(arcs):
    # the two 8-cycle blocks of composite seed 1 that took 50-130 ms each
    # when the search refuted k = 2 pair by pair
    p = make_poset(range(8), [(int(a[0]), int(a[1])) for a in arcs.split()])
    started = time.perf_counter()
    realizer = minimum_realizer(p)
    assert time.perf_counter() - started < 10
    assert realizer == reference_realizer(p, 4) and len(realizer) == 3


def test_realizer_refutes_the_5_crown_at_cap_3_quickly():
    # the 5-crown has dimension 5; refuting k = 3 took 22 s without the
    # dead-pair cut
    p = poset_of(find_transitive_orientation(crown(5)))
    started = time.perf_counter()
    assert minimum_realizer(p, cap=3) is None
    assert time.perf_counter() - started < 10


def test_randomly_labelled_10_cycles_have_dimension_3_quickly():
    for seed in range(10):
        label = list(range(10))
        random.Random(seed).shuffle(label)
        g = make_graph(10, [(label[i], label[(i + 1) % 10]) for i in range(10)])
        started = time.perf_counter()
        assert poset_dimension(poset_of(find_transitive_orientation(g))) == 3
        assert time.perf_counter() - started < 10, seed
