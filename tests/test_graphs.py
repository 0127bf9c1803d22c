import pytest
from hypothesis import given, strategies as st

from wordrep import (
    induced_subgraph,
    is_connected,
    make_graph,
    maximal_modular_partition,
    neighborhood,
    set_adjacency,
)
from wordrep.io import GraphFileError, parse_graph_text
from helpers import complete, cycle, path_graph, random_graph, wheel
from oracles import brute_induced_subgraph

import random
import re
import sys
from pathlib import Path


def test_make_graph_k2():
    g = make_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_make_graph_c5():
    g = cycle(5)
    assert g.m == 5
    assert neighborhood(g, 0) == {1, 4}


def test_make_graph_deduplicates():
    g = make_graph(3, [(0, 1), (0, 1), (1, 0)])
    assert g.edges == frozenset({(0, 1)})
    assert neighborhood(g, 2) == frozenset()


@pytest.mark.parametrize("bad", [[(0, 5)], [(-1, 0)], [(2, 2)]])
def test_make_graph_rejects_bad_edges(bad):
    with pytest.raises(ValueError):
        make_graph(3, bad)


def test_neighborhood_hub_sees_all_rim():
    w5 = wheel(5)
    assert neighborhood(w5, 0) == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (0, 2), (2, 0)])
def test_has_edge_rejects_a_vertex_outside_the_graph(u, v):
    # adj[-1] is the last vertex's mask, so (-1, 0) used to read as (1, 0)
    with pytest.raises(ValueError, match=r"outside 0\.\.1$"):
        make_graph(2, [(0, 1)]).has_edge(u, v)


def test_neighborhood_rejects_bad_vertex():
    with pytest.raises(ValueError):
        neighborhood(cycle(4), 7)


def test_induced_subgraph_rim_of_wheel_is_cycle():
    w5 = wheel(5)
    sub, relabel = induced_subgraph(w5, range(1, 6))
    assert relabel == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    assert sub == cycle(5)


def test_induced_subgraph_full_is_identity():
    g = wheel(6)
    sub, relabel = induced_subgraph(g, range(g.n))
    assert sub == g
    assert all(relabel[v] == v for v in range(g.n))


def test_induced_subgraph_cycle_piece_is_path():
    sub, _ = induced_subgraph(cycle(5), {0, 1, 2})
    assert sub == path_graph(3)


def test_is_connected():
    assert is_connected(cycle(5))
    assert is_connected(wheel(5))
    assert not is_connected(make_graph(2, []))
    assert is_connected(make_graph(1, []))
    assert is_connected(make_graph(0, []))


def test_set_adjacency_wheel_hub_vs_rim():
    w5 = wheel(5)
    assert set_adjacency(w5, {0}, range(1, 6)) == "adjacent"


def test_set_adjacency_cases():
    c5 = cycle(5)
    assert set_adjacency(c5, {0}, {2}) == "nonadjacent"
    assert set_adjacency(c5, {0}, {1, 2}) == "mixed"


def test_set_adjacency_rejects_overlap_and_empty():
    c5 = cycle(5)
    with pytest.raises(ValueError):
        set_adjacency(c5, {0, 1}, {1, 2})
    with pytest.raises(ValueError):
        set_adjacency(c5, set(), {1})


@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_neighborhood_symmetry(n, rnd):
    g = random_graph(random.Random(rnd.getrandbits(32)), n)
    for u in range(n):
        for v in range(n):
            if u != v:
                assert (u in neighborhood(g, v)) == (v in neighborhood(g, u))


@given(st.integers(1, 8))
def test_single_pair_adjacency_matches_edges(n):
    g = complete(n) if n > 1 else make_graph(1, [])
    for u in range(n):
        for v in range(u + 1, n):
            assert set_adjacency(g, {u}, {v}) == "adjacent"


# ------------------------------------------------------- the Graph contract


def contract_graphs():
    """Every atlas graph (0..7 vertices, connected or not) and seeded random
    graphs with up to 70 vertices."""
    import networkx as nx

    atlas = [
        make_graph(g.number_of_nodes(), [(int(u), int(v)) for u, v in g.edges()])
        for g in nx.graph_atlas_g()
    ]
    rng = random.Random(27)
    return atlas + [random_graph(rng, n, p) for n in (8, 13, 30, 50, 70) for p in (0.1, 0.5, 0.9)]


def test_a_graph_is_rebuilt_from_its_edges_in_any_order():
    rng = random.Random(28)
    for g in contract_graphs():
        edges = sorted(g.edges)
        assert g.m == len(edges)
        assert make_graph(g.n, edges) == g
        flipped = [(v, u) for u, v in reversed(edges)]
        shuffled = edges[:]
        rng.shuffle(shuffled)
        for other in (make_graph(g.n, flipped), make_graph(g.n, shuffled)):
            assert other == g and hash(other) == hash(g)
            assert repr(other) == repr(g) == f"Graph(n={g.n}, edges={edges})"


def test_a_graph_holds_its_masks_and_no_edge_container():
    g = wheel(5)
    assert g.adj == (0b111110, 0b100101, 0b001011, 0b010101, 0b101001, 0b010011)
    assert g.edges == g.edges and g.m == 10
    assert set(vars(g)) == {"n", "adj", "m"}  # m is cached; edges is built per read
    assert g.edges is not g.edges


def test_induced_subgraph_matches_a_build_from_edge_tuples():
    rng = random.Random(29)
    for g in contract_graphs()[::7]:
        for size in {0, g.n // 2, g.n}:
            subset = rng.sample(range(g.n), size)
            sub, relabel = induced_subgraph(g, subset)
            assert sub == brute_induced_subgraph(g, subset)
            assert relabel == {v: i for i, v in enumerate(sorted(subset))}


def test_induced_subgraph_matches_a_build_from_edge_tuples_on_composite_blocks():
    # every block of the maximal modular partition of the benchmark's
    # composite inputs at seed 1, the blocks the decomposition induces
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    blocks = 0
    for case in workloads.composite(1, 20):
        g = make_graph(case.n, case.edges)
        for block in maximal_modular_partition(g).blocks:
            sub, relabel = induced_subgraph(g, block)
            assert sub == brute_induced_subgraph(g, block)
            assert relabel == {v: i for i, v in enumerate(sorted(block))}
            blocks += 1
    assert blocks == 1834


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 5)], "edge (0, 5) has an endpoint outside 0..2"),
        (3, [(-1, 0)], "edge (-1, 0) has an endpoint outside 0..2"),
        (3, [(2, 2)], "loop at vertex 2 is not allowed"),
        (-1, [], "vertex count must be nonnegative, got -1"),
    ],
)
def test_make_graph_errors_keep_their_messages(n, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_graph(n, edges)


def test_a_duplicate_edge_in_a_file_keeps_its_message():
    with pytest.raises(GraphFileError, match=r"^declared 2 edges but 1 were duplicates$"):
        parse_graph_text("3 2\n0 1\n1 0\n")
