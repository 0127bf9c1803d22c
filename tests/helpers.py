"""Small-graph constructors and generators shared by the tests."""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from wordrep import Graph, alternation_graph, is_connected, make_graph, substitute


def cycle(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty(n: int) -> Graph:
    return make_graph(n, [])


def wheel(rim: int) -> Graph:
    """Hub 0 joined to the cycle 1..rim."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return make_graph(rim + 1, edges)


def cone(h: Graph) -> Graph:
    """h plus one vertex adjacent to all of it."""
    return make_graph(h.n + 1, list(h.edges) + [(v, h.n) for v in range(h.n)])


def independent_blow_up(g: Graph, vertices, size: int) -> Graph:
    """g with each of ``vertices`` replaced by an independent set of ``size``
    vertices joined to its neighbours; the other vertices keep their labels."""
    for v in sorted(vertices, reverse=True):
        g = substitute(g, v, empty(size))[0]
    return g


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def crown(s: int) -> Graph:
    """K_{s,s} minus a perfect matching: i joined to s + j for i != j."""
    return make_graph(2 * s, [(i, s + j) for i in range(s) for j in range(s) if i != j])


def prism(n: int = 3) -> Graph:
    """The prism Pr_n: two n-cycles 0..n-1 and n..2n-1 joined by the rungs i, n + i."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    return make_graph(2 * n, edges + [(n + i, n + (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    """The Petersen graph: the 5-cycle 0..4, the pentagram 5..9 (i joined to
    i + 2), and the spokes i, 5 + i."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    return make_graph(10, edges + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def word_graph(n: int, seed: int) -> Graph:
    """The graph of a seeded random 2-uniform word on the letters 0..n-1:
    ``list(range(n)) * 2`` shuffled with ``random.Random(seed)``, and
    shuffled again until its graph is connected. These graphs are exactly
    the connected ones with R <= 2."""
    rng = random.Random(seed)
    word = list(range(n)) * 2
    while True:
        rng.shuffle(word)
        g, _ = alternation_graph(word)
        if is_connected(g):
            return g


def two_dimensional_order(seed: int, n: int) -> Graph:
    """Comparability graph of a seeded random order of dimension at most 2.

    a < b iff a < b as integers and in a seeded shuffle, so the order is the
    intersection of two linear orders.
    """
    rank = list(range(n))
    random.Random(seed).shuffle(rank)
    return make_graph(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if rank[a] < rank[b]]
    )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    """A random graph made connected by adding a random spanning tree."""
    g = random_graph(rng, n, p)
    edges = set(g.edges)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    return make_graph(n, edges)


@lru_cache(maxsize=None)
def atlas_connected(max_n: int, min_n: int = 1) -> tuple[Graph, ...]:
    """All connected graphs with min_n..max_n vertices, one per isomorphism class."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if min_n <= n <= max_n and nx.is_connected(g):
            out.append(make_graph(n, [(int(u), int(v)) for u, v in g.edges()]))
    return tuple(out)


def count_searches(monkeypatch, *modules) -> tuple[list[Graph], list]:
    """Record every transitive orientation asked for through ``modules`` or
    ``wordrep.representation`` (its graph), and every ``minimum_realizer``
    call, which only ``wordrep.representation`` makes (its poset)."""
    import wordrep.representation as representation
    from wordrep import find_transitive_orientation, minimum_realizer

    oriented: list[Graph] = []
    realized: list = []

    def counted_orientation(graph):
        oriented.append(graph)
        return find_transitive_orientation(graph)

    def counted_realizer(poset, cap):
        realized.append(poset)
        return minimum_realizer(poset, cap)

    for module in (*modules, representation):
        monkeypatch.setattr(module, "find_transitive_orientation", counted_orientation)
    monkeypatch.setattr(representation, "minimum_realizer", counted_realizer)
    return oriented, realized


def graph6_graphs(path: Path) -> list[Graph]:
    """The graphs of a file with one graph6 line per graph of at most 62
    vertices: chr(n + 63), then the upper triangle of the adjacency matrix
    column by column, six bits to a character, each offset by 63."""
    out = []
    for line in path.read_text(encoding="ascii").split():
        n = ord(line[0]) - 63
        bits = "".join(format(ord(c) - 63, "06b") for c in line[1:])
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        out.append(make_graph(n, [p for p, b in zip(pairs, bits) if b == "1"]))
    return out
