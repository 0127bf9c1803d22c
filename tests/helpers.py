"""Small-graph constructors and generators shared by the tests."""

from __future__ import annotations

import random
from functools import lru_cache

from wordrep import Graph, make_graph


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


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def crown(s: int) -> Graph:
    """K_{s,s} minus a perfect matching: i joined to s + j for i != j."""
    return make_graph(2 * s, [(i, s + j) for i in range(s) for j in range(s) if i != j])


def prism() -> Graph:
    return make_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


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
