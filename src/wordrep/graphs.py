"""Immutable simple graphs on integer vertices 0..n-1, plus set-level predicates.

A graph is stored as its neighbour bitmasks, the one form every search
reads; its edge set is built from them on demand. Construct graphs with
``make_graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Literal

Edge = tuple[int, int]
SetRelation = Literal["adjacent", "nonadjacent", "mixed"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    Vertices are the integers 0..n-1, and bit u of ``adj[v]`` is set iff uv
    is an edge; ``make_graph`` builds these masks from an edge list and is
    the constructor to use. Instances are immutable and hashable, so
    searches can share and memoize them freely. ``edges`` is built from the
    masks on each read and is not kept, so a graph holds no edge tuples.
    """

    n: int
    adj: tuple[int, ...]

    @cached_property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def edges(self) -> frozenset[Edge]:
        """Unordered pairs in (min, max) form."""
        return frozenset(
            (u, v) for u, a in enumerate(self.adj) for v in iter_bits(a >> u + 1 << u + 1)
        )

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) has a vertex outside 0..{self.n - 1}")
        return bool(self.adj[u] >> v & 1)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def make_graph(n: int, edges: Iterable[Edge] = ()) -> Graph:
    """Build a canonical graph, deduplicating edges.

    Raises ValueError for loops or out-of-range endpoints.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


def neighborhood(g: Graph, v: int) -> frozenset[int]:
    """The set of vertices adjacent to v (v itself is never included)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in 0..{g.n - 1}")
    return frozenset(iter_bits(g.adj[v]))


def induced_subgraph(g: Graph, subset: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced by ``subset``, relabeled to 0..|S|-1 in sorted order.

    Returns the new graph together with the old-label -> new-label map.
    """
    vs = sorted(set(subset))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in 0..{g.n - 1}")
    relabel = {old: new for new, old in enumerate(vs)}
    moved = {1 << old: 1 << new for old, new in relabel.items()}  # old bit -> new bit
    mask = sum(moved)
    adj = []
    for u in vs:
        rest = g.adj[u] & mask
        row = 0
        while rest:
            low = rest & -rest
            row |= moved[low]
            rest ^= low
        adj.append(row)
    return Graph(len(vs), tuple(adj)), relabel


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (vacuously for n <= 1)."""
    return len(connected_components(g)) <= 1


def set_adjacency(g: Graph, a: Iterable[int], b: Iterable[int]) -> SetRelation:
    """Classify cross adjacency between two disjoint nonempty vertex sets.

    "adjacent" if every cross pair is an edge, "nonadjacent" if none is,
    "mixed" otherwise.
    """
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise ValueError("set_adjacency requires nonempty sets")
    if sa & sb:
        raise ValueError(f"sets overlap at {sorted(sa & sb)}")
    for v in sa | sb:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in 0..{g.n - 1}")
    mask_b = 0
    for v in sb:
        mask_b |= 1 << v
    want = None
    for u in sa:
        hits = g.adj[u] & mask_b
        if hits not in (0, mask_b):
            return "mixed"
        kind = "adjacent" if hits == mask_b else "nonadjacent"
        if want is None:
            want = kind
        elif want != kind:
            return "mixed"
    assert want is not None
    return want


def complement(g: Graph) -> Graph:
    """The complement graph on the same vertex set."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~a & ~(1 << v) for v, a in enumerate(g.adj)))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    adj = g.adj
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        seen = frontier = unseen & -unseen
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        comps.append(frozenset(iter_bits(seen)))
        unseen &= ~seen
    return comps
