"""Modules, maximal modular partitions, quotients, substitution, and the lex product."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceeded
from .graphs import (
    Graph,
    complement,
    connected_components,
    induced_subgraph,
    is_connected,
    iter_bits,
)

ALL_MODULES_MAX_N = 15


def is_module(g: Graph, members: Iterable[int]) -> bool:
    """True iff every vertex outside the set sees all of it or none of it."""
    mset = set(members)
    if not mset:
        raise ValueError("a module must be nonempty")
    mask = 0
    for v in mset:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in 0..{g.n - 1}")
        mask |= 1 << v
    for v in range(g.n):
        if mask >> v & 1:
            continue
        hits = g.adj[v] & mask
        if hits != 0 and hits != mask:
            return False
    return True


def all_modules(g: Graph) -> list[frozenset[int]]:
    """Every module of the graph, by direct subset enumeration (n <= 15)."""
    if g.n > ALL_MODULES_MAX_N:
        raise CapExceeded(f"all_modules enumerates subsets; n={g.n} exceeds {ALL_MODULES_MAX_N}")
    out = []
    for mask in range(1, 1 << g.n):
        ok = True
        for v in range(g.n):
            if mask >> v & 1:
                continue
            hits = g.adj[v] & mask
            if hits != 0 and hits != mask:
                ok = False
                break
        if ok:
            out.append(frozenset(iter_bits(mask)))
    return out


def _grow_module(g: Graph, v: int, module: int, y: int, stop: int) -> int:
    """The smallest module containing ``module | 1 << y``, or 0 once it meets ``stop``.

    ``module`` must be a module holding v. An outside vertex splits a set
    holding v iff it tells v apart from some member, and none tells v apart
    from a member of ``module``; so only y and the members absorbed after it
    are compared with v, each once.
    """
    mask = module | 1 << y
    new = 1 << y
    while new:
        split = 0
        for w in iter_bits(new):
            split |= g.adj[v] ^ g.adj[w]
        new = split & ~mask
        if new & stop:
            return 0
        mask |= new
    return mask


@dataclass(frozen=True)
class ModularPartition:
    """A modular partition with its quotient graph and vertex -> block map."""

    base: Graph
    blocks: tuple[frozenset[int], ...]
    quotient: Graph
    block_map: tuple[int, ...]


def quotient(g: Graph, blocks: Sequence[Iterable[int]]) -> tuple[Graph, tuple[int, ...]]:
    """The quotient graph of a modular partition, plus the vertex -> block map.

    Each block must be a module and the blocks must partition the vertex
    set; two blocks are adjacent in the quotient iff they are fully joined.
    """
    bsets = [frozenset(b) for b in blocks]
    block_map = [-1] * g.n
    for i, b in enumerate(bsets):
        if not is_module(g, b):
            raise ValueError(f"block {sorted(b)} is not a module")
        for v in b:
            if block_map[v] != -1:
                raise ValueError(f"vertex {v} appears in two blocks")
            block_map[v] = i
    if -1 in block_map:
        raise ValueError(f"vertex {block_map.index(-1)} not covered by any block")
    reps = [min(b) for b in bsets]
    adj = tuple(
        sum(1 << j for j, r in enumerate(reps) if g.adj[rep] >> r & 1) for rep in reps
    )
    return Graph(len(bsets), adj), tuple(block_map)


def maximal_modular_partition(g: Graph) -> ModularPartition:
    """The unique partition of a connected graph into maximal strong modules.

    Case split on Gallai's structure: if the complement is disconnected, the
    blocks are the co-components. Otherwise the quotient is prime, so the
    block M(v) of the lowest vertex v not yet covered is a proper module
    and holds every proper module that holds v; the smallest module holding
    v and y is therefore inside M(v) when y is in M(v), and is the whole
    vertex set when it is not. The block grows from {v}: for each later y
    not yet placed, it becomes the smallest module holding the block and y.
    The block is a union of proper modules holding v, so it stays inside
    M(v); when y is in M(v) the closure stays there too, and when y is not
    the closure is the whole vertex set, so it may stop at the first vertex
    it absorbs that is known to lie outside M(v): an earlier block's vertex
    or an earlier such y. Its first step absorbs the vertices that tell v
    and y apart, so when one of them is known to lie outside, y is outside
    and no closure runs. Every y ends up in the block or outside it, so
    the block is M(v) exactly, and at most one closure per block runs to
    the whole vertex set. Prime graphs and complete graphs come out as
    all-singleton partitions whose quotient is the graph itself.
    """
    if g.n < 2:
        raise ValueError("maximal modular partition needs at least two vertices")
    if not is_connected(g):
        raise ValueError("the graph is not connected")
    full = (1 << g.n) - 1
    adj = g.adj
    blocks = connected_components(complement(g))
    if len(blocks) < 2:
        blocks = []
        covered = 0
        for v in range(g.n):
            if covered >> v & 1:
                continue
            block = 1 << v
            outside = covered
            for y in range(v + 1, g.n):
                if not (outside | block) >> y & 1:
                    if (adj[v] ^ adj[y]) & outside:
                        # the closure's first step absorbs a vertex outside
                        outside |= 1 << y
                        continue
                    closure = _grow_module(g, v, block, y, outside)
                    if closure in (0, full):
                        outside |= 1 << y
                    else:
                        block = closure
            covered |= block
            blocks.append(frozenset(iter_bits(block)))
    q, block_map = quotient(g, blocks)
    return ModularPartition(g, tuple(blocks), q, block_map)


def substitute(
    g: Graph, pivot: int, inner: Graph
) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """Replace vertex ``pivot`` of g by the graph ``inner``.

    The remaining vertices of g keep their relative order and come first;
    inner's vertices are appended after them. Every vertex of the inserted
    copy is joined to the old neighbors of the pivot, which makes the copy a
    module of the result. Returns the result plus both label maps.
    """
    if not 0 <= pivot < g.n:
        raise ValueError(f"pivot {pivot} not in 0..{g.n - 1}")
    if inner.n < 1:
        raise ValueError("inner graph must be nonempty")
    g_map = {v: (v if v < pivot else v - 1) for v in range(g.n) if v != pivot}
    base = g.n - 1
    m_map = {v: base + v for v in range(inner.n)}
    low, copy = (1 << pivot) - 1, (1 << inner.n) - 1 << base

    def outer(a: int) -> int:
        """g's mask a relabelled by g_map: the pivot's bit dropped."""
        return a & low | a >> pivot + 1 << pivot

    adj = [outer(a) | (copy if a >> pivot & 1 else 0) for v, a in enumerate(g.adj) if v != pivot]
    adj += [outer(g.adj[pivot]) | a << base for a in inner.adj]
    return Graph(base + inner.n, tuple(adj)), g_map, m_map


def lex_product(g: Graph, h: Graph) -> tuple[Graph, dict[tuple[int, int], int]]:
    """The lexicographical product: copies of h substituted for every vertex of g.

    Vertex (a, b) gets label a * |V(h)| + b. Pairs are adjacent iff their
    first coordinates are adjacent in g, or the first coordinates agree and
    the second are adjacent in h.
    """
    if g.n < 1 or h.n < 1:
        raise ValueError("lex product needs nonempty factors")
    label = {(a, b): a * h.n + b for a in range(g.n) for b in range(h.n)}
    copy = (1 << h.n) - 1
    adj = tuple(
        sum(copy << c * h.n for c in iter_bits(g.adj[a])) | h.adj[b] << a * h.n
        for a in range(g.n)
        for b in range(h.n)
    )
    return Graph(g.n * h.n, adj), label


def reconstruct(partition: ModularPartition, block_graphs: Sequence[Graph]) -> Graph:
    """Blow each quotient vertex back up into its block graph.

    ``block_graphs[i]`` is placed on the sorted vertices of block i; with the
    induced block subgraphs this returns the original base graph exactly.
    """
    blocks = partition.blocks
    if len(block_graphs) != len(blocks):
        raise ValueError(
            f"expected {len(blocks)} block graphs, got {len(block_graphs)}"
        )
    adj = [0] * partition.base.n
    for i, bg in enumerate(block_graphs):
        members = sorted(blocks[i])
        if bg.n != len(members):
            raise ValueError(
                f"block {i} has {len(members)} vertices but its graph has {bg.n}"
            )
        joined = sum(1 << v for j in iter_bits(partition.quotient.adj[i]) for v in blocks[j])
        for u, a in zip(members, bg.adj):
            adj[u] = sum(1 << members[w] for w in iter_bits(a)) | joined
    return Graph(partition.base.n, tuple(adj))


def induced_block_graphs(partition: ModularPartition) -> list[Graph]:
    """The subgraphs induced by each block, in block order."""
    return [
        induced_subgraph(partition.base, block)[0] for block in partition.blocks
    ]
