"""Orientation certificates: transitivity, semi-transitivity, posets, and dimension.

A transitive orientation certifies comparability. A semi-transitive
orientation (acyclic and shortcut-free) certifies word-representability: a
shortcut is a directed path v1 -> v2 -> ... -> vk (k >= 4) closed by the arc
v1 -> vk in which some intermediate pair is a non-edge or is oriented
against the path. Exhaustive orientation search is intended for desk-scale
graphs and is guarded by an edge-count cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded
from .graphs import Graph, iter_bits

DEFAULT_ORACLE_EDGE_CAP = 24


@dataclass(frozen=True)
class Orientation:
    """A direction for each edge of ``base``, as a set of ordered pairs."""

    base: Graph
    arcs: frozenset[tuple[int, int]]

    def succ_masks(self) -> list[int]:
        succ = [0] * self.base.n
        for x, y in self.arcs:
            succ[x] |= 1 << y
        return succ


def orient(g: Graph, arcs) -> Orientation:
    """Validate and build an orientation: exactly one direction per edge of g."""
    arc_set = frozenset((int(x), int(y)) for x, y in arcs)
    seen = set()
    for x, y in arc_set:
        if not g.has_edge(x, y):
            raise ValueError(f"({x}, {y}) is not an edge of the base graph")
        if (y, x) in arc_set:
            raise ValueError(f"edge ({x}, {y}) oriented both ways")
        seen.add((min(x, y), max(x, y)))
    if len(seen) != g.m:
        missing = sorted(g.edges - seen)
        raise ValueError(f"edges without a direction: {missing}")
    return Orientation(g, arc_set)


def is_transitive(o: Orientation) -> bool:
    """True iff whenever a -> b and b -> c are arcs, so is a -> c."""
    succ = o.succ_masks()
    for x, y in o.arcs:
        if succ[y] & ~succ[x]:
            return False
    return True


def _topological_order(n: int, succ: list[int]) -> list[int] | None:
    """A topological order of the arc digraph, or None if it has a cycle."""
    indeg = [0] * n
    for v in range(n):
        for w in iter_bits(succ[v]):
            indeg[w] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in iter_bits(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == n else None


def _shortcut_free(n: int, succ: list[int], order: list[int]) -> bool:
    """Scan an acyclic orientation for shortcuts.

    For every arc u -> v, walk all directed u-v paths with at least two
    interior vertices; each such path must have every forward pair present
    as an arc, otherwise the closing arc u -> v is a shortcut.
    """
    desc = [0] * n
    for v in reversed(order):
        acc = 0
        for w in iter_bits(succ[v]):
            acc |= (1 << w) | desc[w]
        desc[v] = acc
    pred = [0] * n
    for v in range(n):
        for w in iter_bits(succ[v]):
            pred[w] |= 1 << v
    anc = [0] * n
    for v in order:
        acc = 0
        for w in iter_bits(pred[v]):
            acc |= (1 << w) | anc[w]
        anc[v] = acc

    def path_ok(path: list[int]) -> bool:
        for i in range(len(path)):
            si = succ[path[i]]
            for j in range(i + 1, len(path)):
                if not si >> path[j] & 1:
                    return False
        return True

    for x in range(n):
        for y in iter_bits(succ[x]):
            interior = desc[x] & anc[y]
            if bin(interior).count("1") < 2:
                continue
            # DFS over u-v paths through the interior set
            stack = [(x, [x])]
            while stack:
                cur, path = stack.pop()
                for w in iter_bits(succ[cur] & (interior | (1 << y))):
                    if w == y:
                        if len(path) >= 3 and not path_ok(path + [y]):
                            return False
                    else:
                        stack.append((w, path + [w]))
    return True


def is_semi_transitive(o: Orientation) -> bool:
    """True iff the orientation is acyclic and has no shortcut."""
    succ = o.succ_masks()
    order = _topological_order(o.base.n, succ)
    if order is None:
        return False
    return _shortcut_free(o.base.n, succ, order)


def _reaches(succ: list[int], a: int, b: int) -> bool:
    seen = 1 << a
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= succ[v]
        if nxt >> b & 1:
            return True
        frontier = nxt & ~seen
        seen |= nxt
    return False


def exists_semi_transitive_orientation(
    g: Graph, max_edges: int = DEFAULT_ORACLE_EDGE_CAP
) -> bool:
    """Decide word-representability by exhausting orientations.

    Directions are assigned edge by edge; branches that close a directed
    cycle are cut (only acyclic orientations can be semi-transitive), and
    complete acyclic orientations are scanned for shortcuts. Graphs with
    more than ``max_edges`` edges are refused.
    """
    if g.m > max_edges:
        raise CapExceeded(
            f"{g.m} edges exceed the orientation-enumeration cap {max_edges}"
        )
    edges = sorted(g.edges)
    succ = [0] * g.n

    def dfs(i: int) -> bool:
        if i == len(edges):
            order = _topological_order(g.n, succ)
            assert order is not None
            return _shortcut_free(g.n, succ, order)
        u, v = edges[i]
        for x, y in ((u, v), (v, u)):
            if not _reaches(succ, y, x):
                succ[x] |= 1 << y
                if dfs(i + 1):
                    return True
                succ[x] &= ~(1 << y)
        return False

    return dfs(0)


def find_transitive_orientation(g: Graph) -> Orientation | None:
    """A transitive orientation if one exists, else None.

    Backtracking over edges with forcing propagation: orienting x -> y
    forces x -> w for every neighbor w of x that is not adjacent to y, and
    w -> y for every neighbor w of y not adjacent to x; partial transitive
    closures are propagated and contradictions prune the branch.
    """
    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    if m == 0:
        return Orientation(g, frozenset())
    eidx: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(edges):
        eidx[(u, v)] = i
        eidx[(v, u)] = i
    adj = g.adj
    dirs = [0] * m  # 0 unset, 1 = as stored (u -> v), 2 = reversed
    succ = [0] * n
    pred = [0] * n

    def arc_of(i: int, d: int) -> tuple[int, int]:
        u, v = edges[i]
        return (u, v) if d == 1 else (v, u)

    def want(x: int, y: int) -> tuple[int, int]:
        u, _ = edges[eidx[(x, y)]]
        return eidx[(x, y)], 1 if u == x else 2

    def place(i: int, d: int, trail: list[tuple[int, int, int]]) -> bool:
        queue = [(i, d)]
        while queue:
            j, dj = queue.pop()
            if dirs[j] == dj:
                continue
            if dirs[j] != 0:
                return False
            x, y = arc_of(j, dj)
            dirs[j] = dj
            succ[x] |= 1 << y
            pred[y] |= 1 << x
            trail.append((j, x, y))
            # same-endpoint forcing
            for w in iter_bits(adj[x] & ~adj[y] & ~(1 << y)):
                queue.append(want(x, w))
            for w in iter_bits(adj[y] & ~adj[x] & ~(1 << x)):
                queue.append(want(w, y))
            # transitive closure through the new arc
            for w in iter_bits(succ[y]):
                if not adj[x] >> w & 1:
                    return False
                queue.append(want(x, w))
            for w in iter_bits(pred[x]):
                if not adj[w] >> y & 1:
                    return False
                queue.append(want(w, y))
        return True

    def undo(trail: list[tuple[int, int, int]]) -> None:
        for j, x, y in trail:
            dirs[j] = 0
            succ[x] &= ~(1 << y)
            pred[y] &= ~(1 << x)

    def dfs() -> bool:
        j = next((i for i in range(m) if dirs[i] == 0), None)
        if j is None:
            return True
        for d in (1, 2):
            trail: list[tuple[int, int, int]] = []
            if place(j, d, trail) and dfs():
                return True
            undo(trail)
        return False

    if not dfs():
        return None
    o = Orientation(g, frozenset(arc_of(i, dirs[i]) for i in range(m)))
    assert is_transitive(o)
    return o


@dataclass(frozen=True)
class Poset:
    """A finite strict partial order: elements plus the full relation set."""

    elements: frozenset[int]
    relation: frozenset[tuple[int, int]]


def make_poset(elements, relation) -> Poset:
    """Validate irreflexivity, antisymmetry, and transitivity by enumeration."""
    els = frozenset(int(e) for e in elements)
    rel = frozenset((int(a), int(b)) for a, b in relation)
    for a, b in rel:
        if a not in els or b not in els:
            raise ValueError(f"pair ({a}, {b}) mentions a non-element")
        if a == b:
            raise ValueError(f"relation is not irreflexive: ({a}, {a})")
        if (b, a) in rel:
            raise ValueError(f"relation is not antisymmetric: ({a}, {b})")
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                raise ValueError(f"relation is not transitive: ({a},{b}),({b},{d})")
    return Poset(els, rel)


def poset_of(o: Orientation) -> Poset:
    """The strict order induced by a transitive orientation."""
    if not is_transitive(o):
        raise ValueError("orientation is not transitive; no induced poset")
    return Poset(frozenset(range(o.base.n)), frozenset(o.arcs))


def _lex_min_topological(m: int, succ: list[int]) -> tuple[int, ...]:
    indeg = [0] * m
    for v in range(m):
        for w in iter_bits(succ[v]):
            indeg[w] += 1
    out = []
    taken = [False] * m
    for _ in range(m):
        v = min(i for i in range(m) if not taken[i] and indeg[i] == 0)
        taken[v] = True
        out.append(v)
        for w in iter_bits(succ[v]):
            indeg[w] -= 1
    return tuple(out)


def _intersection_of_orders(m: int, extensions: list[tuple[int, ...]]) -> set[tuple[int, int]]:
    pos = [{v: i for i, v in enumerate(ext)} for ext in extensions]
    out = set()
    for a in range(m):
        for b in range(m):
            if a != b and all(p[a] < p[b] for p in pos):
                out.add((a, b))
    return out


def minimum_realizer(poset: Poset, cap: int = 4) -> list[tuple[int, ...]] | None:
    """A smallest family of linear extensions intersecting to the poset.

    Searches k = 1, 2, ... up to ``cap``. For each k, every ordered
    incomparable pair must be reversed by some extension; the search assigns
    pairs to extension slots depth-first, keeping each slot's digraph
    (relation plus its reversed pairs) acyclic. Returns None if the
    dimension exceeds the cap.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    elems = sorted(poset.elements)
    m = len(elems)
    idx = {e: i for i, e in enumerate(elems)}
    base_succ = [0] * m
    for a, b in poset.relation:
        base_succ[idx[a]] |= 1 << idx[b]
    inc: list[tuple[int, int]] = []
    for a in range(m):
        for b in range(a + 1, m):
            if not (base_succ[a] >> b & 1) and not (base_succ[b] >> a & 1):
                inc.append((a, b))
                inc.append((b, a))

    def finish(succs: list[list[int]]) -> list[tuple[int, ...]]:
        exts = [_lex_min_topological(m, s) for s in succs]
        got = _intersection_of_orders(m, exts)
        want = {(idx[a], idx[b]) for a, b in poset.relation}
        assert got == want, "realizer does not intersect back to the poset"
        return [tuple(elems[v] for v in ext) for ext in exts]

    if not inc:
        return finish([list(base_succ)])
    for k in range(2, cap + 1):
        succs = [list(base_succ) for _ in range(k)]

        def dfs(i: int, used: int) -> bool:
            if i == len(inc):
                return True
            a, b = inc[i]  # some slot must put b before a
            for c in range(min(used + 1, k)):
                s = succs[c]
                if not _reaches(s, a, b):
                    s[b] |= 1 << a
                    if dfs(i + 1, max(used, c + 1)):
                        return True
                    s[b] &= ~(1 << a)
            return False

        if dfs(0, 0):
            return finish(succs)
    return None


def poset_dimension(poset: Poset, cap: int = 4) -> int | None:
    """The order dimension (smallest realizer size), or None if above the cap."""
    realizer = minimum_realizer(poset, cap)
    return None if realizer is None else len(realizer)
