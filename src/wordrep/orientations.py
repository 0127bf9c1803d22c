"""Orientation certificates: transitivity, semi-transitivity, posets, and dimension.

A transitive orientation certifies comparability. A semi-transitive
orientation (acyclic and shortcut-free) certifies word-representability: a
shortcut is a directed path v1 -> v2 -> ... -> vk (k >= 4) closed by the arc
v1 -> vk in which some intermediate pair is a non-edge or is oriented
against the path. Checking one orientation is polynomial: an acyclic one has
no shortcut iff the vertices on the directed paths of each arc induce a
transitive orientation (see ``_semi_transitive``). The search for one places
vertices one at a time and drops a branch as soon as the placed vertices
carry a cycle or a shortcut; it is still exponential in the worst case and is
guarded by an edge-count cap. Every reachability question here, for
orientations and for the realizer search over linear extensions, is answered
by one descendant-mask closure (``_closure``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded
from .graphs import Graph, iter_bits

DEFAULT_ORACLE_EDGE_CAP = 24
DEFAULT_WORD_CAP = 4  # words and realizers: at most this many copies of each letter


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


def _closure(n: int, succ: list[int]) -> list[int]:
    """Descendant masks: bit w of entry v is set iff a directed path leads
    from v to w, so a vertex on a cycle is in its own mask. Warshall (1962)
    over bitmasks: after round k, every path whose inner vertices lie in
    0..k is recorded.
    """
    desc = list(succ)
    for k in range(n):
        bit, dk = 1 << k, desc[k]
        if dk:
            desc = [d | dk if d & bit else d for d in desc]
    return desc


def _semi_transitive(n: int, succ: list[int]) -> bool:
    """True iff the arc digraph is acyclic and has no shortcut.

    The interval of an arc u -> v is u, v and every vertex on a directed
    u-v path: desc[u] & anc[v] | u | v. Lemma: an acyclic orientation has no
    shortcut iff every interval is transitively oriented, that is, whenever
    a reaches b inside it, a -> b is an arc.

    Proof. A path that starts in an interval reaches only vertices of that
    interval, so a shortcut's path lies inside the interval of its closing
    arc and breaks the condition there. Conversely, take a pair a, b in the
    interval of u -> v where a reaches b but a -> b is not an arc. Then
    u ~> a ~> b ~> v is a directed path (acyclic, so it repeats no vertex).
    It has at least four vertices, because a ~> b is not one arc and
    (a, b) != (u, v). It is closed by u -> v and misses a -> b, so it is a
    shortcut.

    An arc with fewer than two vertices strictly inside its interval is
    skipped: its interval is {u, v}, or {u, a, v} where the paths u ~> a and
    a ~> v, which stay inside it, are the arcs u -> a and a -> v; both are
    transitive. The check costs O(m n) mask operations after the O(n^2)
    closure.
    """
    desc = _closure(n, succ)
    if any(desc[v] >> v & 1 for v in range(n)):
        return False
    anc = [0] * n
    for v in range(n):
        for w in iter_bits(desc[v]):
            anc[w] |= 1 << v
    for u in range(n):
        for v in iter_bits(succ[u]):
            inner = desc[u] & anc[v]
            if not inner & (inner - 1):  # fewer than two inner vertices
                continue
            interval = inner | (1 << u) | (1 << v)
            for a in iter_bits(interval):
                if desc[a] & interval & ~succ[a]:
                    return False
    return True


def is_semi_transitive(o: Orientation) -> bool:
    """True iff the orientation is acyclic and has no shortcut."""
    return _semi_transitive(o.base.n, o.succ_masks())


def placement_order(g: Graph) -> list[tuple[int, int]]:
    """Every vertex once, each with the mask of its neighbours placed before
    it: next comes the vertex with the most placed neighbours, ties broken by
    higher degree, then lower label. So a vertex with no placed neighbour
    starts a component, and the rest of that component follows it."""
    n, adj = g.n, g.adj
    # placed neighbours * n^2 + degree * n + (n - 1 - label): the three keys
    # in order, since the last two stay below n^2 together
    rank = [adj[v].bit_count() * n + n - 1 - v for v in range(n)]
    left = list(range(n))
    steps = []
    placed = 0
    for _ in range(n):
        v = max(left, key=rank.__getitem__)
        left.remove(v)
        steps.append((v, adj[v] & placed))
        placed |= 1 << v
        for w in iter_bits(adj[v]):
            rank[w] += n * n
    return steps


def exists_semi_transitive_orientation(
    g: Graph, max_edges: int = DEFAULT_ORACLE_EDGE_CAP
) -> bool:
    """Decide word-representability by a search over orientations.

    Vertices are placed one at a time in ``placement_order``. A placed
    vertex v tries every direction of its arcs to its placed neighbours,
    given as the set of them that v points to, and a branch is cut as soon
    as the orientation on the placed vertices has a directed cycle or a
    shortcut, found by ``_semi_transitive``. Graphs with more than
    ``max_edges`` edges are refused.

    Why the cut is exact. Placing a vertex adds arcs at that vertex only: it
    never changes a placed arc, and two placed vertices stay adjacent or
    not. So the orientation on the placed vertices is the sub-orientation
    they induce in every completion of the branch, and a cycle or shortcut
    in it, which lives on its vertices, arcs and non-edges, is one in every
    completion too.

    Two more cuts, both exact. A vertex with no placed neighbour starts a
    component, and the rest of that component comes right after it, since
    each of its vertices has a placed neighbour until it is done. A cycle or
    a shortcut lies inside one component, so reversing every arc of one
    component keeps an orientation semi-transitive; hence the first arc of
    each component, from the vertex that starts it to the next one placed,
    is fixed. And the components placed before a vertex that starts one are
    independent of everything placed from it on; once every branch below
    that vertex has failed, no other choice above it can succeed, so the
    search stops there.
    """
    if g.m > max_edges:
        raise CapExceeded(
            f"{g.m} edges exceed the orientation-enumeration cap {max_edges}"
        )
    steps = placement_order(g)
    succ = [0] * g.n
    out = [-1] * g.n  # per step: the placed neighbours v points to, -1 untried
    i = 0
    while i < g.n:
        v, below = steps[i]
        if out[i] >= 0:  # take the last choice back
            succ[v] = 0
            for w in iter_bits(below & ~out[i]):
                succ[w] &= ~(1 << v)
        if out[i] == 0:  # every choice failed
            if not below:
                return False
            out[i] = -1
            i -= 1
            continue
        if out[i] < 0:
            # a component's second vertex (the step after one with no placed
            # neighbour) takes only the arc from the first
            out[i] = below if i and steps[i - 1][1] else 0
        else:
            out[i] = (out[i] - 1) & below
        succ[v] = out[i]
        for w in iter_bits(below & ~out[i]):
            succ[w] |= 1 << v
        if _semi_transitive(g.n, succ):
            i += 1
    return True


def find_transitive_orientation(g: Graph) -> Orientation | None:
    """The lexicographically first transitive orientation, or None.

    One forcing pass over the sorted edges: each edge not yet oriented gets
    its stored direction u -> v, and ``place`` propagates two rules to
    fixpoint. Orienting x -> y forces x -> w for every neighbor w of x not
    adjacent to y and w -> y for every neighbor w of y not adjacent to x
    (Pnueli, Lempel & Even 1971), and it closes every path x -> y -> w and
    w -> x -> y with its transitive arc. Each placed arc costs one mask step:
    the arcs it forces are queued unless already placed, and a contradiction,
    a missing closing edge or the reverse arc y -> x already placed, means
    no transitive orientation exists.

    Why the pass never needs to take a choice back: the placed arcs P are
    closed under both rules, so P is a union of implication classes. Every
    class lies in one node of the modular decomposition tree: all edges
    spanned by a prime node form one class, and so do all edges between two
    children of a series node, because each child is co-connected. So P
    fixes an orientation at some prime nodes and a partial order on the
    children of some series nodes, transitive by the closure rule. An unset
    edge lies in an untouched prime node or joins two children that P leaves
    incomparable, so either direction extends to a transitive orientation
    (Gallai 1967). Forcing is sound, so the result is the first solution of
    a backtracking search that tries the stored direction first: the
    lexicographically first transitive orientation.
    """
    adj = g.adj
    succ = [0] * g.n
    pred = [0] * g.n

    def place(x: int, y: int) -> bool:
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            if succ[x] >> y & 1:  # queued twice before it was placed
                continue
            # closing x -> y -> w and w -> x -> y needs the edges xw and wy;
            # a placed y -> x fails here, since x is not its own neighbour
            if succ[y] & ~adj[x] or pred[x] & ~adj[y]:
                return False
            # same-endpoint forcing and closure, queueing unplaced arcs only
            for w in iter_bits((adj[x] & ~adj[y] & ~(1 << y) | succ[y]) & ~succ[x]):
                queue.append((x, w))
            for w in iter_bits((adj[y] & ~adj[x] & ~(1 << x) | pred[x]) & ~pred[y]):
                queue.append((w, y))
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        return True

    if not all(
        succ[u] >> v & 1 or succ[v] >> u & 1 or place(u, v) for u, v in sorted(g.edges)
    ):
        return None
    o = Orientation(g, frozenset((x, y) for x in range(g.n) for y in iter_bits(succ[x])))
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


def _cycle_through(v: int, succ: list[int]) -> list[int]:
    """A shortest directed cycle through v, from v back to v, found by a
    breadth-first search; v must lie on a cycle."""
    parent: dict[int, int] = {}
    queue = [v]
    for x in queue:
        for w in iter_bits(succ[x]):
            if w not in parent:
                parent[w] = x
                queue.append(w)
        if v in parent:
            break
    back = []
    x = parent[v]
    while x != v:
        back.append(x)
        x = parent[x]
    return [v, *reversed(back), v]


def minimum_realizer(poset: Poset, cap: int = DEFAULT_WORD_CAP) -> list[tuple[int, ...]] | None:
    """A smallest family of linear extensions intersecting to the poset.

    Searches k = 1, 2, ... up to ``cap``. For each k, every ordered
    incomparable pair must be reversed by some extension; the search assigns
    pairs to extension slots depth-first, keeping each slot's digraph
    (relation plus its reversed pairs) acyclic. Each slot holds the
    descendant masks of its digraph, so a pair (a, b) can be reversed in a
    slot iff a does not reach b there. Returns None if the dimension
    exceeds the cap, and raises ValueError, naming a cycle, if the relation
    is cyclic.
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

    def finish(descs: list[list[int]]) -> list[tuple[int, ...]]:
        exts = [_lex_min_topological(m, d) for d in descs]
        got = [-1] * m  # per element: the elements after it in every extension
        for ext in exts:
            later = 0
            for v in reversed(ext):
                got[v] &= later
                later |= 1 << v
        assert got == base_succ, "realizer does not intersect back to the poset"
        return [tuple(elems[v] for v in ext) for ext in exts]

    closed = _closure(m, base_succ)
    for v in range(m):
        if closed[v] >> v & 1:
            cycle = " -> ".join(str(elems[x]) for x in _cycle_through(v, base_succ))
            raise ValueError(f"relation is cyclic: {cycle}")
    for k in range(1, cap + 1):
        descs = [list(closed) for _ in range(k)]
        # depth-first over pairs with an explicit stack of (pair index, slot,
        # slots used before the pair, the slot's masks before the pair): pair
        # i tries slots c, c + 1, ... of the first min(used + 1, k), the
        # extra one opening a new slot
        stack: list[tuple[int, int, int, list[int]]] = []
        i = c = used = 0
        while i < len(inc):
            a, b = inc[i]  # some slot must put b before a
            while c < min(used + 1, k) and descs[c][a] >> b & 1:
                c += 1
            if c < min(used + 1, k):
                # b and everything reaching b now reach a and a's descendants
                d = descs[c]
                add, bit = 1 << a | d[a], 1 << b
                stack.append((i, c, used, d))
                descs[c] = [dx | add if dx & bit else dx for dx in d]
                descs[c][b] |= add
                i, c, used = i + 1, 0, max(used, c + 1)
            elif stack:
                i, c, used, d = stack.pop()
                descs[c] = d
                c += 1
            else:
                break
        else:
            return finish(descs)
    return None


def poset_dimension(poset: Poset, cap: int = DEFAULT_WORD_CAP) -> int | None:
    """The order dimension (smallest realizer size), or None if above the cap."""
    realizer = minimum_realizer(poset, cap)
    return None if realizer is None else len(realizer)
