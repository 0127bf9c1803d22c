"""Orientation certificates: transitivity, semi-transitivity, posets, and dimension.

A transitive orientation certifies comparability. A semi-transitive
orientation (acyclic and shortcut-free) certifies word-representability: a
shortcut is a directed path v1 -> v2 -> ... -> vk (k >= 4) closed by the arc
v1 -> vk in which some intermediate pair is a non-edge or is oriented
against the path. Checking one orientation is polynomial: an acyclic one has
no shortcut iff the vertices on the directed paths of each arc induce a
transitive orientation (see ``_place``). The search for one places vertices
one at a time and drops a branch as soon as the placed vertices carry a
cycle or a shortcut; it is still exponential in the worst case and is
guarded by an edge-count cap. Before it searches, it refutes any graph in
which some vertex's neighbourhood is not a comparability graph, by one
forcing pass per vertex of degree at least five (a cone over a
non-comparability graph is not word-representable). The search keeps
reachability masks only, which grow
with each placed vertex: only the new vertex's row and column, the cycles
through it and the intervals it joins are new, and each arc's direction is
read off the graph's neighbour masks (``_place``). A step checks the masks
it would write by reading them in place and copies them only when the
vertex is placed. ``is_semi_transitive`` places the vertices of one
orientation the same way. The realizer search over linear extensions
starts each slot from one descendant-mask closure (``_closure``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .graphs import Graph, iter_bits

DEFAULT_ORACLE_EDGE_CAP = 24
DEFAULT_WORD_CAP = 4  # words and realizers: at most this many copies of each letter


@dataclass(frozen=True)
class Orientation:
    """A direction for each edge of ``base``: bit y of ``succ[x]`` is set iff
    x -> y is an arc. ``arcs`` is built from the masks on each read."""

    base: Graph
    succ: tuple[int, ...]

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x, a in enumerate(self.succ) for y in iter_bits(a))


def orient(g: Graph, arcs) -> Orientation:
    """Validate and build an orientation: exactly one direction per edge of g."""
    succ = [0] * g.n
    for x, y in arcs:
        x, y = int(x), int(y)
        if not g.has_edge(x, y):
            raise ValueError(f"({x}, {y}) is not an edge of the base graph")
        if succ[y] >> x & 1:
            raise ValueError(f"edge ({x}, {y}) oriented both ways")
        succ[x] |= 1 << y
    missing = sorted((x, y) for x, y in g.edges if not (succ[x] >> y | succ[y] >> x) & 1)
    if missing:
        raise ValueError(f"edges without a direction: {missing}")
    return Orientation(g, tuple(succ))


def is_transitive(o: Orientation) -> bool:
    """True iff whenever a -> b and b -> c are arcs, so is a -> c."""
    succ = o.succ
    for a in succ:
        for y in iter_bits(a):
            if succ[y] & ~a:
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


def _place(
    v: int, out: int, into: int, adj: Sequence[int], desc: list[int], anc: list[int]
) -> tuple[list[int], list[int]] | None:
    """Add vertex v, with arcs to the vertices in ``out`` and from those in
    ``into``, to a semi-transitive orientation of the vertices placed before
    it, whose descendant and ancestor masks are ``desc`` and ``anc``; ``adj``
    holds the graph's neighbour masks. Returns new masks with v placed, or
    None if v closes a cycle or a shortcut.

    The interval of an arc a -> b is a, b and every vertex on a directed
    a-b path: desc[a] & anc[b] | a | b. Lemma: an acyclic orientation has no
    shortcut iff every interval is transitively oriented, that is, whenever
    x reaches y inside it, x -> y is an arc.

    Proof. A path that starts in an interval reaches only vertices of that
    interval, so a shortcut's path lies inside the interval of its closing
    arc and breaks the condition there. Conversely, take a pair x, y in the
    interval of a -> b where x reaches y but x -> y is not an arc. Then
    a ~> x ~> y ~> b is a directed path (acyclic, so it repeats no vertex).
    It has at least four vertices, because x ~> y is not one arc and
    (x, y) != (a, b). It is closed by a -> b and misses x -> y, so it is a
    shortcut.

    Why one step decides. Every path that is new passes through v. So a new
    cycle runs v -> w ~> u -> v with w in out and u in into: it exists iff
    dv & av, where dv is out with its descendants and av is into with its
    ancestors. Otherwise the new paths are x ~> v ~> y with x in av | v and
    y in dv | v, which is all the masks gain. An interval without v has no
    new vertex and no new reach, since either would put v on an a-b path,
    and no new arc, so it stays transitive, as the placed vertices were
    semi-transitive; only the arcs a -> b with a in av | v and b in dv | v
    can fail, and only they are checked. An arc with fewer than two
    vertices strictly inside its interval is skipped: its interval is
    {a, b}, or {a, x, b} where the paths a ~> x and x ~> b, which stay
    inside it, are the arcs a -> x and x -> b; both are transitive.

    Why neighbour masks suffice. Arcs are read only after the cycle test,
    so the orientation is acyclic, and only from a to the b in dv | v, which
    a reaches through v, and from x to desc[x]: pairs where x reaches y. An
    edge xy is then the arc x -> y, since y -> x would close a cycle.

    Why the check reads the masks in place. The masks after the step differ
    from ``desc`` only on av | v, where desc[x] gains v and dv and v's own
    mask is dv, and from ``anc`` only on dv | v, where anc[y] gains v and av
    and v's own mask is av. So the check reads those expressions and sees
    exactly the masks the step returns, and the inputs, which the search
    reads again on backtrack, are copied only once every interval passes.
    """
    bit = 1 << v
    dv = av = 0
    rest = out
    while rest:
        low = rest & -rest
        dv |= desc[low.bit_length() - 1] | low
        rest ^= low
    rest = into
    while rest:
        low = rest & -rest
        av |= anc[low.bit_length() - 1] | low
        rest ^= low
    if dv & av:  # a cycle; the interval check would find it too
        return None
    dvb, avb = dv | bit, av | bit
    left = avb
    while left:
        low_a = left & -left
        left ^= low_a
        a = low_a.bit_length() - 1
        reach_a = dv if a == v else desc[a] | dvb  # a's descendants after the step
        right = adj[a] & dvb
        while right:
            low_b = right & -right
            right ^= low_b
            b = low_b.bit_length() - 1
            inner = reach_a & (av if b == v else anc[b] | avb)
            if not inner & (inner - 1):  # fewer than two inner vertices
                continue
            interval = rest = inner | low_a | low_b
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                reach = dv if x == v else desc[x] | dvb if low & av else desc[x]
                if reach & interval & ~adj[x]:
                    return None
    desc, anc = desc[:], anc[:]
    rest = av
    while rest:
        low = rest & -rest
        desc[low.bit_length() - 1] |= dvb
        rest ^= low
    rest = dv
    while rest:
        low = rest & -rest
        anc[low.bit_length() - 1] |= avb
        rest ^= low
    desc[v], anc[v] = dv, av
    return desc, anc


def is_semi_transitive(o: Orientation) -> bool:
    """True iff the orientation is acyclic and has no shortcut: ``_place``
    adds the vertices 0, 1, ..., n - 1 in turn."""
    n, adj, succ = o.base.n, o.base.adj, o.succ
    masks: tuple[list[int], list[int]] | None = ([0] * n, [0] * n)
    for v in range(n):
        placed = (1 << v) - 1
        into = adj[v] & placed & ~succ[v]
        masks = _place(v, succ[v] & placed, into, adj, *masks)
        if masks is None:
            return False
    return True


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
    shortcut, found by ``_place``. Graphs with more than ``max_edges`` edges
    are refused.

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

    Before any search, a screen refutes the graph when some neighbourhood
    N(v) induces no comparability graph (Kitaev & Pyatkin, *J. Autom. Lang.
    Comb.* 2008), one forcing pass per vertex (see
    ``_some_neighbourhood_is_not_comparability``). It runs after the edge
    cap, so the cap raises where it did. Why it is exact:
    - G[N[v]] is a cone over G[N(v)]: v is joined to all of it.
    - Take a uniform word that represents G, and rotate it so that it starts
      with v. Rotating a uniform word keeps the graph it represents, as
      ``exists_word`` relies on too.
    - Restrict the word to N[v]; it still represents G[N[v]]. Every
      neighbour of v alternates with v, so it occurs once between two
      consecutive copies of v and once after the last: the word reads
      v P1 v P2 ... v Pk, each Pi a permutation of N(v). So P1 P2 ... Pk,
      the word restricted to N(v), permutationally represents G[N(v)],
      which is therefore a comparability graph (Kitaev & Seif, *Order*
      2008).
    - The degree filter drops no refutation: every graph on at most four
      vertices is a comparability graph, so a vertex with fewer than five
      neighbours never fires (and one with five fires iff they induce C5,
      the only non-comparability graph on five vertices).
    A screen that fires answers what the search would; one that does not
    leaves the search below it unchanged.
    """
    if g.m > max_edges:
        raise CapExceeded(
            f"{g.m} edges exceed the orientation-enumeration cap {max_edges}"
        )
    if _some_neighbourhood_is_not_comparability(g.adj):
        return False
    steps = placement_order(g)
    out = [-1] * g.n  # per step: the placed neighbours v points to, -1 untried
    # per step: the descendant and ancestor masks of the vertices before it
    masks = [([0] * g.n, [0] * g.n)] * (g.n + 1)
    i = 0
    while i < g.n:
        v, below = steps[i]
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
        placed = _place(v, out[i], below & ~out[i], g.adj, *masks[i])
        if placed:
            masks[i + 1] = placed
            i += 1
    return True


def _some_neighbourhood_is_not_comparability(adj: Sequence[int]) -> bool:
    """True iff some vertex with at least five neighbours has a neighbourhood
    with no transitive orientation: one forcing pass of ``_transitive_masks``
    on the neighbour masks cut down to N(v), with no relabelling, per vertex.
    Smaller neighbourhoods are skipped, since every graph on at most four
    vertices is a comparability graph."""
    for nb in adj:
        if nb.bit_count() >= 5 and _transitive_masks(
            [a & nb if nb >> x & 1 else 0 for x, a in enumerate(adj)]
        ) is None:
            return True
    return False


def _transitive_masks(adj: list[int] | tuple[int, ...]) -> tuple[list[int], list[int]] | None:
    """The lexicographically first transitive orientation of the graph with
    neighbour masks ``adj``, as successor and predecessor masks, or None.

    One forcing pass over the edges u < v in sorted order: each edge not yet
    oriented gets its stored direction u -> v, and ``place`` propagates two
    rules to fixpoint. Orienting x -> y forces x -> w for every neighbor w
    of x not adjacent to y and w -> y for every neighbor w of y not adjacent
    to x (Pnueli, Lempel & Even 1971), and it closes every path x -> y -> w
    and w -> x -> y with its transitive arc. An arc is set in the masks when
    it is queued, so each arc is queued once, and popping it costs one mask
    step: it queues the arcs it forces that are not yet set, and a
    contradiction, a missing closing edge or the reverse arc y -> x already
    set, means no transitive orientation exists.

    Why setting an arc when it is queued changes nothing. A call of
    ``place`` sets only forced arcs, and when its queue is empty every set
    arc has been popped; a pop queues what its arc forces given the arcs
    already set, and an arc set later that closes a path with it, such as
    y -> w after x -> y, finds x in ``pred[y]`` when it is popped. So the
    call sets the least closed set holding its first arc and the arcs set
    before, as setting arcs when popped does. A contradiction, set arcs
    x -> y and y -> w with no edge xw (w = x is the reverse arc), is found
    when the later of the two is popped: ``succ[y] & ~adj[x]`` at x -> y,
    ``pred[y] & ~adj[w]`` at y -> w. Setting arcs when popped queues an
    arc once per arc that forces it first: 2,260,629 queue entries for
    44,551 arcs on the incomparability graph of the path P300.

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
    n = len(adj)
    succ = [0] * n
    pred = [0] * n

    def place(x: int, y: int) -> bool:
        succ[x] |= 1 << y
        pred[y] |= 1 << x
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            # closing x -> y -> w and w -> x -> y needs the edges xw and wy;
            # a set y -> x fails here, since x is not its own neighbour
            if succ[y] & ~adj[x] or pred[x] & ~adj[y]:
                return False
            # same-endpoint forcing and closure: set and queue the new arcs
            bx, by = 1 << x, 1 << y
            new = (adj[x] & ~adj[y] & ~by | succ[y]) & ~succ[x]
            succ[x] |= new
            while new:
                low = new & -new
                w = low.bit_length() - 1
                pred[w] |= bx
                queue.append((x, w))
                new ^= low
            new = (adj[y] & ~adj[x] & ~bx | pred[x]) & ~pred[y]
            pred[y] |= new
            while new:
                low = new & -new
                w = low.bit_length() - 1
                succ[w] |= by
                queue.append((w, y))
                new ^= low
        return True

    for u in range(n):
        rest = adj[u] >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not (succ[u] & low or succ[v] >> u & 1 or place(u, v)):
                return None
            rest ^= low
    return succ, pred


def find_transitive_orientation(g: Graph) -> Orientation | None:
    """The lexicographically first transitive orientation, or None: the
    forcing pass of ``_transitive_masks``, whose docstring proves that it
    is the first solution of a search that tries each edge's stored
    direction u -> v (u < v) first, in sorted edge order."""
    masks = _transitive_masks(g.adj)
    if masks is None:
        return None
    o = Orientation(g, tuple(masks[0]))
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
    return Poset(frozenset(range(o.base.n)), o.arcs)


def _lex_min_topological(m: int, succ: list[int]) -> list[int]:
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
    return out


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
    incomparable pair (a, b) must be reversed, b before a, by some
    extension; the search assigns the pairs, in the order of ``inc``, to
    extension slots depth-first, trying slot 0 first and opening at most one
    new slot per pair, and keeps each slot's digraph (relation plus its
    reversed pairs) acyclic. Each slot holds the descendant masks of its
    digraph, so a pair (a, b) can be reversed in a slot iff a does not reach
    b there. The realizer is the search's first leaf. Returns None if the
    dimension exceeds the cap, or if the relation is not transitive: an
    intersection of linear orders is transitive, and no level has a leaf
    when some pair a < c is missing, since a reaches c in every slot.
    Raises ValueError, naming a cycle, if the relation is cyclic.

    k = 2 runs no search. Lemma: the first leaf at k = 2 is (P + T^-1,
    P + T), where T is the lexicographically first transitive orientation
    of the incomparability graph (``_transitive_masks``), and there is no
    leaf iff that graph has none. Proof. The first pair opens slot 0 and its
    reverse, blocked there, opens slot 1. From then on, a pair (a, b) with
    a < b that takes slot c leaves (b, a) only the other slot, the one
    where b does not already reach a. So the search makes one binary choice
    per incomparable pair a < b, in sorted order, slot 0 first, and its
    first leaf is the lexicographically least choice vector with both slots
    acyclic. Each slot of a leaf orders every incomparable pair, so it is a
    linear order: slot 0 is P + T0 and slot 1 is P + T0^-1 for an
    orientation T0 of the incomparability graph, and by Dushnik & Miller
    (1941) both are linear orders iff T0 is transitive. Slot 0 for (a, b)
    means b -> a in T0. Reversing every arc maps transitive orientations
    onto transitive orientations, so the least vector has T0 = T^-1, where
    T is the first transitive orientation that tries a -> b first on the
    sorted edges: the one the forcing pass finds. A linear order is its own
    closure, so the slots need no ``_closure``, and its only linear
    extension lists the elements by falling number of successors.

    k = 1 runs no search either: it has a leaf iff no pair is incomparable.
    With none, the search places nothing and its leaf is the relation
    itself, a linear order. With one, the first pair (a, b) puts b before a
    in the one slot, so its reverse (b, a) is then blocked for good: b
    reaches a there, and no other slot exists.

    At every searched level (k >= 3) a placement is dropped once every slot
    is open and some incomparable pair (x, y) is blocked in all of them: x
    reaches y in every slot. The cut is exact. Masks only grow along a
    branch, so the pair can never be placed, and it is not placed already,
    since its slot would hold both y -> x and a path x ~> y, a cycle. While
    a slot is unopened, it holds the relation alone and blocks no
    incomparable pair; once all are open, a newly blocked pair is blocked
    in the slot just changed, so only the rows that changed are checked.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    elems = sorted(poset.elements)
    m = len(elems)
    idx = {e: i for i, e in enumerate(elems)}
    base_succ = [0] * m
    base_pred = [0] * m
    for a, b in poset.relation:
        a, b = idx[a], idx[b]
        base_succ[a] |= 1 << b
        base_pred[b] |= 1 << a

    def finish(exts: list[list[int]]) -> list[tuple[int, ...]]:
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
    if closed != base_succ:
        return None
    full = (1 << m) - 1
    # the incomparability graph's neighbour masks
    incm = [
        full & ~(up | down | 1 << v) for v, (up, down) in enumerate(zip(base_succ, base_pred))
    ]
    if not any(incm):  # a linear order: the one slot search ends at once
        return finish([_lex_min_topological(m, base_succ)])
    inc: list[tuple[int, int]] = []  # the ordered incomparable pairs, for k >= 3
    for k in range(2, cap + 1):
        if k == 2:
            masks = _transitive_masks(incm)
            if masks is None:
                continue
            succ, pred = masks
            # P + T^-1, then P + T, each by falling number of successors
            return finish([
                sorted(range(m), key=lambda v: -(base_succ[v] | arcs[v]).bit_count())
                for arcs in (pred, succ)
            ])
        if not inc:
            for a in range(m):
                rest = incm[a] >> (a + 1) << (a + 1)
                while rest:
                    low = rest & -rest
                    b = low.bit_length() - 1
                    inc += ((a, b), (b, a))
                    rest ^= low
        descs = [list(closed) for _ in range(k)]
        # depth-first over pairs with an explicit stack of (pair index, slot,
        # slots used before the pair, the slot's masks before the pair): pair
        # i tries slots c, c + 1, ... of the first min(used + 1, k), the
        # extra one opening a new slot
        stack: list[tuple[int, int, int, list[int]]] = []
        i = c = used = 0
        while i < len(inc):
            a, b = inc[i]  # some slot must put b before a
            slots = min(used + 1, k)
            while c < slots:
                d = descs[c]
                if not d[a] >> b & 1:
                    # b and everything reaching b now reach a and a's descendants
                    add, bit = 1 << a | d[a], 1 << b
                    new = [dx | add if dx & bit else dx for dx in d]
                    new[b] |= add
                    # the dead-pair cut, at every searched level once every
                    # slot is open
                    if max(used, c + 1) < k or not _blocks_a_pair(descs, c, d, new, incm):
                        break
                c += 1
            if c < slots:
                stack.append((i, c, used, d))
                descs[c] = new
                i, c, used = i + 1, 0, max(used, c + 1)
            elif stack:
                i, c, used, d = stack.pop()
                descs[c] = d
                c += 1
            else:
                break
        else:
            return finish([_lex_min_topological(m, d) for d in descs])
    return None


def _blocks_a_pair(
    descs: list[list[int]], c: int, d: list[int], new: list[int], incm: list[int]
) -> bool:
    """True iff some incomparable pair that slot c's masks, going from d to
    new, now block is blocked in every other slot too (the realizer's
    dead-pair cut)."""
    others = descs[:c] + descs[c + 1:]
    for x, (before, after) in enumerate(zip(d, new)):
        blocked = incm[x] & after & ~before
        if blocked:
            for other in others:
                blocked &= other[x]
            if blocked:
                return True
    return False


def poset_dimension(poset: Poset, cap: int = DEFAULT_WORD_CAP) -> int | None:
    """The order dimension (smallest realizer size), or None if above the cap."""
    realizer = minimum_realizer(poset, cap)
    return None if realizer is None else len(realizer)
