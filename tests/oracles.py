"""Independent reference implementations used to cross-check the library.

Everything here goes by raw enumeration with no pruning, so it stays
independent of the search paths it validates.
"""

from __future__ import annotations

from itertools import permutations, product

from wordrep import Graph, all_modules, represents
from wordrep.graphs import iter_bits
from wordrep.orientations import Orientation, Poset, is_transitive, placement_order
from wordrep.words import Word


def all_k_uniform_words(n: int, k: int):
    """Every k-uniform word over 0..n-1, by plain multiset recursion."""
    remaining = [k] * n
    word: list[int] = []
    total = n * k

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for c in range(n):
            if remaining[c]:
                remaining[c] -= 1
                word.append(c)
                yield from rec()
                word.pop()
                remaining[c] += 1

    yield from rec()


def brute_representing_words(g: Graph, k: int) -> list[Word]:
    """All k-uniform representing words, by filtering the full enumeration."""
    return [w for w in all_k_uniform_words(g.n, k) if represents(w, g)]


def brute_rep_number(g: Graph, cap: int) -> int | None:
    for k in range(1, cap + 1):
        for w in all_k_uniform_words(g.n, k):
            if represents(w, g):
                return k
    return None


def all_orientations(g: Graph):
    edges = sorted(g.edges)
    for bits in product((0, 1), repeat=len(edges)):
        arcs = [(u, v) if b == 0 else (v, u) for (u, v), b in zip(edges, bits)]
        yield Orientation(g, frozenset(arcs))


def brute_has_transitive_orientation(g: Graph) -> bool:
    return any(is_transitive(o) for o in all_orientations(g))


def brute_is_semi_transitive(o: Orientation) -> bool:
    """Acyclic and shortcut-free, straight from the definition.

    Every directed path is listed by extending paths one arc at a time; an
    arc back into the path is a directed cycle. A path v1 -> ... -> vk with
    k >= 4 that is closed by the arc v1 -> vk and misses the arc vi -> vj for
    some i < j is a shortcut.
    """
    out: dict[int, list[int]] = {v: [] for v in range(o.base.n)}
    for x, y in o.arcs:
        out[x].append(y)
    stack = [[v] for v in range(o.base.n)]
    while stack:
        path = stack.pop()
        for w in out[path[-1]]:
            if w in path:
                return False
            stack.append(path + [w])
        k = len(path)
        if k >= 4 and (path[0], path[-1]) in o.arcs and any(
            (path[i], path[j]) not in o.arcs for i in range(k) for j in range(i + 1, k)
        ):
            return False
    return True


def brute_exists_semi_transitive(g: Graph) -> bool:
    return any(brute_is_semi_transitive(o) for o in all_orientations(g))


def _full_closure_semi_transitive(n: int, succ: list[int]) -> bool:
    """Acyclic and shortcut-free, from scratch: a Warshall closure over
    every vertex, ancestors by transposition, then every arc's interval
    (desc[u] & anc[v] | u | v) must be transitively oriented."""
    desc = list(succ)
    for k in range(n):
        bit, dk = 1 << k, desc[k]
        if dk:
            desc = [d | dk if d & bit else d for d in desc]
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


def reference_semi_transitive_search(g: Graph) -> bool:
    """The orientation search with a full check at every node: the same
    placement order, choices and cuts as the library's oracle, but each node
    recomputes the closure of the placed vertices and re-checks every arc's
    interval, with no masks carried from one node to the next. No edge
    cap."""
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
        if _full_closure_semi_transitive(g.n, succ):
            i += 1
    return True


def _overlap(a: frozenset, b: frozenset) -> bool:
    return bool(a & b) and bool(a - b) and bool(b - a)


def brute_strong_maximal_blocks(g: Graph) -> list[frozenset[int]]:
    """Maximal proper strong modules (the canonical partition), from all_modules."""
    mods = all_modules(g)
    proper = [m for m in mods if len(m) < g.n]
    strong = [m for m in proper if not any(_overlap(m, o) for o in mods if o != m)]
    maximal = [m for m in strong if not any(m < o for o in strong)]
    return sorted(maximal, key=min)


def _order_masks(n: int) -> list[int]:
    """For every permutation, the bitmask over pairs u<v of 'u comes first'."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    masks = []
    for perm in permutations(range(n)):
        pos = {v: i for i, v in enumerate(perm)}
        m = 0
        for i, (u, v) in enumerate(pairs):
            if pos[u] < pos[v]:
                m |= 1 << i
        masks.append(m)
    return masks


def perm_concat_representable(g: Graph, k: int) -> bool:
    """Does some concatenation of k vertex permutations represent g?

    Two letters alternate in such a word iff every permutation orders them
    the same way, so the represented graph is the agreement set of the
    order masks.
    """
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pidx = {p: i for i, p in enumerate(pairs)}
    edge_mask = 0
    for u, v in g.edges:
        edge_mask |= 1 << pidx[(min(u, v), max(u, v))]
    full = (1 << len(pairs)) - 1
    nonedge_mask = full & ~edge_mask
    masks = sorted(set(_order_masks(n)))

    def rec(first: int, depth: int, disagree: int) -> bool:
        if disagree & edge_mask:
            return False
        if depth == k:
            return disagree == nonedge_mask
        return any(rec(first, depth + 1, disagree | (first ^ m)) for m in masks)

    return any(rec(first, 1, 0) for first in masks)


def reference_realizer(poset: Poset, cap: int) -> list[tuple[int, ...]] | None:
    """The plain slot search for a smallest realizer, with no shortcut at
    k = 2 and no cut: every ordered incomparable pair (a, b) goes depth-first
    into the first slot, of those opened so far plus one new, where a does
    not reach b, and each slot keeps its descendant masks. The realizer is
    the lexicographically least linear extension of each slot of the first
    leaf, in slot order; None if no level up to the cap has a leaf. The
    relation must be acyclic.
    """
    elems = sorted(poset.elements)
    m = len(elems)
    idx = {e: i for i, e in enumerate(elems)}
    succ = [0] * m
    for a, b in poset.relation:
        succ[idx[a]] |= 1 << idx[b]
    inc = [
        pair
        for a in range(m)
        for b in range(a + 1, m)
        if not (succ[a] >> b & 1 or succ[b] >> a & 1)
        for pair in ((a, b), (b, a))
    ]
    closed = list(succ)
    for k in range(m):
        closed = [d | closed[k] if d >> k & 1 else d for d in closed]

    def first_leaf(k: int) -> list[list[int]] | None:
        descs = [list(closed) for _ in range(k)]

        def rec(i: int, used: int) -> bool:
            if i == len(inc):
                return True
            a, b = inc[i]
            for c in range(min(used + 1, k)):
                d = descs[c]
                if d[a] >> b & 1:
                    continue
                add, bit = 1 << a | d[a], 1 << b
                descs[c] = [dx | add if dx & bit else dx for dx in d]
                descs[c][b] |= add
                if rec(i + 1, max(used, c + 1)):
                    return True
                descs[c] = d
            return False

        return descs if rec(0, 0) else None

    def extension(d: list[int]) -> tuple[int, ...]:
        out: list[int] = []
        left = set(range(m))
        while left:
            v = min(x for x in left if not any(d[y] >> x & 1 for y in left))
            out.append(v)
            left.remove(v)
        return tuple(elems[v] for v in out)

    for k in range(1, cap + 1):
        descs = first_leaf(k)
        if descs is not None:
            return [extension(d) for d in descs]
    return None
