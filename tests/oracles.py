"""Independent reference implementations used to cross-check the library.

Everything here goes by raw enumeration with no pruning, so it stays
independent of the search paths it validates.
"""

from __future__ import annotations

from itertools import permutations, product

from wordrep import Graph, all_modules, represents
from wordrep.orientations import Orientation, is_transitive
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
