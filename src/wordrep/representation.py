"""Representation numbers, permutation representations, and composed certificates.

``rep_number`` finds the least k <= cap with a k-uniform representing word.
Each level from 2 to cap - 1 is decided by ``exists_word``, which inserts
one vertex at a time into a cyclic word; the first level that has a word,
and level 1 and the cap level, are searched by ``representing_words``, which
appends one letter at a time and yields the words in lexicographic order,
so the certificate is the first word of the least level.

Deciding a level by insertion rests on two facts (Halldórsson, Kitaev &
Pyatkin, *Discrete Appl. Math.* 201, 2016; Kitaev & Lozin, *Words and
Graphs*, 2015, ch. 4). Heredity: deleting letters does not change whether
two of the others alternate, so the restriction of a word representing G
to a vertex set S represents G[S]. Cycles: two letters x and y that occur k
times each alternate iff each of the k stretches between cyclically
consecutive copies of x holds exactly one y. So alternation depends on the
cyclic word only, and every rotation and the reversal of a uniform word
represent the same graph.

``exists_word`` places v1, ..., vn in ``orientations.placement_order`` and
keeps a cyclic word on the placed vertices. v_i gets k copies: every stretch
between consecutive copies must hold one copy of each placed neighbour, and
some stretch must hold zero copies or at least two of each placed
non-neighbour. Sound: an insertion leaves the restriction to the placed
vertices as it was, so every pair keeps the alternation it was checked for
when its later vertex came in, and a finished word represents G. Complete:
if a word w represents G, its restriction to v1..vi, read cyclically, passes
the checks by heredity, and it is the restriction to v1..v(i-1) with v_i's
copies inserted; so a search that tries every placement reaches w up to
rotation, and a branch whose next vertex has no placement has no
completion. Three cuts keep it exact:

* v's lowest copy goes no later than the second copy of any placed
  neighbour u, since the stretch between u's first two copies holds one;
* a branch is dropped as soon as a vertex still to come that has two or
  more placed neighbours has no placement in the word, since by heredity a
  completion would restrict to one (checking the other vertices too found
  a word on the 7-vertex atlas graphs at about 1.7x the cost);
* sibling words that are rotations or reflections of one another have the
  same completions up to that symmetry, so one of them is tried. A rotation
  other than the identity, or a reflection, that fixes a grown word
  restricts to one that fixes the word it grew from, so once a word has no
  such symmetry, none of its descendants has one, and the check stops.

``representing_words`` cuts a branch as soon as it is unfinishable:

* appending a letter that doubles up against an adjacent letter is illegal
  (adjacent pairs must alternate to the end);
* a non-adjacent pair that still alternates must keep some way to collide
  later, otherwise the word would create an edge that is not in the graph;
* when a letter c first appears, orient every edge among the letters seen
  so far from the one that appeared first; if that orientation has a
  shortcut, the prefix cannot be finished.

Two checks follow from these cuts and are not made. Counts stay balanced:
by the first cut every prefix alternates on every edge and ends with the
letter just appended, so each neighbour of c has c's remaining count or
one more. A finished word has every non-adjacent pair collided: when the
first letter of such a pair runs out, the second cut has left either a
collision already or two copies of the other letter, with none of the
first between them.

The last cut rests on a lemma (Halldórsson, Kitaev & Pyatkin, *Discrete
Appl. Math.* 201, 2016; Kitaev & Lozin, *Words and Graphs*, 2015, ch. 4):
ordering the first occurrences of a k-uniform word that represents G
orients G semi-transitively. Proof: it is acyclic, since it follows one
order. Take a path v0 -> v1 -> ... -> vt closed by the arc v0 -> vt. Each
arc joins alternating letters of which the tail occurs first, so the j-th
occurrence of v_i comes before the j-th of v_{i+1}, and the j-th of vt
before the (j+1)-th of v0. Chained, for i < l the j-th v_i precedes the j-th
v_l, which precedes the j-th vt, the (j+1)-th v0 and so the (j+1)-th v_i.
Both occur k times, so v_i and v_l alternate: v_i -> v_l is an arc, and the
path is no shortcut.

The order of first occurrences among the seen letters never changes as the
word grows, and the new letter c is a sink among them, so only the arcs
u -> c are new; a path into c cannot leave it, so the intervals of older
arcs stay as they were. ``anc[c]``, the seen letters with a path to c, is
written once at c's first occurrence and stays valid until the search
backtracks past it; each arc u -> c then gets the interval check of
``orientations._place``.

All three cuts reject only unfinishable prefixes, so the search remains
exhaustive; the test suite checks it against an unpruned enumeration on
small graphs. One more cut uses symmetry: if no word starts with letter 0,
the search stops there instead of trying the other first letters. That is
exact because rotating a uniform word keeps every pair's alternation, so
every k-uniform representing word has a rotation that starts with 0; and
words that start with 0 sort first, so the lexicographic order of the words
found is unchanged.

``prn`` goes through the induced poset: a smallest realizer by linear
extensions, concatenated, is a minimal permutation representation. Every
returned representation re-verifies against its target on construction, so
a bug in a construction cannot silently produce a wrong certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapExceeded, DomainError
from .graphs import Graph, iter_bits, make_graph
from .modular import lex_product, substitute
from .orientations import (
    DEFAULT_ORACLE_EDGE_CAP,
    DEFAULT_WORD_CAP,
    Orientation,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
    minimum_realizer,
    placement_order,
    poset_of,
)
from .words import Word, concat_permutations, represents, uniformity

GENERAL = "general"
PERMUTATIONAL = "permutational"


@dataclass(frozen=True)
class Representation:
    """A verified representing word for ``target``.

    ``k`` is the uniform multiplicity (None for non-uniform words); in
    permutational mode the word must split into k permutations of the
    vertex set. Construction re-checks everything.
    """

    word: Word
    k: int | None
    mode: str
    target: Graph

    def __post_init__(self) -> None:
        if self.mode not in (GENERAL, PERMUTATIONAL):
            raise ValueError(f"unknown representation mode {self.mode!r}")
        if not represents(self.word, self.target):
            raise ValueError("word does not represent the target graph")
        profile = uniformity(self.word)
        if self.k is not None and profile.uniform_k != self.k:
            raise ValueError(
                f"word is not {self.k}-uniform (profile {profile.counts})"
            )
        if self.mode == PERMUTATIONAL:
            if self.k is None:
                raise ValueError("permutational representations must be uniform")
            for p in self.permutations():
                if len(set(p)) != self.target.n:
                    raise ValueError(f"chunk {p} is not a permutation of the vertices")

    def permutations(self) -> list[Word]:
        """The word split into its k consecutive length-n chunks."""
        n = self.target.n
        assert self.k is not None and len(self.word) == self.k * n
        return [self.word[i * n : (i + 1) * n] for i in range(self.k)]


def representing_words(g: Graph, k: int) -> Iterator[Word]:
    """Yield every k-uniform word representing g, in lexicographic order."""
    n = g.n
    if n < 1:
        raise ValueError("representation search needs at least one vertex")
    if k < 1:
        raise ValueError(f"uniformity must be >= 1, got {k}")
    adj = g.adj
    full = (1 << n) - 1
    nonadj = [full & ~adj[c] & ~(1 << c) for c in range(n)]
    remaining = [k] * n
    pending = [0] * n  # bit d of pending[c]: pair (c,d) last saw c
    violated = [0] * n  # symmetric: non-adjacent pairs that already collided
    seen = 0  # letters that occur in the prefix
    anc = [0] * n  # for a seen letter: the seen letters with a path to it
    word: list[int] = []
    total = n * k
    found = False

    def sink_keeps_semi_transitive(c: int) -> bool:
        # c first appears: its seen neighbours u point to it, and each arc
        # u -> c must have a transitively oriented interval
        into = adj[c] & seen
        reach = 0
        for u in iter_bits(into):
            reach |= anc[u] | 1 << u
        anc[c] = reach
        for u in iter_bits(into):
            later = reach & ~anc[u] & ~(1 << u)  # may lie inside u -> c
            inner = 0
            for x in iter_bits(later):
                if anc[x] >> u & 1:
                    inner |= 1 << x
            if not inner & (inner - 1):  # fewer than two inner letters
                continue
            interval = inner | 1 << u | 1 << c
            for b in iter_bits(interval):
                if anc[b] & interval & ~adj[b]:
                    return False
        return True

    def dfs(pos: int) -> Iterator[Word]:
        nonlocal found, seen
        if pos == total:
            found = True
            yield tuple(word)
            return
        for c in range(n):
            if not pos and c and not found:
                return  # rotation cut: no word starts with 0, so none exists
            rc = remaining[c] - 1
            if rc < 0:
                continue
            dead = pending[c]
            if dead & adj[c]:
                continue
            newly = dead & nonadj[c] & ~violated[c]
            if rc == 0:
                alive = nonadj[c] & ~violated[c] & ~newly
                if any(remaining[d] < 2 for d in iter_bits(alive)):
                    continue
            first = not seen >> c & 1
            if first and not sink_keeps_semi_transitive(c):
                continue
            # apply the append
            seen |= 1 << c
            remaining[c] = rc
            word.append(c)
            flipped = [d for d in range(n) if pending[d] >> c & 1]
            for d in flipped:
                pending[d] &= ~(1 << c)
            old_pending_c = pending[c]
            pending[c] = full ^ (1 << c)
            violated[c] |= newly
            for d in iter_bits(newly):
                violated[d] |= 1 << c
            yield from dfs(pos + 1)
            # undo
            for d in iter_bits(newly):
                violated[d] &= ~(1 << c)
            violated[c] &= ~newly
            pending[c] = old_pending_c
            for d in flipped:
                pending[d] |= 1 << c
            word.pop()
            remaining[c] = rc + 1
            if first:
                seen &= ~(1 << c)

    return dfs(0)


def _placements(word: Sequence[int], k: int, near: int, far: int) -> Iterator[list[int]]:
    """Every way to add k copies of a new letter to the cyclic ``word``, as
    the gaps they go into (copy j goes right before ``word[gaps[j]]``, and
    the gap after the last letter is gap 0): every stretch between
    consecutive copies holds one copy of each letter in ``near``, and each
    letter in ``far`` misses that in some stretch. The last stretch holds
    what the others leave, so it is implied and not scanned."""
    size = len(word)
    gaps = [0] * k

    def place(j: int, broken: int) -> Iterator[list[int]]:
        # copies 0..j-1 are placed; broken: far letters that some stretch
        # between them does not hold exactly once
        if j == k:
            if not far & ~broken:
                yield gaps
            return
        start = gaps[j - 1]
        once = twice = 0
        for b in range(start, size):
            if b > start:
                twice |= once & 1 << word[b - 1]
                once |= 1 << word[b - 1]
                if twice & near:  # a neighbour twice: no later gap works
                    return
            if once & near == near:
                gaps[j] = b
                yield from place(j + 1, broken | far & (~once | twice))

    # the lowest copy goes no later than the second copy of any neighbour
    bound = size
    seen = 0
    for p, c in enumerate(word):
        if near >> c & 1:
            if seen >> c & 1:
                bound = p + 1
                break
            seen |= 1 << c
    for first in range(bound):
        gaps[0] = first
        yield from place(1, 0)


def _turns(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every rotation of the word and of its reversal."""
    back = word[::-1]
    return [w[i:] + w[:i] for w in (word, back) for i in range(len(word))]


def exists_word(g: Graph, k: int) -> bool:
    """True iff some k-uniform word represents g.

    Builds a cyclic word one vertex at a time in ``placement_order``: each
    new vertex gets k copies (``_placements``), and a branch is dropped as
    soon as a vertex still to come, with two or more placed neighbours, has
    no placement. Sibling words that are rotations or reflections of each
    other are tried once. See the module docstring for why this is exact.
    """
    n = g.n
    if n < 1:
        raise ValueError("representation search needs at least one vertex")
    if k < 1:
        raise ValueError(f"uniformity must be >= 1, got {k}")
    steps = placement_order(g)
    adj = g.adj

    def extend(i: int, word: tuple[int, ...], placed: int, symmetric: bool) -> bool:
        if i == n:
            return True
        for w, _ in steps[i + 1 :]:
            near = adj[w] & placed
            if not near & (near - 1):
                continue  # fewer than two placed neighbours: not checked
            if next(_placements(word, k, near, placed & ~near), None) is None:
                return False
        v, near = steps[i]
        tried = set()
        for gaps in _placements(word, k, near, placed & ~near):
            grown: list[int] = []
            done = 0
            for q in gaps:
                grown += word[done:q]
                grown.append(v)
                done = q
            grown_word = (*grown, *word[done:])
            child_symmetric = False
            if symmetric:
                turns = _turns(grown_word)
                key = min(turns)
                if key in tried:
                    continue
                tried.add(key)
                child_symmetric = len(set(turns)) < len(turns)
            if extend(i + 1, grown_word, placed | 1 << v, child_symmetric):
                return True
        return False

    first, _ = steps[0]
    return extend(1, (first,) * k, 1 << first, True)


def rep_number(g: Graph, cap: int = DEFAULT_WORD_CAP) -> Representation | None:
    """The minimal k <= cap with a k-uniform representing word, as a certificate.

    Each level from 2 to cap - 1 is decided by ``exists_word``, and
    ``representing_words`` runs at the first level with a word, for the
    lexicographically first one. Level 1 (only complete graphs have a
    1-uniform word, and the letter search refutes any other graph within a
    few letters) and the cap level, whose answer is final either way, are
    searched by letters directly. Once level 2 is refuted, a graph within
    ``DEFAULT_ORACLE_EDGE_CAP`` edges, whatever ``--oracle-cap`` says, and
    with no semi-transitive orientation has no word at any level. The oracle
    says so at once, while the decider's refutations grow steeply with k on
    such graphs (W7: 0.07 s at level 3, 18 s at level 4).

    None means no representation within the cap; that never asserts
    non-word-representability (the orientation oracle decides that).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    for k in range(1, cap + 1):
        if 1 < k < cap and not exists_word(g, k):
            if (
                k == 2
                and g.m <= DEFAULT_ORACLE_EDGE_CAP
                and not exists_semi_transitive_orientation(g)
            ):
                return None
            continue
        found = next(representing_words(g, k), None)
        if found is not None:
            return Representation(found, k, GENERAL, g)
    return None


def closed_form_prn(g: Graph) -> Representation | None:
    """The minimal permutational representation of a complete or an
    edgeless graph, built without a search; None for any other graph.

    A complete graph, K1 included, gets the identity permutation (k = 1),
    and an edgeless graph on two or more vertices the reversal, then the
    identity (k = 2: one permutation alternates every pair). These are the
    words the realizer search returns: the lexicographically first
    transitive orientation of K_s is i -> j for i < j, and the slot search
    on an antichain reverses every pair in its first extension.
    """
    identity = tuple(range(g.n))
    if g.m == g.n * (g.n - 1) // 2:
        return Representation(identity, 1, PERMUTATIONAL, g)
    if g.m == 0:
        return Representation(identity[::-1] + identity, 2, PERMUTATIONAL, g)
    return None


def prn(g: Graph, cap: int = DEFAULT_WORD_CAP) -> Representation | None:
    """Minimal concatenation of permutations representing g.

    None when g has no transitive orientation (not a comparability graph)
    or when the required number of permutations exceeds the cap; orient g
    after a None to tell the two apart. The count equals the order
    dimension of the induced poset; the realizer's linear extensions,
    concatenated, are the certificate. Complete and edgeless graphs get
    ``closed_form_prn`` or None, with no orientation and no realizer.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    rep = closed_form_prn(g)
    if rep is not None:
        return rep if rep.k <= cap else None
    o = find_transitive_orientation(g)
    return None if o is None else prn_of_orientation(o, cap)


def prn_of_orientation(o: Orientation, cap: int = DEFAULT_WORD_CAP) -> Representation | None:
    """``prn`` for a caller that already holds a transitive orientation of the graph."""
    realizer = minimum_realizer(poset_of(o), cap)
    if realizer is None:
        return None
    return Representation(concat_permutations(realizer), len(realizer), PERMUTATIONAL, o.base)


def uniformize(word: Word, g: Graph, t: int) -> Word:
    """Extend a uniform representing word to t-uniform, preserving the graph.

    Each round appends one permutation of the vertices ordered by earliest
    last occurrence: adjacent pairs pick up one more alternation, pairs that
    already failed stay failed.
    """
    profile = uniformity(word)
    k = profile.uniform_k
    if k is None:
        raise ValueError("only uniform words can be extended uniformly")
    if t < k:
        raise ValueError(f"cannot shrink a {k}-uniform word to {t}")
    w = tuple(word)
    for _ in range(t - k):
        last = {c: i for i, c in enumerate(w)}
        w = w + tuple(sorted(range(g.n), key=lambda c: last[c]))
        if not represents(w, g):
            raise AssertionError("uniform extension changed the represented graph")
    return w


def compose(
    outer: Representation,
    blocks: Sequence[Representation],
    labels: Sequence[Sequence[int]],
    target: Graph,
    mode: str,
) -> Representation:
    """Blow a word for a quotient up into a word for ``target``.

    ``blocks[q]`` is a permutational representation of the module that
    replaces outer letter q, and ``labels[q]`` maps its vertices into
    ``target``. The outer word is extended to t = max multiplicity, then the
    i-th occurrence of letter q becomes block q's i-th permutation (its last
    one once they run out), relabeled. Substitution, the lex product and
    ``classify`` all build their certificates here.
    """
    t = max(outer.k, *(rep.k for rep in blocks))
    perms = [rep.permutations() for rep in blocks]
    occurrences = [0] * outer.target.n
    out: list[int] = []
    for q in uniformize(outer.word, outer.target, t):
        out.extend(labels[q][x] for x in perms[q][min(occurrences[q], blocks[q].k - 1)])
        occurrences[q] += 1
    return Representation(tuple(out), t, mode, target)


# the block that stands for a vertex left in place by a substitution
_POINT = closed_form_prn(make_graph(1, []))


@dataclass(frozen=True)
class SubstitutionPlan:
    """Inputs for building a word for the graph 'outer with pivot replaced by inner'."""

    outer: Representation
    pivot: int
    inner: Representation


def substitute_representation(plan: SubstitutionPlan) -> Representation:
    """Build a representation of substitute(outer, pivot, inner) from the parts.

    The pivot letter is blown up by the inner side's permutations and every
    other letter stands for itself (see ``compose``). If the outer word is
    permutational the result is permutational.
    """
    outer, inner = plan.outer, plan.inner
    if inner.mode != PERMUTATIONAL:
        raise ValueError("the inner representation must be permutational")
    if outer.k is None:
        raise ValueError("the outer word must be uniform")
    g = outer.target
    result, g_map, m_map = substitute(g, plan.pivot, inner.target)
    blocks = [inner if c == plan.pivot else _POINT for c in range(g.n)]
    labels = [
        [m_map[x] for x in range(inner.target.n)] if c == plan.pivot else [g_map[c]]
        for c in range(g.n)
    ]
    return compose(outer, blocks, labels, result, outer.mode)


def _lex_representation(g_rep: Representation, h_rep: Representation) -> Representation:
    """Every letter of g's word blown up by h's permutations, in g's mode."""
    g, h = g_rep.target, h_rep.target
    product, label = lex_product(g, h)
    labels = [[label[(c, x)] for x in range(h.n)] for c in range(g.n)]
    return compose(g_rep, [h_rep] * g.n, labels, product, g_rep.mode)


def _word_factors(
    g: Graph, h: Graph, cap: int, oracle_edge_cap: int, names: tuple[str, str, str]
) -> tuple[Representation, Representation]:
    """A minimal uniform word for the outer graph g and a minimal
    permutational one for h; ``names`` reads (outer, inner, composed graph)
    in the DomainError texts."""
    outer_name, inner_name, result_name = names
    o = find_transitive_orientation(h)
    if o is None:
        raise DomainError(
            f"{inner_name} admits no transitive orientation, so the "
            f"{result_name} is not word-representable"
        )
    # comparability implies word-representable, and the orientation search
    # for a transitive orientation is much cheaper than full enumeration
    if find_transitive_orientation(g) is None and not exists_semi_transitive_orientation(
        g, oracle_edge_cap
    ):
        raise DomainError(f"{outer_name} is not word-representable")
    g_rep = rep_number(g, cap)
    h_rep = prn_of_orientation(o, cap)
    if g_rep is None or h_rep is None:
        raise CapExceeded(f"representation search capped at k={cap}")
    return g_rep, h_rep


def _perm_factors(
    g: Graph, h: Graph, cap: int, names: tuple[str, str]
) -> tuple[Representation, Representation]:
    """Minimal permutational representations of g and h; ``names`` reads
    (outer, inner graph) in the DomainError texts."""
    reps = []
    for graph, name in zip((g, h), names):
        rep = prn(graph, cap)
        if rep is None and find_transitive_orientation(graph) is None:
            raise DomainError(f"{name} is not a comparability graph")
        reps.append(rep)
    g_rep, h_rep = reps
    if g_rep is None or h_rep is None:
        raise CapExceeded(f"realizer search capped at k={cap}")
    return g_rep, h_rep


def rep_number_composed(
    g: Graph,
    pivot: int,
    inner: Graph,
    cap: int = DEFAULT_WORD_CAP,
    oracle_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP,
) -> Representation:
    """Representation of the substitution at max(R(outer), prn(inner)) multiplicity.

    Requires the outer graph to be word-representable and the inner graph to
    be a comparability graph; those are exactly the conditions under which
    the substituted graph is word-representable at all.
    """
    outer_rep, inner_rep = _word_factors(
        g, inner, cap, oracle_edge_cap, ("outer graph", "inner graph", "substituted graph")
    )
    return substitute_representation(SubstitutionPlan(outer_rep, pivot, inner_rep))


def prn_composed(
    g: Graph, pivot: int, inner: Graph, cap: int = DEFAULT_WORD_CAP
) -> Representation:
    """Permutational representation of the substitution at max of the two prns."""
    outer_rep, inner_rep = _perm_factors(g, inner, cap, ("outer graph", "inner graph"))
    return substitute_representation(SubstitutionPlan(outer_rep, pivot, inner_rep))


def lex_rep_number(
    g: Graph,
    h: Graph,
    cap: int = DEFAULT_WORD_CAP,
    oracle_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP,
) -> Representation:
    """Representation of the lex product at max(R(g), prn(h)) multiplicity.

    The product is word-representable iff g is and h is a comparability
    graph; the word substitutes h's permutations for every letter of a
    uniform word for g.
    """
    return _lex_representation(
        *_word_factors(g, h, cap, oracle_edge_cap, ("first factor", "second factor", "product"))
    )


def lex_prn(g: Graph, h: Graph, cap: int = DEFAULT_WORD_CAP) -> Representation:
    """Permutational representation of the lex product at max of the two prns."""
    return _lex_representation(*_perm_factors(g, h, cap, ("first factor", "second factor")))
