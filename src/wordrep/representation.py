"""Representation numbers, permutation representations, and composed certificates.

``rep_number`` does exhaustive search over k-uniform words for k = 1, 2, ...
The search appends one letter at a time and cuts a branch as soon as it is
unfinishable:

* appending a letter that doubles up against an adjacent letter is illegal
  (adjacent pairs must alternate to the end);
* after appending c, every neighbor d must have a remaining count equal to
  c's or one more, otherwise their projections cannot interleave;
* a non-adjacent pair that still alternates must keep some way to collide
  later, otherwise the word would create an edge that is not in the graph.

All three cuts reject only unfinishable prefixes, so the search remains
exhaustive; the test suite checks it against an unpruned enumeration on
small graphs. ``prn`` goes through the induced poset: a smallest realizer
by linear extensions, concatenated, is a minimal permutation representation.
Every returned representation re-verifies against its target on
construction, so a bug in a construction cannot silently produce a wrong
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapExceeded, DomainError
from .graphs import Graph, iter_bits, make_graph
from .modular import lex_product, substitute
from .orientations import (
    DEFAULT_ORACLE_EDGE_CAP,
    Orientation,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
    minimum_realizer,
    poset_of,
)
from .words import Word, concat_permutations, represents, uniformity

DEFAULT_WORD_CAP = 4

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
    word: list[int] = []
    total = n * k

    def dfs(pos: int) -> Iterator[Word]:
        if pos == total:
            if all(violated[c] == nonadj[c] for c in range(n)):
                yield tuple(word)
            return
        for c in range(n):
            rc = remaining[c] - 1
            if rc < 0:
                continue
            dead = pending[c]
            if dead & adj[c]:
                continue
            ok = True
            for d in iter_bits(adj[c]):
                if not rc <= remaining[d] <= rc + 1:
                    ok = False
                    break
            if not ok:
                continue
            newly = dead & nonadj[c] & ~violated[c]
            if rc == 0:
                alive = nonadj[c] & ~violated[c] & ~newly
                for d in iter_bits(alive):
                    if remaining[d] < 2:
                        ok = False
                        break
                if not ok:
                    continue
            # apply the append
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

    return dfs(0)


def rep_number(g: Graph, cap: int = DEFAULT_WORD_CAP) -> Representation | None:
    """The minimal k <= cap with a k-uniform representing word, as a certificate.

    None means no representation within the cap; that never asserts
    non-word-representability (the orientation oracle decides that).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    for k in range(1, cap + 1):
        found = next(representing_words(g, k), None)
        if found is not None:
            return Representation(found, k, GENERAL, g)
    return None


def prn(g: Graph, cap: int = DEFAULT_WORD_CAP) -> Representation | None:
    """Minimal concatenation of permutations representing g.

    None when g has no transitive orientation (not a comparability graph)
    or when the required number of permutations exceeds the cap. The count
    equals the order dimension of the induced poset; the realizer's linear
    extensions, concatenated, are the certificate.
    """
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
_POINT = Representation((0,), 1, PERMUTATIONAL, make_graph(1, []))


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
        o = find_transitive_orientation(graph)
        if o is None:
            raise DomainError(f"{name} is not a comparability graph")
        reps.append(prn_of_orientation(o, cap))
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
