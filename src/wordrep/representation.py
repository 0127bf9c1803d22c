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
  shortcut, the prefix cannot be finished;
* the next copies of the letters with copies left, the unspent letters, must
  come in an order that some pairs force; if those pairs force a cycle,
  the prefix cannot be finished (the must-come-first cut below).

Two checks follow from these cuts and are not made. Counts stay balanced:
by the first cut every prefix alternates on every edge and ends with the
letter just appended, so each neighbour of c has c's remaining count or
one more. A finished word has every non-adjacent pair collided: when the
first letter of such a pair runs out, the second cut has left either a
collision already or two copies of the other letter, with none of the
first between them.

The third cut rests on a lemma (Halldórsson, Kitaev & Pyatkin, *Discrete
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
``orientations._place``, written out for a sink, which changes only its own
ancestor mask, where ``_place`` copies both mask lists and updates the
descendants of every ancestor.

The must-come-first cut: in a completion, each unspent letter has a next
copy, and two pairs fix which of two next copies comes first.

* (a) x and y are adjacent, x is unspent, and x occurred after y's last
  occurrence (bit y of ``pending[x]``, also when y has not occurred). The
  two alternate to the end, so y, unspent too, comes before x's next copy.
* (b) x and y are non-adjacent, have not collided, each has one copy left,
  and x occurred last. Then the prefix restricted to them is y x ... y x,
  k - 1 copies each, and y x to finish would make them alternate; so x's
  next copy comes first.

Next copies take distinct positions, so a cycle of these arcs has no
completion. An append of c changes only pairs that hold c, and c then
occurred last against every letter: by (a) each unspent neighbour of c gets
an arc into c and c gets none out, and by (b) c gets arcs out only, and
only if it has one copy left. Every shorter prefix was checked when it was
made, so a cycle passes through c: the search walks from c only when c has
one copy left, over the unspent letters, and drops the append if the walk
reaches an unspent neighbour of c. The walk reads the masks before the
append; they differ from those after it only at c, which it never reaches,
since it stops at a neighbour of c before it steps from one. From x it
steps by (a) to the unspent letters of ``adj[x] & seen & ~pending[x]``, the
neighbours y that occurred after x's last occurrence: for a seen x, those
whose bit in ``pending[x]`` is clear (the ``flipped`` identity below), and
for an unseen x, whose ``pending[x]`` is 0, every seen neighbour. If x has
one copy left, it also steps by (b) to
``nonadj[x] & ~violated[x] & ones & pending[x]``, where ``ones`` is
``scarce & ~spent``.

All four cuts reject only unfinishable prefixes, so the search remains
exhaustive; the test suite checks it against an unpruned enumeration on
small graphs. One more cut uses symmetry: if no word starts with letter 0,
the search stops there instead of trying the other first letters. That is
exact because rotating a uniform word keeps every pair's alternation, so
every k-uniform representing word has a rotation that starts with 0; and
words that start with 0 sort first, so the lexicographic order of the words
found is unchanged.

``representing_words`` checks its arguments at the call and returns the
generator ``_letter_search``, one loop over an explicit undo stack, so the
length of a word is bounded by memory and not by Python's recursion limit
(the path P1001 at k = 2 takes 2,002 entries). Each append of a letter c
pushes (c, flipped, pending[c] before the append, newly, first); a pop
undoes that append and the loop goes on with candidate c + 1. Letters are
tried in the order a recursive search tries them, so the words come out in
the same lexicographic order. Three masks replace scans over the letters:

* ``flipped``, the letters d whose ``pending[d]`` holds bit c, is
  ``seen & ~pending[c] & ~(1 << c)``. Bit c of ``pending[d]`` is set iff d
  has occurred and c has not occurred since d's last occurrence. Take
  d != c. If d has not occurred, ``pending[d]`` is 0 and d is not in
  ``seen``. If d has occurred and c has not, bit c of ``pending[d]`` is set
  and ``pending[c]`` is 0. If both have occurred, their last occurrences
  differ, and only the letter that occurred last holds the other's bit. So
  for a seen d, bit c of ``pending[d]`` is set iff bit d of ``pending[c]``
  is clear.
* ``scarce`` holds the letters with fewer than two copies left: every
  letter at the start when k = 1, none when k >= 2. Only an append and its
  pop change ``remaining[c]``; the append sets bit c when it leaves one
  copy, and the pop clears it when it gives back the second. So ``scarce``
  is {d : remaining[d] < 2} at every step, and the collide cut asks
  ``alive & scarce`` for "some alive letter has fewer than two copies".
  ``spent``, the letters with no copies left, is kept the same way: the
  append that leaves none sets bit c, and the pop that gives one back
  clears it.

``prn`` goes through the induced poset: a smallest realizer by linear
extensions, concatenated, is a minimal permutation representation. Every
returned representation re-verifies against its target on construction, so
a bug in a construction cannot silently produce a wrong certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import CapExceeded, DomainError
from .graphs import Graph, make_graph
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
from .words import Word, check_representation, concat_permutations, represents, uniformity

GENERAL = "general"
PERMUTATIONAL = "permutational"


@dataclass(frozen=True)
class Representation:
    """A verified uniform representing word for ``target``, with ``k``
    copies of each letter, read from the word. In permutational mode the
    word must split into k permutations of the vertex set. Construction
    re-checks everything."""

    word: Word
    k: int = field(init=False)
    mode: str
    target: Graph

    def __post_init__(self) -> None:
        if self.mode not in (GENERAL, PERMUTATIONAL):
            raise ValueError(f"unknown representation mode {self.mode!r}")
        represented, k = check_representation(self.word, self.target)
        if not represented:
            raise ValueError("word does not represent the target graph")
        if k is None:
            raise ValueError(f"word is not uniform (profile {uniformity(self.word).counts})")
        object.__setattr__(self, "k", k)
        if self.mode == PERMUTATIONAL:
            for p in self.permutations():
                if len(set(p)) != self.target.n:
                    raise ValueError(f"chunk {p} is not a permutation of the vertices")

    def permutations(self) -> list[Word]:
        """The word split into its k consecutive length-n chunks."""
        n = self.target.n
        return [self.word[i * n : (i + 1) * n] for i in range(self.k)]


def representing_words(g: Graph, k: int) -> Iterator[Word]:
    """Yield every k-uniform word representing g, in lexicographic order.

    The arguments are checked at the call; the search runs as the words are
    read."""
    if g.n < 1:
        raise ValueError("representation search needs at least one vertex")
    if k < 1:
        raise ValueError(f"uniformity must be >= 1, got {k}")
    return _letter_search(g.adj, k)


def _sink_keeps_semi_transitive(adj: tuple[int, ...], anc: list[int], seen: int, c: int) -> bool:
    """c first appears after the letters in ``seen``: its seen neighbours u
    point to it, and each arc u -> c must have a transitively oriented
    interval. Writes ``anc[c]``."""
    into = adj[c] & seen
    reach = 0
    rest = into
    while rest:
        low = rest & -rest
        reach |= anc[low.bit_length() - 1] | low
        rest ^= low
    anc[c] = reach
    while into:
        low = into & -into
        u = low.bit_length() - 1
        into ^= low
        later = reach & ~anc[u] & ~low  # may lie inside u -> c
        inner = 0
        while later:
            x = later & -later
            if anc[x.bit_length() - 1] >> u & 1:
                inner |= x
            later ^= x
        if not inner & (inner - 1):  # fewer than two inner letters
            continue
        interval = rest = inner | low | 1 << c
        while rest:
            x = rest & -rest
            b = x.bit_length() - 1
            if anc[b] & interval & ~adj[b]:
                return False
            rest ^= x
    return True


def _letter_search(adj: tuple[int, ...], k: int) -> Iterator[Word]:
    """The search behind ``representing_words``, one loop over an undo stack."""
    n = len(adj)
    full = (1 << n) - 1
    nonadj = [full & ~adj[c] & ~(1 << c) for c in range(n)]
    remaining = [k] * n
    scarce = full if k < 2 else 0  # letters with fewer than two copies left
    spent = 0  # letters with no copies left
    pending = [0] * n  # bit d of pending[c]: pair (c,d) last saw c
    violated = [0] * n  # symmetric: non-adjacent pairs that already collided
    seen = 0  # letters that occur in the prefix
    anc = [0] * n  # for a seen letter: the seen letters with a path to it
    # per letter of the prefix: (c, flipped, pending[c] before, newly, first)
    stack: list[tuple[int, int, int, int, bool]] = []
    total = n * k
    found = False
    c = 0  # the next letter to try at position len(stack)
    while True:
        if c < n:
            if not stack and c and not found:
                return  # rotation cut: no word starts with 0, so none exists
            rc = remaining[c] - 1
            dead = pending[c]
            if rc < 0 or dead & adj[c]:
                c += 1
                continue
            newly = dead & nonadj[c] & ~violated[c]
            if not rc and nonadj[c] & ~violated[c] & ~newly & scarce:
                c += 1
                continue
            bit = 1 << c
            if rc == 1:  # must-come-first cut: no path from c to an unspent neighbour
                ones = scarce & ~spent
                hit = adj[c] & ~spent
                reach = todo = nonadj[c] & ~violated[c] & ~dead & ones
                while todo and not reach & hit:
                    low = todo & -todo
                    x = low.bit_length() - 1
                    more = adj[x] & seen & ~pending[x] & ~spent
                    if low & ones:
                        more |= nonadj[x] & ~violated[x] & ones & pending[x]
                    more &= ~reach
                    reach |= more
                    todo = todo ^ low | more
                if reach & hit:
                    c += 1
                    continue
            first = not seen & bit
            if first and not _sink_keeps_semi_transitive(adj, anc, seen, c):
                c += 1
                continue
            # apply the append
            flipped = seen & ~dead & ~bit  # the letters d with bit c in pending[d]
            seen |= bit
            remaining[c] = rc
            if rc == 1:
                scarce |= bit
            elif not rc:
                spent |= bit
            rest = flipped
            while rest:
                low = rest & -rest
                pending[low.bit_length() - 1] ^= bit
                rest ^= low
            pending[c] = full ^ bit
            violated[c] |= newly
            rest = newly
            while rest:
                low = rest & -rest
                violated[low.bit_length() - 1] |= bit
                rest ^= low
            stack.append((c, flipped, dead, newly, first))
            if len(stack) < total:
                c = 0
                continue
            found = True
            yield tuple([entry[0] for entry in stack])
        # undo the last append and try the next letter in its place
        if not stack:
            return
        c, flipped, dead, newly, first = stack.pop()
        bit = 1 << c
        rest = newly
        while rest:
            low = rest & -rest
            violated[low.bit_length() - 1] ^= bit
            rest ^= low
        violated[c] ^= newly
        pending[c] = dead
        rest = flipped
        while rest:
            low = rest & -rest
            pending[low.bit_length() - 1] ^= bit
            rest ^= low
        remaining[c] += 1
        if remaining[c] == 2:
            scarce ^= bit
        elif remaining[c] == 1:
            spent ^= bit
        if first:
            seen ^= bit
        c += 1


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
    such graphs: W7 takes the decider about 0.05 s at level 3 and 12 s at
    level 4, and the oracle 0.05 ms, as its neighbourhood screen finds the
    hub's C7 in one forcing pass.

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
            return Representation(found, GENERAL, g)
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
        return Representation(identity, PERMUTATIONAL, g)
    if g.m == 0:
        return Representation(identity[::-1] + identity, PERMUTATIONAL, g)
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
    return Representation(concat_permutations(realizer), PERMUTATIONAL, o.base)


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
    return Representation(tuple(out), mode, target)


# the block that stands for a vertex left in place by a substitution
_POINT = closed_form_prn(make_graph(1, []))


def compose_product(
    outer: Representation, inner: Representation, at: int | None = None
) -> Representation:
    """A representation, in ``outer``'s mode, of inner's target substituted
    at vertex ``at`` of outer's, or of the lex product outer[inner] when
    ``at`` is None: ``compose`` with inner's permutations for the pivot
    letter, or for every letter, and each other letter left for itself."""
    if inner.mode != PERMUTATIONAL:
        raise ValueError("the inner representation must be permutational")
    g, h = outer.target, inner.target
    if at is None:
        product, label = lex_product(g, h)
        blocks = [inner] * g.n
        labels = [[label[(c, x)] for x in range(h.n)] for c in range(g.n)]
    else:
        product, g_map, h_map = substitute(g, at, h)
        blocks = [inner if c == at else _POINT for c in range(g.n)]
        labels = [[h_map[x] for x in range(h.n)] if c == at else [g_map[c]] for c in range(g.n)]
    return compose(outer, blocks, labels, product, outer.mode)


def product_certificates(
    g: Graph,
    h: Graph,
    at: int | None = None,
    cap: int = DEFAULT_WORD_CAP,
    oracle_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP,
) -> tuple[Representation, Representation | None, str | None]:
    """Certificates for h substituted at vertex ``at`` of g, or for the lex
    product g[h] when ``at`` is None, orienting each factor at most once.

    Returns a word at max(R(g), prn(h)) = R(product); a word of permutations
    at max(prn(g), prn(h)) = prn(product), dimension being monotone on
    subposets, or None if g is not a comparability graph or its realizer
    stops at ``cap``; and that stop's message or None. Raises DomainError if
    the product is not word-representable (g is not, or h is not a
    comparability graph and the product holds a cone over it) or R is not
    known, CapExceeded if the oracle on g passes ``oracle_edge_cap`` or a
    factor has no word within ``cap``.

    Why R is known. R(product) >= R(g), g being an induced subgraph, and a
    cone over h (h and a vertex joined to all of it) has R = prn(h) (Kitaev
    & Seif, *Order* 2008). The product holds one iff the pivot has a
    neighbour in g or, for the lex product, g has an edge. Without one, the
    max is still R(product) when prn(h) <= max(R(g), 2), since prn(h) = 2
    only for a non-complete h, and then R(product) >= 2; it need not be
    otherwise: K1[C6] = C6 has R = 2 and prn(C6) = 3. Nor does a
    non-comparability h refute the product without a cone: then h is a
    component of it, and K1[C5] = C5 has R = 2.
    """
    outer, inner, result = (
        ("first factor", "second factor", "product")
        if at is None
        else ("outer graph", "inner graph", "substituted graph")
    )
    cone = g.m if at is None else g.adj[at]
    h_perm = closed_form_prn(h)
    if h_perm is None:
        h_order = find_transitive_orientation(h)
        if h_order is None:
            if not cone:
                raise DomainError(
                    f"{inner} admits no transitive orientation, but no vertex of "
                    f"the {result} is joined to all of it, so that does not decide the {result}"
                )
            raise DomainError(
                f"{inner} admits no transitive orientation, so the "
                f"{result} is not word-representable"
            )
        h_perm = prn_of_orientation(h_order, cap)
    # comparability implies word-representable, and the orientation search
    # for a transitive orientation is much cheaper than full enumeration
    g_perm = closed_form_prn(g)
    g_order = None if g_perm is not None else find_transitive_orientation(g)
    if g_perm is None and g_order is None and not exists_semi_transitive_orientation(
        g, oracle_edge_cap
    ):
        raise DomainError(f"{outer} is not word-representable")
    g_word = rep_number(g, cap)
    if g_word is None or h_perm is None or h_perm.k > cap:
        raise CapExceeded(f"representation search capped at k={cap}")
    if not cone and h_perm.k > max(g_word.k, 2):
        raise DomainError(
            f"no vertex of the {result} is joined to all of the {inner}, so its "
            f"representation number may be below prn({inner}) = {h_perm.k}"
        )
    capped = None
    if g_order is not None:
        g_perm = prn_of_orientation(g_order, cap)
        if g_perm is None:
            capped = f"realizer search capped at k={cap}"
    return (
        compose_product(g_word, h_perm, at),
        None if g_perm is None else compose_product(g_perm, h_perm, at),
        capped,
    )
