"""Words over vertex alphabets: projection, alternation, and the graph a word defines."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, iter_bits

Word = tuple[int, ...]


@dataclass(frozen=True)
class UniformityProfile:
    """Per-letter occurrence counts, with the common count when all are equal."""

    counts: dict[int, int]
    uniform_k: int | None


def project(word: Sequence[int], letters: Iterable[int]) -> Word:
    """The subsequence of ``word`` over ``letters``, order preserved.

    Letters absent from the word contribute nothing.
    """
    keep = set(letters)
    return tuple(c for c in word if c in keep)


def alternate(word: Sequence[int], x: int, y: int) -> bool:
    """True iff x and y strictly alternate in the word.

    Both letters must occur; a single occurrence of each counts as
    alternating (the two-letter projection may have any length >= 2).
    """
    if x == y:
        raise ValueError(f"alternation needs two distinct letters, got {x} twice")
    proj = project(word, (x, y))
    present = set(proj)
    if x not in present or y not in present:
        missing = x if x not in present else y
        raise ValueError(f"letter {missing} does not occur in the word")
    return all(a != b for a, b in zip(proj, proj[1:]))


def _alternation_masks(word: Sequence[int], n: int) -> tuple[tuple[int, ...], int | None]:
    """Neighbor bitmasks, as in ``Graph.adj``, of the graph a word over
    letters 0..n-1 defines, and the common count of the letters, or None
    when two counts differ (or n is 0).

    Two letters fail to alternate iff one of them occurs twice with no
    occurrence of the other in between. So x and y alternate iff every gap
    between consecutive x's holds an odd number of y's and vice versa (an
    even number is none, or two y's with no x between them), and a gap's
    parities are the XOR of the count-parity masks at its two ends.

    Lemma: two letters that occur c times each alternate iff every gap
    between consecutive x's holds an odd number of y's; the y side then
    holds too. Proof: the c - 1 odd counts sum to at most c, so each is 1,
    and the one y left over lies outside the span of the x's, so the
    projection is x y x ... y x with one more y at an end. Hence the
    odd-gap masks are symmetric on letters of equal count, and only pairs
    of unequal counts are checked bit by bit: a uniform word, as every
    certificate is, costs O(n) mask operations and runs no per-letter loop.
    """
    full = (1 << n) - 1
    parity = 0
    at_last: list[int | None] = [None] * n  # parity at each letter's last occurrence
    odd_gaps = [full] * n
    count = [0] * n
    for c in word:
        if at_last[c] is not None:
            odd_gaps[c] &= parity ^ at_last[c]
        at_last[c] = parity
        parity ^= 1 << c
        count[c] += 1
    with_count: dict[int, int] = {}
    for u, c in enumerate(count):
        with_count[c] = with_count.get(c, 0) | 1 << u
    masks = []
    for u, mask in enumerate(odd_gaps):
        same = with_count[count[u]]
        row = mask & same & ~(1 << u)
        other = mask & ~same
        if other:
            row |= sum(1 << v for v in iter_bits(other) if odd_gaps[v] >> u & 1)
        masks.append(row)
    return tuple(masks), next(iter(with_count)) if len(with_count) == 1 else None


def alternation_graph(word: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """The graph a word defines: letters as vertices, edges between alternating pairs.

    Letters are relabeled to 0..k-1 in sorted order; the letter -> vertex map
    is returned alongside the graph.
    """
    if not word:
        raise ValueError("the empty word defines no graph")
    alphabet = sorted(set(word))
    relabel = {letter: i for i, letter in enumerate(alphabet)}
    masks, _ = _alternation_masks([relabel[c] for c in word], len(alphabet))
    return Graph(len(alphabet), masks), relabel


def represents(word: Sequence[int], g: Graph) -> bool:
    """True iff the word's alternation graph is exactly ``g``.

    The word's alphabet must equal the vertex set of ``g``.
    """
    return check_representation(word, g)[0]


def check_representation(word: Sequence[int], g: Graph) -> tuple[bool, int | None]:
    """``represents(word, g)``, and the common count of the word's letters,
    or None when two counts differ, both from one pass over the word."""
    alphabet = set(word)
    if alphabet != set(range(g.n)):
        raise ValueError(
            f"alphabet {sorted(alphabet)} does not match vertex set 0..{g.n - 1}"
        )
    masks, k = _alternation_masks(word, g.n)
    return masks == g.adj, k


def uniformity(word: Sequence[int]) -> UniformityProfile:
    """Occurrence counts, plus the common count when the word is uniform."""
    counts = dict(Counter(word))
    ks = set(counts.values())
    return UniformityProfile(counts, ks.pop() if len(ks) == 1 else None)


def concat_permutations(perms: Sequence[Sequence[int]]) -> Word:
    """Concatenate permutations of one common alphabet into a uniform word."""
    if not perms:
        raise ValueError("need at least one permutation")
    alphabet = set(perms[0])
    for p in perms:
        if len(p) != len(set(p)):
            raise ValueError(f"{tuple(p)} is not a permutation (repeated letter)")
        if set(p) != alphabet:
            raise ValueError(
                f"alphabet mismatch: {sorted(set(p))} vs {sorted(alphabet)}"
            )
    return tuple(c for p in perms for c in p)


def word_to_text(word: Sequence[int]) -> str:
    """Render a word as space-separated decimal vertex labels."""
    return " ".join(str(c) for c in word)


def word_from_text(text: str) -> Word:
    """Parse the space-separated text form of a word."""
    parts = text.split()
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"malformed word text {text!r}") from exc
