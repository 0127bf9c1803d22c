"""The decision pipeline: one modular partition, comparability of its blocks,
and a quotient decided directly.

A connected graph is word-representable iff every block of its maximal
modular partition induces a comparability graph and the quotient is
word-representable; when it is, the representation number is the max of the
quotient's representation number and the blocks' permutation-representation
numbers. A block that fails comparability is a checkable witness of
non-word-representability. Complete and edgeless blocks are always
comparability graphs and get their permutational certificates in closed
form (``closed_form_prn``), checked on construction like every other,
without an orientation or a realizer search; single vertices share one K1
certificate, built and checked once. By Gallai's theorem the quotient of a
connected graph is complete or prime, so it is decided directly and only
the top level of the modular decomposition tree is ever computed.
Complete graphs get the identity word. Prime graphs get
transitive orientation first, then the semi-transitive oracle when there is
none, then bounded word search; a comparability graph gets its prn before
word search, which then needs to go no higher than prn, since R <= prn.
When caps prevent a decision the verdict honestly reduces to the undecided
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterator

from .errors import CapExceeded, DomainError
from .graphs import Graph, induced_subgraph, is_connected
from .modular import ModularPartition, is_module, maximal_modular_partition
from .orientations import (
    DEFAULT_ORACLE_EDGE_CAP,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
)
from .representation import (
    DEFAULT_WORD_CAP,
    GENERAL,
    PERMUTATIONAL,
    Representation,
    _POINT,
    closed_form_prn,
    compose,
    prn,
    prn_of_orientation,
    rep_number,
)


class Status(Enum):
    WORD_REPRESENTABLE = "word-representable"
    COMPARABILITY = "comparability"
    NOT_WORD_REPRESENTABLE = "not-word-representable"
    REDUCED_TO_QUOTIENT = "reduced-to-quotient"


@dataclass(frozen=True)
class Caps:
    """Effective resource limits, echoed on every verdict. The edge cap bounds
    ``classify``'s oracle, not ``rep_number``'s, which has the default cap."""

    word_cap: int = DEFAULT_WORD_CAP
    oracle_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP

    def __post_init__(self) -> None:
        if self.word_cap < 1 or self.oracle_edge_cap < 0:
            raise ValueError(f"caps need word_cap >= 1 and oracle_edge_cap >= 0: {self}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of classify, with whatever certificate backs it.

    For word-representable outcomes ``certificate`` is a verified word at
    multiplicity ``r_number``; comparability outcomes additionally carry a
    permutational certificate at ``prn_number``. For
    not-word-representable outcomes ``witness`` is a nontrivial module
    inducing a non-comparability subgraph when one exists (graphs refuted by
    the orientation oracle, on themselves or on their prime quotient, have
    no such module and carry None).
    """

    status: Status
    caps: Caps
    witness: frozenset[int] | None = None
    certificate: Representation | None = None
    perm_certificate: Representation | None = None
    r_number: int | None = None
    prn_number: int | None = None
    block_prns: tuple[int, ...] | None = None
    quotient_r: int | None = None
    quotient_ref: Graph | None = None


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _is_prime(partition: ModularPartition) -> bool:
    return all(len(b) == 1 for b in partition.blocks)


def _block_prn_searches(
    partition: ModularPartition,
) -> Iterator[tuple[frozenset[int], Callable[[int], Representation | None] | None]]:
    """Each block with the prn search of the subgraph it induces, a function
    of the word cap, or None when that subgraph is not a comparability graph.

    Blocks are oriented lazily, in block order, so a caller that stops at
    the first failure orients nothing past it. A complete or edgeless block
    is a comparability graph and is not oriented: it is recognised on the
    block's mask, its K_s or edgeless graph is built directly, with no
    ``induced_subgraph`` relabelling, and its search is ``prn``, which
    gives it the closed form within the cap. A single vertex's search
    returns the one K1 certificate, ``_POINT``, at every cap (caps are at
    least 1).
    """
    adj = partition.base.adj
    for block in partition.blocks:
        s = len(block)
        if s == 1:
            yield block, lambda cap: _POINT
            continue
        mask = 0
        for v in block:
            mask |= 1 << v
        ends = 0  # twice the number of edges inside the block
        for v in block:
            ends += (adj[v] & mask).bit_count()
        if not ends:
            yield block, partial(prn, Graph(s, (0,) * s))
        elif ends == s * (s - 1):
            full = (1 << s) - 1
            yield block, partial(prn, Graph(s, tuple(full ^ 1 << i for i in range(s))))
        else:
            o = find_transitive_orientation(induced_subgraph(partition.base, block)[0])
            yield block, None if o is None else partial(prn_of_orientation, o)


def _first_failing_block(partition: ModularPartition) -> frozenset[int] | None:
    """The first block that does not induce a comparability graph, if any."""
    return next((b for b, s in _block_prn_searches(partition) if s is None), None)


def module_comparability_test(g: Graph) -> list[tuple[frozenset[int], bool]]:
    """For each block of the maximal modular partition, is its induced graph
    a comparability graph?

    Raises DomainError when the partition is all singletons (prime graphs,
    and complete graphs, K1 included, under the canonical partition), since
    then the test has nothing to say.
    """
    if g.n < 2:
        raise DomainError("a single vertex has no nontrivial modules")
    partition = maximal_modular_partition(g)
    if _is_prime(partition):
        raise DomainError("prime: no nontrivial modules in the maximal partition")
    return [(block, s is not None) for block, s in _block_prn_searches(partition)]


def nonwr_screen(g: Graph) -> frozenset[int] | None:
    """Polynomial screen: a maximal-partition block inducing a non-comparability
    graph proves g is not word-representable.

    Returns the first such block, or None when the screen has no information
    (which never asserts word-representability).
    """
    if g.n < 2:
        return None
    return _first_failing_block(maximal_modular_partition(g))


def _complete_verdict(g: Graph, caps: Caps) -> Verdict:
    rep = closed_form_prn(g)
    return Verdict(
        Status.COMPARABILITY,
        caps,
        certificate=rep,
        perm_certificate=rep,
        r_number=1,
        prn_number=1,
    )


def _classify_prime(g: Graph, caps: Caps) -> Verdict:
    o = find_transitive_orientation(g)
    # not comparability: settle the status with the orientation oracle before
    # paying for word search (refuting k-uniform words level by level is far
    # slower than refuting orientations), then search only to certify
    if (
        o is None
        and g.m <= caps.oracle_edge_cap
        and not exists_semi_transitive_orientation(g, caps.oracle_edge_cap)
    ):
        return Verdict(Status.NOT_WORD_REPRESENTABLE, caps, witness=None)
    perm_rep = prn_of_orientation(o, caps.word_cap) if o is not None else None
    if o is not None and perm_rep is None:
        # a comparability graph with no permutations within the word cap
        return Verdict(Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=g)
    # R <= prn, so a comparability graph has a word by level prn
    word_rep = rep_number(g, perm_rep.k if perm_rep is not None else caps.word_cap)
    if word_rep is None:
        # no word within the word cap
        return Verdict(Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=g)
    return Verdict(
        Status.WORD_REPRESENTABLE if o is None else Status.COMPARABILITY,
        caps,
        certificate=word_rep,
        perm_certificate=perm_rep,
        r_number=word_rep.k,
        prn_number=perm_rep.k if perm_rep is not None else None,
    )


def classify(g: Graph, caps: Caps = Caps()) -> Verdict:
    """Decide word-representability (and comparability) with a certificate.

    One maximal modular partition drives every decision: its blocks are
    oriented first, and its quotient, complete or prime by Gallai's theorem,
    is decided directly; see the module docstring.
    """
    if g.n == 0:
        raise ValueError("classify needs a nonempty graph")
    if _is_complete(g):
        return _complete_verdict(g, caps)
    partition = maximal_modular_partition(g)
    if _is_prime(partition):
        return _classify_prime(g, caps)

    searches: list[Callable[[int], Representation | None]] = []
    for block, search in _block_prn_searches(partition):
        if search is None:
            return Verdict(Status.NOT_WORD_REPRESENTABLE, caps, witness=block)
        searches.append(search)
    q = partition.quotient
    block_reps: list[Representation] = []
    for search in searches:
        rep = search(caps.word_cap)
        if rep is None:
            # comparability holds but the prn search is capped; the quotient
            # is what is left undecided
            return Verdict(Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=q)
        block_reps.append(rep)

    sub = _complete_verdict(q, caps) if _is_complete(q) else _classify_prime(q, caps)
    if sub.status in (Status.NOT_WORD_REPRESENTABLE, Status.REDUCED_TO_QUOTIENT):
        # a prime quotient has no module witness, and a reduced one names q
        return sub

    # the whole graph is a comparability graph iff its quotient is, since
    # every block already is one
    members = [sorted(block) for block in partition.blocks]
    certificate = compose(sub.certificate, block_reps, members, g, GENERAL)
    perm_certificate = (
        compose(sub.perm_certificate, block_reps, members, g, PERMUTATIONAL)
        if sub.perm_certificate is not None
        else None
    )
    return Verdict(
        sub.status,
        caps,
        certificate=certificate,
        perm_certificate=perm_certificate,
        r_number=certificate.k,
        prn_number=perm_certificate.k if perm_certificate is not None else None,
        block_prns=tuple(rep.k for rep in block_reps),
        quotient_r=sub.r_number,
    )


def certificate_replays(
    cert: Representation | None, g: Graph, claimed_k: int | None,
    permutational: bool = False,
) -> bool:
    """The certificate's word represents g at the claimed multiplicity, and
    the certificate is permutational when that is required; with no claimed
    number (None) it backs no claim. The word was checked against
    cert.target, and ``cert.k`` read from it, when cert was built, and a
    word defines one graph, so comparing the target and ``k`` suffices."""
    if cert is None or (permutational and cert.mode != PERMUTATIONAL):
        return False
    return cert.target.adj == g.adj and cert.k == claimed_k


def _numbers_compose(verdict: Verdict) -> bool:
    """r is the max of the quotient's R and the block prns, as ``compose``
    builds it, and prn is at least each block prn; other verdicts name no parts."""
    if not verdict.block_prns or verdict.quotient_r is None:
        return verdict.block_prns is None and verdict.quotient_r is None
    top = max(verdict.block_prns)
    return verdict.r_number == max(verdict.quotient_r, top) and (
        verdict.prn_number is None or verdict.prn_number >= top
    )


def verify(
    verdict: Verdict, g: Graph, replay_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP
) -> bool:
    """Replay a verdict's certificate against the graph it was issued for.

    A word certificate, checked once when it was built, must target g, and
    a composed verdict's numbers must follow from its parts'; a
    non-word-representability witness is re-checked to be a nontrivial
    module of a connected g whose induced subgraph admits no transitive
    orientation (one forcing pass, at any size), as a component can be such
    a module of a word-representable graph (C5 in 2C5); a reduced verdict
    must name g's quotient, where g is connected, not complete, and has
    only comparability blocks: classify decides the rest. Only the oracle
    replay of a refutation with no witness searches, and past the edge cap
    it raises CapExceeded rather than guessing.
    """
    if verdict.status in (Status.WORD_REPRESENTABLE, Status.COMPARABILITY):
        if not _numbers_compose(verdict):
            return False
        return certificate_replays(verdict.certificate, g, verdict.r_number) and (
            verdict.status != Status.COMPARABILITY
            or certificate_replays(
                verdict.perm_certificate, g, verdict.prn_number, permutational=True
            )
        )
    if verdict.status == Status.NOT_WORD_REPRESENTABLE:
        if verdict.witness is not None:
            w = verdict.witness
            return (2 <= len(w) < g.n and all(0 <= v < g.n for v in w) and is_connected(g)
                    and is_module(g, w)
                    and find_transitive_orientation(induced_subgraph(g, w)[0]) is None)
        if g.m > replay_edge_cap:
            raise CapExceeded(
                f"oracle replay: {g.m} edges exceed cap {replay_edge_cap}"
            )
        return not exists_semi_transitive_orientation(g, replay_edge_cap)
    # reduced to the quotient
    if not is_connected(g) or _is_complete(g):
        return False
    partition = maximal_modular_partition(g)
    return partition.quotient == verdict.quotient_ref and _first_failing_block(partition) is None
