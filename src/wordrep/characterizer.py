"""The decision pipeline: decompose, test blocks for comparability, recurse on the quotient.

A connected graph is word-representable iff every block of a modular
partition induces a comparability graph and the quotient is
word-representable; when it is, the representation number is the max of the
quotient's representation number and the blocks' permutation-representation
numbers. A block that fails comparability is a checkable witness of
non-word-representability. Prime graphs (and complete graphs, whose
canonical partition is all singletons) are decided directly: transitive
orientation first, then bounded word search, then the semi-transitive
oracle; when caps prevent a decision the verdict honestly reduces to the
undecided quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import CapExceeded, DomainError
from .graphs import Graph, induced_subgraph, is_connected
from .modular import ModularPartition, is_module, maximal_modular_partition
from .orientations import (
    DEFAULT_ORACLE_EDGE_CAP,
    Orientation,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
)
from .representation import (
    DEFAULT_WORD_CAP,
    GENERAL,
    PERMUTATIONAL,
    Representation,
    compose,
    prn_of_orientation,
    rep_number,
)
from .words import represents, uniformity


class Status(Enum):
    WORD_REPRESENTABLE = "word-representable"
    COMPARABILITY = "comparability"
    NOT_WORD_REPRESENTABLE = "not-word-representable"
    REDUCED_TO_QUOTIENT = "reduced-to-quotient"


@dataclass(frozen=True)
class Caps:
    """Effective resource limits, echoed on every verdict."""

    word_cap: int = DEFAULT_WORD_CAP
    oracle_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP


@dataclass(frozen=True)
class Verdict:
    """Outcome of classify, with whatever certificate backs it.

    For word-representable outcomes ``certificate`` is a verified word at
    multiplicity ``r_number``; comparability outcomes additionally carry a
    permutational certificate at ``prn_number``. For
    not-word-representable outcomes ``witness`` is a nontrivial module
    inducing a non-comparability subgraph when one exists (prime graphs
    refuted by the orientation oracle have no such module and carry None).
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


def _block_orientations(
    partition: ModularPartition,
) -> Iterator[tuple[frozenset[int], Orientation | None]]:
    """Each block with a transitive orientation of the subgraph it induces,
    or None when that subgraph is not a comparability graph.

    Blocks are oriented lazily, in block order, so a caller that stops at
    the first failure orients nothing past it.
    """
    for block in partition.blocks:
        bg, _ = induced_subgraph(partition.base, block)
        yield block, find_transitive_orientation(bg)


def module_comparability_test(g: Graph) -> list[tuple[frozenset[int], bool]]:
    """For each block of the maximal modular partition, is its induced graph
    a comparability graph?

    Raises DomainError when the partition is all singletons (prime graphs,
    and complete graphs under the canonical partition), since then the test
    has nothing to say.
    """
    if not is_connected(g):
        raise ValueError("module comparability test needs a connected graph")
    partition = maximal_modular_partition(g)
    if all(len(b) == 1 for b in partition.blocks):
        raise DomainError("prime: no nontrivial modules in the maximal partition")
    return [(block, o is not None) for block, o in _block_orientations(partition)]


def nonwr_screen(g: Graph) -> frozenset[int] | None:
    """Polynomial screen: a maximal-partition block inducing a non-comparability
    graph proves g is not word-representable.

    Returns the first such block, or None when the screen has no information
    (which never asserts word-representability).
    """
    if not is_connected(g):
        raise ValueError("the screen needs a connected graph")
    if g.n < 2:
        return None
    partition = maximal_modular_partition(g)
    return next(
        (block for block, o in _block_orientations(partition) if o is None), None
    )


def _complete_verdict(g: Graph, caps: Caps) -> Verdict:
    word = tuple(range(g.n))
    rep = Representation(word, 1, PERMUTATIONAL, g)
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
    if o is not None:
        word_rep = rep_number(g, caps.word_cap)
        perm_rep = prn_of_orientation(o, caps.word_cap)
        if word_rep is None or perm_rep is None:
            return Verdict(Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=g)
        return Verdict(
            Status.COMPARABILITY,
            caps,
            certificate=word_rep,
            perm_certificate=perm_rep,
            r_number=word_rep.k,
            prn_number=perm_rep.k,
        )
    # not comparability: settle the status with the orientation oracle before
    # paying for word search (refuting k-uniform words level by level is far
    # slower than refuting orientations), then search only to certify
    if g.m <= caps.oracle_edge_cap:
        if not exists_semi_transitive_orientation(g, caps.oracle_edge_cap):
            return Verdict(Status.NOT_WORD_REPRESENTABLE, caps, witness=None)
        word_rep = rep_number(g, caps.word_cap)
        if word_rep is None:
            # word-representable, but no word within the cap to certify it
            return Verdict(Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=g)
        return Verdict(
            Status.WORD_REPRESENTABLE,
            caps,
            certificate=word_rep,
            r_number=word_rep.k,
        )
    word_rep = rep_number(g, caps.word_cap)
    if word_rep is not None:
        return Verdict(
            Status.WORD_REPRESENTABLE,
            caps,
            certificate=word_rep,
            r_number=word_rep.k,
        )
    return Verdict(Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=g)


def classify(g: Graph, caps: Caps = Caps()) -> Verdict:
    """Decide word-representability (and comparability) with a certificate.

    Recurses on the maximal modular partition; see the module docstring for
    the decision structure.
    """
    if g.n == 0:
        raise ValueError("classify needs a nonempty graph")
    if not is_connected(g):
        raise ValueError("classify is defined for connected graphs")
    if _is_complete(g):
        return _complete_verdict(g, caps)
    partition = maximal_modular_partition(g)
    if all(len(b) == 1 for b in partition.blocks):
        return _classify_prime(g, caps)

    block_reps: list[Representation] = []
    for block, o in _block_orientations(partition):
        if o is None:
            return Verdict(Status.NOT_WORD_REPRESENTABLE, caps, witness=block)
        rep = prn_of_orientation(o, caps.word_cap)
        if rep is None:
            # comparability holds but the prn search is capped; report the
            # core quotient the structural walk reaches
            return Verdict(
                Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=_reduction_target(g)
            )
        block_reps.append(rep)

    sub = classify(partition.quotient, caps)
    if sub.status == Status.NOT_WORD_REPRESENTABLE:
        lifted = None
        if sub.witness is not None:
            lifted = frozenset(
                v for i in sub.witness for v in partition.blocks[i]
            )
        return Verdict(Status.NOT_WORD_REPRESENTABLE, caps, witness=lifted)
    if sub.status == Status.REDUCED_TO_QUOTIENT:
        return Verdict(
            Status.REDUCED_TO_QUOTIENT, caps, quotient_ref=sub.quotient_ref
        )

    block_ks = tuple(rep.k for rep in block_reps)
    assert sub.r_number is not None and sub.certificate is not None
    members = [sorted(block) for block in partition.blocks]
    certificate = compose(sub.certificate, block_reps, members, g, GENERAL)
    if sub.status == Status.COMPARABILITY:
        assert sub.perm_certificate is not None
        perm_certificate = compose(
            sub.perm_certificate, block_reps, members, g, PERMUTATIONAL
        )
        return Verdict(
            Status.COMPARABILITY,
            caps,
            certificate=certificate,
            perm_certificate=perm_certificate,
            r_number=certificate.k,
            prn_number=perm_certificate.k,
            block_prns=block_ks,
            quotient_r=sub.r_number,
        )
    return Verdict(
        Status.WORD_REPRESENTABLE,
        caps,
        certificate=certificate,
        r_number=certificate.k,
        block_prns=block_ks,
        quotient_r=sub.r_number,
    )


def _reduction_target(g: Graph) -> Graph:
    """Follow the cap-free part of the pipeline down to the quotient that
    would have to be decided directly."""
    current = g
    while True:
        if _is_complete(current):
            return current
        partition = maximal_modular_partition(current)
        if all(len(b) == 1 for b in partition.blocks):
            return current
        if any(o is None for _, o in _block_orientations(partition)):
            return current
        current = partition.quotient


def _replays(cert: Representation | None, g: Graph, claimed_k: int | None) -> bool:
    """The word represents g, at the claimed multiplicity when one is claimed."""
    if cert is None:
        return False
    try:
        if not represents(cert.word, g):
            return False
    except ValueError:
        return False
    return claimed_k is None or uniformity(cert.word).uniform_k == claimed_k


def verify(
    verdict: Verdict, g: Graph, replay_edge_cap: int = DEFAULT_ORACLE_EDGE_CAP
) -> bool:
    """Replay a verdict's certificate against the graph it was issued for.

    Word certificates are re-checked with represents(); a
    non-word-representability witness is re-checked to be a nontrivial
    module whose induced subgraph admits no transitive orientation; a
    reduced verdict must name the quotient the pipeline actually reaches.
    Replays past the edge cap raise CapExceeded rather than guessing.
    """
    if verdict.status in (Status.WORD_REPRESENTABLE, Status.COMPARABILITY):
        if not _replays(verdict.certificate, g, verdict.r_number):
            return False
        if verdict.status == Status.COMPARABILITY:
            pc = verdict.perm_certificate
            if pc is None or pc.mode != PERMUTATIONAL:
                return False
            return _replays(pc, g, verdict.prn_number)
        return True
    if verdict.status == Status.NOT_WORD_REPRESENTABLE:
        if verdict.witness is not None:
            w = verdict.witness
            if not (2 <= len(w) < g.n):
                return False
            if not all(0 <= v < g.n for v in w):
                return False
            if not is_module(g, w):
                return False
            sub, _ = induced_subgraph(g, w)
            if sub.m > replay_edge_cap:
                raise CapExceeded(
                    f"witness replay: {sub.m} edges exceed cap {replay_edge_cap}"
                )
            return find_transitive_orientation(sub) is None
        if g.m > replay_edge_cap:
            raise CapExceeded(
                f"oracle replay: {g.m} edges exceed cap {replay_edge_cap}"
            )
        return not exists_semi_transitive_orientation(g, replay_edge_cap)
    if verdict.status == Status.REDUCED_TO_QUOTIENT:
        if verdict.quotient_ref is None:
            return False
        return _reduction_target(g) == verdict.quotient_ref
    return False
