"""Seeded inputs and their expected answers for each benchmark workload.

Nothing here imports wordrep: the measured process receives plain edge
lists. Expected answers come from construction (odd wheels, the
substitution formula) or from the reference file ``data/atlas7.json``.

Generators are stratified: every seed draws the same number of inputs from
each recipe, so two seeds give inputs of the same shape and similar cost,
and only labels and random attachments differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = DATA / "fixtures"

COMPARABILITY = "comparability"
WORD_REPRESENTABLE = "word-representable"
NOT_WORD_REPRESENTABLE = "not-word-representable"

Edge = tuple[int, int]


@dataclass(frozen=True)
class Expected:
    """The true answer: status, plus R(G) and prn(G) where they are defined."""

    status: str
    r: int | None = None
    prn: int | None = None


@dataclass(frozen=True)
class Case:
    """One input graph: a stable id, the recipe that made it, and its answer."""

    id: str
    kind: str
    n: int
    edges: tuple[Edge, ...]
    expected: Expected
    path: str | None = None  # graph file, for the cli workload


@dataclass(frozen=True)
class AtlasGraph:
    index: int
    n: int
    edges: tuple[Edge, ...]
    expected: Expected
    prime: bool


# --- small graph helpers (independent of wordrep) -------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def is_prime(n: int, edges) -> bool:
    """True iff the graph has no module other than singletons and V (n <= 12)."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    for mask in range(1, full):
        if mask & (mask - 1) == 0:
            continue
        if all((mask >> v) & 1 or (adj[v] & mask) in (0, mask) for v in range(n)):
            return False
    return True


def relabel(rng: random.Random, n: int, edges) -> tuple[Edge, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return canon((perm[u], perm[v]) for u, v in edges)


def canon(edges) -> tuple[Edge, ...]:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def path_edges(s: int) -> list[Edge]:
    return [(i, i + 1) for i in range(s - 1)]


def cycle_edges(s: int) -> list[Edge]:
    return [(i, (i + 1) % s) for i in range(s)]


def clique_edges(s: int) -> list[Edge]:
    return [(i, j) for i in range(s) for j in range(i + 1, s)]


def wheel_edges(rim: int) -> list[Edge]:
    """Hub 0 joined to the cycle 1..rim."""
    return [(0, i) for i in range(1, rim + 1)] + [
        (i, i % rim + 1) for i in range(1, rim + 1)
    ]


def join(n_a: int, a, n_b: int, b) -> tuple[int, list[Edge]]:
    """Disjoint copies of a and b plus every edge between them."""
    edges = list(a) + [(n_a + u, n_a + v) for u, v in b]
    edges += [(u, n_a + v) for u in range(n_a) for v in range(n_b)]
    return n_a + n_b, edges


def substitute_all(q_n: int, q_edges, pieces) -> tuple[int, list[Edge]]:
    """Replace vertex i of the quotient by pieces[i] = (n_i, edges_i)."""
    offsets, total = [], 0
    for size, _ in pieces:
        offsets.append(total)
        total += size
    edges = []
    for (size, piece_edges), off in zip(pieces, offsets):
        edges += [(off + u, off + v) for u, v in piece_edges]
    for a, b in q_edges:
        edges += [
            (offsets[a] + x, offsets[b] + y)
            for x in range(pieces[a][0])
            for y in range(pieces[b][0])
        ]
    return total, edges


# --- reference data ---------------------------------------------------------


def _reference() -> dict:
    with open(DATA / "atlas7.json", encoding="ascii") as fh:
        return json.load(fh)


def load_atlas() -> list[AtlasGraph]:
    """The 995 connected graphs on 2..7 vertices with their reference answers."""
    out = [
        AtlasGraph(
            i,
            g["n"],
            tuple(tuple(e) for e in g["edges"]),
            Expected(g["status"], g["r"], g["prn"]),
            g["prime"],
        )
        for i, g in enumerate(_reference()["graphs"])
    ]
    check_atlas_gate(out)
    return out


def check_atlas_gate(graphs: list[AtlasGraph]) -> None:
    """Independent gate on the reference file (Kitaev & Lozin, Words and Graphs).

    Among connected graphs on at most 7 vertices exactly 26 are not
    word-representable: the wheel W5 on 6 vertices and 25 on 7.
    """
    by_n: dict[int, int] = {}
    for g in graphs:
        if g.expected.status == NOT_WORD_REPRESENTABLE:
            by_n[g.n] = by_n.get(g.n, 0) + 1
    if len(graphs) != 995 or by_n != {6: 1, 7: 25}:
        raise ValueError(
            f"atlas reference broken: {len(graphs)} graphs, non-representable {by_n}"
        )


def load_fixture_expectations() -> dict[str, Expected]:
    return {
        name: Expected(e["status"], e["r"], e["prn"])
        for name, e in _reference()["fixtures"].items()
    }


def parse_graph_file(path: Path) -> tuple[int, tuple[Edge, ...]]:
    lines = [
        ln.split()
        for ln in path.read_text(encoding="ascii").splitlines()
        if ln.strip() and not ln.startswith("#")
    ]
    n = int(lines[0][0])
    return n, canon((int(a), int(b)) for a, b in lines[1:])


def format_graph(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


# --- atlas7 -----------------------------------------------------------------


# passes over the atlas per second of run budget: one pass costs about 6.5 s
# at the parent of the benchmark on a 2-vCPU Xeon
ATLAS_PASSES_PER_S = 0.15


def passes(name: str, seconds: int) -> int:
    """How many passes over its inputs a run of the workload makes.

    The other workloads size their pools to the run budget instead.
    """
    return max(1, round(seconds * ATLAS_PASSES_PER_S)) if name == "atlas7" else 1


def atlas7(seed: int, seconds: int) -> list[Case]:
    """Every connected graph on 2..7 vertices, in an order shuffled by the seed."""
    cases = [
        Case(f"atlas{g.index}", f"atlas-n{g.n}", g.n, g.edges, g.expected)
        for g in load_atlas()
    ]
    random.Random(seed).shuffle(cases)
    return cases


# --- refute -----------------------------------------------------------------

# (rim of the wheel, extra vertices, total edges). Cost grows with m, so
# fixing m per recipe keeps the cost of a round nearly the same across seeds.
# Costs at the parent of the benchmark form three groups: two cheap graphs,
# six near 0.35 s and three near 0.55 s. The median and the tail percentile
# then fall inside a group, where five rounds give many samples, and not on
# the edge between two recipes.
REFUTE_RECIPES = (
    (7, 0, 14), (5, 1, 14),
    (5, 2, 15), (5, 3, 15), (5, 3, 15), (5, 2, 16), (5, 2, 16), (7, 1, 15),
    (5, 2, 17), (5, 2, 17), (5, 3, 16),
)
# rounds of REFUTE_RECIPES per second of run budget: one round costs about
# 3.8 s of classify + verify at the parent of the benchmark on a 2-vCPU Xeon
REFUTE_ROUNDS_PER_S = 0.25


def wheel_plus(rng: random.Random, rim: int, extra: int, m: int) -> tuple[int, tuple[Edge, ...]]:
    """An induced wheel W_rim plus ``extra`` vertices, m edges in all.

    With extra vertices the graph is drawn until it is prime, so the
    orientation oracle, not a module witness, has to refute it. Every extra
    vertex has an edge to an earlier vertex, so the graph is connected.
    """
    base = wheel_edges(rim)
    n = rim + 1 + extra
    if extra == 0:
        return n, relabel(rng, n, base)
    for _ in range(10_000):
        edges = set(base)
        for v in range(rim + 1, n):
            edges.add((rng.randrange(v), v))
        free = [
            (u, v) for v in range(rim + 1, n) for u in range(v) if (u, v) not in edges
        ]
        rng.shuffle(free)
        edges.update(free[: m - len(edges)])
        if len(edges) == m and is_prime(n, edges):
            return n, relabel(rng, n, edges)
    raise RuntimeError(f"no prime W{rim} plus {extra} with {m} edges")


def refute(seed: int, seconds: int) -> list[Case]:
    """Non-word-representable graphs: an induced W5 or W7 plus 0..3 vertices.

    Odd wheels W_{2k+1}, k >= 2, are not word-representable and the property
    is hereditary, so every case is not word-representable by construction.
    """
    rng = random.Random(seed)
    rounds = max(2, round(seconds * REFUTE_ROUNDS_PER_S))
    cases = []
    for _ in range(rounds):
        for rim, extra, m in REFUTE_RECIPES:
            n, edges = wheel_plus(rng, rim, extra, m)
            kind = f"W{rim}+{extra}-m{m}"
            cases.append(
                Case(f"r{len(cases)}-{kind}", kind, n, edges, Expected(NOT_WORD_REPRESENTABLE))
            )
    return cases


# --- composite --------------------------------------------------------------

MAX_PIECE = 24  # regular pieces; the realizer recursion fails near 35
# Independent sets of these sizes make the realizer exceed the recursion
# limit. Long paths do too, but a randomly labelled path first backtracks
# for up to seconds, which would swamp the rest of a run; the fixed P40
# keeps a path among the inputs.
LONG_PIECE = (36, 40)
BIG_CLIQUE = (52, 58)  # RecursionError in the transitive orientation search
EVEN_CYCLES = (4, 6, 8)
# rounds of COMPOSITE_ROUND per second of run budget: one round costs about
# 0.6 s at the parent of the benchmark on a 2-vCPU Xeon
COMPOSITE_ROUNDS_PER_S = 1.4

# One round: (recipe, status of the quotient, its size, total vertex count).
# Fixing the sizes per slot keeps the cost of a round nearly the same across
# seeds; the quotient graph, the pieces and the labels are drawn at random.
COMPOSITE_ROUND = (
    ("mixed", COMPARABILITY, 4, 40),
    ("mixed", COMPARABILITY, 5, 55),
    ("mixed", COMPARABILITY, 6, 70),
    ("mixed", WORD_REPRESENTABLE, 6, 35),
    ("mixed", WORD_REPRESENTABLE, 6, 60),
    ("mixed", NOT_WORD_REPRESENTABLE, 7, 50),
    ("noncomp-piece", COMPARABILITY, 7, 45),
    ("noncomp-piece", WORD_REPRESENTABLE, 5, 30),
    ("dense-noncomp-piece", COMPARABILITY, 6, 50),
    ("long-piece", WORD_REPRESENTABLE, 7, 60),
    ("big-clique", COMPARABILITY, 5, 66),
)


@dataclass(frozen=True)
class Piece:
    n: int
    edges: tuple[Edge, ...]
    prn: int | None  # None: not a comparability graph


def _regular_piece(rng: random.Random, size: int, comparability: dict[int, list]) -> Piece:
    """A path, even cycle, clique, independent set or small atlas graph."""
    if size == 1:
        return Piece(1, (), 1)
    kinds = ["path", "clique", "independent"]
    if size in EVEN_CYCLES:
        kinds.append("cycle")
    if size in comparability:
        kinds.append("atlas")
    kind = rng.choice(kinds)
    if kind == "path":
        return Piece(size, tuple(path_edges(size)), 1 if size == 2 else 2)
    if kind == "clique":
        return Piece(size, tuple(clique_edges(size)), 1)
    if kind == "independent":
        return Piece(size, (), 2)
    if kind == "cycle":
        return Piece(size, tuple(cycle_edges(size)), 2 if size == 4 else 3)
    g = rng.choice(comparability[size])
    return Piece(g.n, g.edges, g.expected.prn)


def _split(rng: random.Random, total: int, parts: int, cap: int) -> list[int]:
    sizes = [1] * parts
    for _ in range(total - parts):
        open_parts = [i for i in range(parts) if sizes[i] < cap]
        sizes[rng.choice(open_parts)] += 1
    return sizes


def composite_expected(q: AtlasGraph, pieces: list[Piece]) -> Expected:
    """The answer for q with piece i substituted at vertex i.

    q is connected with at least four vertices, so every vertex has a
    neighbour and the cone over every piece is induced. Hence the result is
    word-representable iff q is and every piece is a comparability graph,
    and then R = max(R(q), prn(pieces)); it is a comparability graph iff q
    is, with prn = max(prn(q), prn(pieces)).
    """
    if q.expected.status == NOT_WORD_REPRESENTABLE or any(p.prn is None for p in pieces):
        return Expected(NOT_WORD_REPRESENTABLE)
    inner = max(p.prn for p in pieces)
    r = max(q.expected.r, inner)
    if q.expected.status == COMPARABILITY:
        return Expected(COMPARABILITY, r, max(q.expected.prn, inner))
    return Expected(WORD_REPRESENTABLE, r)


def _composite_case(rng, recipe, quotients, target, comparability, noncomparability):
    q = rng.choice(quotients)
    special: Piece | None = None
    if recipe == "noncomp-piece":
        g = rng.choice(noncomparability)
        special = Piece(g.n, g.edges, None)
    elif recipe == "dense-noncomp-piece":
        # more than 24 edges, so replaying the witness exceeds the default cap
        g = rng.choice([h for h in noncomparability if h.n == 7])
        k = rng.randint(3, 4)
        n, edges = join(g.n, g.edges, k, clique_edges(k))
        special = Piece(n, tuple(edges), None)
    elif recipe == "long-piece":
        special = Piece(rng.randint(*LONG_PIECE), (), 2)
    elif recipe == "big-clique":
        size = rng.randint(*BIG_CLIQUE)
        special = Piece(size, tuple(clique_edges(size)), 1)
    if special is None:
        sizes = _split(rng, target, q.n, MAX_PIECE)
        pieces = [_regular_piece(rng, s, comparability) for s in sizes]
    else:
        rest = max(q.n - 1, target - special.n)
        sizes = _split(rng, rest, q.n - 1, MAX_PIECE)
        pieces = [_regular_piece(rng, s, comparability) for s in sizes]
        pieces.insert(rng.randrange(q.n), special)
    n, edges = substitute_all(q.n, q.edges, [(p.n, p.edges) for p in pieces])
    return n, relabel(rng, n, edges), composite_expected(q, pieces)


def composite_fixed() -> list[Case]:
    """Inputs on which classify raises RecursionError at the benchmark's parent."""
    cone_n, cone = join(1, [], 61, clique_edges(60))
    return [
        Case("cone-K60+K1", "fixed", cone_n, canon(cone), Expected(COMPARABILITY, 2, 2)),
        Case("P40", "fixed", 40, canon(path_edges(40)), Expected(COMPARABILITY, 2, 2)),
    ]


def composite(seed: int, seconds: int) -> list[Case]:
    """Substitutions of small pieces into a prime connected quotient on 4..7 vertices.

    The quotient is prime so that the pieces are exactly the blocks of the
    maximal modular partition. Each round draws one graph per slot of
    COMPOSITE_ROUND; besides regular pieces the slots place non-comparability
    pieces (module witnesses, one with more than 24 edges so that its replay
    exceeds the default cap), a large independent set and a big clique (both
    exceed Python's recursion limit at the benchmark's parent).
    """
    rng = random.Random(seed)
    atlas = load_atlas()
    quotients: dict[str, dict[int, list[AtlasGraph]]] = {}
    for g in atlas:
        if g.prime and 4 <= g.n <= 7:
            quotients.setdefault(g.expected.status, {}).setdefault(g.n, []).append(g)
    comparability: dict[int, list[AtlasGraph]] = {}
    for g in atlas:
        if g.n >= 3 and g.expected.status == COMPARABILITY:
            comparability.setdefault(g.n, []).append(g)
    noncomparability = [
        g for g in atlas if g.n >= 5 and g.expected.status != COMPARABILITY
    ]
    rounds = max(2, round(seconds * COMPOSITE_ROUNDS_PER_S))
    cases = composite_fixed()
    for r in range(rounds):
        for j, (recipe, q_status, q_n, target) in enumerate(COMPOSITE_ROUND):
            n, edges, expected = _composite_case(
                rng, recipe, quotients[q_status][q_n], target, comparability, noncomparability
            )
            kind = f"{recipe}/q{q_n}-{q_status}/n{target}"
            cases.append(Case(f"c{r}-{j}", kind, n, edges, expected))
    rng.shuffle(cases)
    return cases


# --- cli --------------------------------------------------------------------

FIXTURE_NAMES = ("k2", "c5", "c6", "w5", "w6")
# (reference status, smallest n, largest n, how many per round)
CLI_STRATA = (
    (NOT_WORD_REPRESENTABLE, 6, 7, 1),
    (WORD_REPRESENTABLE, 7, 7, 3),
    (WORD_REPRESENTABLE, 2, 6, 1),
    (COMPARABILITY, 7, 7, 4),
    (COMPARABILITY, 2, 6, 2),
)
# rounds of CLI_STRATA per second of run budget: a round is 11 graphs, each
# one cold check and one cold verify process of about 0.1 s
CLI_ROUNDS_PER_S = 0.3


def cli(seed: int, seconds: int) -> list[Case]:
    """The five test fixtures plus a stratified seeded sample of atlas graphs.

    Graph files of the sample are written by the runner before timing.
    """
    rng = random.Random(seed)
    expectations = load_fixture_expectations()
    cases = []
    for name in FIXTURE_NAMES:
        n, edges = parse_graph_file(FIXTURES / f"{name}.graph")
        cases.append(
            Case(name, "fixture", n, edges, expectations[name], str(FIXTURES / f"{name}.graph"))
        )
    atlas = load_atlas()
    rounds = max(1, round(seconds * CLI_ROUNDS_PER_S))
    for status, lo, hi, per_round in CLI_STRATA:
        pool = [g for g in atlas if g.expected.status == status and lo <= g.n <= hi]
        for g in rng.sample(pool, min(len(pool), per_round * rounds)):
            cases.append(Case(f"atlas{g.index}", f"atlas-{status}", g.n, g.edges, g.expected))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "atlas7": atlas7,
    "refute": refute,
    "composite": composite,
    "cli": cli,
}
