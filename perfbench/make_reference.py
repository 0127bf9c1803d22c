"""Record ``data/atlas7.json``: the atlas graphs and their reference answers.

Run once from the repository root, with networkx installed:

    python3 perfbench/make_reference.py

The answers come from ``wordrep.classify``. Each one is then checked against
the unpruned enumerations in ``tests/oracles.py`` wherever they finish in
about a second: word-representability and comparability by enumerating all
orientations (m <= 17), R(G) by enumerating k-uniform words (n <= 5) and
prn(G) by concatenations of permutations (n <= 6). The ``brute`` field of
each graph lists the checks that ran. The file also carries the expected
answers for the five fixture graphs that the cli workload runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import networkx as nx  # noqa: E402
import oracles  # noqa: E402
import wordrep as wr  # noqa: E402
from workloads import (  # noqa: E402
    COMPARABILITY,
    FIXTURE_NAMES,
    FIXTURES,
    NOT_WORD_REPRESENTABLE,
    is_prime,
    parse_graph_file,
)

BRUTE_MAX_EDGES = 17
BRUTE_MAX_WORD_N = 5
BRUTE_MAX_PERM_N = 6


def answer(n: int, edges) -> dict:
    g = wr.make_graph(n, edges)
    v = wr.classify(g)
    if not wr.verify(v, g):
        raise AssertionError(f"verdict does not replay on {g}")
    status = v.status.value
    brute = []
    if g.m <= BRUTE_MAX_EDGES:
        if oracles.brute_exists_semi_transitive(g) != (status != NOT_WORD_REPRESENTABLE):
            raise AssertionError(f"word-representability disagrees on {g}")
        if oracles.brute_has_transitive_orientation(g) != (status == COMPARABILITY):
            raise AssertionError(f"comparability disagrees on {g}")
        brute += ["word-representable", "comparability"]
    if n <= BRUTE_MAX_WORD_N and v.r_number is not None:
        if oracles.brute_rep_number(g, v.r_number) != v.r_number:
            raise AssertionError(f"R disagrees on {g}")
        brute.append("r")
    if n <= BRUTE_MAX_PERM_N and v.prn_number is not None:
        k = v.prn_number
        if not oracles.perm_concat_representable(g, k) or (
            k > 1 and oracles.perm_concat_representable(g, k - 1)
        ):
            raise AssertionError(f"prn disagrees on {g}")
        brute.append("prn")
    return {"status": status, "r": v.r_number, "prn": v.prn_number, "brute": brute}


def main() -> None:
    graphs = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 2 <= n <= 7 and nx.is_connected(h):
            edges = sorted((min(u, v), max(u, v)) for u, v in h.edges())
            entry = {"n": n, "edges": edges, "prime": is_prime(n, edges)}
            entry.update(answer(n, edges))
            graphs.append(entry)
    fixtures = {}
    for name in FIXTURE_NAMES:
        n, edges = parse_graph_file(FIXTURES / f"{name}.graph")
        fixtures[name] = answer(n, edges)
    out = {
        "source": "networkx graph_atlas_g: connected graphs on 2..7 vertices",
        "graphs": graphs,
        "fixtures": fixtures,
    }
    with open(HERE / "data" / "atlas7.json", "w", encoding="ascii") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(graphs)} graphs, {sum(bool(g['brute']) for g in graphs)} brute-checked")


if __name__ == "__main__":
    main()
