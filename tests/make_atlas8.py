"""Regenerate ``tests/atlas8.g6``: every connected graph on 8 vertices, one
per isomorphism class, as one graph6 line each (11,117 lines, OEIS A001349).

Every connected graph has a vertex whose removal leaves it connected (a leaf
of a spanning tree), so each one is a connected 7-vertex graph of the
networkx atlas plus a vertex with a nonempty neighbourhood. The candidates
are bucketed by edge count, sorted degree sequence and Weisfeiler-Lehman
hash, and ``nx.is_isomorphic`` keeps one graph per class inside a bucket.
The lines are written sorted. Needs networkx, a test dependency, and takes
about 70 s on a 2-vCPU Xeon:

    python tests/make_atlas8.py

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import networkx as nx

OUT = Path(__file__).resolve().parent / "atlas8.g6"


def connected_8_vertex_graphs() -> list[nx.Graph]:
    buckets: dict[tuple, list[nx.Graph]] = {}
    for base in nx.graph_atlas_g():
        if base.number_of_nodes() != 7 or not nx.is_connected(base):
            continue
        for mask in range(1, 1 << 7):
            g = nx.Graph(base)
            g.add_edges_from((u, 7) for u in range(7) if mask >> u & 1)
            key = (
                g.number_of_edges(),
                tuple(sorted(d for _, d in g.degree())),
                nx.weisfeiler_lehman_graph_hash(g),
            )
            bucket = buckets.setdefault(key, [])
            if not any(nx.is_isomorphic(g, h) for h in bucket):
                bucket.append(g)
    return [g for bucket in buckets.values() for g in bucket]


def main() -> None:
    # the hashes only bucket candidates, so their change across networkx
    # versions, which networkx warns about, does not matter here
    warnings.filterwarnings("ignore", "The hashes produced", UserWarning)
    lines = sorted(
        nx.to_graph6_bytes(g, header=False).decode("ascii") for g in connected_8_vertex_graphs()
    )
    OUT.write_text("".join(lines), encoding="ascii")
    print(f"{len(lines)} graphs written to {OUT}")


if __name__ == "__main__":
    main()
