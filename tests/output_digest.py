"""Print one line per benchmark input with a digest of its ``classify``
verdict and what ``verify`` makes of it, so that two checkouts can be
compared on a change that should keep every output.

Run from the repository root of each checkout and compare the two files:

    PYTHONPATH=src python tests/output_digest.py > digest.txt

The inputs are perfbench's atlas7, refute and composite workloads at seeds 1
and 7 and the default caps, plus composite seed 1 at ``Caps(1, 24)``. Each
line holds the workload, the seed, the caps (word cap, oracle edge cap), the
case id, the first 16 hex digits of the SHA-256 of ``repr(verdict)``, and
the value ``verify`` returned at the oracle edge cap or the type and message
of what it raised.

Then come the ``wordrep product ... --numbers`` runs, made through
``cli.main``: both factors from the 18 graphs on 1-4 vertices of networkx's
atlas, the second also C6, with the lex product and substitution at every
vertex of the first factor, at the default caps and at ``--word-cap 2``.
Each line holds the argv, the exit code and the first 16 hex digits of the
SHA-256 of the report on stdout. The graph files are written to a temporary
directory, and the runs read them by name from there, so the reports' paths
are the same in every checkout.

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

import wordrep as wr  # noqa: E402
from wordrep.cli import main as cli_main  # noqa: E402
from wordrep.io import format_graph_text  # noqa: E402

SECONDS = 20  # the benchmark's run budget, which sizes refute and composite
RUNS = [
    *((name, seed, wr.Caps()) for name in ("atlas7", "refute", "composite") for seed in (1, 7)),
    ("composite", 1, wr.Caps(1, 24)),
]


def _outcome(call) -> str:
    try:
        return str(call())
    except Exception as exc:  # an outcome to compare, like a return value
        return f"{type(exc).__name__}: {exc}"


def _product_lines() -> None:
    import networkx as nx

    atlas = [wr.make_graph(a.number_of_nodes(), list(a.edges())) for a in nx.graph_atlas_g()[1:19]]
    names = [f"atlas{i}.graph" for i in range(1, 19)]
    c6 = wr.make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    runs = [
        ["product", first, second, *op, "--numbers", *caps]
        for first, g in zip(names, atlas)
        for second in [*names, "c6.graph"]
        for op in [["--op", "lex"], *(["--op", "substitute", "--at", str(v)] for v in range(g.n))]
        for caps in ([], ["--word-cap", "2"])
    ]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)  # the reports echo each factor's path as given
        try:
            for name, g in zip([*names, "c6.graph"], [*atlas, c6]):
                Path(name).write_text(format_graph_text(g))
            for argv in runs:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli_main(argv)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                print(" ".join(argv), code, digest)
        finally:
            os.chdir(here)


def main() -> None:
    for name, seed, caps in RUNS:
        for case in workloads.WORKLOADS[name](seed, SECONDS):
            g = wr.make_graph(case.n, case.edges)
            try:
                verdict = wr.classify(g, caps)
            except Exception as exc:
                digest, valid = f"{type(exc).__name__}: {exc}", "-"
            else:
                digest = hashlib.sha256(repr(verdict).encode()).hexdigest()[:16]
                valid = _outcome(lambda: wr.verify(verdict, g, caps.oracle_edge_cap))
            print(name, seed, f"{caps.word_cap},{caps.oracle_edge_cap}", case.id, digest, valid)
    _product_lines()


if __name__ == "__main__":
    main()
