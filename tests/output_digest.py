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
of what it raised. The file name does not start with ``test_``, so pytest
does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

import wordrep as wr  # noqa: E402

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


if __name__ == "__main__":
    main()
