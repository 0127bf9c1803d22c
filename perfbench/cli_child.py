"""Run ``wordrep.cli.main`` in a fresh process with spans installed.

Usage: python3 perfbench/cli_child.py SPANS_FILE CASE_ID -- <wordrep arguments>

The untraced cli workload runs the same ``main`` through the console-script
form instead (``from wordrep.cli import main; sys.exit(main())``). The
first line of SPANS_FILE holds the tracer's counts; each further line is
one span.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def run() -> int:
    spans_file, case_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE CASE_ID -- ARGS...")
    import wordrep.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.case = case_id
    tracer.install()
    try:
        return wordrep.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"counts": tracer.counts}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(run())
