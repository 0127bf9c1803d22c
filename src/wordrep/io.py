"""The edge-list graph file format.

First non-comment line is "n m"; then m lines "u v" with 0-based endpoints.
Lines starting with '#' are comments; blank lines are ignored. ASCII, LF.
"""

from __future__ import annotations

from .graphs import Graph, make_graph


class GraphFileError(ValueError):
    """Malformed graph file; the message carries the offending line number."""


def parse_graph_text(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFileError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFileError(
                f"line {lineno}: expected two integers, got {raw!r}"
            ) from None
        if header is None:
            if a < 0 or b < 0:
                raise GraphFileError(f"line {lineno}: negative count in header")
            header = (a, b)
            continue
        if len(edges) >= header[1]:
            raise GraphFileError(
                f"line {lineno}: more than the declared {header[1]} edges"
            )
        if not (0 <= a < header[0] and 0 <= b < header[0]):
            raise GraphFileError(
                f"line {lineno}: endpoint outside 0..{header[0] - 1}"
            )
        if a == b:
            raise GraphFileError(f"line {lineno}: loop at vertex {a}")
        edges.append((a, b))
    if header is None:
        raise GraphFileError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise GraphFileError(f"declared {m} edges but found {len(edges)}")
    g = make_graph(n, edges)
    if g.m != m:
        raise GraphFileError(f"declared {m} edges but {m - g.m} were duplicates")
    return g


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def write_graph_file(path, g: Graph) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_graph_text(g))
