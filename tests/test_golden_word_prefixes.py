"""The first words of the letter search on 6-vertex graphs, pinned so that a
rewrite of `representing_words` cannot change which words it yields first
or in what order past the 5 vertices of `golden_word_lists.json`.

`golden_word_prefixes.json` next to this file holds, for every connected
graph with 6 vertices and k in {2, 3}, the number of words among the first
10 k-uniform representing words and the sha256 of their text, one word per
line, in the order the generator yields them. After a deliberate change to
the search, rewrite that file with

    PYTHONPATH=src python tests/test_golden_word_prefixes.py

and review the diff.
"""

import hashlib
import json
import sys
from itertools import islice
from pathlib import Path

from wordrep import representing_words, word_to_text
from helpers import atlas_connected

GOLDEN = Path(__file__).parent / "golden_word_prefixes.json"
PREFIX = 10


def _key(g, k: int) -> str:
    edges = " ".join(f"{u}{v}" for u, v in sorted(g.edges))
    return f"n={g.n} edges={edges} k={k}"


def _prefixes() -> dict[str, dict]:
    out = {}
    for g in atlas_connected(6, 6):
        for k in (2, 3):
            words = [word_to_text(w) for w in islice(representing_words(g, k), PREFIX)]
            out[_key(g, k)] = {
                "words": len(words),
                "sha256": hashlib.sha256("\n".join(words).encode()).hexdigest(),
            }
    return out


def test_word_prefixes_are_pinned():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 2 * 112
    assert _prefixes() == golden


if __name__ == "__main__":
    recorded = _prefixes()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} prefixes in {GOLDEN}", file=sys.stderr)
