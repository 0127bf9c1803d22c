"""Exact word-search output, pinned so that cuts in `representing_words`
cannot change which words it yields or in what order.

`golden_word_lists.json` next to this file holds, for every connected graph
with at most 5 vertices and k in {2, 3}, the number of k-uniform
representing words and the sha256 of their text, one word per line, in the
order the generator yields them. After a deliberate change to the search,
rewrite that file with

    PYTHONPATH=src python tests/test_golden_word_lists.py

and review the diff.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from wordrep import exists_word, make_graph, rep_number, representing_words, word_to_text
from helpers import atlas_connected

GOLDEN = Path(__file__).parent / "golden_word_lists.json"

# a prime non-comparability graph with R = 3 (ROADMAP item 3); its
# certificate was recorded before the first-occurrence cut
N10_EDGES = "03 04 06 07 09 12 13 14 18 19 23 24 25 35 38 48 68 69 78 89"
N10_WORD = "0 1 2 8 3 4 5 7 9 1 2 6 0 8 4 3 9 1 6 7 8 0 5 7 9 2 6 3 5 4"


def _key(g, k: int) -> str:
    edges = " ".join(f"{u}{v}" for u, v in sorted(g.edges))
    return f"n={g.n} edges={edges} k={k}"


def _lists() -> dict[str, dict]:
    out = {}
    for g in atlas_connected(5):
        for k in (2, 3):
            text = "\n".join(word_to_text(w) for w in representing_words(g, k))
            out[_key(g, k)] = {
                "words": text.count("\n") + 1 if text else 0,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_word_lists_are_pinned(golden):
    assert sum(entry["words"] for entry in golden.values()) == 60722
    assert _lists() == golden


def test_certificate_of_the_n10_prime_graph_is_pinned():
    g = make_graph(10, [(int(e[0]), int(e[1])) for e in N10_EDGES.split()])
    started = time.perf_counter()
    rep = rep_number(g)
    elapsed = time.perf_counter() - started
    assert (word_to_text(rep.word), rep.k, rep.mode) == (N10_WORD, 3, "general")
    # a few seconds with the cut; a weakened cut stays exact but takes minutes
    assert elapsed < 60


def test_decider_refutes_level_two_of_the_n10_prime_graph():
    # letter search took seconds to refute this level; insertion takes ms
    g = make_graph(10, [(int(e[0]), int(e[1])) for e in N10_EDGES.split()])
    started = time.perf_counter()
    assert not exists_word(g, 2)
    assert exists_word(g, 3)
    assert time.perf_counter() - started < 10


if __name__ == "__main__":
    recorded = _lists()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} lists in {GOLDEN}", file=sys.stderr)
