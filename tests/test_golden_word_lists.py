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
from helpers import atlas_connected, cycle, petersen, prism, word_graph

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


# the first words of searches that run for seconds without a cut that
# orders the next copies: (graph, its certificate, R)
FIRST_WORDS = {
    "c11": (lambda: cycle(11), "0 1 10 0 9 10 8 9 7 8 6 7 5 6 4 5 3 4 2 3 1 2", 2),
    "petersen": (
        petersen,
        "0 1 2 4 5 0 7 8 5 3 6 8 9 4 1 0 6 2 1 3 7 2 5 8 9 6 7 4 9 3",
        3,
    ),
    "pr6": (
        lambda: prism(6),
        "0 1 2 3 5 4 6 0 7 8 9 11 5 6 10 11 1 0 2 7 1 3 6 8 7 2 4 9 8 3 10 9 5 4 11 10",
        3,
    ),
    "word-graph-12-seed-4": (
        lambda: word_graph(12, 4),
        "0 3 4 2 5 0 6 8 6 7 9 1 10 5 4 1 11 2 8 10 11 7 9 3",
        2,
    ),
    "word-graph-12-seed-8": (
        lambda: word_graph(12, 8),
        "0 3 1 2 10 5 4 6 9 5 7 11 0 6 4 1 2 8 11 9 8 3 7 10",
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(FIRST_WORDS))
def test_first_word_of_a_long_search_is_pinned(name):
    build, word, r = FIRST_WORDS[name]
    rep = rep_number(build())
    assert (word_to_text(rep.word), rep.k, rep.mode) == (word, r, "general")


@pytest.mark.parametrize(
    "n, words, sha256",
    [
        (7, 28, "8e2b4a77031d14cbc79cb43a1983038a6c073f4dc3a09b3bce7a3e2a3b809ff4"),
        (8, 32, "92d5020fda4af4f0c95ac1c201700fb5bd9fabd9cd28a312bbefd311ea57ddb2"),
        (9, 36, "fa5ed1cc18bd62accc2b10c13bd9092d93c91cdf3dc2b17e30492dabbf56a9cd"),
    ],
    ids=["c7", "c8", "c9"],
)
def test_cycle_word_list_is_pinned(n, words, sha256):
    # every 2-uniform word of C7, C8 and C9, past the 5 vertices of the file
    text = "\n".join(word_to_text(w) for w in representing_words(cycle(n), 2))
    assert (text.count("\n") + 1, hashlib.sha256(text.encode()).hexdigest()) == (words, sha256)


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
