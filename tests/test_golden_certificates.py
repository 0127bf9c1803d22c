"""Exact certificate words of the library calls, pinned so that refactors of
the composition code cannot change what the library emits. The CLI's report
bytes are pinned in ``golden_cli.json``, and the letter search's word lists
and first words in ``golden_word_lists.json`` and
``golden_word_prefixes.json``; the byte-stable report test only compares two
runs of the same code."""

import pytest

from wordrep import (
    classify,
    compose_product,
    make_graph,
    prn,
    product_certificates,
    rep_number,
    word_to_text,
)
from helpers import complete, cycle, path_graph, two_dimensional_order, wheel

W6_WORD = "0 5 3 4 1 6 2 0 1 3 2 5 6 4 0 1 5 6 3 2 4"
K2_C6_WORD = (
    "4 2 3 0 5 1 10 8 9 6 11 7 0 2 1 4 5 3 6 8 7 10 11 9 "
    "0 4 5 2 1 3 6 10 11 8 7 9"
)


def _w6_plan():
    k2 = make_graph(2, [(0, 1)])
    return compose_product(rep_number(k2), prn(cycle(6)), 0)


CASES = {
    "classify-w6-certificate": (
        lambda: classify(wheel(6)).certificate,
        (W6_WORD, 3, "general"),
    ),
    "classify-w6-perm-certificate": (
        lambda: classify(wheel(6)).perm_certificate,
        (W6_WORD, 3, "permutational"),
    ),
    "lex-rep-number-k2-c6": (
        lambda: product_certificates(complete(2), cycle(6))[0],
        (K2_C6_WORD, 3, "general"),
    ),
    "lex-prn-k2-c6": (
        lambda: product_certificates(complete(2), cycle(6))[1],
        (K2_C6_WORD, 3, "permutational"),
    ),
    "rep-number-composed-c6-0-k2": (
        lambda: product_certificates(cycle(6), complete(2), 0)[0],
        ("5 6 0 4 5 6 3 4 2 3 1 2 0 1", 2, "general"),
    ),
    "prn-composed-p3-1-k2": (
        lambda: product_certificates(path_graph(3), complete(2), 1)[1],
        ("1 0 2 3 0 1 2 3", 2, "permutational"),
    ),
    "prn-p40": (
        lambda: prn(path_graph(40)),
        (
            "38 39 36 37 34 35 32 33 30 31 28 29 26 27 24 25 22 23 20 21 "
            "18 19 16 17 14 15 12 13 10 11 8 9 6 7 4 5 2 3 0 1 "
            "0 2 1 4 3 6 5 8 7 10 9 12 11 14 13 16 15 18 17 20 "
            "19 22 21 24 23 26 25 28 27 30 29 32 31 34 33 36 35 38 37 39",
            2,
            "permutational",
        ),
    ),
    "prn-c10": (
        lambda: prn(cycle(10)),
        ("8 6 7 4 5 2 3 0 9 1 0 2 1 4 3 6 5 8 9 7 0 8 9 2 1 4 3 6 5 7", 3, "permutational"),
    ),
    "prn-c12": (
        lambda: prn(cycle(12)),
        (
            "10 8 9 6 7 4 5 2 3 0 11 1 0 2 1 4 3 6 5 8 7 10 11 9 "
            "0 10 11 2 1 4 3 6 5 8 7 9",
            3,
            "permutational",
        ),
    ),
    "prn-two-dimensional-order-20": (
        lambda: prn(two_dimensional_order(0, 20)),
        (
            "4 17 7 8 12 10 14 11 16 9 0 6 19 18 3 15 2 5 1 13 "
            "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19",
            2,
            "permutational",
        ),
    ),
    "substitute-representation-w6-plan": (
        _w6_plan,
        ("5 3 4 1 6 2 0 1 3 2 5 6 4 0 1 5 6 3 2 4 0", 3, "general"),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_word_is_pinned(name):
    build, expected = CASES[name]
    rep = build()
    assert (word_to_text(rep.word), rep.k, rep.mode) == expected


@pytest.mark.parametrize(
    "n, expected",
    [
        (7, "0 1 6 0 5 6 4 5 3 4 2 3 1 2"),
        (9, "0 1 8 0 7 8 6 7 5 6 4 5 3 4 2 3 1 2"),
    ],
)
def test_odd_cycle_rep_number_certificate_is_pinned(n, expected):
    # the word lists in golden_word_lists.json stop at 5 vertices; these
    # pin the letter search on level-2 searches over 7 and 9 letters
    rep = rep_number(cycle(n))
    assert (word_to_text(rep.word), rep.k, rep.mode) == (expected, 2, "general")
