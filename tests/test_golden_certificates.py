"""Exact certificate words, pinned so that refactors of the composition code
cannot change what the library emits. No other test fixes certificate bytes;
the byte-stable report test only compares two runs of the same code."""

import pytest

from wordrep import (
    SubstitutionPlan,
    classify,
    lex_prn,
    lex_rep_number,
    make_graph,
    prn,
    prn_composed,
    rep_number,
    rep_number_composed,
    substitute_representation,
    word_to_text,
)
from helpers import complete, cycle, path_graph, wheel

W6_WORD = "0 5 3 4 1 6 2 0 1 3 2 5 6 4 0 1 5 6 3 2 4"
K2_C6_WORD = (
    "4 2 3 0 5 1 10 8 9 6 11 7 0 2 1 4 5 3 6 8 7 10 11 9 "
    "0 4 5 2 1 3 6 10 11 8 7 9"
)


def _w6_plan():
    k2 = make_graph(2, [(0, 1)])
    return substitute_representation(
        SubstitutionPlan(outer=rep_number(k2), pivot=0, inner=prn(cycle(6)))
    )


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
        lambda: lex_rep_number(complete(2), cycle(6)),
        (K2_C6_WORD, 3, "general"),
    ),
    "lex-prn-k2-c6": (
        lambda: lex_prn(complete(2), cycle(6)),
        (K2_C6_WORD, 3, "permutational"),
    ),
    "rep-number-composed-c6-0-k2": (
        lambda: rep_number_composed(cycle(6), 0, complete(2)),
        ("5 6 0 4 5 6 3 4 2 3 1 2 0 1", 2, "general"),
    ),
    "prn-composed-p3-1-k2": (
        lambda: prn_composed(path_graph(3), 1, complete(2)),
        ("1 0 2 3 0 1 2 3", 2, "permutational"),
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
