"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7, 2), make(7, 2), make(8, 2)
    assert first == again
    assert first != other


def test_refute_recipes_hold():
    for case in workloads.refute(3, 2):
        assert 7 <= case.n <= 9 and len(case.edges) <= 24
        assert case.expected.status == workloads.NOT_WORD_REPRESENTABLE


def test_composite_sizes():
    for case in workloads.composite(3, 2):
        if case.kind != "fixed":
            assert 30 <= case.n <= 70, case


def test_tail_percentile_has_ten_samples_above():
    rng = random.Random(0)
    for _ in range(500):
        size = rng.randint(20, 400)
        spread = rng.choice([3, 50, 10**6])
        values = [rng.randint(0, spread) for _ in range(size)]
        try:
            q, value, beyond = run.tail_percentile(values)
        except ValueError:
            # only when ties leave fewer than ten values above every percentile
            assert sum(v > min(values) for v in values) < 10
            continue
        assert beyond == sum(v > value for v in values) >= 10
        assert 1 <= q <= 99


def test_tail_percentile_of_atlas_size_is_p98():
    assert run.tail_percentile(list(range(995)))[0] == 98


def test_metric_names_and_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_word_check_is_independent_and_strict():
    c5 = ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    # a 2-uniform word for C5
    word = (0, 4, 1, 0, 2, 1, 3, 2, 4, 3)
    assert checks.word_problem(word, 5, c5, 2) is None
    assert checks.word_problem(word, 5, c5[1:], 2) is not None
    assert checks.word_problem(word[:-1], 5, c5, 2) is not None
    assert checks.word_problem((0, 1, 2, 3, 4, 4, 3, 2, 1, 0), 5, (), 2, permutational=True) is None


def test_composite_expectation_follows_substitution_formula():
    atlas = workloads.load_atlas()
    p4 = next(g for g in atlas if g.n == 4 and g.prime)
    c6 = workloads.Piece(6, tuple(workloads.cycle_edges(6)), 3)
    k3 = workloads.Piece(3, tuple(workloads.clique_edges(3)), 1)
    c5 = workloads.Piece(5, tuple(workloads.cycle_edges(5)), None)
    assert workloads.composite_expected(p4, [c6, k3, k3, k3]) == workloads.Expected(
        workloads.COMPARABILITY, 3, 3
    )
    assert workloads.composite_expected(p4, [c5, k3, k3, k3]).status == (
        workloads.NOT_WORD_REPRESENTABLE
    )


def test_self_time_excludes_children():
    spans = [
        ["outer", 0, 100, -1, "a"],
        ["inner", 10, 40, 0, "a"],
        ["inner", 50, 60, 0, "a"],
    ]
    totals = layer_totals(spans)
    assert totals["outer"]["self_s"] == pytest.approx(60e-9)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["max_call_s"] == pytest.approx(30e-9)


def test_tracer_wraps_every_import_site():
    sys.path.insert(0, str(run.SRC))
    wr = run.import_wordrep()
    import wordrep.characterizer as characterizer
    import wordrep.representation as representation

    original = representation.find_transitive_orientation
    tracer = Tracer()
    tracer.install()
    try:
        assert characterizer.find_transitive_orientation is not original
        assert representation.find_transitive_orientation is not original
        c6 = wr.make_graph(6, workloads.cycle_edges(6))
        wr.classify(c6)
        wr.rep_number(c6)
    finally:
        tracer.uninstall()
    assert representation.find_transitive_orientation is original
    totals = layer_totals(tracer.spans)
    assert totals["orientations.transitive"]["calls"] >= 1
    # levels k = 1, 2 for C6 inside classify, and again in rep_number
    assert tracer.counts["representation.word_search.levels"] == 4
    assert tracer.counts["representation.word_search.found"] == 2
