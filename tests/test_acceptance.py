"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from pathlib import Path

import pytest

from wordrep import (
    Status,
    alternation_graph,
    classify,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
    induced_subgraph,
    is_module,
    lex_product,
    make_graph,
    maximal_modular_partition,
    prn,
    product_certificates,
    project,
    reconstruct,
    rep_number,
    represents,
    substitute,
    verify,
)
from wordrep.cli import main
from wordrep.modular import induced_block_graphs
from helpers import atlas_connected, complete, cycle, random_graph, random_connected_graph, wheel

FIXTURES = Path(__file__).parent / "fixtures"


def announce(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def wr_status(verdict) -> bool:
    return verdict.status in (Status.WORD_REPRESENTABLE, Status.COMPARABILITY)


def test_criterion_1_example_numbers():
    started = time.time()
    k2, c6, w6 = complete(2), cycle(6), wheel(6)

    r_k2 = rep_number(k2)
    assert r_k2.k == 1 and represents(r_k2.word, k2)

    r_c6 = rep_number(c6)
    assert r_c6.k == 2 and represents(r_c6.word, c6)

    p_c6 = prn(c6)
    assert p_c6.k == 3 and represents(p_c6.word, c6)

    r_w6 = rep_number(w6)
    assert r_w6.k == 3 and represents(r_w6.word, w6)

    elapsed = time.time() - started
    assert elapsed < 60
    announce(1, f"R(K2)=1, R(C6)=2, prn(C6)=3, R(W6)=3 with verified words ({elapsed:.1f}s)")


def test_criterion_2_wheel_refutation():
    w5 = wheel(5)
    verdict = classify(w5)
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness == frozenset(range(1, 6))
    assert verify(verdict, w5)
    assert not exists_semi_transitive_orientation(w5)
    announce(2, "W5 refuted with rim witness; orientation oracle agrees over 2^10 space")


def _substitution_universe():
    """(outer, pivot, inner) for all connected pairs on <= 4 vertices."""
    small = atlas_connected(4)
    return [
        (g, pivot, m)
        for g in small
        for pivot in range(g.n)
        for m in small
    ]


def test_criterion_3_substitution_characterization():
    cases = _substitution_universe()
    checked = 0
    for g, pivot, m in cases:
        target, _, _ = substitute(g, pivot, m)
        lhs = exists_semi_transitive_orientation(target)
        rhs = exists_semi_transitive_orientation(g) and (
            find_transitive_orientation(m) is not None
        )
        assert lhs == rhs, (g, pivot, m)
        checked += 1
    # the targeted pair: K2 with C5 substituted is the non-representable wheel
    target, _, _ = substitute(complete(2), 0, cycle(5))
    assert target == wheel(5)
    assert not exists_semi_transitive_orientation(target)
    announce(3, f"substitution representable iff outer is and inner is comparability "
                f"({checked} + 1 pairs, zero discrepancies)")


def test_criterion_4_composition_formulas():
    rng = random.Random(2024)
    cases = _substitution_universe()
    sample = rng.sample(cases, 120)
    word_checked = perm_checked = 0
    for g, pivot, m in sample:
        if find_transitive_orientation(m) is None:
            continue  # inadmissible (never happens at this scale)
        target, _, _ = substitute(g, pivot, m)
        expected_r = max(rep_number(g).k, prn(m).k)
        assert rep_number(target).k == expected_r, (g, pivot, m)
        word_checked += 1
        g_perm = prn(g)
        if g_perm is not None:
            expected_p = max(g_perm.k, prn(m).k)
            assert prn(target).k == expected_p, (g, pivot, m)
            perm_checked += 1
    assert word_checked >= 100
    announce(4, f"R and prn of substitutions match the max formulas exactly "
                f"({word_checked} word cases, {perm_checked} permutational)")


def test_criterion_5_consistency_sweep():
    started = time.time()
    graphs = atlas_connected(6)
    assert len(graphs) == 143
    r_checked = 0
    for g in graphs:
        verdict = classify(g)
        assert wr_status(verdict) == exists_semi_transitive_orientation(g), g
        if g.n >= 2:
            partition = maximal_modular_partition(g)
            decomposable = not all(len(b) == 1 for b in partition.blocks)
            if decomposable and wr_status(verdict):
                assert verdict.r_number == rep_number(g).k, g
                r_checked += 1
    elapsed = time.time() - started
    assert elapsed < 1800
    announce(5, f"classify vs oracle on all 143 graphs up to 6 vertices; "
                f"R checked on {r_checked} decomposables ({elapsed:.1f}s)")


def test_criterion_6_comparability_decomposition():
    checked = 0
    for g in atlas_connected(6, min_n=2):
        partition = maximal_modular_partition(g)
        if all(len(b) == 1 for b in partition.blocks):
            continue
        whole = find_transitive_orientation(g) is not None
        parts = find_transitive_orientation(partition.quotient) is not None and all(
            find_transitive_orientation(bg) is not None
            for bg in induced_block_graphs(partition)
        )
        assert whole == parts, g
        checked += 1
    announce(6, f"comparability decomposes through quotient and blocks "
                f"({checked} decomposable graphs)")


def test_criterion_7_lex_products():
    k2, c5, c6 = complete(2), cycle(5), cycle(6)

    join_c5, _ = lex_product(k2, c5)
    verdict = classify(join_c5)
    assert verdict.status == Status.NOT_WORD_REPRESENTABLE
    assert verdict.witness is not None
    assert verify(verdict, join_c5)

    join_c6, _ = lex_product(k2, c6)
    rep = product_certificates(k2, c6)[0]
    assert rep.k == 3 and rep.target == join_c6
    verdict6 = classify(join_c6)
    assert wr_status(verdict6) and verdict6.r_number == 3
    assert verify(verdict6, join_c6)

    big = product_certificates(c6, c6)[1]
    assert big.target.n == 36
    assert big.k == 3
    assert represents(big.word, big.target)
    announce(7, "K2[C5] refuted with witness, K2[C6] representable at R=3, "
                "C6[C6] certificate verifies on 36 vertices")


CASES_PER_PROPERTY = 1000


def test_criterion_8a_quotient_is_induced_subgraph():
    rng = random.Random(81)
    for _ in range(CASES_PER_PROPERTY):
        g = random_connected_graph(rng, rng.randint(2, 8))
        partition = maximal_modular_partition(g)
        reps = [min(b) for b in partition.blocks]
        sub, relabel = induced_subgraph(g, reps)
        mapped = frozenset(
            (min(relabel[reps[i]], relabel[reps[j]]), max(relabel[reps[i]], relabel[reps[j]]))
            for i, j in partition.quotient.edges
        )
        assert sub.edges == mapped and sub.n == partition.quotient.n
    announce(8, f"quotient matches the representative-induced subgraph "
                f"({CASES_PER_PROPERTY} cases)")


def test_criterion_8b_reconstruction_round_trip():
    rng = random.Random(82)
    for _ in range(CASES_PER_PROPERTY):
        g = random_connected_graph(rng, rng.randint(2, 8))
        partition = maximal_modular_partition(g)
        assert reconstruct(partition, induced_block_graphs(partition)) == g
    announce(8, f"reconstruction round trip ({CASES_PER_PROPERTY} cases)")


def test_criterion_8c_substitution_creates_module():
    rng = random.Random(83)
    for _ in range(CASES_PER_PROPERTY):
        g = random_connected_graph(rng, rng.randint(1, 8))
        inner = random_graph(rng, rng.randint(1, 8))
        pivot = rng.randrange(g.n)
        out, _, m_map = substitute(g, pivot, inner)
        assert is_module(out, set(m_map.values()))
    announce(8, f"substituted copies are modules ({CASES_PER_PROPERTY} cases)")


def test_criterion_8d_lex_product_is_iterated_substitution():
    rng = random.Random(84)
    for _ in range(CASES_PER_PROPERTY):
        g = random_graph(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 6))
        product, label = lex_product(g, h)
        current = g
        where = {v: v for v in range(g.n)}
        copies: dict[int, dict[int, int]] = {}
        for v in range(g.n):
            current, g_map, m_map = substitute(current, where[v], h)
            where = {ov: g_map[cur] for ov, cur in where.items() if ov != v}
            copies = {
                ov: {hv: g_map[cur] for hv, cur in cmap.items()}
                for ov, cmap in copies.items()
            }
            copies[v] = dict(m_map)
        bijection = {
            label[(a, b)]: copies[a][b] for a in range(g.n) for b in range(h.n)
        }
        remapped = frozenset(
            (min(bijection[u], bijection[v]), max(bijection[u], bijection[v]))
            for u, v in product.edges
        )
        assert remapped == current.edges
    announce(8, f"lex product equals iterated substitution ({CASES_PER_PROPERTY} cases)")


def test_criterion_8e_hereditary_representability():
    rng = random.Random(85)
    for _ in range(CASES_PER_PROPERTY):
        n = rng.randint(1, 8)
        word = tuple(rng.randrange(n) for _ in range(rng.randint(1, 16)))
        g, relabel = alternation_graph(word)
        mapped = tuple(relabel[c] for c in word)
        letters = sorted(set(mapped))
        size = rng.randint(1, len(letters))
        subset = rng.sample(letters, size)
        sub, sub_relabel = induced_subgraph(g, subset)
        proj = tuple(sub_relabel[c] for c in project(mapped, subset))
        assert represents(proj, sub)
    announce(8, f"representability is hereditary under projection "
                f"({CASES_PER_PROPERTY} cases)")


def _run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_criterion_9_certificate_replay(capsys, tmp_path):
    flows = [
        ("check", FIXTURES / "k2.graph"),
        ("check", FIXTURES / "c5.graph"),
        ("check", FIXTURES / "c6.graph"),
        ("check", FIXTURES / "w5.graph"),
        ("check", FIXTURES / "w6.graph"),
        ("repnum", FIXTURES / "k2.graph"),
        ("repnum", FIXTURES / "c6.graph"),
        ("repnum", FIXTURES / "w6.graph"),
        ("prn", FIXTURES / "c6.graph"),
        ("prn", FIXTURES / "c5.graph"),
        ("decompose", FIXTURES / "w6.graph"),
        ("decompose", FIXTURES / "c5.graph"),
    ]
    replayed = 0
    for i, (command, path) in enumerate(flows):
        code, out = _run_cli(capsys, command, path)
        report_path = tmp_path / f"report{i}.json"
        report_path.write_text(out)
        vcode, vout = _run_cli(capsys, "verify", path, report_path)
        assert vcode == 0 and json.loads(vout)["valid"] is True, (command, path)
        replayed += 1

    # product flows verify against the emitted graph file
    product_flows = [
        (["product", FIXTURES / "k2.graph", FIXTURES / "c5.graph",
          "--op", "substitute", "--at", "0"], "w5_out.graph"),
        (["product", FIXTURES / "k2.graph", FIXTURES / "c5.graph",
          "--op", "lex", "--numbers"], "k2c5_out.graph"),
        (["product", FIXTURES / "k2.graph", FIXTURES / "c6.graph",
          "--op", "lex", "--numbers"], "k2c6_out.graph"),
        (["product", FIXTURES / "c6.graph", FIXTURES / "c6.graph",
          "--op", "lex", "--numbers"], "c6c6_out.graph"),
    ]
    emitted = []
    for i, (argv, out_name) in enumerate(product_flows):
        out_path = tmp_path / out_name
        code, out = _run_cli(capsys, *argv, "--out", out_path)
        assert code == 0
        report_path = tmp_path / f"product{i}.json"
        report_path.write_text(out)
        vcode, vout = _run_cli(capsys, "verify", out_path, report_path)
        assert vcode == 0 and json.loads(vout)["valid"] is True, argv
        emitted.append(out_path)
        replayed += 1

    # and the emitted products go back through check + verify
    for i, out_path in enumerate(emitted[:3]):
        code, out = _run_cli(capsys, "check", out_path)
        report_path = tmp_path / f"product_check{i}.json"
        report_path.write_text(out)
        vcode, vout = _run_cli(capsys, "verify", out_path, report_path)
        assert vcode == 0 and json.loads(vout)["valid"] is True
        replayed += 1
    announce(9, f"all {replayed} emitted reports replayed through cmd-level verify")
