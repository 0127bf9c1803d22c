import hashlib
import io
import json
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wordrep import make_graph
from wordrep.cli import main
from wordrep.io import GraphFileError, format_graph_text, parse_graph_text
from helpers import (
    complete,
    cone,
    count_searches,
    crown,
    cycle,
    path_graph,
    random_connected_graph,
    random_graph,
    wheel,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------- file format


def test_parse_round_trip():
    g = wheel(6)
    assert parse_graph_text(format_graph_text(g)) == g


def test_parse_comments_and_blanks():
    text = "# a wheel\n\n3 2\n0 1\n# middle comment\n1 2\n"
    assert parse_graph_text(text) == make_graph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",                      # no header
        "3\n0 1\n",              # malformed header
        "3 2\n0 1\n",            # missing edge line
        "3 1\n0 1\n1 2\n",       # extra edge line
        "3 1\n0 9\n",            # endpoint out of range
        "3 1\n1 1\n",            # loop
        "3 2\n0 1\n0 1\n",       # duplicate edge vs declared count
        "3 1\n0 x\n",            # non-integer
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphFileError):
        parse_graph_text(text)


def test_parse_error_carries_line_number():
    with pytest.raises(GraphFileError, match="line 3"):
        parse_graph_text("# c\n2 1\n0 2\n")


@pytest.mark.parametrize(
    "text, line",
    [("# c\n-1 0\n", 2), ("3 -1\n", 1), ("3 2\n0 1\n# c\n1 1\n", 4)],
    ids=["negative-n", "negative-m", "loop"],
)
def test_parse_rejects_what_make_graph_would_with_a_line_number(text, line):
    # the parser rejects every input make_graph rejects, before building it
    with pytest.raises(GraphFileError, match=f"^line {line}: "):
        parse_graph_text(text)


# ----------------------------------------------------------------------- check


def test_check_w5(capsys):
    code, report = report_of(capsys, "check", FIXTURES / "w5.graph")
    assert code == 1
    assert report["status"] == "not-word-representable"
    assert report["witness"] == [1, 2, 3, 4, 5]


def test_check_w6(capsys):
    code, report = report_of(capsys, "check", FIXTURES / "w6.graph")
    assert code == 0
    assert report["status"] == "comparability"
    assert report["numbers"]["r"] == 3
    assert report["numbers"]["block_prns"] == [1, 3]


def test_check_malformed_header_exits_64(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("nonsense here\n")
    code, out, err = run(capsys, "check", bad)
    assert code == 64
    assert out == "" and "error" in err


def test_check_disconnected_exits_64(capsys, tmp_path):
    f = tmp_path / "disc.graph"
    f.write_text("4 1\n0 1\n")
    code, _, err = run(capsys, "check", f)
    assert code == 64 and "connected" in err


def test_empty_graph_exits_64_everywhere(capsys, tmp_path):
    f = tmp_path / "empty.graph"
    f.write_text("0 0\n")
    for command in ("check", "repnum", "prn", "decompose"):
        code, _, err = run(capsys, command, f)
        assert code == 64 and "vertices" in err


def test_check_reduced_exit_code(capsys):
    code, report = report_of(
        capsys, "check", FIXTURES / "c6.graph", "--word-cap", "1", "--oracle-cap", "1"
    )
    assert code == 2
    assert report["status"] == "reduced-to-quotient"
    assert report["quotient"]["n"] == 6


def test_check_report_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "check", FIXTURES / "w6.graph")
    _, out2, _ = run(capsys, "check", FIXTURES / "w6.graph")
    assert out1 == out2


def test_check_timing_flag(capsys):
    k2 = FIXTURES / "k2.graph"
    for argv in (
        ("check", k2),
        ("repnum", k2),
        ("prn", k2),
        ("decompose", k2),
        ("product", k2, k2, "--op", "lex"),
    ):
        _, report = report_of(capsys, *argv, "--timing")
        assert "timing_ms" in report, argv
        _, report = report_of(capsys, *argv)
        assert "timing_ms" not in report, argv


@pytest.mark.parametrize(
    "g",
    [path_graph(40), cone(make_graph(61, complete(60).edges))],
    ids=["p40", "cone-k60+k1"],
)
def test_check_decides_large_comparability_graphs(capsys, tmp_path, g):
    # both raised RecursionError (exit 70) while the orientation search and
    # the realizer recursed
    path = tmp_path / "g.graph"
    path.write_text(format_graph_text(g))
    code, report = report_of(capsys, "check", path)
    assert code == 0 and report["status"] == "comparability"
    assert (report["numbers"]["r"], report["numbers"]["prn"]) == (2, 2)


# ---------------------------------------------------------------------- repnum


def test_repnum_c6(capsys):
    code, report = report_of(capsys, "repnum", FIXTURES / "c6.graph")
    assert code == 0
    assert report["numbers"]["r"] == 2
    assert report["certificate"]["k"] == 2


def test_repnum_k2(capsys):
    code, report = report_of(capsys, "repnum", FIXTURES / "k2.graph")
    assert code == 0 and report["numbers"]["r"] == 1


def test_repnum_cap_exceeded(capsys):
    code, report = report_of(capsys, "repnum", FIXTURES / "c6.graph", "--cap", "1")
    assert code == 2
    assert report["status"] == "cap-exceeded"
    assert report["certificate"] is None


# ------------------------------------------------------------------------- prn


def test_prn_c6(capsys):
    code, report = report_of(capsys, "prn", FIXTURES / "c6.graph")
    assert code == 0
    assert report["numbers"]["prn"] == 3
    assert report["certificate"]["mode"] == "permutational"


def test_prn_c5_not_comparability(capsys):
    code, report = report_of(capsys, "prn", FIXTURES / "c5.graph")
    assert code == 1
    assert report["status"] == "not-comparability"
    assert report["certificate"] is None


def test_prn_k5(capsys, tmp_path, monkeypatch):
    # a complete graph gets its certificate in closed form, with no
    # orientation and no realizer
    import wordrep.cli as cli

    f = tmp_path / "k5.graph"
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    f.write_text(f"5 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    oriented, realized = count_searches(monkeypatch, cli)
    code, report = report_of(capsys, "prn", f)
    assert code == 0 and report["numbers"]["prn"] == 1
    assert oriented == realized == []


# ------------------------------------------------------------------- decompose


def test_decompose_w6(capsys):
    code, report = report_of(capsys, "decompose", FIXTURES / "w6.graph")
    assert code == 0
    assert report["blocks"] == [[0], [1, 2, 3, 4, 5, 6]]
    assert report["quotient"] == {"n": 2, "edges": [[0, 1]]}


def test_decompose_c5_prime(capsys):
    code, report = report_of(capsys, "decompose", FIXTURES / "c5.graph")
    assert code == 0
    assert report["blocks"] == [[0], [1], [2], [3], [4]]
    assert report["quotient"]["n"] == 5


def test_decompose_k2(capsys):
    code, report = report_of(capsys, "decompose", FIXTURES / "k2.graph")
    assert code == 0
    assert report["blocks"] == [[0], [1]]
    assert report["quotient"] == {"n": 2, "edges": [[0, 1]]}


def test_decompose_k1(capsys):
    code, report = report_of(capsys, "decompose", FIXTURES / "k1.graph")
    assert code == 0 and report["blocks"] == [[0]]


# --------------------------------------------------------------------- product


def test_product_substitute_builds_w5(capsys, tmp_path):
    out_path = tmp_path / "w5.graph"
    code, report = report_of(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c5.graph",
        "--op", "substitute", "--at", "0", "--out", out_path,
    )
    assert code == 0
    assert parse_graph_text(out_path.read_text()) == wheel(5)
    assert parse_graph_text(report["graph_file"]) == wheel(5)


def test_product_lex_with_numbers(capsys):
    code, report = report_of(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c6.graph",
        "--op", "lex", "--numbers",
    )
    assert code == 0
    assert report["n"] == 12
    assert report["numbers"]["r"] == 3
    assert report["numbers"]["prn"] == 3


def test_product_lex_k1_identity(capsys):
    code, report = report_of(
        capsys, "product", FIXTURES / "c6.graph", FIXTURES / "k1.graph", "--op", "lex"
    )
    assert code == 0
    assert parse_graph_text(report["graph_file"]) == cycle(6)


def test_product_numbers_error_on_non_representable(capsys):
    code, report = report_of(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c5.graph",
        "--op", "lex", "--numbers",
    )
    assert code == 0
    assert "numbers_error" in report
    assert report["numbers"]["r"] is None


def test_product_invalid_pivot_exits_64(capsys):
    code, _, err = run(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c5.graph",
        "--op", "substitute", "--at", "9",
    )
    assert code == 64 and "pivot" in err


def test_product_substitute_without_pivot_exits_64(capsys):
    # main maps the missing --at to 64 itself; argparse does not see it
    code, out, err = run(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c6.graph", "--op", "substitute",
    )
    assert code == 64 and out == ""
    assert "--at" in err


def test_product_lex_with_a_pivot_exits_64(capsys):
    # --at goes with --op substitute only; lex used to ignore it
    code, out, err = run(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c6.graph", "--op", "lex", "--at", "5",
    )
    assert code == 64 and out == ""
    assert "--at" in err


def _graph_file(tmp_path, name, g):
    path = tmp_path / f"{name}.graph"
    path.write_text(format_graph_text(g))
    return path


K2_K1 = make_graph(3, [(0, 1)])


@pytest.mark.parametrize(
    "g, op",
    [
        (complete(1), ("--op", "lex")),
        (make_graph(2, []), ("--op", "lex")),
        (K2_K1, ("--op", "substitute", "--at", "2")),
    ],
    ids=["k1-lex-c6", "2k1-lex-c6", "k2+k1-at-2-c6"],
)
def test_product_claims_no_r_without_a_cone_over_the_second_factor(capsys, tmp_path, g, op):
    # each product is C6 or C6 beside a graph with R <= 2, so its R is 2:
    # max(R(g), prn(C6)) = 3 used to be claimed as r, and verified
    out_path = tmp_path / "product.graph"
    code, report = report_of(
        capsys,
        "product", _graph_file(tmp_path, "g", g), FIXTURES / "c6.graph", *op,
        "--numbers", "--out", out_path,
    )
    assert code == 0
    assert report["numbers"]["r"] is None and report["certificate"] is None
    assert "may be below prn" in report["numbers_error"]
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vreport = report_of(capsys, "verify", out_path, report_path)
    assert vcode == 0 and vreport["valid"] is True


@pytest.mark.parametrize(
    "g, h, op, r",
    [
        (complete(1), path_graph(3), ("--op", "lex"), 2),
        (K2_K1, cycle(6), ("--op", "substitute", "--at", "0"), 3),
    ],
    ids=["k1-lex-p3", "k2+k1-at-0-c6"],
)
def test_product_keeps_its_r_with_a_cone_or_a_small_prn(capsys, tmp_path, g, h, op, r):
    code, report = report_of(
        capsys,
        "product", _graph_file(tmp_path, "g", g), _graph_file(tmp_path, "h", h), *op, "--numbers",
    )
    assert code == 0 and "numbers_error" not in report
    assert report["numbers"]["r"] == report["certificate"]["k"] == r


@pytest.mark.parametrize("op", [("--op", "lex"), ("--op", "substitute", "--at", "0")])
def test_product_numbers_orient_and_realize_each_factor_once(capsys, tmp_path, monkeypatch, op):
    # C6 and the 4-crown: 4 orientations and 3 realizer runs before the one
    # factor pass
    import wordrep.cli as cli

    oriented, realized = count_searches(monkeypatch, cli)
    code, report = report_of(
        capsys,
        "product", FIXTURES / "c6.graph", _graph_file(tmp_path, "crown4", crown(4)), *op,
        "--numbers",
    )
    assert code == 0 and report["numbers"] == {"r": 4, "prn": 4}
    assert oriented == [crown(4), cycle(6)] and len(realized) == 2


def test_product_numbers_of_two_disjoint_c6(capsys, tmp_path):
    # 2C6 lex K1 is 2C6; its level-2 word is the first of a letter search
    # across both components, which the must-come-first cut finds in a tenth
    # of a second and which took about 20 s without it
    two_c6 = make_graph(12, [(i + j, (i + 1) % 6 + j) for i in range(6) for j in (0, 6)])
    out_path = tmp_path / "product.graph"
    started = time.perf_counter()
    code, report = report_of(
        capsys,
        "product", _graph_file(tmp_path, "2c6", two_c6), FIXTURES / "k1.graph",
        "--op", "lex", "--numbers", "--out", out_path,
    )
    elapsed = time.perf_counter() - started
    assert code == 0 and report["numbers"] == {"r": 2, "prn": 3}
    assert report["certificate"]["word"] == "0 1 5 0 4 5 3 4 2 3 1 2 6 7 11 6 10 11 9 10 8 9 7 8"
    assert elapsed < 10
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vreport = report_of(capsys, "verify", out_path, report_path)
    assert vcode == 0 and vreport["valid"] is True


# ---------------------------------------------------------------------- verify


def write_report(tmp_path, text: str) -> Path:
    p = tmp_path / "report.json"
    p.write_text(text)
    return p


def roundtrip_verify(capsys, tmp_path, graph_path, *cmd_argv):
    code, out, _ = run(capsys, *cmd_argv)
    report_path = write_report(tmp_path, out)
    vcode, vout, _ = run(capsys, "verify", graph_path, report_path)
    return code, vcode, json.loads(vout)


@pytest.mark.parametrize(
    "argv",
    [
        ("w5.graph", "check"),
        ("w6.graph", "check"),
        ("c6.graph", "check"),
        ("c6.graph", "repnum"),
        ("c6.graph", "prn"),
        ("c5.graph", "prn"),
        ("w6.graph", "decompose"),
        ("k1.graph", "decompose"),  # the one-vertex branch
        ("c6.graph", "repnum", "--cap", "1"),  # cap exceeded
        ("c6.graph", "prn", "--cap", "1"),  # cap exceeded
    ],
    ids="-".join,
)
def test_verify_accepts_fresh_reports(capsys, tmp_path, argv):
    name, command, *options = argv
    path = FIXTURES / name
    _, vcode, vreport = roundtrip_verify(capsys, tmp_path, path, command, path, *options)
    assert vcode == 0
    assert vreport["valid"] is True


def test_verify_rejects_tampered_word(capsys, tmp_path):
    code, out, _ = run(capsys, "repnum", FIXTURES / "c6.graph")
    report = json.loads(out)
    report["certificate"]["word"] = "0 1 2 3 4 5 0 1 2 3 5 4"
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "c6.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize("command", ["repnum", "prn"])
def test_verify_rejects_non_string_word(capsys, tmp_path, command):
    _, out, _ = run(capsys, command, FIXTURES / "c6.graph")
    report = json.loads(out)
    report["certificate"]["word"] = 5
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "c6.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize("command", ["check", "repnum"])
def test_verify_reads_multiplicity_from_the_word(capsys, tmp_path, command):
    # a general certificate labelled "k": null still backs the claimed r when
    # its word has that uniformity, whatever the report's command
    _, out, _ = run(capsys, command, FIXTURES / "c6.graph")
    report = json.loads(out)
    report["certificate"]["k"] = None
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "c6.graph", report_path)
    assert vcode == 0
    assert json.loads(vout)["valid"] is True


def test_verify_rejects_one_vertex_decomposition_with_wrong_block_map(capsys, tmp_path):
    _, out, _ = run(capsys, "decompose", FIXTURES / "k1.graph")
    report = {**json.loads(out), "block_map": [5]}
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "k1.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize("command", ["repnum", "prn"])
def test_verify_reruns_the_capped_search_of_a_cap_exceeded_report(capsys, tmp_path, command):
    # K2 has r = prn = 1, so a report claiming the search failed at cap 4 is
    # forged; it used to verify without any search
    _, out, _ = run(capsys, command, FIXTURES / "k2.graph")
    report = json.loads(out)
    number = "r" if command == "repnum" else "prn"
    report.update(status="cap-exceeded", certificate=None, numbers={number: None})
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "k2.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


def test_verify_cap_exceeded_replay_past_replay_cap_exits_2(capsys, tmp_path):
    _, out, _ = run(capsys, "repnum", FIXTURES / "c6.graph", "--cap", "1")
    report_path = write_report(tmp_path, out)
    vcode, vout, verr = run(
        capsys, "verify", FIXTURES / "c6.graph", report_path, "--replay-cap", "5"
    )
    assert vcode == 2 and vout == ""
    assert verr.startswith("error: ")


W5_PENDANT = "7 11\n0 1\n0 2\n0 3\n0 4\n0 5\n1 2\n1 5\n2 3\n3 4\n4 5\n1 6\n"


def test_verify_replays_a_witness_at_any_replay_cap(capsys, tmp_path):
    # a witness replays by one forcing pass, which --replay-cap does not bound:
    # W5's rim has 5 edges, replayed at cap 4
    path = FIXTURES / "w5.graph"
    code, report = report_of(capsys, "check", path)
    assert code == 1 and report["witness"] == [1, 2, 3, 4, 5]
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", path, report_path, "--replay-cap", 4)
    assert vcode == 0 and json.loads(vout)["valid"] is True


@pytest.mark.parametrize(
    "graph_text, witness, edges",
    [
        # prime, so no module witness: the replay reruns the oracle on all 11 edges
        (W5_PENDANT, None, 11),
    ],
    ids=["oracle-w5-pendant"],
)
def test_verify_check_replay_past_replay_cap_exits_2(capsys, tmp_path, graph_text, witness, edges):
    path = tmp_path / "g.graph"
    path.write_text(graph_text)
    code, report = report_of(capsys, "check", path)
    assert code == 1 and report["witness"] == witness
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, verr = run(capsys, "verify", path, report_path, "--replay-cap", edges - 1)
    assert vcode == 2 and vout == ""
    assert verr == f"error: oracle replay: {edges} edges exceed cap {edges - 1}\n"
    vcode, vout, _ = run(capsys, "verify", path, report_path, "--replay-cap", edges)
    assert vcode == 0 and json.loads(vout)["valid"] is True


def test_verify_replays_a_witness_of_more_edges_than_the_replay_cap(capsys, tmp_path):
    # the rim of W25 has 25 edges; its replay used to exit 2 past cap 24
    path = tmp_path / "w25.graph"
    path.write_text(format_graph_text(wheel(25)))
    code, report = report_of(capsys, "check", path)
    assert code == 1 and report["witness"] == list(range(1, 26))
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", path, report_path, "--replay-cap", 0)
    assert vcode == 0 and json.loads(vout)["valid"] is True


def test_verify_replays_a_high_word_cap_report_quickly(capsys, tmp_path):
    # the replay reruns word search up to the report's cap; on W5 the search
    # to cap 6 alone took over 10 s before the first-occurrence cut
    code, out, _ = run(capsys, "repnum", "--cap", "8", FIXTURES / "w5.graph")
    assert code == 2 and json.loads(out)["status"] == "cap-exceeded"
    report_path = write_report(tmp_path, out)
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "w5.graph", report_path)
    assert vcode == 0 and json.loads(vout)["valid"] is True


def test_verify_rejects_wrong_input_digest(capsys, tmp_path):
    code, out, _ = run(capsys, "repnum", FIXTURES / "c6.graph")
    report_path = write_report(tmp_path, out)
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "c5.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize("command", ["decompose", "check"])
def test_verify_rejects_a_report_against_a_disconnected_graph(capsys, tmp_path, command):
    # only a product report may replay against a disconnected graph; the
    # decomposition replay used to raise on one and exit 70
    _, out, _ = run(capsys, command, FIXTURES / "c5.graph")
    report = json.loads(out)
    if command == "check":
        report["status"] = "reduced-to-quotient"
    disconnected = tmp_path / "2k2.graph"
    disconnected.write_bytes(b"4 2\n0 1\n2 3\n")
    report["input"]["sha256"] = hashlib.sha256(disconnected.read_bytes()).hexdigest()
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", disconnected, report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


FUZZ_VALUES = (
    None, 0, -1, "", "x", "0 1 0 1", [], [0, 1], {}, {"word": "0"},
    "word-representable", "comparability", "not-word-representable",
    "reduced-to-quotient", "cap-exceeded", "not-comparability",
    {"n": 2, "edges": [[0, 1]]},
)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(
    seed=st.integers(0, 2**32 - 1),
    argv=st.sampled_from([
        ("check",), ("check", "--word-cap", "1"), ("repnum",), ("repnum", "--cap", "1"),
        ("prn",), ("prn", "--cap", "1"), ("decompose",),
    ]),
    data=st.data(),
)
def test_verify_never_exits_70_on_mutated_reports(seed, argv, data):
    # a report with 1-3 fields replaced, at the top level or one level down,
    # replayed against its own graph or another one, possibly disconnected,
    # whose digest it names: verify answers 0, 1, 2 or 64, never a traceback
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(1, 6))
    target = g if data.draw(st.booleans()) else random_graph(rng, rng.randint(1, 6))
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(stdout), redirect_stderr(stderr):
        source_path, target_path = Path(tmp) / "g.graph", Path(tmp) / "target.graph"
        source_path.write_text(format_graph_text(g))
        target_path.write_text(format_graph_text(target))
        main([argv[0], str(source_path), *argv[1:]])
        report = json.loads(stdout.getvalue())
        report["input"]["sha256"] = hashlib.sha256(target_path.read_bytes()).hexdigest()
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(report)))
            value = data.draw(st.sampled_from(FUZZ_VALUES))
            inner = report[key]
            if isinstance(inner, dict) and inner and data.draw(st.booleans()):
                report[key] = {**inner, data.draw(st.sampled_from(sorted(inner))): value}
            else:
                report[key] = value
        report_path = Path(tmp) / "report.json"
        report_path.write_text(json.dumps(report))
        code = main(["verify", str(target_path), str(report_path)])
    assert code != 70, stderr.getvalue()


CHECK_W6 = ("check", FIXTURES / "w6.graph")
CHECK_K2 = ("check", FIXTURES / "k2.graph")
REPNUM_C6_CAP_1 = ("repnum", FIXTURES / "c6.graph", "--cap", "1")
PRN_C6_CAP_1 = ("prn", FIXTURES / "c6.graph", "--cap", "1")
CHECK_C5_REDUCED = ("check", FIXTURES / "c5.graph", "--word-cap", "1", "--oracle-cap", "1")
DECOMPOSE_W6 = ("decompose", FIXTURES / "w6.graph")
PRODUCT_SUBSTITUTE = ("product", FIXTURES / "c5.graph", FIXTURES / "k2.graph",
                      "--op", "substitute", "--at", "1")


@pytest.mark.parametrize(
    "argv, mangle",
    [
        (CHECK_W6, lambda report: [report]),  # a list, not an object
        (CHECK_W6, lambda report: {k: v for k, v in report.items() if k != "caps"}),
        (CHECK_W6, lambda report: {**report, "caps": {**report["caps"], "bogus_cap": 1}}),
        (CHECK_W6, lambda report: {**report, "input": "x"}),
        (CHECK_W6, lambda report: {**report, "input": []}),
        (CHECK_W6, lambda report: {**report, "witness": ["a", "b"]}),
        (("repnum", FIXTURES / "c6.graph"), lambda report: {**report, "numbers": [1]}),
        (REPNUM_C6_CAP_1, lambda report: {**report, "caps": {"word_cap": "1"}}),
        (REPNUM_C6_CAP_1, lambda report: {**report, "caps": {"word_cap": 0}}),
        (REPNUM_C6_CAP_1, lambda report: {**report, "caps": []}),
        # caps and statuses the CLI never prints
        (CHECK_W6, lambda report: {**report, "caps": {**report["caps"], "word_cap": 0}}),
        (CHECK_W6, lambda report: {**report, "caps": {**report["caps"], "oracle_edge_cap": -1}}),
        (REPNUM_C6_CAP_1, lambda report: {**report, "status": "not-comparability"}),
        (PRN_C6_CAP_1, lambda report: {**report, "status": "reduced-to-quotient"}),
        (
            ("prn", FIXTURES / "c6.graph"),
            lambda report: {k: v for k, v in report.items() if k != "status"},
        ),
        (
            ("product", FIXTURES / "k2.graph", FIXTURES / "c6.graph",
             "--op", "substitute", "--at", "0"),
            lambda report: {**report, "graph_file": 5},
        ),
        # a number of the wrong type used to read as "not valid" (exit 1), or
        # as valid when it compared equal to the certificate's k
        (("repnum", FIXTURES / "c6.graph"), lambda report: {**report, "numbers": {"r": "2"}}),
        (("prn", FIXTURES / "c6.graph"), lambda report: {**report, "numbers": {"prn": 3.0}}),
        (
            ("product", FIXTURES / "k2.graph", FIXTURES / "c6.graph", "--op", "lex",
             "--numbers"),
            lambda report: {**report, "numbers": {**report["numbers"], "r": "3"}},
        ),
        # json reads true as 1, which used to pass for an integer: a K2 report
        # with r, prn and certificate k true verified, and so did word_cap true
        (CHECK_K2, lambda report: {
            **report, "numbers": {**report["numbers"], "r": True, "prn": True},
            "certificate": {**report["certificate"], "k": True},
        }),
        (CHECK_K2, lambda report: {**report, "caps": {**report["caps"], "word_cap": True}}),
        (CHECK_W6, lambda report: {**report, "caps": {**report["caps"], "oracle_edge_cap": False}}),
        (CHECK_W6, lambda report: {**report, "numbers": {**report["numbers"], "quotient_r": True}}),
        (CHECK_W6, lambda report: {**report, "numbers": {**report["numbers"], "block_prns": [True, 3]}}),
        (("check", FIXTURES / "w5.graph"), lambda report: {**report, "witness": [True, 2, 3, 4, 5]}),
        (("repnum", FIXTURES / "k2.graph"), lambda report: {**report, "numbers": {"r": True}}),
        (("prn", FIXTURES / "k2.graph"), lambda report: {**report, "numbers": {"prn": True}}),
        (REPNUM_C6_CAP_1, lambda report: {**report, "caps": {"word_cap": True}}),
        (
            ("product", FIXTURES / "k2.graph", FIXTURES / "k2.graph", "--op", "lex",
             "--numbers"),
            lambda report: {**report, "numbers": {**report["numbers"], "r": True}},
        ),
        # true in a quotient, a partition or a product's counts read as 1 too,
        # so a reduced C5 report, W6's partition with vertex 1 or block map
        # entry 1 given as true, and such product reports verified
        (CHECK_C5_REDUCED, lambda report: {
            **report, "quotient": {**report["quotient"], "n": True},
        }),
        (CHECK_C5_REDUCED, lambda report: {**report, "quotient": {
            **report["quotient"], "edges": [[0, True], *report["quotient"]["edges"][1:]],
        }}),
        (DECOMPOSE_W6, lambda report: {**report, "block_map": [0, True, *report["block_map"][2:]]}),
        (DECOMPOSE_W6, lambda report: {
            **report, "blocks": [[0], [True, *report["blocks"][1][1:]]],
        }),
        (DECOMPOSE_W6, lambda report: {
            **report, "quotient": {**report["quotient"], "edges": [[0, True]]},
        }),
        (PRODUCT_SUBSTITUTE, lambda report: {**report, "n": True}),
        (PRODUCT_SUBSTITUTE, lambda report: {**report, "m": 12.0}),
        (PRODUCT_SUBSTITUTE, lambda report: {**report, "at": True}),
        (PRODUCT_SUBSTITUTE, lambda report: {
            **report, "caps": {**report["caps"], "word_cap": True},
        }),
    ],
    ids=[
        "list", "missing-caps", "unknown-cap-key", "check-input-string",
        "check-input-list", "check-witness-strings", "repnum-numbers-list",
        "capped-word-cap-string", "capped-word-cap-zero", "capped-caps-list",
        "check-word-cap-zero", "check-oracle-cap-negative", "repnum-status-from-prn",
        "prn-status-from-check", "prn-status-missing",
        "product-graph-file-int", "repnum-r-string", "prn-float", "product-r-string",
        "check-k2-numbers-true", "check-k2-word-cap-true", "check-oracle-cap-false",
        "check-quotient-r-true", "check-block-prns-true", "check-witness-true",
        "repnum-k2-r-true", "prn-k2-prn-true", "capped-word-cap-true", "product-r-true",
        "check-quotient-n-true", "check-quotient-vertex-true", "decompose-block-map-true",
        "decompose-blocks-vertex-true", "decompose-quotient-vertex-true", "product-n-true",
        "product-m-float", "product-at-true", "product-word-cap-true",
    ],
)
def test_verify_malformed_report_exits_64(capsys, tmp_path, argv, mangle):
    _, out, _ = run(capsys, *argv)
    report_path = write_report(tmp_path, json.dumps(mangle(json.loads(out))))
    vcode, vout, verr = run(capsys, "verify", argv[1], report_path)
    assert vcode == 64 and vout == ""
    assert verr.startswith("error: malformed") and verr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "nonascii.graph"),
        ("verify", FIXTURES / "c6.graph", "notutf8.json"),
        ("verify", FIXTURES / "c6.graph", "missing.json"),
        ("verify", FIXTURES / "c6.graph", "notjson.json"),
        ("product", FIXTURES / "k2.graph", "missing.graph", "--op", "lex"),
    ],
    ids=[
        "check-graph-not-ascii", "verify-report-not-utf8", "verify-report-missing",
        "verify-report-not-json", "product-input-missing",
    ],
)
def test_input_error_exits_64_with_one_line(capsys, tmp_path, monkeypatch, argv):
    (tmp_path / "nonascii.graph").write_bytes("# café\n2 1\n0 1\n".encode("utf-8"))
    (tmp_path / "notutf8.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "notjson.json").write_text("{not json")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_70_with_traceback(capsys, monkeypatch):
    def broken(g, caps):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("wordrep.cli.classify", broken)
    code, out, err = run(capsys, "check", FIXTURES / "w6.graph")
    assert code == 70 and out == ""
    assert "Traceback" in err and "RecursionError" in err


def test_verify_product_report_against_emitted_file(capsys, tmp_path):
    out_path = tmp_path / "w6.graph"
    code, out, _ = run(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c6.graph",
        "--op", "substitute", "--at", "0", "--numbers", "--out", out_path,
    )
    assert code == 0
    report_path = write_report(tmp_path, out)
    vcode, vout, _ = run(capsys, "verify", out_path, report_path)
    assert vcode == 0 and json.loads(vout)["valid"] is True


@pytest.mark.parametrize(
    "counts",
    [{"n": 3, "m": 999}, {"n": 3}, {"m": 999}, {"m": None}],
    ids=["both", "n", "m", "m-null"],
)
def test_verify_replays_a_product_reports_n_and_m(capsys, tmp_path, counts):
    # C5[K2] has 10 vertices and 25 edges; a report that says otherwise
    # used to verify, since its n and m were never read
    out_path = tmp_path / "c5k2.graph"
    _, out, _ = run(
        capsys,
        "product", FIXTURES / "c5.graph", FIXTURES / "k2.graph", "--op", "lex",
        "--out", out_path,
    )
    report = json.loads(out)
    assert (report["n"], report["m"]) == (10, 25)
    for report, code in ((report, 0), ({**report, **counts}, 1)):
        report_path = write_report(tmp_path, json.dumps(report))
        vcode, vout, _ = run(capsys, "verify", out_path, report_path)
        assert vcode == code and json.loads(vout)["valid"] is (code == 0)


@pytest.mark.parametrize(
    "target, graph_file",
    [(FIXTURES / "c6.graph", None), (None, "not a graph")],
    ids=["against-a-factor", "graph-file-does-not-parse"],
)
def test_verify_rejects_a_product_report_its_graph_file_does_not_back(
    capsys, tmp_path, target, graph_file
):
    # a product report replays against the graph it emitted: K2[C6] checked
    # against C6 fails, and so does the emitted graph when the report's copy
    # of it does not parse
    out_path = tmp_path / "k2c6.graph"
    _, out, _ = run(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c6.graph",
        "--op", "lex", "--numbers", "--out", out_path,
    )
    report = json.loads(out)
    if graph_file is not None:
        report["graph_file"] = graph_file
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", target or out_path, report_path)
    assert vcode == 1 and json.loads(vout)["valid"] is False


def graph_json(path: Path) -> dict:
    g = parse_graph_text(path.read_text())
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def reduced_to_itself(name: str):
    return lambda report: {
        **report, "status": "reduced-to-quotient", "witness": None, "certificate": None,
        "perm_certificate": None, "quotient": graph_json(FIXTURES / name),
    }


@pytest.mark.parametrize(
    "name, mangle",
    [
        # W5's rim is a module that is not a comparability graph, and K2 is
        # complete: classify decides both at any caps
        ("w5.graph", reduced_to_itself("w5.graph")),
        ("k2.graph", reduced_to_itself("k2.graph")),
        # W6 has blocks of prn 1 and 3 over a K2 quotient, so r = 3
        ("w6.graph", lambda report: {
            **report, "numbers": {**report["numbers"], "block_prns": [99, 99], "quotient_r": 7},
        }),
    ],
    ids=["w5-reduced-to-w5", "k2-reduced-to-k2", "w6-block-numbers"],
)
def test_verify_rejects_check_claims_classify_never_makes(capsys, tmp_path, name, mangle):
    _, out, _ = run(capsys, "check", FIXTURES / name)
    report_path = write_report(tmp_path, json.dumps(mangle(json.loads(out))))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / name, report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize(
    "argv, mangle",
    [
        # C5 is not a comparability graph, so no permutational word represents it
        (("prn", FIXTURES / "c5.graph"), lambda report: {
            **report, "numbers": {"prn": 3},
            "certificate": {"word": "0 1 2 3 4 4 3 2 1 0 0 1 2 3 4", "k": 3,
                            "mode": "permutational"},
        }),
        # R(C6) = 2 and prn(C6) = 3, past the cap of 1, so both searches are capped
        (REPNUM_C6_CAP_1, lambda report: {**report, "numbers": {"r": 2}}),
        (PRN_C6_CAP_1, lambda report: {**report, "numbers": {"prn": 3}}),
    ],
    ids=["prn-not-comparability-with-prn", "repnum-capped-with-r", "prn-capped-with-prn"],
)
def test_verify_rejects_a_number_on_a_report_that_is_not_ok(capsys, tmp_path, argv, mangle):
    # only an ok repnum or prn report carries a number and a certificate
    _, out, _ = run(capsys, *argv)
    report_path = write_report(tmp_path, json.dumps(mangle(json.loads(out))))
    vcode, vout, _ = run(capsys, "verify", argv[1], report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


LEX_K2_C6 = ("product", FIXTURES / "k2.graph", FIXTURES / "c6.graph", "--op", "lex",
             "--numbers", "--out", "lex.graph")
LEX_K2_K2 = ("product", FIXTURES / "k2.graph", FIXTURES / "k2.graph", "--op", "lex",
             "--numbers", "--out", "lex.graph")


def non_uniform(word: str):
    """A mangle that puts ``word`` in the certificate with k and r null."""
    return lambda report: {
        **report, "certificate": {**report["certificate"], "word": word, "k": None},
        "numbers": {**report["numbers"], "r": None},
    }


def appended_zero(report):
    return non_uniform(report["certificate"]["word"] + " 0")(report)


@pytest.mark.parametrize(
    "argv, mangle",
    [
        (("check", FIXTURES / "c5.graph"),
         lambda report: {**report, "numbers": {**report["numbers"], "r": None}}),
        (("repnum", FIXTURES / "c6.graph"), lambda report: {**report, "numbers": {"r": None}}),
        (("prn", FIXTURES / "c6.graph"), lambda report: {**report, "numbers": {"prn": None}}),
        # the certificate stays, with no number for it to back
        (LEX_K2_C6, lambda report: {**report, "numbers": {**report["numbers"], "r": None}}),
        # a word that is not uniform has no multiplicity, so it backs no
        # number, and a null one least of all
        (("repnum", FIXTURES / "k2.graph"), non_uniform("0 1 0")),
        (("check", FIXTURES / "c6.graph"), appended_zero),
        (LEX_K2_K2, non_uniform("0 1 2 3 0")),
    ],
    ids=[
        "check-c5-r-null", "repnum-c6-r-null", "prn-c6-prn-null", "product-lex-r-null",
        "repnum-k2-non-uniform", "check-c6-non-uniform", "product-lex-k2-k2-non-uniform",
    ],
)
def test_verify_rejects_a_positive_claim_without_its_number(
    capsys, tmp_path, monkeypatch, argv, mangle
):
    # a certificate backs a claim only at the number claimed; with the number
    # null these reports used to verify (exit 0)
    monkeypatch.chdir(tmp_path)
    target = argv[-1] if "--out" in argv else argv[1]
    _, out, _ = run(capsys, *argv)
    for report, code in ((json.loads(out), 0), (mangle(json.loads(out)), 1)):
        report_path = write_report(tmp_path, json.dumps(report))
        vcode, vout, _ = run(capsys, "verify", target, report_path)
        assert vcode == code
        assert json.loads(vout)["valid"] is (code == 0)


@pytest.mark.parametrize("command", ["check", "repnum", "prn"])
def test_verify_rejects_a_certificate_whose_k_is_a_boolean(capsys, tmp_path, command):
    # K2's certificate is 1-uniform, and json reads true as 1
    _, out, _ = run(capsys, command, FIXTURES / "k2.graph")
    report = json.loads(out)
    report["certificate"]["k"] = True
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "k2.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize("command", ["check", "repnum"])
def test_verify_rejects_a_certificate_whose_k_is_not_its_words(capsys, tmp_path, command):
    # C6's certificate is 2-uniform; the report's k must be null or 2
    _, out, _ = run(capsys, command, FIXTURES / "c6.graph")
    report = json.loads(out)
    report["certificate"]["k"] = 3
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "c6.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize(
    "numbers",
    [{"block_prns": ["a", "b"]}, {"block_prns": 3}, {"quotient_r": "1"}, {"prn": "3"}],
    ids=["block-prns-strings", "block-prns-int", "quotient-r-string", "prn-string"],
)
def test_verify_check_numbers_of_the_wrong_type_exit_64(capsys, tmp_path, numbers):
    _, out, _ = run(capsys, "check", FIXTURES / "w6.graph")
    report = json.loads(out)
    report["numbers"].update(numbers)
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, verr = run(capsys, "verify", FIXTURES / "w6.graph", report_path)
    assert vcode == 64 and vout == ""
    assert verr.startswith("error: malformed")


def test_verify_replays_product_certificates_despite_a_numbers_error(capsys, tmp_path):
    # a numbers_error used to skip every certificate replay; here the word
    # 0 1 ... 11 represents K12, not K2[C6]
    out_path = tmp_path / "k2c6.graph"
    _, out, _ = run(
        capsys,
        "product", FIXTURES / "k2.graph", FIXTURES / "c6.graph",
        "--op", "lex", "--numbers", "--out", out_path,
    )
    report = json.loads(out)
    report["certificate"].update(word=" ".join(map(str, range(12))), k=1)
    report["numbers"]["r"] = 1
    report["numbers_error"] = "forged"
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", out_path, report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


def test_verify_replays_the_certificate_of_a_product_with_a_capped_prn(capsys, tmp_path):
    # C6[K2] has r = 2 within word cap 2, but prn(C6) = 3 is above it: the
    # report carries the r certificate next to its numbers_error
    out_path = tmp_path / "c6k2.graph"
    code, out, _ = run(
        capsys,
        "product", FIXTURES / "c6.graph", FIXTURES / "k2.graph",
        "--op", "lex", "--numbers", "--word-cap", "2", "--out", out_path,
    )
    report = json.loads(out)
    assert code == 0
    assert report["numbers"] == {"r": 2, "prn": None}
    assert report["numbers_error"] == "cap exceeded: realizer search capped at k=2"
    assert report["certificate"]["k"] == 2 and report["perm_certificate"] is None
    report_path = write_report(tmp_path, out)
    vcode, vout, _ = run(capsys, "verify", out_path, report_path)
    assert vcode == 0 and json.loads(vout)["valid"] is True
    # a 2-uniform word for K12 in its place does not replay
    report["certificate"]["word"] = " ".join(map(str, [*range(12), *range(12)]))
    report_path = write_report(tmp_path, json.dumps(report))
    vcode, vout, _ = run(capsys, "verify", out_path, report_path)
    assert vcode == 1 and json.loads(vout)["valid"] is False


def test_product_lex_numbers_of_a_word_representable_non_comparability_factor(capsys):
    # C5 is word-representable but not a comparability graph, so C5[K2] has
    # r = 2 and no prn, and that is no numbers error
    code, report = report_of(
        capsys,
        "product", FIXTURES / "c5.graph", FIXTURES / "k2.graph",
        "--op", "lex", "--numbers",
    )
    assert code == 0
    assert report["numbers"] == {"r": 2, "prn": None}
    assert report["perm_certificate"] is None and "numbers_error" not in report


# ------------------------------------------------------------------ cap plumbing


def test_env_var_sets_default_cap(capsys, monkeypatch):
    monkeypatch.setenv("WORDREP_WORD_CAP", "1")
    code, report = report_of(capsys, "repnum", FIXTURES / "c6.graph")
    assert code == 2 and report["status"] == "cap-exceeded"
    # explicit flag wins over the environment
    code, report = report_of(capsys, "repnum", FIXTURES / "c6.graph", "--cap", "2")
    assert code == 0 and report["numbers"]["r"] == 2
    # a value that is not an integer is ignored with a warning
    monkeypatch.setenv("WORDREP_WORD_CAP", "abc")
    code, out, err = run(capsys, "repnum", FIXTURES / "c6.graph")
    assert code == 0 and json.loads(out)["caps"]["word_cap"] == 4
    assert err == "warning: ignoring non-integer WORDREP_WORD_CAP='abc'\n"


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["check", "c6.graph", "--word-cap", "0"], None, 64),
        (["check", "k2.graph", "--word-cap", "0"], None, 64),
        (["repnum", "c6.graph", "--cap", "0"], None, 64),
        (["prn", "c6.graph", "--cap", "0"], None, 64),
        (["product", "k2.graph", "c6.graph", "--op", "lex", "--numbers",
          "--word-cap", "0"], None, 64),
        (["repnum", "c6.graph"], "0", 64),
        (["check", "c6.graph", "--word-cap", "x"], None, 64),
        (["check"], None, 64),
        (["check", "--help"], None, 0),
    ],
    ids=["check", "check-k2", "repnum", "prn", "product", "env", "not-int",
         "no-path", "help"],
)
def test_bad_caps_and_usage_errors_exit_64(capsys, monkeypatch, argv, env, code):
    if env is not None:
        monkeypatch.setenv("WORDREP_WORD_CAP", env)
    argv = [str(FIXTURES / a) if a.endswith(".graph") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["check", "w5.graph", "--oracle-cap", "-1"], None),
        (["product", "k2.graph", "c6.graph", "--op", "lex", "--numbers",
          "--oracle-cap", "-1"], None),
        (["verify", "w5.graph", "w5.graph", "--replay-cap", "-1"], None),
        (["check", "w5.graph"], "-3"),
        (["check", "w5.graph", "--oracle-cap", "many"], None),
    ],
    ids=["check", "product", "verify", "env", "not-int"],
)
def test_negative_edge_caps_exit_64(capsys, monkeypatch, argv, env):
    # a negative oracle or replay cap used to be echoed in the report, or to
    # make a replay exit 2 as if the cap had been reached
    if env is not None:
        monkeypatch.setenv("WORDREP_ORACLE_CAP", env)
    argv = [str(FIXTURES / a) if a.endswith(".graph") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "edge cap" in capsys.readouterr().err


def test_zero_edge_cap_is_a_cap(capsys):
    # C5 is prime and no comparability graph: word search decides it when
    # the oracle may not run
    code, report = report_of(capsys, "check", FIXTURES / "c5.graph", "--oracle-cap", "0")
    assert report["caps"]["oracle_edge_cap"] == 0
    assert code == 0 and report["status"] == "word-representable"


def test_reports_echo_effective_caps(capsys):
    _, report = report_of(capsys, "check", FIXTURES / "k2.graph")
    assert report["caps"] == {"word_cap": 4, "oracle_edge_cap": 24}
