import json
from pathlib import Path

import pytest

from wordrep import make_graph
from wordrep.cli import main
from wordrep.io import GraphFileError, format_graph_text, parse_graph_text
from helpers import cycle, wheel

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
    _, report = report_of(capsys, "check", FIXTURES / "k2.graph", "--timing")
    assert "timing_ms" in report
    _, report = report_of(capsys, "check", FIXTURES / "k2.graph")
    assert "timing_ms" not in report


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


def test_prn_k5(capsys, tmp_path):
    f = tmp_path / "k5.graph"
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    f.write_text(f"5 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, report = report_of(capsys, "prn", f)
    assert code == 0 and report["numbers"]["prn"] == 1


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
    "name,command",
    [
        ("w5.graph", "check"),
        ("w6.graph", "check"),
        ("c6.graph", "check"),
        ("c6.graph", "repnum"),
        ("c6.graph", "prn"),
        ("c5.graph", "prn"),
        ("w6.graph", "decompose"),
    ],
)
def test_verify_accepts_fresh_reports(capsys, tmp_path, name, command):
    path = FIXTURES / name
    _, vcode, vreport = roundtrip_verify(capsys, tmp_path, path, command, path)
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


def test_verify_rejects_wrong_input_digest(capsys, tmp_path):
    code, out, _ = run(capsys, "repnum", FIXTURES / "c6.graph")
    report_path = write_report(tmp_path, out)
    vcode, vout, _ = run(capsys, "verify", FIXTURES / "c5.graph", report_path)
    assert vcode == 1
    assert json.loads(vout)["valid"] is False


@pytest.mark.parametrize(
    "mangle",
    [
        lambda report: [report],  # a list, not an object
        lambda report: {k: v for k, v in report.items() if k != "caps"},
        lambda report: {**report, "caps": {**report["caps"], "bogus_cap": 1}},
    ],
    ids=["list", "missing-caps", "unknown-cap-key"],
)
def test_verify_malformed_report_exits_64(capsys, tmp_path, mangle):
    _, out, _ = run(capsys, "check", FIXTURES / "w6.graph")
    report_path = write_report(tmp_path, json.dumps(mangle(json.loads(out))))
    vcode, vout, verr = run(capsys, "verify", FIXTURES / "w6.graph", report_path)
    assert vcode == 64 and vout == ""
    assert verr.startswith("error: malformed") and verr.count("\n") == 1


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


# ------------------------------------------------------------------ cap plumbing


def test_env_var_sets_default_cap(capsys, monkeypatch):
    monkeypatch.setenv("WORDREP_WORD_CAP", "1")
    code, report = report_of(capsys, "repnum", FIXTURES / "c6.graph")
    assert code == 2 and report["status"] == "cap-exceeded"
    # explicit flag wins over the environment
    code, report = report_of(capsys, "repnum", FIXTURES / "c6.graph", "--cap", "2")
    assert code == 0 and report["numbers"]["r"] == 2


def test_reports_echo_effective_caps(capsys):
    _, report = report_of(capsys, "check", FIXTURES / "k2.graph")
    assert report["caps"] == {"word_cap": 4, "oracle_edge_cap": 24}
