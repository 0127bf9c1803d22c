"""Command-line surface: check, repnum, prn, decompose, product, verify.

Reports are JSON on stdout, diagnostics on stderr. For fixed input bytes
and caps the report is byte-stable; pass --timing to add a timing field.

Exit codes: 0 decided positively (word-representable / comparability /
computed), 1 negative (not word-representable / not a comparability graph /
failed verification), 2 no information under the caps, 64 input error
(including a malformed report given to verify), 70 internal error (the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .characterizer import Caps, Status, Verdict, classify
from .characterizer import verify as verify_verdict
from .errors import CapExceeded, DomainError
from .graphs import Graph, is_connected, make_graph
from .io import GraphFileError, format_graph_text, parse_graph_text
from .modular import lex_product, maximal_modular_partition, substitute
from .orientations import DEFAULT_ORACLE_EDGE_CAP, find_transitive_orientation
from .representation import (
    DEFAULT_WORD_CAP,
    PERMUTATIONAL,
    Representation,
    lex_prn,
    lex_rep_number,
    prn_composed,
    prn_of_orientation,
    rep_number,
    rep_number_composed,
)
from .words import word_from_text, word_to_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_NO_INFORMATION = 2
EXIT_INPUT_ERROR = 64
EXIT_INTERNAL_ERROR = 70

WORD_CAP_ENV = "WORDREP_WORD_CAP"
ORACLE_CAP_ENV = "WORDREP_ORACLE_CAP"


def _env_default(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer {name}={raw!r}", file=sys.stderr)
        return fallback


def _load_graph(path: str) -> tuple[Graph, bytes]:
    with open(path, "rb") as fh:
        data = fh.read()
    g = parse_graph_text(data.decode("ascii"))
    if g.n == 0:
        raise GraphFileError("graph has no vertices")
    return g, data


def _input_json(path: str, data: bytes) -> dict:
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def _cert_json(rep: Representation | None) -> dict | None:
    if rep is None:
        return None
    return {"word": word_to_text(rep.word), "k": rep.k, "mode": rep.mode}


def _print_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _caps_json(caps: Caps) -> dict:
    return {"word_cap": caps.word_cap, "oracle_edge_cap": caps.oracle_edge_cap}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _connected_input(path: str):
    g, data = _load_graph(path)
    if not is_connected(g):
        raise GraphFileError("graph is not connected")
    return g, data


def cmd_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        g, data = _connected_input(args.path)
    except (OSError, GraphFileError) as exc:
        return _fail(str(exc))
    caps = Caps(args.word_cap, args.oracle_cap)
    verdict = classify(g, caps)
    report = {
        "command": "check",
        "input": _input_json(args.path, data),
        "caps": _caps_json(caps),
        "status": verdict.status.value,
        "witness": sorted(verdict.witness) if verdict.witness is not None else None,
        "certificate": _cert_json(verdict.certificate),
        "perm_certificate": _cert_json(verdict.perm_certificate),
        "numbers": {
            "r": verdict.r_number,
            "prn": verdict.prn_number,
            "block_prns": list(verdict.block_prns) if verdict.block_prns else None,
            "quotient_r": verdict.quotient_r,
        },
        "quotient": _graph_json(verdict.quotient_ref)
        if verdict.quotient_ref is not None
        else None,
    }
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _print_report(report)
    return {
        Status.WORD_REPRESENTABLE: EXIT_OK,
        Status.COMPARABILITY: EXIT_OK,
        Status.NOT_WORD_REPRESENTABLE: EXIT_NEGATIVE,
        Status.REDUCED_TO_QUOTIENT: EXIT_NO_INFORMATION,
    }[verdict.status]


def cmd_repnum(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        g, data = _connected_input(args.path)
    except (OSError, GraphFileError) as exc:
        return _fail(str(exc))
    rep = rep_number(g, args.cap)
    report = {
        "command": "repnum",
        "input": _input_json(args.path, data),
        "caps": {"word_cap": args.cap},
        "status": "ok" if rep is not None else "cap-exceeded",
        "certificate": _cert_json(rep),
        "numbers": {"r": rep.k if rep is not None else None},
    }
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _print_report(report)
    return EXIT_OK if rep is not None else EXIT_NO_INFORMATION


def cmd_prn(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        g, data = _connected_input(args.path)
    except (OSError, GraphFileError) as exc:
        return _fail(str(exc))
    o = find_transitive_orientation(g)
    if o is None:
        status, rep, code = "not-comparability", None, EXIT_NEGATIVE
    else:
        rep = prn_of_orientation(o, args.cap)
        if rep is None:
            status, code = "cap-exceeded", EXIT_NO_INFORMATION
        else:
            status, code = "ok", EXIT_OK
    report = {
        "command": "prn",
        "input": _input_json(args.path, data),
        "caps": {"word_cap": args.cap},
        "status": status,
        "certificate": _cert_json(rep),
        "numbers": {"prn": rep.k if rep is not None else None},
    }
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _print_report(report)
    return code


def cmd_decompose(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        g, data = _connected_input(args.path)
    except (OSError, GraphFileError) as exc:
        return _fail(str(exc))
    if g.n == 1:
        blocks: list[list[int]] = [[0]]
        quotient_graph = make_graph(1, [])
        block_map: tuple[int, ...] = (0,)
    else:
        partition = maximal_modular_partition(g)
        blocks = [sorted(b) for b in partition.blocks]
        quotient_graph = partition.quotient
        block_map = partition.block_map
    report = {
        "command": "decompose",
        "input": _input_json(args.path, data),
        "status": "ok",
        "blocks": blocks,
        "block_map": list(block_map),
        "quotient": _graph_json(quotient_graph),
    }
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _print_report(report)
    return EXIT_OK


def cmd_product(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        g, data_g = _load_graph(args.path_g)
        h, data_h = _load_graph(args.path_h)
    except (OSError, GraphFileError) as exc:
        return _fail(str(exc))
    if args.op == "substitute":
        if args.at is None:
            return _fail("--op substitute requires --at PIVOT")
        if not 0 <= args.at < g.n:
            return _fail(f"pivot {args.at} not in 0..{g.n - 1}")
        product, _, _ = substitute(g, args.at, h)
    else:
        product, _ = lex_product(g, h)
    caps = Caps(args.word_cap, args.oracle_cap)
    report = {
        "command": "product",
        "inputs": [
            _input_json(args.path_g, data_g),
            _input_json(args.path_h, data_h),
        ],
        "op": args.op,
        "at": args.at if args.op == "substitute" else None,
        "status": "ok",
        "caps": _caps_json(caps),
        "graph_file": format_graph_text(product),
        "n": product.n,
        "m": product.m,
    }
    if args.numbers:
        numbers: dict = {"r": None, "prn": None}
        certificate = perm_certificate = None
        try:
            if args.op == "substitute":
                rep = rep_number_composed(
                    g, args.at, h, caps.word_cap, caps.oracle_edge_cap
                )
            else:
                rep = lex_rep_number(g, h, caps.word_cap, caps.oracle_edge_cap)
            numbers["r"] = rep.k
            certificate = _cert_json(rep)
            try:
                if args.op == "substitute":
                    perm = prn_composed(g, args.at, h, caps.word_cap)
                else:
                    perm = lex_prn(g, h, caps.word_cap)
                numbers["prn"] = perm.k
                perm_certificate = _cert_json(perm)
            except DomainError:
                pass  # h passed as a comparability graph above, so g is not one
        except DomainError as exc:
            report["numbers_error"] = str(exc)
        except CapExceeded as exc:
            report["numbers_error"] = f"cap exceeded: {exc}"
        report["numbers"] = numbers
        report["certificate"] = certificate
        report["perm_certificate"] = perm_certificate
    if args.out is not None:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(report["graph_file"])
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _print_report(report)
    return EXIT_OK


def _certificate(cert, g: Graph) -> Representation | None:
    """A report's certificate rebuilt as a Representation of g, or None if
    it does not replay (the constructor re-checks the word)."""
    if cert is None:
        return None
    try:
        return Representation(word_from_text(cert["word"]), cert["k"], cert["mode"], g)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def _cert_replays(cert, g: Graph, claimed_k, permutational: bool) -> bool:
    rep = _certificate(cert, g)
    if rep is None or (permutational and rep.mode != PERMUTATIONAL):
        return False
    return claimed_k is None or rep.k == claimed_k


def _field(report: dict, key: str, kind: type, default=None):
    """report[key], or ``default`` when it is absent or null.

    Raises TypeError when the field holds another type.
    """
    value = report.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise TypeError(f"{key!r} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _check_verdict(report: dict, numbers: dict, g: Graph) -> Verdict:
    """The Verdict a check report was printed from.

    Raises AttributeError, KeyError, TypeError or ValueError when the
    report is malformed.
    """
    witness = _field(report, "witness", list)
    if witness is not None and not all(isinstance(v, int) for v in witness):
        raise TypeError("'witness' must list vertex numbers")
    q = report.get("quotient")
    return Verdict(
        Status(report["status"]),
        Caps(**report["caps"]),
        witness=frozenset(witness) if witness is not None else None,
        certificate=_certificate(report.get("certificate"), g),
        perm_certificate=_certificate(report.get("perm_certificate"), g),
        r_number=numbers.get("r"),
        prn_number=numbers.get("prn"),
        quotient_ref=make_graph(q["n"], [tuple(e) for e in q["edges"]])
        if q is not None
        else None,
    )


def _replay_report(
    report: dict, command, digest, numbers: dict, graph_file: str,
    verdict: Verdict | None, g: Graph, data: bytes, replay_cap: int,
) -> bool:
    if command in ("check", "repnum", "prn", "decompose"):
        if digest != hashlib.sha256(data).hexdigest():
            return False
    status = report.get("status")

    if command == "check":
        return verify_verdict(verdict, g, replay_cap)
    if command == "repnum":
        if status == "cap-exceeded":
            return report.get("certificate") is None
        return _cert_replays(report.get("certificate"), g, numbers.get("r"), False)
    if command == "prn":
        if status == "not-comparability":
            return find_transitive_orientation(g) is None
        if status == "cap-exceeded":
            return find_transitive_orientation(g) is not None
        return _cert_replays(report.get("certificate"), g, numbers.get("prn"), True)
    if command == "decompose":
        if g.n == 1:
            return report.get("blocks") == [[0]]
        partition = maximal_modular_partition(g)
        return (
            report.get("blocks") == [sorted(b) for b in partition.blocks]
            and report.get("block_map") == list(partition.block_map)
            and report.get("quotient") == _graph_json(partition.quotient)
        )
    if command == "product":
        try:
            emitted = parse_graph_text(graph_file)
        except GraphFileError:
            return False
        if emitted != g:
            return False
        if "numbers_error" in report:
            return True
        return all(
            report.get(key) is None
            or _cert_replays(report[key], g, numbers.get(number), permutational)
            for key, number, permutational in (
                ("certificate", "r", False),
                ("perm_certificate", "prn", True),
            )
        )
    return False


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        g, data = _load_graph(args.path)
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, GraphFileError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    try:
        command = report.get("command")
        digest = _field(report, "input", dict, {}).get("sha256")
        numbers = _field(report, "numbers", dict, {})
        graph_file = _field(report, "graph_file", str, "")
        verdict = _check_verdict(report, numbers, g) if command == "check" else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed report: {exc!r}")
    try:
        valid = _replay_report(
            report, command, digest, numbers, graph_file, verdict, g, data,
            args.replay_cap,
        )
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_INFORMATION
    _print_report(
        {
            "command": "verify",
            "report_command": command,
            "input": _input_json(args.path, data),
            "valid": valid,
        }
    )
    return EXIT_OK if valid else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    word_cap = _env_default(WORD_CAP_ENV, DEFAULT_WORD_CAP)
    oracle_cap = _env_default(ORACLE_CAP_ENV, DEFAULT_ORACLE_EDGE_CAP)
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representability, comparability, and representation "
        "numbers of small graphs, with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_timing(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--timing", action="store_true", help="add a timing_ms field to the report"
        )

    p = sub.add_parser("check", help="decide word-representability with certificates")
    p.add_argument("path")
    p.add_argument("--word-cap", type=int, default=word_cap)
    p.add_argument("--oracle-cap", type=int, default=oracle_cap)
    add_timing(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repnum", help="representation number by uniform-word search")
    p.add_argument("path")
    p.add_argument("--cap", type=int, default=word_cap)
    add_timing(p)
    p.set_defaults(func=cmd_repnum)

    p = sub.add_parser("prn", help="permutation-representation number")
    p.add_argument("path")
    p.add_argument("--cap", type=int, default=word_cap)
    add_timing(p)
    p.set_defaults(func=cmd_prn)

    p = sub.add_parser("decompose", help="maximal modular partition and quotient")
    p.add_argument("path")
    add_timing(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("product", help="substitution or lexicographical product")
    p.add_argument("path_g")
    p.add_argument("path_h")
    p.add_argument("--op", choices=("lex", "substitute"), required=True)
    p.add_argument("--at", type=int, default=None, help="pivot vertex for substitute")
    p.add_argument("--numbers", action="store_true",
                   help="also compute representation numbers and certificates")
    p.add_argument("--out", default=None, help="write the product graph file here")
    p.add_argument("--word-cap", type=int, default=word_cap)
    p.add_argument("--oracle-cap", type=int, default=oracle_cap)
    add_timing(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="replay a report's certificates against a graph")
    p.add_argument("path")
    p.add_argument("report")
    p.add_argument("--replay-cap", type=int, default=oracle_cap)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception:
        import traceback  # imported here: it costs every cold start several ms

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
