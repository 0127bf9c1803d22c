"""Command-line surface: check, repnum, prn, decompose, product, verify.

Reports are JSON on stdout, diagnostics on stderr. For fixed input bytes
and caps the report is byte-stable; pass --timing to add a timing field.

Exit codes: 0 decided positively (word-representable / comparability /
computed), 1 negative (not word-representable / not a comparability graph /
failed verification), 2 no information under the caps (including a verify
replay past --replay-cap), 64 input error (a usage error, a word cap
below 1 or an edge cap below 0, a missing or malformed graph file or
report, a graph file that is not ASCII, a report that is not UTF-8, an
empty or disconnected graph, a bad pivot), 70 internal error (the traceback
goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .characterizer import Caps, Status, Verdict, certificate_replays, classify
from .characterizer import verify as verify_verdict
from .errors import CapExceeded, DomainError
from .graphs import Graph, is_connected, make_graph
from .io import GraphFileError, format_graph_text, parse_graph_text, write_graph_file
from .modular import lex_product, maximal_modular_partition, substitute
from .orientations import DEFAULT_ORACLE_EDGE_CAP, find_transitive_orientation
from .representation import (
    DEFAULT_WORD_CAP,
    Representation,
    prn,
    product_certificates,
    rep_number,
)
from .words import word_from_text, word_to_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_NO_INFORMATION = 2
EXIT_INPUT_ERROR = 64
EXIT_INTERNAL_ERROR = 70

WORD_CAP_ENV = "WORDREP_WORD_CAP"
ORACLE_CAP_ENV = "WORDREP_ORACLE_CAP"


def _env_default(name: str, fallback: int) -> str:
    """The option default from the environment, as text, so that argparse
    checks it with the option's type."""
    raw = os.environ.get(name, str(fallback))
    try:
        int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer {name}={raw!r}", file=sys.stderr)
        return str(fallback)
    return raw


def _cap_type(what: str, env: str, least: int):
    """An argparse type for a cap: an integer of at least ``least``."""

    def parse(text: str) -> int:
        try:
            cap = int(text)
        except ValueError:
            cap = least - 1
        if cap < least:
            raise argparse.ArgumentTypeError(
                f"{what} (flag or {env}) must be an integer of at least {least},"
                f" not {text!r}"
            )
        return cap

    return parse


_word_cap = _cap_type("a word cap", WORD_CAP_ENV, 1)
_edge_cap = _cap_type("an edge cap", ORACLE_CAP_ENV, 0)


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error: argparse's own code, 2, means "no
    information under the caps" here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


class InputError(Exception):
    """Bad input (a graph file, an option, a report); main prints the message
    and exits 64."""


def _load_graph(path: str, connected: bool = True) -> tuple[Graph, dict]:
    """The nonempty (and, if asked, connected) graph in the file at path, with
    the {"path", "sha256"} echo a report carries for it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        g = parse_graph_text(data.decode("ascii"))
    except (OSError, UnicodeDecodeError, GraphFileError) as exc:
        raise InputError(str(exc)) from None
    if g.n == 0:
        raise InputError("graph has no vertices")
    if connected and not is_connected(g):
        raise InputError("graph is not connected")
    return g, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def _cert_json(rep: Representation | None) -> dict | None:
    if rep is None:
        return None
    return {"word": word_to_text(rep.word), "k": rep.k, "mode": rep.mode}


def _caps_json(caps: Caps) -> dict:
    return {"word_cap": caps.word_cap, "oracle_edge_cap": caps.oracle_edge_cap}


def _decomposition_json(g: Graph) -> dict:
    """The blocks, block map and quotient of g's maximal modular partition."""
    if g.n == 1:
        return {"blocks": [[0]], "block_map": [0], "quotient": _graph_json(g)}
    partition = maximal_modular_partition(g)
    return {
        "blocks": [sorted(b) for b in partition.blocks],
        "block_map": list(partition.block_map),
        "quotient": _graph_json(partition.quotient),
    }


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    g, echo = _load_graph(args.path)
    caps = Caps(args.word_cap, args.oracle_cap)
    verdict = classify(g, caps)
    report = {
        "command": "check",
        "input": echo,
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
    return report, {
        Status.WORD_REPRESENTABLE: EXIT_OK,
        Status.COMPARABILITY: EXIT_OK,
        Status.NOT_WORD_REPRESENTABLE: EXIT_NEGATIVE,
        Status.REDUCED_TO_QUOTIENT: EXIT_NO_INFORMATION,
    }[verdict.status]


def cmd_repnum(args: argparse.Namespace) -> tuple[dict, int]:
    g, echo = _load_graph(args.path)
    rep = rep_number(g, args.cap)
    report = {
        "command": "repnum",
        "input": echo,
        "caps": {"word_cap": args.cap},
        "status": "ok" if rep is not None else "cap-exceeded",
        "certificate": _cert_json(rep),
        "numbers": {"r": rep.k if rep is not None else None},
    }
    return report, EXIT_OK if rep is not None else EXIT_NO_INFORMATION


def cmd_prn(args: argparse.Namespace) -> tuple[dict, int]:
    g, echo = _load_graph(args.path)
    rep = prn(g, args.cap)
    if rep is not None:
        status, code = "ok", EXIT_OK
    elif find_transitive_orientation(g) is None:
        status, code = "not-comparability", EXIT_NEGATIVE
    else:
        status, code = "cap-exceeded", EXIT_NO_INFORMATION
    report = {
        "command": "prn",
        "input": echo,
        "caps": {"word_cap": args.cap},
        "status": status,
        "certificate": _cert_json(rep),
        "numbers": {"prn": rep.k if rep is not None else None},
    }
    return report, code


def cmd_decompose(args: argparse.Namespace) -> tuple[dict, int]:
    g, echo = _load_graph(args.path)
    report = {"command": "decompose", "input": echo, "status": "ok"}
    return {**report, **_decomposition_json(g)}, EXIT_OK


def cmd_product(args: argparse.Namespace) -> tuple[dict, int]:
    g, echo_g = _load_graph(args.path_g, connected=False)
    h, echo_h = _load_graph(args.path_h, connected=False)
    if (args.op == "substitute") != (args.at is not None):
        raise InputError("--op substitute requires --at PIVOT, and --op lex takes none")
    if args.at is None:
        product, _ = lex_product(g, h)
    elif 0 <= args.at < g.n:
        product, _, _ = substitute(g, args.at, h)
    else:
        raise InputError(f"pivot {args.at} not in 0..{g.n - 1}")
    caps = Caps(args.word_cap, args.oracle_cap)
    report = {
        "command": "product",
        "inputs": [echo_g, echo_h],
        "op": args.op,
        "at": args.at,
        "status": "ok",
        "caps": _caps_json(caps),
        "graph_file": format_graph_text(product),
        "n": product.n,
        "m": product.m,
    }
    if args.numbers:
        rep = perm = capped = None
        try:
            rep, perm, capped = product_certificates(g, h, args.at, args.word_cap, args.oracle_cap)
        except DomainError as exc:
            report["numbers_error"] = str(exc)
        except CapExceeded as exc:
            capped = str(exc)
        report["numbers"] = {"r": rep.k if rep else None, "prn": perm.k if perm else None}
        report["certificate"], report["perm_certificate"] = _cert_json(rep), _cert_json(perm)
        if capped is not None:
            report["numbers_error"] = f"cap exceeded: {capped}"
    if args.out is not None:
        write_graph_file(args.out, product)
    return report, EXIT_OK


def _integer(value) -> bool:
    """A JSON integer, not true or false: json reads those as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integers(value) -> bool:
    """True iff value passes ``_integer``, or is a list of such values or an
    object of such values and nulls, at any depth."""
    if isinstance(value, dict):
        return all(v is None or _integers(v) for v in value.values())
    return all(map(_integers, value)) if isinstance(value, list) else _integer(value)


def _certificate(cert, g: Graph) -> Representation | None:
    """A report's certificate rebuilt as a Representation of g, or None if
    it does not replay. The constructor is the one check of a report's
    word and reads its multiplicity, which a non-null ``k`` must equal."""
    try:
        rep = Representation(word_from_text(cert["word"]), cert["mode"], g)
        if cert["k"] is None or _integer(cert["k"]) and cert["k"] == rep.k:
            return rep
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    return None


def _field(report: dict, key: str, kind: type, default=None):
    """report[key], or ``default`` when it is absent or null.

    Raises TypeError when the field holds another type.
    """
    value = report.get(key)
    if value is None:
        return default
    if not (_integer(value) if kind is int else isinstance(value, kind)):
        raise TypeError(f"{key!r} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _check_verdict(report: dict, numbers: dict, g: Graph) -> Verdict:
    """The Verdict a check report was printed from.

    Raises AttributeError, KeyError, TypeError or ValueError when the
    report is malformed.
    """
    witness = _field(report, "witness", list)
    block_prns = _field(numbers, "block_prns", list)
    q = report.get("quotient")
    return Verdict(
        Status(report["status"]),
        Caps(**report["caps"]),
        witness=frozenset(witness) if witness is not None else None,
        certificate=_certificate(report.get("certificate"), g),
        perm_certificate=_certificate(report.get("perm_certificate"), g),
        r_number=_field(numbers, "r", int),
        prn_number=_field(numbers, "prn", int),
        block_prns=tuple(block_prns) if block_prns is not None else None,
        quotient_r=_field(numbers, "quotient_r", int),
        quotient_ref=make_graph(q["n"], [tuple(e) for e in q["edges"]])
        if q is not None
        else None,
    )


_SEARCH_STATUSES = {  # the statuses that repnum and prn print
    "repnum": ("ok", "cap-exceeded"),
    "prn": ("ok", "cap-exceeded", "not-comparability"),
}


def _replay_report(
    report: dict, command, numbers: dict, graph_file: str, verdict: Verdict | None,
    word_cap: int | None, g: Graph, replay_cap: int,
) -> bool:
    if command == "check":
        return verify_verdict(verdict, g, replay_cap)
    if command in ("repnum", "prn"):
        number = numbers.get("r" if command == "repnum" else "prn")
        if report["status"] == "ok":
            cert = _certificate(report.get("certificate"), g)
            return certificate_replays(cert, g, number, permutational=command == "prn")
        # only an ok report carries a certificate and a number
        if report.get("certificate") is not None or number is not None:
            return False
        if report["status"] == "not-comparability":
            return find_transitive_orientation(g) is None
        # cap-exceeded: rerun the search
        if g.m > replay_cap:
            raise CapExceeded(f"search replay: {g.m} edges exceed cap {replay_cap}")
        if command == "repnum":
            return rep_number(g, word_cap) is None
        return prn(g, word_cap) is None and find_transitive_orientation(g) is not None
    if command == "decompose":
        return all(report.get(k) == v for k, v in _decomposition_json(g).items())
    if command == "product":
        try:
            emitted = parse_graph_text(graph_file)
        except GraphFileError:
            return False
        if emitted != g or (report.get("n"), report.get("m")) != (g.n, g.m):
            return False
        return all(
            report.get(key) is None
            or certificate_replays(
                _certificate(report[key], g), g, numbers.get(number), perm
            )
            for key, number, perm in (
                ("certificate", "r", False),
                ("perm_certificate", "prn", True),
            )
        )
    return False


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    g, echo = _load_graph(args.path, connected=False)
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise InputError(str(exc)) from None
    try:
        command = report.get("command")
        digest = _field(report, "input", dict, {}).get("sha256")
        numbers = _field(report, "numbers", dict, {})
        # the fields that hold vertices and counts hold integers, at any depth
        for key in "caps numbers witness quotient blocks block_map n m at".split():
            if report.get(key) is not None and not _integers(report[key]):
                raise TypeError(f"{key!r} must hold integers")
        graph_file = _field(report, "graph_file", str, "")
        verdict = _check_verdict(report, numbers, g) if command == "check" else None
        word_cap = None
        if command in ("repnum", "prn"):
            if report.get("status") not in _SEARCH_STATUSES[command]:
                raise ValueError(f"a {command} report has no status {report.get('status')!r}")
            if report["status"] == "cap-exceeded":
                word_cap = report["caps"]["word_cap"]
                if not _integer(word_cap) or word_cap < 1:
                    raise ValueError(f"'word_cap' must be a positive int, not {word_cap!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed report: {exc!r}") from None
    # a product report names no single input; it is checked against the
    # graph file it emitted, which may be disconnected. Every other report
    # was made from a connected graph.
    valid = (
        command == "product" or (digest == echo["sha256"] and is_connected(g))
    ) and _replay_report(
        report, command, numbers, graph_file, verdict, word_cap, g, args.replay_cap
    )
    result = {"command": "verify", "report_command": command, "input": echo, "valid": valid}
    return result, EXIT_OK if valid else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    word_cap = _env_default(WORD_CAP_ENV, DEFAULT_WORD_CAP)
    oracle_cap = _env_default(ORACLE_CAP_ENV, DEFAULT_ORACLE_EDGE_CAP)
    parser = _Parser(
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
    p.add_argument("--word-cap", type=_word_cap, default=word_cap)
    p.add_argument("--oracle-cap", type=_edge_cap, default=oracle_cap)
    add_timing(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repnum", help="representation number by uniform-word search")
    p.add_argument("path")
    p.add_argument("--cap", type=_word_cap, default=word_cap)
    add_timing(p)
    p.set_defaults(func=cmd_repnum)

    p = sub.add_parser("prn", help="permutation-representation number")
    p.add_argument("path")
    p.add_argument("--cap", type=_word_cap, default=word_cap)
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
    p.add_argument("--word-cap", type=_word_cap, default=word_cap)
    p.add_argument("--oracle-cap", type=_edge_cap, default=oracle_cap)
    add_timing(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="replay a report's certificates against a graph")
    p.add_argument("path")
    p.add_argument("report")
    p.add_argument("--replay-cap", type=_edge_cap, default=oracle_cap)
    p.set_defaults(func=cmd_verify, timing=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.func(args)
        if args.timing:
            report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
        print(json.dumps(report, indent=2, sort_keys=True))
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CapExceeded as exc:  # raised only by a verify replay past --replay-cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_INFORMATION
    except Exception:
        import traceback  # imported here: it costs every cold start several ms

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
