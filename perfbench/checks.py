"""Independent checks of the program's answers.

The alternation check here shares no code with ``wordrep.words``: two
letters alternate iff their merged occurrence positions never repeat a
letter, which for k-uniform words costs O(k) per pair.
"""

from __future__ import annotations

from workloads import COMPARABILITY, NOT_WORD_REPRESENTABLE, WORD_REPRESENTABLE, Case

DECIDED = (COMPARABILITY, WORD_REPRESENTABLE, NOT_WORD_REPRESENTABLE)

# outcome of one operation, from best to worst
DECIDED_OK = "decided"
UNDECIDED = "undecided"  # reduced-to-quotient verdict or CapExceeded
FAILED = "failed"  # any other exception, or an unexpected cli exit
WRONG = "wrong"  # a decided answer or certificate that is not correct


def _alternate(pu: list[int], pv: list[int]) -> bool:
    i = j = 0
    last = None
    while i < len(pu) or j < len(pv):
        take_u = j == len(pv) or (i < len(pu) and pu[i] < pv[j])
        if take_u == last:
            return False
        last = take_u
        if take_u:
            i += 1
        else:
            j += 1
    return True


def word_problem(word, n: int, edges, k: int | None, permutational: bool = False) -> str | None:
    """Why ``word`` is not a k-uniform word representing the graph, or None."""
    positions: list[list[int]] = [[] for _ in range(n)]
    for i, c in enumerate(word):
        if not 0 <= c < n:
            return f"letter {c} outside 0..{n - 1}"
        positions[c].append(i)
    if k is None or any(len(p) != k for p in positions):
        return f"word is not {k}-uniform"
    if permutational:
        for i in range(k):
            if len(set(word[i * n : (i + 1) * n])) != n:
                return f"block {i} is not a permutation"
    edge_set = set(edges)
    for u in range(n):
        for v in range(u + 1, n):
            if _alternate(positions[u], positions[v]) != ((u, v) in edge_set):
                return f"pair {u},{v} alternates wrongly"
    return None


def answer_problems(case: Case, status: str, r, prn, word, perm_word) -> list[str]:
    """Compare a decided answer with the expected one and re-check its words."""
    exp = case.expected
    if status != exp.status:
        return [f"status {status}, expected {exp.status}"]
    problems = []
    if status in (COMPARABILITY, WORD_REPRESENTABLE):
        if r != exp.r:
            problems.append(f"r={r}, expected {exp.r}")
        why = word_problem(word, case.n, case.edges, r) if word is not None else "no word"
        if why:
            problems.append(f"certificate: {why}")
    if status == COMPARABILITY:
        if prn != exp.prn:
            problems.append(f"prn={prn}, expected {exp.prn}")
        why = (
            word_problem(perm_word, case.n, case.edges, prn, permutational=True)
            if perm_word is not None
            else "no word"
        )
        if why:
            problems.append(f"permutational certificate: {why}")
    return problems


def route_of(verdict) -> str:
    """The decision route, as far as the verdict's fields show it."""
    status = verdict.status.value
    if status == "reduced-to-quotient":
        return "reduced"
    if verdict.block_prns is not None or verdict.witness is not None:
        return "modular"
    if status == NOT_WORD_REPRESENTABLE:
        return "oracle"
    if status == COMPARABILITY:
        return "complete" if verdict.r_number == 1 else "prime-transitive"
    return "prime-word-search"


def judge_library(case: Case, verdict, valid, classify_error, verify_error, cap_type):
    """Outcome of classify + verify: (result, route, status, error, detail)."""
    if classify_error is not None:
        name = type(classify_error).__name__
        if isinstance(classify_error, cap_type):
            return UNDECIDED, "capped", "-", name, str(classify_error)[:120]
        return FAILED, "error", "-", name, str(classify_error)[:120]
    status = verdict.status.value
    route = route_of(verdict)
    problems = []
    if status in DECIDED:
        problems = answer_problems(
            case,
            status,
            verdict.r_number,
            verdict.prn_number,
            verdict.certificate.word if verdict.certificate else None,
            verdict.perm_certificate.word if verdict.perm_certificate else None,
        )
    if verify_error is None and valid is not True:
        problems.append("verify rejected the verdict")
    if problems:
        return WRONG, route, status, "", "; ".join(problems)
    if verify_error is not None:
        name = type(verify_error).__name__
        if isinstance(verify_error, cap_type):
            return UNDECIDED, route, status, name, str(verify_error)[:120]
        return FAILED, route, status, name, str(verify_error)[:120]
    if status not in DECIDED:
        return UNDECIDED, route, status, "", ""
    return DECIDED_OK, route, status, "", ""


CHECK_EXIT = {
    COMPARABILITY: 0,
    WORD_REPRESENTABLE: 0,
    NOT_WORD_REPRESENTABLE: 1,
    "reduced-to-quotient": 2,
}


def judge_check_process(case: Case, code: int, report: dict | None):
    """Outcome of a cold ``wordrep check``: (result, status, detail)."""
    if report is None or not isinstance(report.get("status"), str):
        return FAILED, "-", f"exit {code} without a report"
    status = report["status"]
    if CHECK_EXIT.get(status) != code:
        return FAILED, status, f"exit {code} for status {status}"
    if status not in DECIDED:
        return UNDECIDED, status, ""
    numbers = report.get("numbers") or {}

    def word(key):
        cert = report.get(key)
        return tuple(int(c) for c in cert["word"].split()) if cert else None

    problems = answer_problems(
        case, status, numbers.get("r"), numbers.get("prn"),
        word("certificate"), word("perm_certificate"),
    )
    if problems:
        return WRONG, status, "; ".join(problems)
    return DECIDED_OK, status, ""


def judge_verify_process(code: int, report: dict | None):
    """Outcome of a cold ``wordrep verify`` on a check report: (result, detail)."""
    if code == 0 and report is not None and report.get("valid") is True:
        return DECIDED_OK, ""
    if code == 1 and report is not None and report.get("valid") is False:
        return WRONG, "verify rejected the check report"
    if code == 2 and report is None:
        return UNDECIDED, "replay exceeds the cap"
    return FAILED, f"exit {code}"
