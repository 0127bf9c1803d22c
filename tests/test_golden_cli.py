"""Exact CLI reports, pinned so that refactors of the command layer cannot
change what `wordrep` prints or how it exits.

Each case runs `wordrep.cli.main` from inside `tests/fixtures/`, so the
`path` echoed in a report is the bare file name. The expected stdout and exit
code of every case live in `golden_cli.json` next to this file. After a
deliberate change to the reports, rewrite that file with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from wordrep.cli import ORACLE_CAP_ENV, WORD_CAP_ENV, main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden_cli.json"

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.graph"))
CHECK_CAP_1 = ("--word-cap", "1", "--oracle-cap", "1")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in FIXTURE_NAMES:
        stem = name.removesuffix(".graph")
        cases[f"check-{stem}"] = ["check", name]
        cases[f"check-{stem}-cap1"] = ["check", name, *CHECK_CAP_1]
        for command in ("repnum", "prn"):
            cases[f"{command}-{stem}"] = [command, name]
            cases[f"{command}-{stem}-cap1"] = [command, name, "--cap", "1"]
        cases[f"decompose-{stem}"] = ["decompose", name]
    for inner in ("c5", "c6"):
        for op in (["lex"], ["substitute", "--at", "0"]):
            argv = ["product", "k2.graph", f"{inner}.graph", "--op", *op, "--numbers"]
            case = f"product-{op[0]}-k2-{inner}"
            cases[case] = argv
            cases[f"{case}-cap1"] = [*argv, *CHECK_CAP_1]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> dict:
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_is_pinned(case, golden, monkeypatch):
    monkeypatch.delenv(WORD_CAP_ENV, raising=False)
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    monkeypatch.chdir(FIXTURES)
    assert _run(CASES[case]) == golden[case]


if __name__ == "__main__":
    os.environ.pop(WORD_CAP_ENV, None)
    os.environ.pop(ORACLE_CAP_ENV, None)
    os.chdir(FIXTURES)
    recorded = {case: _run(argv) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
