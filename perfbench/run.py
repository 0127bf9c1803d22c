"""Benchmark of the wordrep decision pipeline, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload atlas7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: atlas7, refute, composite (library: one operation is
``classify`` then ``verify`` on one graph at the default caps) and cli (one
operation is one cold ``wordrep check`` or ``wordrep verify`` process).
The runner imports wordrep from ``src/`` of the checkout it sits in, makes
its inputs from the seed, times whole passes over them (a fixed amount of
work, sized so that it takes about ``--seconds`` at the commit that added the
benchmark), checks every answer and prints one JSON result as its last
line. It exits 1 if any answer or certificate is wrong, 2 if it cannot run.
End-to-end times are scaled to a reference machine speed, measured by a
fixed loop between operations (see MachineSpeed).

With ``--trace 1`` it makes a traced, an untraced and a traced pass over
the same inputs and reports per-layer calls and self times instead; the
two traced passes must agree on every count. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_right
from math import ceil
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import SEMI_TRANSITIVE, WORD_SEARCH, Tracer, layer_totals  # noqa: E402

SETUP_REPEATS = 11
PROBE_EVERY_S = 0.25
# time of MachineSpeed.probe() on the 2-vCPU Xeon where the benchmark was written,
# in its usual state; the end-to-end times are scaled to this speed
REFERENCE_PROBE_S = 0.010
IMPORT_PROBES = 5
HARD_LIMIT_S = 140  # cut a pass here, so that a run ends within 180 s
PROCESS_TIMEOUT_S = 60
CLI_LAUNCH = "import sys; from wordrep.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wordrep.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "representation.word_search.levels": "count",
    "representation.word_search.self_s": "s",
    "representation.word_search.found_ratio": "ratio",
    "orientations.semi_transitive.calls": "count",
    "orientations.semi_transitive.self_s": "s",
    "orientations.semi_transitive.refuted_ratio": "ratio",
    "orientations.realizer.calls": "count",
    "orientations.realizer.self_s": "s",
    "orientations.realizer.max_call_s": "s",
    "orientations.realizer.errors": "count",
    "orientations.transitive.calls": "count",
    "orientations.transitive.self_s": "s",
    "orientations.transitive.errors": "count",
    "modular.partition.calls": "count",
    "modular.partition.self_s": "s",
    "words.represents.calls": "count",
    "words.represents.self_s": "s",
    "characterizer.classify.calls": "count",
    "characterizer.classify.self_s": "s",
    "characterizer.verify.calls": "count",
    "characterizer.verify.self_s": "s",
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "io.parse.calls": "count",
    "io.parse.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclasses.dataclass
class Record:
    """One operation of one pass."""

    pass_no: int
    key: str  # case id, with the command for cli operations
    case: workloads.Case
    seconds: float
    result: str
    route: str
    status: str
    error: str
    detail: str


class MachineSpeed:
    """Samples a fixed pure-Python loop between operations.

    On a shared VM, identical work runs up to 1.8 times faster or slower from
    one minute to the next. The loop's time moves with it, so scaling the
    measured times by speed() = REFERENCE_PROBE_S / mean loop time removes most
    of that drift while leaving the program's own changes in place.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0

    def probe(self) -> None:
        started = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        self.samples.append(perf_counter() - started)
        self.last = perf_counter()

    def maybe_probe(self) -> None:
        if perf_counter() - self.last > PROBE_EVERY_S:
            self.probe()

    def speed(self) -> float:
        return REFERENCE_PROBE_S / statistics.mean(self.samples)


# --- set-up -------------------------------------------------------------------


def import_wordrep():
    """Import wordrep from src/ afresh, dropping any copy already loaded."""
    for key in [k for k in sys.modules if k == "wordrep" or k.startswith("wordrep.")]:
        del sys.modules[key]
    wr = importlib.import_module("wordrep")
    if Path(wr.__file__).resolve().parent != SRC / "wordrep":
        raise RuntimeError(f"wordrep imported from {wr.__file__}, not from {SRC}")
    return wr


def set_up(cases, machine: MachineSpeed):
    """Import wordrep and build the Graph values, SETUP_REPEATS times.

    Returns the last module and graphs, and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        machine.probe()
        started = perf_counter()
        wr = import_wordrep()
        graphs = [wr.make_graph(c.n, c.edges) for c in cases]
        times.append(perf_counter() - started)
    return wr, graphs, statistics.median(times)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WORDREP_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_import_seconds() -> float:
    """Median time to import wordrep.cli in a fresh process."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=PROCESS_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


# --- operations ---------------------------------------------------------------


def library_ops(wr, graphs, tracer=None):
    """One operation per case: classify then verify, at the default caps."""
    caps = wr.Caps()

    def run(index, case):
        g = graphs[index]
        if tracer is not None:
            tracer.case = case.id
        verdict = valid = classify_error = verify_error = None
        started = perf_counter_ns()
        try:
            verdict = wr.classify(g, caps)
        except Exception as exc:  # recorded as an outcome of this input
            classify_error = exc
        else:
            try:
                valid = wr.verify(verdict, g, caps.oracle_edge_cap)
            except Exception as exc:
                verify_error = exc
        seconds = (perf_counter_ns() - started) / 1e9
        judged = checks.judge_library(
            case, verdict, valid, classify_error, verify_error, wr.CapExceeded
        )
        return [(case.id, seconds) + judged]

    return run


def _run_process(argv, workdir, case_id, tracer):
    """Run one cold wordrep process; return (exit code, stdout, seconds)."""
    if tracer is None:
        cmd = [sys.executable, "-c", CLI_LAUNCH, *argv]
    else:
        spans_file = workdir / "spans.jsonl"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), case_id, "--", *argv]
    started = perf_counter_ns()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=PROCESS_TIMEOUT_S,
        )
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, ""
    seconds = (perf_counter_ns() - started) / 1e9
    if tracer is not None and spans_file.exists():
        with open(spans_file, encoding="ascii") as fh:
            tracer.counts.update(json.loads(fh.readline())["counts"])
            offset = len(tracer.spans)
            for line in fh:
                name, start, end, parent, case = json.loads(line)
                tracer.spans.append(
                    [name, start, end, parent + offset if parent >= 0 else -1, case]
                )
        spans_file.unlink()
    return code, out, seconds


def _report(out: str):
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def cli_ops(workdir: Path, tracer=None):
    """Two operations per case: a cold check, then a cold verify of its report."""

    def run(index, case):
        code, out, check_s = _run_process(["check", case.path], workdir, case.id, tracer)
        report = _report(out)
        result, status, detail = checks.judge_check_process(case, code, report)
        rows = [(f"{case.id}/check", check_s, result, "cli", status, "", detail)]
        if report is None:
            rows.append((f"{case.id}/verify", 0.0, checks.FAILED, "cli", status, "", "no report"))
            return rows
        report_path = workdir / f"{case.id}.json"
        report_path.write_text(out, encoding="utf-8")
        code, out, verify_s = _run_process(
            ["verify", case.path, str(report_path)], workdir, case.id, tracer
        )
        v_result, v_detail = checks.judge_verify_process(code, _report(out))
        if v_result == checks.DECIDED_OK and result != checks.DECIDED_OK:
            v_result = checks.UNDECIDED  # replaying an undecided report decides nothing
        rows.append((f"{case.id}/verify", verify_s, v_result, "cli", status, "", v_detail))
        return rows

    return run


# --- measuring ----------------------------------------------------------------


def measure(cases, op, passes: int, first_pass: int = 0, machine=None) -> list[Record]:
    """Time ``passes`` whole passes over the cases, stopping early at HARD_LIMIT_S.

    With ``machine``, the machine's speed is probed between operations.
    """
    records: list[Record] = []
    started = perf_counter()
    for pass_no in range(first_pass, first_pass + passes):
        for index, case in enumerate(cases):
            for key, secs, result, route, status, error, detail in op(index, case):
                records.append(
                    Record(pass_no, key, case, secs, result, route, status, error, detail)
                )
            if machine is not None:
                machine.maybe_probe()
            if perf_counter() - started > HARD_LIMIT_S:
                return records
    return records


def tail_percentile(values) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples above it.

    Percentiles are nearest-rank. Returns (percentile, value, samples above).
    """
    xs = sorted(values)
    for q in range(99, 0, -1):
        value = xs[max(0, ceil(q * len(xs) / 100) - 1)]
        beyond = len(xs) - bisect_right(xs, value)
        if beyond >= 10:
            return q, value, beyond
    raise ValueError(f"no percentile of {len(xs)} samples has ten samples above it")


def end_to_end(records: list[Record], setup_s: float, rss_mb: float, speed: float):
    """The end-to-end metrics, with times scaled to the reference machine speed."""
    completed = [r for r in records if r.result != checks.FAILED]
    busy = sum(r.seconds for r in records)
    per_key: dict[str, list[float]] = {}
    for r in completed:
        per_key.setdefault(r.key, []).append(r.seconds * 1000)
    latencies = [statistics.median(v) for v in per_key.values()]
    q, tail, beyond = tail_percentile(latencies)
    decided = sum(r.result == checks.DECIDED_OK for r in records)
    measured = {
        "graphs_per_s": len(completed) / busy,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "setup_s": setup_s,
    }
    metrics = {
        "graphs_per_s": measured["graphs_per_s"] / speed,
        "latency_p50_ms": measured["latency_p50_ms"] * speed,
        "latency_tail_ms": tail * speed,
        "decided_ratio": decided / len(records),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s * speed,
    }
    notes = {key: f"measured {value:.6g}" for key, value in measured.items()}
    notes["latency_tail_ms"] += f"; p{q} of {len(latencies)} inputs, {beyond} above it"
    notes["decided_ratio"] = f"{decided} of {len(records)} operations"
    return metrics, notes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def per_layer(traced, untraced_s: float, import_s: float):
    """Per-layer metrics from two traced passes, and any disagreement between them."""
    (spans_a, counts_a, wall_a), (spans_b, counts_b, wall_b) = traced
    tot_a, tot_b = layer_totals(spans_a), layer_totals(spans_b)
    problems = [
        f"{name} calls differ: {tot_a.get(name, {}).get('calls')} vs {tot_b.get(name, {}).get('calls')}"
        for name in sorted(set(tot_a) | set(tot_b))
        if tot_a.get(name, {}).get("calls") != tot_b.get(name, {}).get("calls")
    ]
    if counts_a != counts_b:
        problems.append(f"counts differ: {dict(counts_a)} vs {dict(counts_b)}")

    def calls(name):
        return tot_a.get(name, {}).get("calls", 0)

    def self_s(name):
        return (tot_a.get(name, {}).get("self_s", 0.0) + tot_b.get(name, {}).get("self_s", 0.0)) / 2

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "representation.word_search.levels": counts_a[WORD_SEARCH + ".levels"],
        "representation.word_search.self_s": self_s(WORD_SEARCH),
        "representation.word_search.found_ratio": ratio(
            counts_a[WORD_SEARCH + ".found"], counts_a[WORD_SEARCH + ".levels"]
        ),
        "orientations.semi_transitive.calls": calls(SEMI_TRANSITIVE),
        "orientations.semi_transitive.self_s": self_s(SEMI_TRANSITIVE),
        "orientations.semi_transitive.refuted_ratio": ratio(
            counts_a[SEMI_TRANSITIVE + ".refuted"], calls(SEMI_TRANSITIVE)
        ),
        "orientations.realizer.max_call_s": max(
            t.get("orientations.realizer", {}).get("max_call_s", 0.0) for t in (tot_a, tot_b)
        ),
        "cli.import_s": import_s,
        "trace.overhead_ratio": (wall_a + wall_b) / 2 / untraced_s,
    }
    for name in (
        "orientations.realizer", "orientations.transitive", "modular.partition",
        "words.represents", "characterizer.classify", "characterizer.verify",
        "cli.main", "io.parse",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("orientations.realizer", "orientations.transitive"):
        metrics[f"{name}.errors"] = counts_a[f"{name}.errors"]
    total = sum(self_s(name) for name in tot_a)
    shares = {name: self_s(name) / total for name in tot_a} if total else {}
    return {k: metrics[k] for k in PER_LAYER_UNITS}, shares, problems


# --- output -------------------------------------------------------------------


def write_outcomes(path: Path, records: list[Record]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tinput\tkind\tn\tm\troute\tstatus\tresult\terror\tms\tdetail\n")
        for r in records:
            fh.write(
                f"{r.pass_no}\t{r.key}\t{r.case.kind}\t{r.case.n}\t{len(r.case.edges)}\t"
                f"{r.route}\t{r.status}\t{r.result}\t{r.error}\t{r.seconds * 1000:.3f}\t{r.detail}\n"
            )


def write_spans(path: Path, traced) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for pass_no, (spans, _, _) in enumerate(traced):
            for span in spans:
                fh.write(json.dumps([pass_no, *span]) + "\n")


def atlas_gate(records: list[Record]) -> list[str]:
    """atlas7 yields 26 non-representable verdicts per pass: 1 on 6 and 25 on 7 vertices."""
    problems = []
    for pass_no in sorted({r.pass_no for r in records}):
        rows = [r for r in records if r.pass_no == pass_no]
        if len(rows) != 995 or any(r.result != checks.DECIDED_OK for r in rows):
            continue  # undecided or unfinished passes are judged per input
        by_n: dict[int, int] = {}
        for r in rows:
            if r.status == workloads.NOT_WORD_REPRESENTABLE:
                by_n[r.case.n] = by_n.get(r.case.n, 0) + 1
        if by_n != {6: 1, 7: 25}:
            problems.append(f"pass {pass_no}: non-representable verdicts by n {by_n}")
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    cases = workloads.WORKLOADS[name](seed, seconds)
    is_cli = name == "cli"
    workdir = OUT / f"{name}-seed{seed}-work"
    if is_cli:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        for i, case in enumerate(cases):
            if case.path is None:
                path = workdir / f"{case.id}.graph"
                path.write_text(workloads.format_graph(case.n, case.edges), encoding="ascii")
                cases[i] = dataclasses.replace(case, path=str(path))
    machine = MachineSpeed()
    try:
        wr, graphs, setup_s = set_up(cases, machine)

        def ops(tracer=None):
            return cli_ops(workdir, tracer) if is_cli else library_ops(wr, graphs, tracer)

        if not trace:
            records = measure(cases, ops(), workloads.passes(name, seconds), 0, machine)
            machine.probe()
            all_records = records
        else:
            # traced, untraced, traced: the one-time costs of the first pass
            # fall on both sides of the overhead ratio
            tracer = Tracer()

            def traced_pass(pass_no):
                tracer.reset()
                if not is_cli:  # cli children install their own tracer
                    tracer.install()
                try:
                    recs = measure(cases, ops(tracer), 1, pass_no)
                finally:
                    tracer.uninstall()
                return recs, (tracer.spans, tracer.counts, sum(r.seconds for r in recs))

            first, trace_a = traced_pass(0)
            records = measure(cases, ops(), 1, 1)
            last, trace_b = traced_pass(2)
            traced = [trace_a, trace_b]
            untraced_s = sum(r.seconds for r in records)
            all_records = first + records + last
            import_s = cli_import_seconds()
    finally:
        if is_cli:
            shutil.rmtree(workdir, ignore_errors=True)

    suffix = "-trace" if trace else ""
    write_outcomes(OUT / f"{name}-seed{seed}{suffix}.tsv", all_records)
    problems = [
        f"{r.key}: {r.detail}" for r in all_records if r.result == checks.WRONG
    ]
    if name == "atlas7":
        problems += atlas_gate(all_records)
    failed = sum(r.result == checks.FAILED for r in records)
    print(f"workload {name}, seed {seed}: {len(cases)} inputs, "
          f"{len(records)} operations, {failed} failed "
          f"(fail_ratio {failed / len(records):.4f})")
    if not trace:
        speed = machine.speed()
        print(f"machine speed {speed:.4f} of the reference ({len(machine.samples)} probes)")
        metrics, notes = end_to_end(records, setup_s, peak_rss_mb(children=is_cli), speed)
        units = END_TO_END_UNITS
    else:
        metrics, shares, trace_problems = per_layer(traced, untraced_s, import_s)
        problems += trace_problems
        notes = {}
        units = PER_LAYER_UNITS
        write_spans(OUT / f"{name}-seed{seed}-spans.jsonl", traced)
        print("self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
        ))
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:45s} {value:.6g} {units[key]}{note}")
    for problem in problems:
        print(f"WRONG {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in a fresh process."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = max(code, proc.returncode)
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "wordrep" / "__init__.py").is_file():
        print(f"error: no wordrep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
