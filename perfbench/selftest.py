"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every checker accepts the library's real output on a seeded item and
   rejects the same output against a deliberately wrong expected answer.
2. A tiny run of every workload, untraced and traced, prints a correct
   result that carries every metric declared in BENCHMARK.json, with its
   unit, and reports none of them missing; the traced run's spans nest.
3. A hook whose target has disappeared is reported as missing.

Exits 0 when all of this holds, 1 otherwise, printing each failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import inputs
import run
import tracing

HERE = Path(__file__).resolve().parent


def first_item(workload, want):
    for block in inputs.blocks(workload, 0):
        for item, expected in block:
            if want(item, expected):
                return item, expected


def checker_cases():
    """(name, checker, output, expected, should_pass) built from real library runs."""
    cases = []

    run_item, _ = run.load_workload("knots-finite")
    item, exp = first_item("knots-finite", lambda i, e: e["classification"].startswith("cyclic"))
    rec = run_item(item)
    p = exp["det"]
    cases += [
        ("finite knot, closed form", checks.check_finite_knot, rec, exp, True),
        ("finite knot vs cyclic(p+2)", checks.check_finite_knot, rec,
         {**exp, "classification": f"cyclic({p + 2})"}, False),
        ("finite knot vs cover order p+2", checks.check_finite_knot, rec,
         {**exp, "cover_order": p + 2}, False),
        ("finite knot vs H1 Z/(p+2)", checks.check_finite_knot, rec,
         {**exp, "h1": f"Z/{p + 2}"}, False),
    ]
    item, exp = first_item("knots-finite", lambda i, e: e["classification"] == "icosahedral")
    rec = run_item(item)
    cases += [
        ("Markov T(3,5), closed form", checks.check_finite_knot, rec, exp, True),
        ("Markov T(3,5) vs tetrahedral", checks.check_finite_knot, rec,
         {**exp, "classification": "tetrahedral"}, False),
    ]

    run_item, _ = run.load_workload("knots-capped")
    item, exp = first_item("knots-capped", lambda i, e: True)
    rec = run_item(item)
    cases += [
        ("capped row, closed-form det", checks.check_capped_knot, rec, exp, True),
        ("capped row vs det+2", checks.check_capped_knot, rec, {"det": exp["det"] + 2}, False),
        ("capped row labelled finite", checks.check_capped_knot,
         {**rec, "classification": "cyclic(5)"}, exp, False),
        ("capped row, certified infinite", checks.check_capped_knot,
         {**rec, "classification": "infinite"}, exp, True),
    ]

    run_item, _ = run.load_workload("spaceforms")
    item, exp = first_item("spaceforms", lambda i, e: i[0] == "cyclic")
    out = run_item(item)
    spin, so4 = exp["orders"]
    cases += [
        ("space form, closed-form orders", checks.check_spaceform, out, exp, True),
        ("space form vs |Spin|+2", checks.check_spaceform, out, {"orders": (spin + 2, so4)}, False),
        ("space form with a failed check", checks.check_spaceform,
         {**out, "checks": {**out["checks"], "6_fixed_points_conjugate": False}}, exp, False),
        ("space form with even abelianization", checks.check_spaceform,
         {**out, "abelianization_order": 2}, exp, False),
    ]
    return cases


def missing_hook_problems():
    """A hook whose target is gone is reported as missing, and install goes on."""
    tracer = tracing.Tracer()
    hooks = (("groups", "FiniteGroup.no_such_method", tracing.SPAN, "gone", None),
             ("knots", "determinant", tracing.SPAN, "determinant", None))
    tracing.install(tracer, hooks)()
    if tracer.missing != ["groups.FiniteGroup.no_such_method"]:
        return [f"missing hooks reported as {tracer.missing}"]
    if tracer.installed != {"knots.determinant"}:
        return [f"installed hooks {sorted(tracer.installed)}"]
    return []


def span_problems(path):
    """Every span ends after it starts and names an earlier span (or none) as parent."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    if not spans:
        return ["no spans written"]
    problems = []
    for i, (key, start, end, parent, item) in enumerate(spans):
        if end < start or not -1 <= parent < i or not isinstance(item, int):
            problems.append(f"span {i} {key}: start {start}, end {end}, parent {parent}, item {item}")
    return problems[:5]


def tiny_run(workload, trace, spans=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = span_problems(spans) if spans is not None else []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {proc.stderr.strip()[-300:]}")
    section = "per_layer" if trace else "end_to_end"
    for name, unit in run.declared(section):
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {name} [{unit}] absent or malformed: {got}")
    if "missing" in proc.stderr:
        problems.append(proc.stderr.strip()[-300:])
    return problems


def main():
    failures = []
    for name, checker, output, expected, should_pass in checker_cases():
        problems = checker(output, expected)
        if bool(problems) == should_pass:
            failures.append(f"checker case '{name}': got {problems or 'accepted'}")
        else:
            print(f"ok  checker: {name}")
    problems = missing_hook_problems()
    failures += [f"missing hook: {p}" for p in problems]
    if not problems:
        print("ok  a vanished hook is reported as missing")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in inputs.WORKLOADS:
            for trace in (0, 1):
                spans = Path(tmp) / f"{workload}.jsonl" if trace else None
                problems = tiny_run(workload, trace, spans)
                failures += [f"{workload} --trace {trace}: {p}" for p in problems]
                if not problems:
                    print(f"ok  tiny run: {workload} --trace {trace}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
