"""spherecover benchmark: three seeded workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload knots-finite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics declared in BENCHMARK.json
(plus set-up time from fresh interpreters); ``--trace 1`` runs half the
time untraced, replays the same items with the layer hooks of
:mod:`tracing` installed, and reports the per-layer metrics.  The last
line of standard output is the JSON result; the line before it records
machine drift (cores, Python, load, a calibration loop, ``src/`` lines).
A missing program or a failed set-up exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# The box this runs on changes speed by up to 2x within seconds (shared
# cores).  Every timing is therefore taken next to a short pure-Python
# calibration and scaled to the speed at which the calibration takes
# CALIBRATION_REF_S: "reference seconds".  Raw wall times go to the
# machine line, reported but not gated.
CALIBRATION_REF_S = 0.0012
# String hashing decides the iteration order of the library's sets and
# dicts, and with it how long an item takes: one space-form spec moved by
# 12 % between hash seeds.  Every run therefore uses the same hash seed.
HASH_SEED = "0"

TREFOIL = ("warmup", "pd", "[(1,4,2,5),(3,6,4,1),(5,2,6,3)]")
WARMUP = {
    "knots-finite": TREFOIL,
    "knots-capped": TREFOIL,
    "spaceforms": ("cyclic", 3, 1, 0),
}


class SetupError(Exception):
    pass


def load_workload(name):
    """Import the package, load the config, and return (run_item, check) for a workload."""
    if not (SRC / "spherecover" / "__init__.py").is_file():
        raise SetupError(f"no program at {SRC / 'spherecover'}")
    sys.path.insert(0, str(SRC))
    from spherecover import analyzer, config, spaceforms

    config.load_config()

    def knot(row, cap=None):
        kwargs = {} if cap is None else {"coset_cap": cap}
        return analyzer.run_corpus([row], **kwargs).reports[0].to_record()

    def spaceform(spec):
        family, m, p, k = spec
        cert = spaceforms.build(spaceforms.SpaceFormSpec(family, m=m, p=p, k=k))
        verdicts = spaceforms.verify(cert)
        return {
            "checks": {name: ok for name, (ok, _) in verdicts.items()},
            "spin_order": cert.pi_hat.order,
            "so4_order": cert.pi.order,
            "abelianization_order": cert.abelianization.order(),
        }

    return {
        "knots-finite": (knot, checks.check_finite_knot),
        "knots-capped": (lambda row: knot(row, inputs.CAPPED_COSET_CAP), checks.check_capped_knot),
        "spaceforms": (spaceform, checks.check_spaceform),
    }[name]


def set_up(name):
    """Import, config load and one warm-up item: what ``setup_s`` times."""
    run_item, check = load_workload(name)
    run_item(WARMUP[name])
    return run_item, check


def calibrate():
    """Seconds a fixed pure-Python loop takes right now.

    Integer arithmetic with no data to keep in cache, so the items around it
    cannot change its time; only the machine's speed can.
    """
    t0 = perf_counter()
    sum(i * i for i in range(20_000))
    return perf_counter() - t0


def measure_setup(name):
    """Median set-up time, in reference seconds, over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def probe(name):
    """Time :func:`set_up` in this fresh interpreter between two calibrations."""
    before = calibrate()
    t0 = perf_counter()
    set_up(name)
    wall = perf_counter() - t0
    print(wall * 2 * CALIBRATION_REF_S / (before + calibrate()))


@dataclass
class Pass:
    item_s: list = field(default_factory=list)  # raw wall seconds
    item_ref_s: list = field(default_factory=list)  # reference seconds
    block_s: list = field(default_factory=list)
    block_ref_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    blocks: list = field(default_factory=list)


def run_blocks(run_item, check, blocks, seconds=None, tracer=None):
    """Run whole blocks, stopping at the first block boundary after ``seconds``.

    Each item is timed between two calibrations and scaled by their mean.
    Every item starts from the same garbage-collector state: what set-up
    left alive is frozen, and what earlier items left is collected
    untimed.  Collections an item triggers itself stay in its time.
    """
    gc.collect()
    gc.freeze()
    out = Pass()
    start = perf_counter()
    cal = calibrate()
    for block in blocks:
        block_raw = block_ref = 0.0
        for item, expected in block:
            if tracer is not None:
                tracer.item = len(out.item_s)
            gc.collect()
            t0 = perf_counter()
            try:
                result = run_item(item)
                problems = None
            except Exception as exc:  # a raising item is a counted failure, not a crash
                problems = [f"{type(exc).__name__}: {exc}"]
            raw = perf_counter() - t0
            after = calibrate()
            ref = raw * 2 * CALIBRATION_REF_S / (cal + after)
            cal = after
            out.item_s.append(raw)
            out.item_ref_s.append(ref)
            block_raw += raw
            block_ref += ref
            if problems is None:
                problems = check(result, expected)
            if problems:
                out.failures.append((item, problems))
        out.block_s.append(block_raw)
        out.block_ref_s.append(block_ref)
        out.blocks.append(block)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return out


def timing_metrics(item_s, block_s):
    p90 = statistics.quantiles(item_s, n=10)[-1] if len(item_s) > 1 else item_s[0]
    return {
        "items_per_s": len(item_s) / sum(item_s),
        "item_ms_p50": statistics.median(item_s) * 1000.0,
        "item_ms_p90": p90 * 1000.0,
        "block_s": statistics.median(block_s),
    }


def end_to_end(run, setup_s):
    n = len(run.item_s)
    return {
        **timing_metrics(run.item_ref_s, run.block_ref_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (n - len(run.failures)) / n,
    }


def machine_drift(runs):
    """Reported, never gated: what moves timings between otherwise identical runs."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "calibration_ms": statistics.median(calibrate() for _ in range(15)) * 1000.0,
        "speed_vs_reference": sum(sum(r.item_ref_s) for r in runs)
        / sum(sum(r.item_s) for r in runs),
        "raw_wall": timing_metrics(runs[0].item_s, runs[0].block_s),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def bench(args):
    if not args.trace:
        setup_s = measure_setup(args.workload)
        run_item, check = set_up(args.workload)
        run = run_blocks(run_item, check, inputs.blocks(args.workload, args.seed), args.seconds)
        runs, values, section = [run], end_to_end(run, setup_s), "end_to_end"
    else:
        run_item, check = set_up(args.workload)
        plain = run_blocks(run_item, check, inputs.blocks(args.workload, args.seed),
                           args.seconds / 2)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced = run_blocks(run_item, check, plain.blocks, tracer=tracer)
        finally:
            restore()
        if tracer.missing:
            print(f"perfbench: missing hooks {tracer.missing}", file=sys.stderr)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        runs = [plain, traced]
        values = tracing.layer_metrics(
            tracer, sum(traced.item_s), sum(traced.item_ref_s) / sum(plain.item_ref_s) - 1.0
        )
        section = "per_layer"
    metrics = {}
    for name, unit in declared(section):
        if name not in values:
            print(f"perfbench: metric {name} missing, reported as 0", file=sys.stderr)
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    failures = [f for r in runs for f in r.failures]
    for item, problems in failures[:20]:
        print(f"perfbench: FAILED {item!r}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"machine": machine_drift(runs)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(r.item_s) for r in runs),
        "failed": len(failures),
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    parser.add_argument("--probe", choices=inputs.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            probe(args.probe)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        bench(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
