"""Command-line front end.

Commands:
  knot analyze     one diagram through the cover pipeline, report out
  knot gen         emit a generated diagram as PD text
  spaceform verify one family member through the seven checks
  spaceform sweep  the default parameter sweep
  orbit profile    CSV of the quotient profile
  orbit compare    the distance-decreasing chain / doubling verdicts
  orbit validate   oracle gate for the closed-form profile
  corpus run       every corpus row, with optional result cache

Exit codes: 0 success; 1 bad input/parameters, usage errors and running out
of memory included; 3 failed space-form check or oracle mismatch; 4 corpus
row errors; 5 internal inconsistency (two computation routes disagree: a bug,
not bad input).  Code 2 is not used.  Reports are deterministic; timings
appear only with --timings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from . import analyzer, orbits, spaceforms
from .cache import ResultCache
from .config import FIELD_NAMES, load_config, packaged_corpus_text
from .errors import (
    InputFileError,
    InternalInconsistency,
    OracleMismatch,
    SpecViolation,
    SphereCoverError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 3
EXIT_ROW_ERRORS = 4
EXIT_INTERNAL = 5


def _emit_records(records, fmt, out):
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=False) + "\n")
        return
    # a row error adds a key the first record may lack: take every key, in
    # first-seen order
    keys = list(dict.fromkeys(k for rec in records for k in rec))
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        return
    if not records:
        out.write("(no rows)\n")
        return
    widths = {
        k: max(len(k), *(len(str(r.get(k, ""))) for r in records)) for k in keys
    }
    out.write("  ".join(k.ljust(widths[k]) for k in keys).rstrip() + "\n")
    for rec in records:
        out.write(
            "  ".join(str(rec.get(k, "")).ljust(widths[k]) for k in keys).rstrip()
            + "\n"
        )


def _knot_diagram_from_args(args, reduce=True):
    sources = [
        ("pd", args.pd),
        ("dt", args.dt),
        ("braid", args.braid),
        ("torus", args.torus),
        ("two_bridge", args.two_bridge),
        ("montesinos", args.montesinos),
    ]
    chosen = [(k, v) for k, v in sources if v]
    if len(chosen) != 1:
        raise SpecViolation("choose exactly one input among --pd/--dt/--braid/--torus/--two-bridge/--montesinos")
    kind, value = chosen[0]
    name = kind
    if kind in ("torus", "two_bridge"):
        kind = kind.replace("_", "")
        p, q = value
        name, value = f"{kind}({p},{q})", f"{p} {q}"
    return analyzer.diagram_from_payload(kind, value, name=args.name or name, reduce=reduce)


def cmd_knot_analyze(args, config, out):
    diagram = _knot_diagram_from_args(args)
    report = analyzer.analyze(diagram, coset_cap=config.coset_cap)
    _emit_records([report.to_record(config.show_timing)], config.output_format, out)
    return EXIT_OK


def cmd_knot_gen(args, config, out):
    diagram = _knot_diagram_from_args(args, reduce=False)
    out.write(diagram.pd_text() + "\n")
    return EXIT_OK


def cmd_spaceform_verify(args, config, out):
    spec = spaceforms.SpaceFormSpec(args.family, m=args.m, p=args.p, k=args.k)
    cert = spaceforms.build(spec, cap=config.group_cap)
    spaceforms.verify(cert)
    if config.output_format == "json":
        rec = {
            "spaceform": spec.label(),
            "conductor": cert.conductor,
            "order_spin": cert.pi_hat.order,
            "order_so4": cert.pi.order,
            "abelianization": str(cert.abelianization),
            "checks": {k: v[0] for k, v in sorted(cert.checks.items())},
        }
        out.write(json.dumps(rec) + "\n")
    else:
        for line in cert.report_lines():
            out.write(line + "\n")
    return EXIT_OK if cert.all_checks_pass() else EXIT_CHECK_FAILED


def cmd_spaceform_sweep(args, config, out):
    records = []
    worst = EXIT_OK
    for spec in spaceforms.default_sweep():
        cert = spaceforms.build(spec, cap=config.group_cap)
        spaceforms.verify(cert)
        ok = cert.all_checks_pass()
        records.append(
            {
                "spaceform": spec.label(),
                "order_spin": cert.pi_hat.order,
                "order_so4": cert.pi.order,
                "abelianization": str(cert.abelianization),
                "all_checks": ok,
            }
        )
        if not ok:
            worst = EXIT_CHECK_FAILED
    _emit_records(records, config.output_format, out)
    out.write(f"sweep: {len(records)} spaceforms, all_pass={worst == EXIT_OK}\n")
    return worst


def cmd_orbit_profile(args, config, out):
    action = orbits.WeightedAction(args.k, args.l)
    prof = orbits.profile(action)
    n = args.points
    if n < 1:
        raise SpecViolation("--points must be >= 1")
    # the profile takes k*k and the sample grid takes n as floats
    for value, what in ((args.k * args.k, "weight k"), (n, "--points")):
        try:
            float(value)
        except OverflowError:
            raise SpecViolation(f"{what} is too large for floating point") from None
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", f"f_{args.k}_{args.l}"])
    for i in range(n + 1):
        t = prof.domain[0] + (prof.domain[1] - prof.domain[0]) * i / n
        writer.writerow([f"{t:.12g}", f"{prof.value(t):.12g}"])
    return EXIT_OK


def cmd_orbit_compare(args, config, out):
    k, l = args.chain
    action = orbits.WeightedAction(k, l)
    f_kl = orbits.profile(action)
    f_11 = orbits.profile(orbits.WeightedAction(1, 1))
    f_k1 = orbits.profile(orbits.WeightedAction(k, 1))
    rows = [
        (f"f(1,1) >= f({k},1)", f_11, f_k1),
        (f"f({k},1) >= f({k},{l})", f_k1, f_kl),
    ]
    if k >= 2 and l >= 2:
        rows.append((f"f(1,1) >= 2*f({k},{l})", f_11, orbits.branched_double(f_kl)))
    records = [{"comparison": label, "holds": orbits.compare(a, b)} for label, a, b in rows]
    _emit_records(records, config.output_format, out)
    return EXIT_OK if all(r["holds"] for r in records) else EXIT_CHECK_FAILED


def cmd_orbit_validate(args, config, out):
    action = orbits.WeightedAction(args.k, args.l)
    try:
        worst = orbits.validate_profile(
            action, samples=args.samples, seed=config.seed, tol=config.tol_oracle
        )
    except OracleMismatch as exc:
        out.write(f"REJECTED: {exc}\n")
        return EXIT_CHECK_FAILED
    out.write(
        f"profile({args.k},{args.l}): max discrepancy {worst:.3e} over "
        f"{args.samples} samples (tolerance {config.tol_oracle:g})\n"
    )
    return EXIT_OK


def _read_corpus(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputFileError(f"corpus {path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InputFileError(f"cannot read corpus: {exc}") from exc


def cmd_corpus_run(args, config, out):
    text = _read_corpus(config.corpus_path) if config.corpus_path else packaged_corpus_text()
    rows = analyzer.parse_corpus(text)
    cache = ResultCache(config.cache_path) if config.cache_path else None
    summary = analyzer.run_corpus(rows, config.coset_cap, cache)
    records = [r.to_record(config.show_timing) for r in summary.reports]
    _emit_records(records, config.output_format, out)
    out.write(f"row_errors: {summary.row_errors}\n")
    return EXIT_ROW_ERRORS if summary.row_errors else EXIT_OK


def _common_options():
    # SUPPRESS keeps absent options out of the namespace entirely, so the
    # same option registered on a subparser cannot clobber a value that was
    # given before the subcommand.
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, argument_default=sup)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--format", dest="output_format", choices=["table", "json", "csv"])
    common.add_argument("--coset-cap", type=int, dest="coset_cap")
    common.add_argument("--group-cap", type=int, dest="group_cap")
    common.add_argument("--cache", dest="cache_path", help="result cache directory")
    common.add_argument("--corpus", dest="corpus_path", help="corpus file override")
    common.add_argument("--seed", type=int, dest="seed")
    common.add_argument("--timings", action="store_true", dest="show_timing")
    return common


def build_parser():
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="spherecover",
        parents=[common],
        description="Branched double covers of knots, space-form groups, and "
        "circle-action orbit geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    knot = sub.add_parser("knot", help="knot pipeline commands")
    knot_sub = knot.add_subparsers(dest="subcommand", required=True)
    for name, handler in (("analyze", cmd_knot_analyze), ("gen", cmd_knot_gen)):
        k = knot_sub.add_parser(name, parents=[common])
        k.set_defaults(handler=handler)
        k.add_argument("--pd")
        k.add_argument("--dt")
        k.add_argument("--braid")
        k.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"))
        k.add_argument("--two-bridge", dest="two_bridge", nargs=2, type=int, metavar=("P", "Q"))
        k.add_argument("--montesinos", help="e=E; n1/d1 n2/d2 ...")
        k.add_argument("--name")

    sform = sub.add_parser("spaceform", help="space-form verification")
    sform_sub = sform.add_subparsers(dest="subcommand", required=True)
    verify = sform_sub.add_parser("verify", parents=[common])
    verify.set_defaults(handler=cmd_spaceform_verify)
    verify.add_argument("family", choices=["cyclic", "tetrahedral", "icosahedral"])
    verify.add_argument("--m", type=int, default=1)
    verify.add_argument("--p", type=int, default=1)
    verify.add_argument("--k", type=int, default=0)
    sform_sub.add_parser("sweep", parents=[common]).set_defaults(handler=cmd_spaceform_sweep)

    orbit = sub.add_parser("orbit", help="orbit-space geometry")
    orbit_sub = orbit.add_subparsers(dest="subcommand", required=True)
    oprof = orbit_sub.add_parser("profile", parents=[common])
    oprof.set_defaults(handler=cmd_orbit_profile)
    oprof.add_argument("k", type=int)
    oprof.add_argument("l", type=int)
    oprof.add_argument("--points", type=int, default=100)
    ocomp = orbit_sub.add_parser("compare", parents=[common])
    ocomp.set_defaults(handler=cmd_orbit_compare)
    ocomp.add_argument("--chain", nargs=2, type=int, required=True, metavar=("K", "L"))
    oval = orbit_sub.add_parser("validate", parents=[common])
    oval.set_defaults(handler=cmd_orbit_validate)
    oval.add_argument("k", type=int)
    oval.add_argument("l", type=int)
    oval.add_argument("--samples", type=int, default=100)

    corpus = sub.add_parser("corpus", help="batch pipeline over the corpus")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    corpus_sub.add_parser("run", parents=[common]).set_defaults(handler=cmd_corpus_run)
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, which is bad input here
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    # absent options are suppressed, so every config field left in the
    # namespace was given on the command line
    overrides = {key: value for key, value in vars(args).items() if key in FIELD_NAMES}
    try:
        config = load_config(getattr(args, "config", None), overrides)
    except (OSError, ValueError) as exc:  # ConfigError and bad JSON included
        err.write(f"config error: {exc}\n")
        return EXIT_INPUT
    try:
        return args.handler(args, config, out)
    except InputFileError as exc:
        err.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except OracleMismatch as exc:
        err.write(f"OracleMismatch: {exc}\n")
        return EXIT_CHECK_FAILED
    except InternalInconsistency as exc:
        err.write(f"InternalInconsistency: {exc}\n")
        return EXIT_INTERNAL
    except SphereCoverError as exc:
        err.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_INPUT
    except MemoryError as exc:
        err.write(f"MemoryError: {str(exc) or 'out of memory'}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
