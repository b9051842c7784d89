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

Exit codes: 0 success; 1 bad input/parameters; 2 trichotomy violation
(knot/corpus); 3 failed space-form check or oracle mismatch; 4 corpus row
errors; 5 internal inconsistency (two computation routes disagree: a bug,
not bad input).  Reports are deterministic; timings appear only with --timings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import analyzer, knots, orbits, spaceforms
from .cache import ResultCache
from .config import load_config, packaged_corpus_text
from .errors import (
    CapExceeded,
    InternalInconsistency,
    NotAKnot,
    OracleMismatch,
    ParseError,
    SpecViolation,
    SphereCoverError,
    ValidationError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRICHOTOMY = 2
EXIT_CHECK_FAILED = 3
EXIT_ROW_ERRORS = 4
EXIT_INTERNAL = 5


def _emit_records(records, fmt, out):
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=False) + "\n")
        return
    if fmt == "csv":
        keys = list(records[0].keys()) if records else []
        writer = csv.DictWriter(out, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        return
    if not records:
        out.write("(no rows)\n")
        return
    keys = list(records[0].keys())
    widths = {
        k: max(len(k), *(len(str(r.get(k, ""))) for r in records)) for k in keys
    }
    out.write("  ".join(k.ljust(widths[k]) for k in keys).rstrip() + "\n")
    for rec in records:
        out.write(
            "  ".join(str(rec.get(k, "")).ljust(widths[k]) for k in keys).rstrip()
            + "\n"
        )


def _knot_diagram_from_args(args):
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
    name = args.name or kind
    if kind == "pd":
        return knots.parse_pd(value, name=name)
    if kind == "dt":
        return knots.parse_dt(value, name=name)
    if kind == "braid":
        return knots.braid_to_diagram(knots.parse_braid(value), name=name)
    if kind == "torus":
        p, q = value
        return knots.braid_to_diagram(knots.torus_knot(p, q), name=args.name or f"torus({p},{q})")
    if kind == "two_bridge":
        p, q = value
        return knots.two_bridge(p, q, name=args.name or f"twobridge({p},{q})")
    return analyzer.diagram_from_payload("montesinos", value, name=name)


def cmd_knot_analyze(args, config, out):
    diagram = _knot_diagram_from_args(args)
    report = analyzer.analyze(diagram, coset_cap=config.coset_cap)
    _emit_records([report.to_record(config.show_timing)], config.output_format, out)
    return EXIT_OK if report.trichotomy_consistent else EXIT_TRICHOTOMY


def cmd_knot_gen(args, config, out):
    diagram = _knot_diagram_from_args(args)
    out.write(diagram.pd_text() + "\n")
    return EXIT_OK


def cmd_spaceform_verify(args, config, out):
    spec = _spaceform_spec(args)
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


def _spaceform_spec(args):
    family = args.family
    if family == "cyclic":
        return spaceforms.SpaceFormSpec(spaceforms.CYCLIC, m=args.m, p=args.p)
    if family == "tetrahedral":
        return spaceforms.SpaceFormSpec(spaceforms.TETRAHEDRAL, m=args.m, k=args.k)
    return spaceforms.SpaceFormSpec(spaceforms.ICOSAHEDRAL, m=args.m)


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
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", f"f_{args.k}_{args.l}"])
    for i in range(n + 1):
        t = prof.domain[0] + (prof.domain[1] - prof.domain[0]) * i / n
        writer.writerow([f"{t:.12g}", f"{prof.value(t):.12g}"])
    return EXIT_OK


def cmd_orbit_compare(args, config, out):
    k, l = args.k, args.l
    action = orbits.WeightedAction(k, l)
    f_kl = orbits.profile(action)
    f_11 = orbits.profile(orbits.WeightedAction(1, 1))
    f_k1 = orbits.profile(orbits.WeightedAction(k, 1))
    records = []
    ok_all = True
    for label, a, b in (
        (f"f(1,1) >= f({k},1)", f_11, f_k1),
        (f"f({k},1) >= f({k},{l})", f_k1, f_kl),
    ):
        ok, violation, at = orbits.compare(a, b, args.grid, tol=config.tol_grid)
        ok_all &= ok
        records.append({"comparison": label, "holds": ok, "max_violation": f"{violation:.3e}", "at_t": f"{at:.6f}"})
    if k >= 2 and l >= 2:
        doubled = orbits.branched_double(f_kl)
        ok, violation, at = orbits.compare(f_11, doubled, args.grid, tol=config.tol_grid)
        ok_all &= ok
        records.append({"comparison": f"f(1,1) >= 2*f({k},{l})", "holds": ok, "max_violation": f"{violation:.3e}", "at_t": f"{at:.6f}"})
    _emit_records(records, config.output_format, out)
    return EXIT_OK if ok_all else EXIT_CHECK_FAILED


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


def _cached_record(cache, key):
    """The cached record, or None on a miss or an entry that does not decode.

    An undecodable entry (say, truncated) is recomputed and rewritten.
    """
    hit = cache.get(key)
    try:
        rec = json.loads(hit) if hit is not None else None
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def _attach_name(cached_rec, name):
    """Rebuild a cached (name-free) record with the row name in place."""
    out = {}
    for k, v in cached_rec.items():
        out[k] = v
        if k == "schema":
            out["name"] = name
    return out


def cmd_corpus_run(args, config, out):
    if config.corpus_path:
        with open(config.corpus_path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = packaged_corpus_text()
    rows = analyzer.parse_corpus(text)
    cache = ResultCache(config.cache_path) if config.cache_path else None
    records = []
    fresh_rows = []
    if cache:
        for row in rows:
            key = cache.key_for(row[2], row[1], config.coset_cap)
            hit = _cached_record(cache, key)
            if hit is not None:
                records.append(_attach_name(hit, row[0]))
            else:
                fresh_rows.append(row)
    else:
        fresh_rows = rows
    summary = analyzer.run_corpus(fresh_rows, coset_cap=config.coset_cap)
    payload_of = {r[0]: (r[2], r[1]) for r in rows}
    for report in summary.reports:
        rec = report.to_record(config.show_timing)
        records.append(rec)
        if cache and report.error is None:
            payload, fmt = payload_of[report.name]
            key = cache.key_for(payload, fmt, config.coset_cap)
            nameless = {k: v for k, v in rec.items() if k != "name"}
            cache.put(key, json.dumps(nameless, sort_keys=False).encode())
    records.sort(key=lambda r: r["name"])
    _emit_records(records, config.output_format, out)
    violations = (
        sum(1 for rec in records if rec.get("trichotomy_consistent") is False)
        + sum(
            1
            for rec in records
            if rec.get("det") is not None and rec["det"] % 2 == 0
        )
        + sum(1 for rec in records if rec.get("cover_order") == 2)
    )
    errors = summary.row_errors
    out.write(f"violations: {violations}\n")
    out.write(f"row_errors: {errors}\n")
    if errors:
        return EXIT_ROW_ERRORS
    if violations:
        return EXIT_TRICHOTOMY
    return EXIT_OK


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
    for name in ("analyze", "gen"):
        k = knot_sub.add_parser(name, parents=[common])
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
    verify.add_argument("family", choices=["cyclic", "tetrahedral", "icosahedral"])
    verify.add_argument("--m", type=int, default=1)
    verify.add_argument("--p", type=int, default=1)
    verify.add_argument("--k", type=int, default=0)
    sform_sub.add_parser("sweep", parents=[common])

    orbit = sub.add_parser("orbit", help="orbit-space geometry")
    orbit_sub = orbit.add_subparsers(dest="subcommand", required=True)
    oprof = orbit_sub.add_parser("profile", parents=[common])
    oprof.add_argument("k", type=int)
    oprof.add_argument("l", type=int)
    oprof.add_argument("--points", type=int, default=100)
    ocomp = orbit_sub.add_parser("compare", parents=[common])
    ocomp.add_argument("--chain", nargs=2, type=int, required=True, metavar=("K", "L"))
    ocomp.add_argument("--grid", type=int, default=10_000)
    oval = orbit_sub.add_parser("validate", parents=[common])
    oval.add_argument("k", type=int)
    oval.add_argument("l", type=int)
    oval.add_argument("--samples", type=int, default=100)

    corpus = sub.add_parser("corpus", help="batch pipeline over the corpus")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    corpus_sub.add_parser("run", parents=[common])
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; that slot means a trichotomy
        # violation here, so remap usage problems to the input-error code
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    overrides = {
        key: getattr(args, key)
        for key in (
            "output_format",
            "coset_cap",
            "group_cap",
            "cache_path",
            "corpus_path",
            "seed",
            "show_timing",
        )
        if getattr(args, key, None) is not None
    }
    try:
        config = load_config(getattr(args, "config", None), overrides)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        err.write(f"config error: {exc}\n")
        return EXIT_INPUT

    if args.command == "orbit" and args.subcommand == "compare":
        args.k, args.l = args.chain

    dispatch = {
        ("knot", "analyze"): cmd_knot_analyze,
        ("knot", "gen"): cmd_knot_gen,
        ("spaceform", "verify"): cmd_spaceform_verify,
        ("spaceform", "sweep"): cmd_spaceform_sweep,
        ("orbit", "profile"): cmd_orbit_profile,
        ("orbit", "compare"): cmd_orbit_compare,
        ("orbit", "validate"): cmd_orbit_validate,
        ("corpus", "run"): cmd_corpus_run,
    }
    handler = dispatch[(args.command, args.subcommand)]
    try:
        return handler(args, config, out)
    except (ParseError, ValidationError, NotAKnot, SpecViolation, CapExceeded) as exc:
        err.write(f"{type(exc).__name__}: {exc}\n")
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


if __name__ == "__main__":
    sys.exit(main())
