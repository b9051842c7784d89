import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import analyzer, cli, groups, knots, orbits, presentations, spaceforms
from spherecover.cache import ResultCache
from spherecover.config import RunConfig, load_config
from spherecover.errors import (
    ConfigError,
    InternalInconsistency,
    NotIndexTwo,
    ParseError,
    ValidationError,
)

TREFOIL_PD = "[(1,4,2,5),(3,6,4,1),(5,2,6,3)]"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_analyze_braid_trefoil():
    code, out, err = run_cli(["knot", "analyze", "--braid", "strands=2 1 1 1", "--format", "json"])
    assert code == 0, err
    rec = json.loads(out.splitlines()[0])
    assert rec["det"] == 3 and rec["cover_order"] == 3
    assert rec["classification"] == "cyclic(3)"


def test_analyze_malformed_pd_exit_one():
    code, out, err = run_cli(["knot", "analyze", "--pd", "[(1,4,2,5)"])
    assert code == 1
    assert "ParseError" in err and "position" in err


def test_analyze_torus_3_5_icosahedral():
    code, out, _ = run_cli(["knot", "analyze", "--torus", "3", "5", "--format", "json"])
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["classification"] == "icosahedral"
    assert rec["cover_order"] == 120


def test_knot_gen_roundtrip():
    code, out, _ = run_cli(["knot", "gen", "--two-bridge", "7", "3"])
    assert code == 0
    code2, out2, _ = run_cli(["knot", "analyze", "--pd", out.strip(), "--format", "json"])
    assert code2 == 0
    assert json.loads(out2.splitlines()[0])["det"] == 7


def test_spaceform_verify_pass_and_violation():
    code, out, _ = run_cli(["spaceform", "verify", "icosahedral", "--m", "1"])
    assert code == 0
    assert "check[7_intersection_gcd]: pass" in out
    code, _, err = run_cli(["spaceform", "verify", "cyclic", "--m", "4", "--p", "1"])
    assert code == 1
    assert "SpecViolation" in err
    code, out, _ = run_cli(["spaceform", "verify", "tetrahedral", "--m", "5", "--k", "0"])
    assert code == 0


def test_orbit_profile_csv():
    code, out, _ = run_cli(["orbit", "profile", "1", "1", "--points", "16"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,f_1_1"
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(values) == pytest.approx(0.5, abs=1e-9)


def test_orbit_compare_chain():
    code, out, _ = run_cli(["orbit", "compare", "--chain", "3", "2"])
    assert code == 0
    assert "True" in out
    code, out, _ = run_cli(["orbit", "compare", "--chain", "3", "2", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["comparison"] for r in records] == [
        "f(1,1) >= f(3,1)",
        "f(3,1) >= f(3,2)",
        "f(1,1) >= 2*f(3,2)",
    ]
    assert all(r == {"comparison": r["comparison"], "holds": True} for r in records)


def test_orbit_validate_small():
    code, out, _ = run_cli(["orbit", "validate", "2", "1", "--samples", "10"])
    assert code == 0
    assert "max discrepancy" in out


def test_orbit_bad_params_exit_one():
    code, _, err = run_cli(["orbit", "profile", "2", "4"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "profile", "2", "1", "--points", "0"],
        ["orbit", "profile", "3", "2", "--points", "-4"],
        ["orbit", "validate", "3", "2", "--samples", "-1"],
        ["orbit", "validate", "2", "1", "--samples", "-3"],
        ["orbit", "validate", "2", "1", "--samples", "0"],
    ],
)
def test_orbit_degenerate_counts_exit_one(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert err.startswith("SpecViolation") and "Traceback" not in err
    assert "pass" not in out and "discrepancy" not in out


@pytest.mark.parametrize(
    "argv, what",
    [
        (["orbit", "profile", str(2 * 10**154), "1"], "weight k"),
        (["orbit", "profile", str(10**400 + 1), str(10**400)], "weight k"),
        (["orbit", "profile", "2", "1", "--points", str(2 * 10**308)], "--points"),
        (["orbit", "profile", "2", "1", "--points", str(10**400)], "--points"),
    ],
)
def test_orbit_profile_refuses_values_beyond_floating_point_before_any_output(argv, what):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == f"SpecViolation: {what} is too large for floating point\n"


def test_orbit_values_that_fit_a_float_keep_their_output():
    k = 10**154 + 1  # k*k still converts to a float
    code, out, _ = run_cli(["orbit", "profile", str(k), "1", "--points", "2"])
    assert code == 0
    assert out == f"t,f_{k}_1\n0,0\n0.785398163397,7.07106781187e-155\n1.57079632679,1e-154\n"
    k = 10**400 + 1  # compared exactly, on integers
    code, out, _ = run_cli(["orbit", "compare", "--chain", str(k), "1", "--format", "csv"])
    assert code == 0
    assert out == f'comparison,holds\n"f(1,1) >= f({k},1)",True\n"f({k},1) >= f({k},1)",True\n'


def test_orbit_validate_negative_seed_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -1}')
    for argv in (
        ["orbit", "validate", "3", "2", "--samples", "1", "--seed", "-1"],
        ["--config", str(cfg), "orbit", "validate", "3", "2", "--samples", "1"],
    ):
        code, out, err = run_cli(argv)
        assert code == 1
        assert err == "SpecViolation: seed -1 is negative\n"
        assert "Traceback" not in out + err and out == ""


def test_orbit_validate_weight_limit_exits_one():
    code, out, err = run_cli(["orbit", "validate", "10001", "1", "--samples", "1"])
    assert code == 1
    assert err.startswith("SpecViolation") and "Traceback" not in err
    assert out == ""


def test_cli_import_leaves_scipy_unloaded():
    # numpy too: only the orbit oracle imports it, on first call; and mpmath,
    # which only the interval fallback of ExactScalar.sign loads
    probe = (
        "import sys, spherecover.cli; "
        "print(*(m in sys.modules for m in ('scipy', 'numpy', 'mpmath')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False False"


def test_internal_inconsistency_has_its_own_exit(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise InternalInconsistency("two routes disagree")

    monkeypatch.setattr(analyzer, "analyze", broken)
    code, _, err = run_cli(["knot", "analyze", "--torus", "3", "5"])
    assert code == 5
    assert err == "InternalInconsistency: two routes disagree\n"
    # inside a corpus it stays a row error
    corpus = tmp_path / "one.tsv"
    corpus.write_text("trefoil\tpd\t" + TREFOIL_PD + "\n")
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus)])
    assert code == 4
    assert "row_errors: 1" in out


def test_a_reduced_presentation_of_another_group_is_an_internal_inconsistency(monkeypatch):
    # Fox entries at t = -1 ignore letter signs, so the corruption renames a
    # letter instead of inverting it.  The enumeration of the wrong group
    # hits cap 2000, so only the determinant check can catch it.
    bridge_presentation = presentations.bridge_presentation

    def another_group(pres):
        reduced = bridge_presentation(pres)
        first, *rest = reduced.relators
        g = abs(first[0]) % reduced.ngens + 1
        renamed = (g if first[0] > 0 else -g,) + first[1:]
        return presentations.GroupPresentation.make(reduced.ngens, [renamed, *rest])

    monkeypatch.setattr(presentations, "bridge_presentation", another_group)
    code, out, err = run_cli(["knot", "analyze", "--torus", "4", "5", "--coset-cap", "2000"])
    assert (code, out) == (5, "")
    assert err.startswith("InternalInconsistency: torus(4,5): ")


def test_corpus_run_with_cache_byte_identical(tmp_path):
    corpus = tmp_path / "mini.tsv"
    corpus.write_text(
        "trefoil\tpd\t" + TREFOIL_PD + "\nfig8\tdt\t4 6 8 2\nb75\ttwobridge\t7 5\n"
    )
    cache_dir = str(tmp_path / "cache")
    argv = [
        "corpus", "run", "--corpus", str(corpus), "--cache", cache_dir, "--format", "json",
    ]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[-1] == "row_errors: 0"
    assert len(os.listdir(cache_dir)) == 3


def test_corpus_rejects_link_row(tmp_path):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("hopf\tbraid\tstrands=2 1 1\nok\tpd\t" + TREFOIL_PD + "\n")
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert code == 4
    assert "NotAKnot" in out
    assert "row_errors: 1" in out


def test_corpus_malformed_integer_rows_are_row_errors(tmp_path):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text(
        "t\ttorus\t3\n"
        "b\ttwobridge\ta b\n"
        "m1\tmontesinos\te=0; 3\n"
        "m2\tmontesinos\te=x; 1/3\n"
        "ok\tpd\t" + TREFOIL_PD + "\n"
    )
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert code == 4
    recs = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    errors = {rec["name"]: rec["error"] for rec in recs if "error" in rec}
    assert sorted(errors) == ["b", "m1", "m2", "t"]
    assert all(err.startswith("ParseError") for err in errors.values())
    assert "row_errors: 4" in out


def test_corpus_rows_with_an_empty_field_still_have_three_fields(tmp_path):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("\tbraid\tstrands=2 1 1 1\nx\tbraid\t\nok\tpd\t" + TREFOIL_PD + "\n")
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert code == 4
    recs = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert len(recs) == 3
    errors = {rec["name"]: rec["error"] for rec in recs if "error" in rec}
    assert list(errors) == ["x"] and errors["x"].startswith("ParseError")
    assert sorted(rec["det"] for rec in recs if "error" not in rec) == [3, 3]
    assert "row_errors: 1" in out


def test_crossing_limit_rows_fail_fast(tmp_path):
    corpus = tmp_path / "big.tsv"
    corpus.write_text(
        "t\ttorus\t1000 1001\n"
        "b\ttwobridge\t1000001 1\n"
        "ok\tpd\t" + TREFOIL_PD + "\n"
    )
    t0 = time.perf_counter()
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 4
    recs = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    errors = {rec["name"]: rec["error"] for rec in recs if "error" in rec}
    assert sorted(errors) == ["b", "t"]
    assert all("MAX_CROSSINGS = 1000" in err for err in errors.values())
    code, _, err = run_cli(["knot", "analyze", "--torus", "1000", "1001"])
    assert code == 1 and "ValidationError" in err and "MAX_CROSSINGS" in err


def test_reducible_braid_over_the_crossing_limit_is_refused(tmp_path):
    # the word reduces to the unknot, but the limit applies to the word as given
    payload = "strands=2 " + " ".join(["1", "-1"] * 500 + ["1"])
    code, out, err = run_cli(["knot", "analyze", "--braid", payload])
    assert code == 1 and out == ""
    assert "ValidationError: braid closure has 1001 crossings" in err
    corpus = tmp_path / "big.tsv"
    corpus.write_text(f"big\tbraid\t{payload}\n")
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert code == 4 and "unknot" not in out
    assert json.loads(out.splitlines()[0])["error"].startswith("ValidationError")


def test_knot_gen_prints_the_literal_braid_closure():
    code, out, _ = run_cli(["knot", "gen", "--braid", "strands=2 1 -1 1"])
    assert code == 0
    assert out == "[(1,4,2,5),(2,6,3,5),(3,6,4,1)]\n"
    assert analyzer.diagram_from_payload("braid", "strands=2 1 -1 1").crossing_count == 0
    code, out, _ = run_cli(["knot", "analyze", "--braid", "strands=2 1 -1 1", "--format", "json"])
    assert code == 0
    assert json.loads(out.splitlines()[0])["classification"] == "unknot"


def test_torus_rows_are_analysed_on_the_braid_with_fewer_strands(monkeypatch):
    closed = []
    braid_to_diagram = knots.braid_to_diagram

    def closing(braid, **kwargs):
        closed.append(braid)
        return braid_to_diagram(braid, **kwargs)

    monkeypatch.setattr(knots, "braid_to_diagram", closing)
    code, out, _ = run_cli(["knot", "analyze", "--torus", "7", "2", "--format", "json"])
    assert code == 0 and closed == [knots.torus_knot(2, 7)]
    swapped = json.loads(out.splitlines()[0])
    code, out, _ = run_cli(["knot", "analyze", "--torus", "2", "7", "--format", "json"])
    assert code == 0
    assert {**swapped, "name": "torus(2,7)"} == json.loads(out.splitlines()[0])
    assert swapped["name"] == "torus(7,2)"


def test_knot_gen_prints_the_torus_closure_as_written():
    code, out, _ = run_cli(["knot", "gen", "--torus", "7", "2"])
    assert code == 0
    assert out == (
        "[(1,14,2,15),(12,15,13,16),(23,16,24,17),(10,17,11,18),(21,18,22,19),(8,19,9,20),"
        "(13,2,14,3),(24,3,1,4),(11,4,12,5),(22,5,23,6),(9,6,10,7),(20,7,21,8)]\n"
    )


@pytest.mark.parametrize("command", ["analyze", "gen"])
def test_the_torus_crossing_limit_applies_to_the_braid_as_written(command):
    # T(2, 503) has 503 crossings, but torus(503,2) is refused on its 1004
    code, out, err = run_cli(["knot", command, "--torus", "503", "2"])
    assert (code, out) == (1, "")
    assert err == "ValidationError: torus(503,2) has 1004 crossings, above the limit MAX_CROSSINGS = 1000\n"


KNOT_GEN_PINS = {
    "kink": (["--braid", "strands=2 1"], 0, "[(1,2,2,1)]\n", ""),
    "kink-inverse": (["--braid", "strands=2 -1"], 0, "[(2,2,1,1)]\n", ""),
    "montesinos-link": (
        ["--montesinos", "e=1; 1/3 1/5 1/7"], 1, "", "NotAKnot: 16 of 32 edges on the first component\n"
    ),
}


@pytest.mark.parametrize("args, code, out, err", KNOT_GEN_PINS.values(), ids=KNOT_GEN_PINS.keys())
def test_knot_gen_pins(args, code, out, err):
    assert run_cli(["knot", "gen", *args]) == (code, out, err)


def test_any_library_error_of_a_row_is_that_rows_error(tmp_path, monkeypatch):
    calls = []
    branched_cover_group = presentations.branched_cover_group

    def fails_once(outcome):
        calls.append(outcome)
        if len(calls) == 1:  # the first row, in corpus order
            raise NotIndexTwo("meridian parity is not onto Z/2")
        return branched_cover_group(outcome)

    monkeypatch.setattr(presentations, "branched_cover_group", fails_once)
    corpus = tmp_path / "two.tsv"
    corpus.write_text("a\ttwobridge\t3 1\nb\ttwobridge\t5 3\n")
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert code == 4
    a, b = (json.loads(line) for line in out.splitlines()[:2])
    assert a == {**analyzer.CoverReport("a").to_record(), "error": "NotIndexTwo: meridian parity is not onto Z/2"}
    assert (b["name"], b["classification"], "error" in b) == ("b", "cyclic(5)", False)
    assert out.splitlines()[2:] == ["row_errors: 1"]


def test_pd_input_obeys_the_crossing_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(knots, "MAX_CROSSINGS", 2)
    with pytest.raises(ValidationError, match="MAX_CROSSINGS = 2"):
        knots.parse_pd(TREFOIL_PD)
    corpus = tmp_path / "pd.tsv"
    corpus.write_text("trefoil\tpd\t" + TREFOIL_PD + "\nunknot\ttwobridge\t1 1\n")
    code, out, _ = run_cli(["corpus", "run", "--corpus", str(corpus), "--format", "json"])
    assert code == 4 and "row_errors: 1" in out
    recs = {json.loads(line)["name"]: json.loads(line) for line in out.splitlines() if line.startswith("{")}
    assert "PD diagram has 3 crossings" in recs["trefoil"]["error"]
    code, _, err = run_cli(["knot", "analyze", "--pd", TREFOIL_PD])
    assert code == 1 and "ValidationError" in err and "MAX_CROSSINGS" in err


def test_corpus_row_error_keeps_its_column_in_csv_and_table(tmp_path):
    corpus = tmp_path / "mixed.tsv"
    corpus.write_text("a\ttwobridge\t5 2\nb\ttorus\t3\n")
    base = ["corpus", "run", "--corpus", str(corpus), "--format"]
    code, out, err = run_cli(base + ["csv"])
    assert code == 4, err
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[:3]))))
    assert [(r["name"], r["error"]) for r in rows] == [
        ("a", ""),
        ("b", "ParseError: expected 2 integers, got '3' (at position 0)"),
    ]
    code, out, err = run_cli(base + ["table"])
    assert code == 4, err
    header, row_a, row_b = out.splitlines()[:3]
    assert header.split()[-1] == "error" and "ParseError" in row_b
    assert "ParseError" not in row_a and "row_errors: 1" in out


def test_corpus_cache_hit_carries_no_stored_timing(tmp_path):
    corpus = tmp_path / "one.tsv"
    corpus.write_text("b75\ttwobridge\t7 5\n")
    cache = ["--cache", str(tmp_path / "cache")]
    base = ["corpus", "run", "--corpus", str(corpus), "--format", "json"]
    code, fresh, _ = run_cli(base + cache + ["--timings"])
    assert code == 0 and isinstance(json.loads(fresh.splitlines()[0])["ms"], float)
    code, hit, _ = run_cli(base + cache)
    assert code == 0 and hit == run_cli(base)[1]
    assert "ms" not in json.loads(hit.splitlines()[0])
    code, timed_hit, _ = run_cli(base + cache + ["--timings"])
    rec = json.loads(timed_hit.splitlines()[0])
    assert code == 0 and "ms" in rec and rec["ms"] is None
    assert list(rec) == list(json.loads(fresh.splitlines()[0]))


def test_corpus_csv_mixes_cache_hits_and_fresh_rows(tmp_path):
    one = tmp_path / "one.tsv"
    one.write_text("b\ttwobridge\t7 5\n")
    two = tmp_path / "two.tsv"
    two.write_text("a\ttwobridge\t5 2\nb\ttwobridge\t7 5\n")
    cache = ["--cache", str(tmp_path / "cache")]
    assert run_cli(["corpus", "run", "--corpus", str(one), "--timings"] + cache)[0] == 0
    argv = ["corpus", "run", "--corpus", str(two), "--format", "csv"]
    code, out, err = run_cli(argv + cache)  # fresh row "a" sorts before the hit "b"
    assert code == 0, err
    assert out == run_cli(argv)[1]


def test_corpus_recomputes_corrupt_cache_entry(tmp_path):
    corpus = tmp_path / "mini.tsv"
    corpus.write_text("trefoil\tpd\t" + TREFOIL_PD + "\nb75\ttwobridge\t7 5\n")
    cache_dir = tmp_path / "cache"
    argv = ["corpus", "run", "--corpus", str(corpus), "--cache", str(cache_dir), "--format", "json"]
    code1, out1, _ = run_cli(argv)
    entry = sorted(cache_dir.iterdir())[0]
    good = entry.read_bytes()
    entry.write_bytes(good[: len(good) // 2])
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert entry.read_bytes() == good


# the row's entry as the cover-report/1 schema stored it, with its consistency bit
_SCHEMA_1_ENTRY = (
    b'{"schema": "cover-report/1", "det": 5, "h1": "Z/5", "orbifold_order": 10, '
    b'"cover_order": 5, "classification": "cyclic(5)", "trichotomy_consistent": true}'
)
# the row's entry, file name and output as cover-report/2 first wrote them
_SCHEMA_2_ENTRY = (
    b'{"schema": "cover-report/2", "det": 5, "h1": "Z/5", "orbifold_order": 10, '
    b'"cover_order": 5, "classification": "cyclic(5)"}'
)
_SCHEMA_2_FILE = "c929fd02b8bc5acc11d53603c668a69806016c51c43dbd83440f2ffbc1ed0382.json"
_SCHEMA_2_OUT = (
    '{"schema": "cover-report/2", "name": "x", "det": 5, "h1": "Z/5", "orbifold_order": 10, '
    '"cover_order": 5, "classification": "cyclic(5)", "ms": null}\nrow_errors: 0\n'
)


def test_corpus_reads_an_entry_written_by_the_first_cover_report_2_runner(tmp_path):
    corpus = tmp_path / "one.tsv"
    corpus.write_text("x\ttwobridge\t5 2\n")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / _SCHEMA_2_FILE).write_bytes(_SCHEMA_2_ENTRY)
    argv = ["corpus", "run", "--corpus", str(corpus), "--cache", str(cache_dir), "--format", "json"]
    assert run_cli(argv + ["--timings"]) == (0, _SCHEMA_2_OUT, "")  # "ms": null: a hit
    assert [p.name for p in cache_dir.iterdir()] == [_SCHEMA_2_FILE]
    assert (cache_dir / _SCHEMA_2_FILE).read_bytes() == _SCHEMA_2_ENTRY


@pytest.mark.parametrize(
    "entry",
    [
        b'{"det": 3}',
        b'{"schema": "cover-report/1", "det": "x"}',
        b"[" * 100_000,
        _SCHEMA_1_ENTRY,
        json.dumps(json.loads(_SCHEMA_2_ENTRY), separators=(",", ":")).encode(),
        _SCHEMA_2_ENTRY.replace(b'"Z/5"', b'"Z/5 x 0"'),
        _SCHEMA_2_ENTRY.replace(b'"cyclic(5)"', b'"cyclic(x)"'),
        _SCHEMA_2_ENTRY.replace(b'"det": 5', b'"det": 5.0'),
        _SCHEMA_2_ENTRY.replace(b'"det": 5', b'"det": true'),
    ],
    ids=["keys", "types", "nesting", "schema-1", "compact", "h1", "label", "float", "bool"],
)
def test_corpus_recomputes_cache_entry_of_the_wrong_shape(tmp_path, entry):
    corpus = tmp_path / "one.tsv"
    corpus.write_text("x\ttwobridge\t5 2\n")
    cache_dir = tmp_path / "cache"
    argv = ["corpus", "run", "--corpus", str(corpus), "--cache", str(cache_dir), "--format", "json"]
    code1, out1, _ = run_cli(argv)
    (stored,) = cache_dir.iterdir()
    good = stored.read_bytes()
    stored.write_bytes(entry)
    code2, out2, err2 = run_cli(argv)
    assert code1 == code2 == 0, err2
    assert out1 == out2 and "Traceback" not in err2
    assert stored.read_bytes() == good
    assert json.loads(good)["schema"] == "cover-report/2"


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_corpus_row_order_does_not_depend_on_the_cache(tmp_path, fmt):
    rows = ["x\tpd\t" + TREFOIL_PD + "\n", "x\ttwobridge\t5 2\n"]
    corpus = tmp_path / "dup.tsv"
    corpus.write_text("".join(rows))
    argv = ["corpus", "run", "--corpus", str(corpus), "--format", fmt]
    code, uncached, err = run_cli(argv)
    assert code == 0, err
    for n, cached in enumerate(([], [0], [1], [0, 1])):
        cache = ["--cache", str(tmp_path / f"cache{n}")]
        part = tmp_path / f"part{n}.tsv"
        part.write_text("".join(rows[i] for i in cached))
        assert run_cli(["corpus", "run", "--corpus", str(part)] + cache)[0] == 0
        assert run_cli(argv + cache) == (0, uncached, "")


def test_corpus_cache_keys_rows_by_payload_not_name(tmp_path):
    cache_dir = str(tmp_path / "cache")
    both = tmp_path / "both.tsv"
    both.write_text("k\ttwobridge\t5 2\nk\ttwobridge\t7 2\n")
    only7 = tmp_path / "only7.tsv"
    only7.write_text("k\ttwobridge\t7 2\n")

    def dets(corpus, *cache):
        argv = ["corpus", "run", "--corpus", str(corpus), "--format", "json", *cache]
        code, out, err = run_cli(argv)
        assert code == 0, err
        return sorted(json.loads(line)["det"] for line in out.splitlines() if line.startswith("{"))

    # the second run hits the cached 7 2 row and computes the 5 2 row fresh;
    # that fresh report must be stored under its own payload, not under 7 2
    assert dets(only7, "--cache", cache_dir) == [7]
    assert dets(both, "--cache", cache_dir) == [5, 7]
    assert dets(only7, "--cache", cache_dir) == dets(only7) == [7]
    assert dets(both, "--cache", cache_dir) == [5, 7]


def test_corpus_missing_file_is_an_input_error(tmp_path):
    code, _, err = run_cli(["corpus", "run", "--corpus", str(tmp_path / "missing.tsv")])
    assert code == 1
    assert err.startswith("input error: ") and "missing.tsv" in err


def test_corpus_cache_path_naming_a_file_is_an_input_error(tmp_path):
    corpus = tmp_path / "mini.tsv"
    corpus.write_text("b75\ttwobridge\t7 5\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(["corpus", "run", "--corpus", str(corpus), "--cache", str(taken)])
    assert code == 1
    assert err.startswith("input error: ") and "taken" in err


def test_corpus_that_is_not_utf8_is_an_input_error(tmp_path):
    corpus = tmp_path / "latin1.tsv"
    corpus.write_bytes("b75\ttwobridge\t7 5 \u00e9\n".encode("latin-1"))
    code, _, err = run_cli(["corpus", "run", "--corpus", str(corpus)])
    assert code == 1
    assert err.startswith("input error: ") and "UTF-8" in err


def test_corpus_determinism_without_cache(tmp_path):
    corpus = tmp_path / "mini.tsv"
    corpus.write_text("trefoil\tpd\t" + TREFOIL_PD + "\n")
    argv = ["corpus", "run", "--corpus", str(corpus), "--format", "json"]
    assert run_cli(argv)[1] == run_cli(argv)[1]


def test_config_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"coset_cap": 100, "bogus": 1}')
    code, _, err = run_cli(["--config", str(cfg), "knot", "analyze", "--pd", "[]"])
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("null", "must be a JSON object"),
        ("[1]", "must be a JSON object"),
        ('{"coset_cap": "abc"}', "'coset_cap' must be an integer"),
        ('{"coset_cap": true}', "'coset_cap' must be an integer"),
        ('{"seed": "a"}', "'seed' must be an integer"),
        ('{"tol_oracle": "small"}', "'tol_oracle' must be a number"),
        ('{"tol_oracle": NaN}', "tolerances must be positive"),
        ('{"show_timing": 1}', "'show_timing' must be true or false"),
        ('{"cache_path": 3}', "'cache_path' must be a string or null"),
        ('{"output_format": ["json"]}', "'output_format' must be a string"),
    ],
)
def test_config_bad_document_is_a_config_error(tmp_path, text, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=fragment):
        load_config(str(cfg))
    code, out, err = run_cli(["--config", str(cfg), "knot", "analyze", "--pd", "[]"])
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ") and fragment in err
    assert "Traceback" not in err


def test_config_defaults_are_the_record_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("SPHERECOVER_CONFIG", raising=False)
    assert load_config() == RunConfig()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"coset_cap": 100}')
    assert load_config(str(cfg), {"seed": 3}) == RunConfig(coset_cap=100, seed=3)


def test_config_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"output_format": "json"}')
    monkeypatch.setenv("SPHERECOVER_CONFIG", str(cfg))
    code, out, _ = run_cli(["knot", "analyze", "--pd", "[]"])
    assert code == 0
    assert out.startswith("{")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(coset_cap=0).validate()
    with pytest.raises(ValueError):
        RunConfig(output_format="xml").validate()
    assert load_config().coset_cap == 200_000


def test_cache_key_includes_caps(tmp_path):
    k1 = ResultCache.key_for("[]", "pd", 100)
    k2 = ResultCache.key_for("[]", "pd", 200)
    assert k1 != k2
    cache = ResultCache(str(tmp_path / "c"))
    assert cache.get(k1) is None
    cache.put(k1, b"payload")
    assert cache.get(k1) == b"payload"


def test_cache_key_includes_the_algorithm_version(monkeypatch):
    # entries of the regular enumeration may hold an infinite_or_unknown
    # that the cosets of one meridian decide at the same cap
    key = ResultCache.key_for("[]", "pd", 200)
    monkeypatch.setattr("spherecover.cache.ALGO_VERSION", "spherecover-pipeline/1")
    assert ResultCache.key_for("[]", "pd", 200) != key


def test_every_leaf_subcommand_has_a_handler():
    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, child in action.choices.items():
                yield from leaves(child, path + (name,))

    found = dict(leaves(cli.build_parser(), ()))
    assert len(found) == 8
    for path, parser in found.items():
        assert callable(parser.get_default("handler")), path


def test_config_defaults_are_the_library_defaults():
    config = RunConfig()
    assert config.coset_cap == presentations.DEFAULT_COSET_CAP
    assert config.group_cap == groups.DEFAULT_GROUP_CAP
    assert config.tol_oracle == orbits.DEFAULT_TOL_ORACLE
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "spherecover")
    importers = sorted(
        name
        for name in os.listdir(package)
        if name.endswith(".py") and "from .config import" in open(os.path.join(package, name)).read()
    )
    assert importers == ["cli.py"]


def test_spaceform_larger_than_the_cap_is_refused_at_once():
    t0 = time.perf_counter()
    code, out, err = run_cli(["spaceform", "verify", "icosahedral", "--m", "1001"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    assert err == "CapExceeded: closure exceeded cap of 100000 elements\n"


def test_tetrahedral_power_above_the_cap_is_refused_at_once():
    t0 = time.perf_counter()
    code, out, err = run_cli(["spaceform", "verify", "tetrahedral", "--m", "1", "--k", "99"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    assert err == "CapExceeded: closure exceeded cap of 100000 elements\n"


def test_running_out_of_memory_is_one_line_and_exit_one(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spaceforms, "build", exhausted)
    code, out, err = run_cli(["spaceform", "verify", "cyclic", "--m", "2001", "--p", "2"])
    assert (code, out, err) == (1, "", "MemoryError: out of memory\n")


@pytest.mark.parametrize("k", ["1000000000", str(10**400)], ids=["1e9", "1e400"])
def test_a_huge_tetrahedral_power_is_refused_without_forming_it(k):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "spherecover.cli", "spaceform", "verify", "tetrahedral", "--k", k],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "CapExceeded: closure exceeded cap of 100000 elements\n"


def test_corpus_cache_entry_that_is_a_directory_is_an_input_error(tmp_path):
    corpus = tmp_path / "one.tsv"
    corpus.write_text("x\ttwobridge\t5 2\n")
    cache_dir = tmp_path / "cache"
    argv = ["corpus", "run", "--corpus", str(corpus), "--cache", str(cache_dir), "--format", "json"]
    assert run_cli(argv)[0] == 0
    (stored,) = cache_dir.iterdir()
    stored.unlink()
    stored.mkdir()
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith(f"input error: cannot write cache entry {stored}: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in cache_dir.iterdir()) == [stored.name]  # no *.tmp left
    assert stored.is_dir()


def test_usage_error_maps_to_input_exit(capsys):
    # argparse writes to the streams given to main, not to the process's
    for argv in (["knot", "analyze", "--nonsense"], ["orbit", "profile", "x", "1"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "") and err.startswith("usage:")
    code, out, err = run_cli(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage:")
    assert capsys.readouterr() == ("", "")


# -- fuzzing the corpus file and the knot commands ---------------------------------

# a name or format field: no tab and nothing str.splitlines breaks at
_FIELD = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=10
)
_SMALL = st.integers(-2, 12)


def _joined(strategy, size):
    return st.lists(strategy, min_size=size, max_size=size).map(lambda xs: " ".join(map(str, xs)))


@st.composite
def _dt_codes(draw):
    evens = draw(st.permutations(range(2, 2 * draw(st.integers(1, 6)) + 1, 2)))
    return " ".join(str(draw(st.sampled_from([1, -1])) * e) for e in evens)


@st.composite
def _braids(draw):
    strands = draw(st.integers(1, 4))
    letters = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=10))
    return " ".join(map(str, [f"strands={strands}", *letters]))


_SHAPED = {
    "torus": _joined(_SMALL, 2),
    "twobridge": _joined(_SMALL, 2),
    "dt": _dt_codes(),
    "braid": _braids(),
    "montesinos": st.builds(
        "e={}; {}".format,
        _SMALL,
        st.lists(st.builds("{}/{}".format, _SMALL, _SMALL), max_size=3).map(" ".join),
    ),
    "pd": st.lists(_joined(_SMALL, 4), max_size=4).map(
        lambda tuples: "[" + ",".join(f"({t.replace(' ', ',')})" for t in tuples) + "]"
    ),
}


@st.composite
def _corpus_texts(draw):
    """A few corpus rows, mostly with a payload of their format's shape, and maybe a junk line."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        fmt = draw(st.sampled_from([*sorted(_SHAPED), None])) or draw(_FIELD)
        payload = draw(st.one_of(_SHAPED.get(fmt, _FIELD), _FIELD))
        lines.append(f"{draw(_FIELD)}\t{fmt}\t{payload}")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=40)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


_CORPUS_TEXT = st.one_of(_corpus_texts(), st.text())


@settings(max_examples=150, deadline=None)
@given(_CORPUS_TEXT)
def test_corpus_parser_raises_nothing_but_a_parse_error(text):
    try:
        rows = analyzer.parse_corpus(text)
    except ParseError:
        return
    assert all(len(row) == 3 for row in rows)


@settings(max_examples=150, deadline=None)
@given(_CORPUS_TEXT, st.sampled_from(["json", "csv", "table"]))
def test_corpus_run_on_an_arbitrary_file_exits_with_a_documented_code(text, fmt):
    # cli.main turns every SphereCoverError into an exit code, so any other
    # exception escapes and fails the test
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "fuzz.tsv")
        with open(corpus, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        code, _, _ = run_cli(
            ["corpus", "run", "--corpus", corpus, "--coset-cap", "500", "--format", fmt]
        )
    assert code in (0, 1, 4)


_KNOT_FLAGS = {fmt: "--" + fmt for fmt in _SHAPED} | {"twobridge": "--two-bridge"}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_SHAPED)).flatmap(
        lambda fmt: st.tuples(st.just(fmt), st.one_of(_SHAPED[fmt], _FIELD))
    ),
    st.sampled_from(["analyze", "gen"]),
)
def test_knot_commands_on_an_arbitrary_payload_exit_with_a_documented_code(row, command):
    fmt, payload = row
    args = payload.split() if fmt in ("torus", "twobridge") else [payload]
    code, _, _ = run_cli(["knot", command, _KNOT_FLAGS[fmt], *args, "--coset-cap", "500"])
    assert code in (0, 1)


# -- fuzzing the space-form and orbit argument lists -------------------------------


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# a value every command that reads it must refuse at once; moderately large
# values such as 10**12 legitimately run long and are not drawn
_HUGE = st.just(str(10**400))


_TOKEN = st.one_of(_ints(-3, 40), _FIELD)
_COMMON = {"--format": st.sampled_from(["table", "json", "csv"]), "--seed": _ints(-1, 5)}


@st.composite
def _argument_lists(draw, positionals, options):
    """Positionals of their shape, options in any order, a few values junk, maybe a stray token."""

    def value(shape):
        return draw(_TOKEN if draw(st.integers(0, 7)) == 0 else shape)

    args = [value(shape) for shape in positionals]
    chosen = [item for item in {**options, **_COMMON}.items() if draw(st.booleans())]
    for flag, shape in draw(st.permutations(chosen)):
        args += [flag, value(shape)]
    if draw(st.integers(0, 7)) == 0:
        args.insert(draw(st.integers(0, len(args))), draw(_TOKEN))
    return args


@settings(max_examples=150, deadline=None)
@given(
    _argument_lists(
        [st.sampled_from(["cyclic", "tetrahedral", "icosahedral"])],
        {"--m": _ints(-1, 13), "--p": _ints(-5, 13), "--k": _ints(-1, 4) | _HUGE},
    ),
    st.integers(-2, 2) | st.integers(100, 600),
)
def test_spaceform_verify_on_an_arbitrary_argument_list_exits_with_a_documented_code(args, cap):
    # a small group cap, given last so that it holds, keeps each example fast
    code, _, _ = run_cli(["spaceform", "verify", *args, "--group-cap", str(cap)])
    assert code in (0, 1, 3)


_WEIGHT = _ints(-1, 12) | _HUGE
_ORBIT_ARGUMENTS = {
    "profile": ([_WEIGHT, _WEIGHT], {"--points": _ints(-2, 60) | _HUGE}),
    "compare": ([st.just("--chain"), _WEIGHT, _WEIGHT], {}),
    "validate": ([_WEIGHT, _WEIGHT], {}),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_ORBIT_ARGUMENTS)).flatmap(
        lambda command: st.tuples(st.just(command), _argument_lists(*_ORBIT_ARGUMENTS[command]))
    ),
    st.integers(-2, 3),
)
def test_orbit_commands_on_an_arbitrary_argument_list_exit_with_a_documented_code(case, samples):
    command, args = case
    # validate takes 100 oracle samples by default; a few, given last, keep it fast
    bound = ["--samples", str(samples)] if command == "validate" else []
    code, _, _ = run_cli(["orbit", command, *args, *bound])
    assert code in (0, 1, 3)
