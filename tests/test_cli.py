import io
import json
import os

import pytest

from spherecover import analyzer, cli
from spherecover.cache import ResultCache
from spherecover.config import RunConfig, load_config
from spherecover.errors import InternalInconsistency

TREFOIL_PD = "[(1,4,2,5),(3,6,4,1),(5,2,6,3)]"


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
        ["orbit", "compare", "--chain", "3", "2", "--grid", "0"],
        ["orbit", "compare", "--chain", "3", "2", "--grid", "1"],
        ["orbit", "validate", "2", "1", "--samples", "-3"],
        ["orbit", "validate", "2", "1", "--samples", "0"],
    ],
)
def test_orbit_degenerate_counts_exit_one(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert err.startswith("SpecViolation") and "Traceback" not in err
    assert "pass" not in out and "discrepancy" not in out


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
    assert "violations: 0" in out1
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


def test_usage_error_maps_to_input_exit():
    code, _, _ = run_cli(["knot", "analyze", "--nonsense"])
    assert code == 1
