import io

import pytest

from spherecover import analyzer as an
from spherecover import cli
from spherecover import knots as kn
from spherecover import presentations as pr
from spherecover.cache import ResultCache
from spherecover.config import packaged_corpus_text
from spherecover.errors import InternalInconsistency, ParseError, UnclassifiedFiniteGroup
from spherecover.groups import FiniteGroup
from spherecover.linalg import AbelianGroup

from cover_oracle import regular_group

TREFOIL_PD = "[(1,4,2,5),(3,6,4,1),(5,2,6,3)]"


def test_analyze_trefoil():
    r = an.analyze(kn.parse_pd(TREFOIL_PD), name="trefoil")
    assert r.determinant == 3
    assert r.cover_order == 3
    assert r.classification == an.CYCLIC and r.cyclic_order == 3


def test_analyze_torus_3_5_icosahedral():
    r = an.analyze(kn.braid_to_diagram(kn.torus_knot(3, 5)), name="t35")
    assert r.determinant == 1
    assert r.cover_order == 120
    assert r.classification == an.ICOSAHEDRAL
    assert r.h1 == AbelianGroup()


def test_analyze_torus_3_4_tetrahedral():
    r = an.analyze(kn.braid_to_diagram(kn.torus_knot(3, 4)), name="t34")
    assert r.cover_order == 24
    assert r.classification == an.TETRAHEDRAL
    assert str(r.h1) == "Z/3"
    assert r.determinant == 3


def test_analyze_unknot():
    r = an.analyze(kn.parse_pd("[]"), name="unknot")
    assert r.cover_order == 1
    assert r.classification == an.UNKNOT


def test_analyze_inconclusive():
    r = an.analyze(kn.braid_to_diagram(kn.torus_knot(3, 7)), coset_cap=2000, name="t37")
    assert r.classification == an.INFINITE_OR_UNKNOWN
    assert r.cover_order is None


def test_a_report_is_named_by_its_caller():
    d = kn.two_bridge(5, 2)
    assert an.analyze(d).name == "knot"
    assert an.analyze(d, name="").name == ""


def _even_determinant(monkeypatch):
    # an H1 of that order too, so only the parity rule is broken
    monkeypatch.setattr(pr, "meridian_determinant", lambda pres: 4)
    monkeypatch.setattr(kn, "h1_double_cover", lambda diagram: AbelianGroup((4,)))


def _cover_of_order(order):
    def corrupt(monkeypatch):
        cover = FiniteGroup.map_closure([[1, 0]] if order == 2 else [], order)
        monkeypatch.setattr(pr, "branched_cover_group", lambda outcome: (order, cover))

    return corrupt


BROKEN_COVER_RULES = {
    "even-determinant": (_even_determinant, "even determinant 4"),
    "cover-of-order-2": (_cover_of_order(2), "has order 2, determinant says 3"),
    "trivial-cover-with-det-3": (_cover_of_order(1), "has order 1, determinant says 3"),
}


@pytest.mark.parametrize("corrupt, message", BROKEN_COVER_RULES.values(), ids=BROKEN_COVER_RULES.keys())
def test_a_broken_cover_rule_raises_before_any_report(monkeypatch, corrupt, message):
    # an even determinant, a cover of order 2 and a trivial cover of a knot
    # with det != 1 each stop analyze: no report can break these rules
    corrupt(monkeypatch)
    with pytest.raises(InternalInconsistency, match=message):
        an.analyze(kn.parse_pd(TREFOIL_PD), name="trefoil")
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["knot", "analyze", "--pd", TREFOIL_PD], out, err) == 5
    assert out.getvalue() == ""
    assert err.getvalue().startswith("InternalInconsistency: pd: ") and message in err.getvalue()


def test_two_bridge_family_classifies_cyclic():
    for p, q in [(3, 1), (5, 3), (7, 3), (9, 5), (15, 4)]:
        r = an.analyze(kn.two_bridge(p, q), name=f"b({p},{q})")
        assert r.classification == an.CYCLIC
        assert r.cyclic_order == p


def test_torus_two_strand_family_cyclic():
    for n in (3, 5, 7, 9):
        r = an.analyze(kn.braid_to_diagram(kn.torus_knot(2, n)))
        assert r.classification == an.CYCLIC and r.cyclic_order == n


def test_classify_finite_named_groups():
    c7 = regular_group(pr.todd_coxeter(pr.GroupPresentation.make(1, [(1,) * 7]), 10))
    assert an.classify_finite(c7, c7.abelianization()) == (an.CYCLIC, 7)

    d = kn.braid_to_diagram(kn.torus_knot(3, 4))
    out = pr.todd_coxeter(pr.orbifold_quotient(pr.wirtinger(d)), 10_000)
    _, tetra = pr.branched_cover_group(out)
    assert an.classify_finite(tetra, tetra.abelianization()) == (an.TETRAHEDRAL, None)

    d = kn.braid_to_diagram(kn.torus_knot(3, 5))
    out = pr.todd_coxeter(pr.orbifold_quotient(pr.wirtinger(d)), 200_000)
    _, icosa = pr.branched_cover_group(out)
    assert an.classify_finite(icosa, icosa.abelianization()) == (an.ICOSAHEDRAL, None)


def test_classify_checks_the_abelianization_against_the_derived_subgroup():
    # |G'| * |G^ab| = |G| ties the Smith form to the derived series
    d = kn.braid_to_diagram(kn.torus_knot(3, 4))
    out = pr.todd_coxeter(pr.orbifold_quotient(pr.wirtinger(d)), 10_000)
    _, tetra = pr.branched_cover_group(out)
    assert str(tetra.abelianization()) == "Z/3"
    for wrong in (AbelianGroup((9,)), AbelianGroup(), AbelianGroup((), 1)):
        with pytest.raises(InternalInconsistency, match="is not"):
            an.classify_finite(tetra, wrong)


def test_classify_rejects_unexpected_group():
    # solvable would be fine, but a non-120 perfect core must surface
    # loudly; A5 = <a, b | a^2, b^3, (ab)^5> is such a group
    a5_pres = pr.GroupPresentation.make(2, [(1, 1), (2, 2, 2), (1, 2) * 5])
    a5 = regular_group(pr.todd_coxeter(a5_pres, 1000))
    assert a5.order == 60
    with pytest.raises(UnclassifiedFiniteGroup):
        an.classify_finite(a5, a5.abelianization())


def test_corpus_parsing_and_payload_dispatch():
    rows = an.parse_corpus(packaged_corpus_text())
    assert len(rows) >= 13
    names = [r[0] for r in rows]
    assert len(set(names)) == len(names)
    for _, fmt, payload in rows:
        d = an.diagram_from_payload(fmt, payload)
        assert d.crossing_count >= 0
    with pytest.raises(ParseError):
        an.diagram_from_payload("nonsense", "1 2")
    with pytest.raises(ParseError):
        an.parse_corpus("only two\tfields")


def test_corpus_fields_may_be_empty():
    text = "\tbraid\tstrands=2 1 1 1\nx\tbraid\t\n  y\tpd\t[(1,2,3)]  \n  # note\n"
    assert an.parse_corpus(text) == [
        ("", "braid", "strands=2 1 1 1"),
        ("x", "braid", ""),
        ("y", "pd", "[(1,2,3)]"),
    ]
    with pytest.raises(ParseError):
        an.parse_corpus("x\tbraid\tstrands=2 1 1 1\t")


def test_run_corpus_finite_rows():
    rows = [
        r
        for r in an.parse_corpus(packaged_corpus_text())
        if r[0] not in ("torus_3_7", "pretzel_3_5_7")
    ]
    summary = an.run_corpus(rows, coset_cap=200_000)
    assert summary.row_errors == 0
    by_name = {r.name: r for r in summary.reports}
    assert by_name["trefoil"].classification == an.CYCLIC
    assert by_name["torus_3_5"].classification == an.ICOSAHEDRAL
    assert by_name["torus_3_4"].classification == an.TETRAHEDRAL
    for unknot in ("unknot_0", "unknot_3", "unknot_10"):
        assert by_name[unknot].classification == an.UNKNOT
    # reports deterministic and sorted
    assert [r.name for r in summary.reports] == sorted(by_name)


def test_run_corpus_collects_row_errors():
    rows = [("bad", "pd", "[(1,2,3)]"), ("good", "pd", TREFOIL_PD)]
    summary = an.run_corpus(rows)
    assert summary.row_errors == 1
    errs = [r for r in summary.reports if r.error]
    assert len(errs) == 1 and errs[0].name == "bad"
    assert "ParseError" in errs[0].error


def test_run_corpus_reads_back_what_it_stores(tmp_path):
    rows = [("bad", "pd", "[(1,2,3)]"), ("trefoil", "pd", TREFOIL_PD), ("b75", "twobridge", "7 5")]
    cache = ResultCache(str(tmp_path))
    runs = [an.run_corpus(rows, cache=cache) for _ in range(2)]
    # sorted: b75, bad, trefoil; a report read back carries no time
    assert [r.ms is None for r in runs[0].reports] == [False, True, False]
    assert [r.ms is None for r in runs[1].reports] == [True, True, True]
    assert [r.to_record() for r in runs[0].reports] == [r.to_record() for r in runs[1].reports]
    assert runs[0].row_errors == runs[1].row_errors == 1
    # the error row is never stored: one entry per good row
    assert len(list(tmp_path.iterdir())) == 2
    key = cache.key_for("[(1,2,3)]", "pd", pr.DEFAULT_COSET_CAP)
    assert cache.get(key) is None


def test_report_record_key_order():
    r = an.analyze(kn.parse_pd(TREFOIL_PD), name="trefoil")
    rec = r.to_record()
    assert list(rec.keys()) == [
        "schema",
        "name",
        "det",
        "h1",
        "orbifold_order",
        "cover_order",
        "classification",
    ]
    rec_t = r.to_record(show_timing=True)
    assert "ms" in rec_t


def test_empty_corpus():
    summary = an.run_corpus([])
    assert summary.reports == [] and summary.row_errors == 0


def test_montesinos_with_finite_cover():
    # the (3,3,1)-pretzel is the two-bridge knot of fraction 15/4
    m = kn.montesinos(0, [(1, 3), (1, 3), (1, 1)])
    r = an.analyze(m, name="pretzel_3_3_1")
    assert r.determinant == 15
    assert r.classification == an.CYCLIC and r.cyclic_order == 15
    b = an.analyze(kn.two_bridge(15, 4))
    assert (r.determinant, r.cover_order) == (b.determinant, b.cover_order)


def test_montesinos_single_fraction_same_cover_group_order():
    for p, q in [(5, 3), (7, 3)]:
        via_tangles = an.analyze(kn.montesinos(0, [(p, q)]))
        via_plat = an.analyze(kn.two_bridge(p, q))
        assert via_tangles.determinant == via_plat.determinant
        assert via_tangles.cover_order == via_plat.cover_order
        assert via_tangles.classification == via_plat.classification

