"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its runtime so `pytest -s
tests/test_acceptance.py` reads as a checklist; runtime caps are asserted,
not just reported.
"""

import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from spherecover import analyzer as an
from spherecover import knots as kn
from spherecover import linalg as la
from spherecover import orbits as ob
from spherecover import presentations as pr
from spherecover import quaternions as qt
from spherecover import spaceforms as sf
from spherecover.config import packaged_corpus_text
from spherecover.groups import generate_group

from kernel_oracle import fixed_dimension, fixed_matrix, matrix_vector
from snf_oracle import sparse_rows
from test_linalg import _determinantal_divisor_oracle
from test_orbits import end_slope_cone_angles
from test_presentations import NAIVE_CASES, naive_group_order


def _report(num, label, t0, cap):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({label}): PASS in {elapsed:.1f}s (cap {cap:.0f}s)")
    assert elapsed < cap, f"criterion {num} exceeded its {cap}s budget: {elapsed:.1f}s"


def test_acceptance_1_binary_icosahedral_group():
    t0 = time.perf_counter()
    gens = [
        qt.Spin4Element(q, qt.quat_one()) for q in sf.binary_icosahedral_generators()
    ]
    group = generate_group(gens, cap=100_000)
    assert group.order == 120
    assert len(group.derived_series()[1]) == len(group)  # perfect
    closure_sizes = {
        len(group.normal_closure(cls)) for cls in group.conjugacy_classes()
    }
    assert closure_sizes == {1, 2, 120}  # only proper nontrivial normal subgroup: +-1
    _report(1, "binary icosahedral order/perfect/normal scan", t0, 5)


@pytest.fixture(scope="module")
def corpus_summary():
    rows = an.parse_corpus(packaged_corpus_text())
    assert len(rows) >= 13
    t0 = time.perf_counter()
    summary = an.run_corpus(rows, coset_cap=200_000)
    summary.elapsed = time.perf_counter() - t0
    return summary


def test_acceptance_2_cover_order_trichotomy_on_corpus(corpus_summary):
    t0 = time.perf_counter() - corpus_summary.elapsed
    assert corpus_summary.row_errors == 0
    unknots = {"unknot_0", "unknot_3", "unknot_10"}
    for report in corpus_summary.reports:
        if report.cover_order is not None:
            assert report.cover_order != 2, report.name
            if report.name in unknots:
                assert report.cover_order == 1
            else:
                assert report.cover_order >= 3, report.name
    order_one = {r.name for r in corpus_summary.reports if r.cover_order == 1}
    assert order_one == unknots
    _report(2, f"corpus trichotomy ({len(corpus_summary.reports)} rows)", t0, 120)


def test_acceptance_3_poincare_sphere_anchor():
    t0 = time.perf_counter()
    report = an.analyze(
        kn.braid_to_diagram(kn.torus_knot(3, 5), name="torus_3_5"), coset_cap=200_000
    )
    assert report.cover_order == 120
    assert report.h1 == la.AbelianGroup()
    assert report.classification == an.ICOSAHEDRAL
    _report(3, "(3,5)-torus knot cover order 120, icosahedral", t0, 30)


def test_acceptance_4_determinant_coherence(corpus_summary):
    t0 = time.perf_counter()
    rows = {r[0]: r for r in an.parse_corpus(packaged_corpus_text())}
    checked = 0
    for report in corpus_summary.reports:
        assert report.determinant % 2 == 1, report.name
        if report.cover_order is None:
            continue
        # two fully independent paths: crossing matrix at -1 versus the
        # abelianization of the enumerated cover group, recomputed here
        name, fmt, payload = rows[report.name]
        diagram = an.diagram_from_payload(fmt, payload, name=name)
        det = kn.determinant(diagram)
        outcome = pr.todd_coxeter(
            pr.orbifold_quotient(pr.wirtinger(diagram)), 200_000
        )
        _, cover = pr.branched_cover_group(outcome)
        cover_ab = cover.abelianization()
        assert cover_ab.order() == det == report.determinant, report.name
        assert cover_ab == kn.h1_double_cover(diagram), report.name
        checked += 1
    assert checked >= 10
    _report(4, f"determinant coherence on {checked} finite covers", t0, 30)


def test_acceptance_5_two_bridge_cyclic_correspondence():
    t0 = time.perf_counter()
    for p, q in [(3, 1), (5, 3), (7, 3), (9, 5), (15, 4)]:
        report = an.analyze(kn.two_bridge(p, q, name=f"b({p},{q})"))
        assert report.classification == an.CYCLIC
        assert report.cyclic_order == p
    _report(5, "two-bridge family classifies cyclic(p)", t0, 60)


def test_acceptance_6_spaceform_sweep():
    t0 = time.perf_counter()
    specs = sf.default_sweep()
    assert len(specs) >= 12
    for spec in specs:
        cert = sf.build(spec, cap=100_000)
        checks = sf.verify(cert)
        failing = [k for k, (ok, _) in checks.items() if not ok]
        assert not failing, f"{spec.label()}: failing {failing}"
        if spec.family == sf.CYCLIC:
            assert cert.pi.order == spec.m
        elif spec.family == sf.ICOSAHEDRAL:
            assert cert.pi_hat.order == 240 * spec.m
            assert cert.pi.order == 120 * spec.m
        # closed forms: Z/m, except that the tetrahedral family adds a 3-part
        if spec.family == sf.TETRAHEDRAL:
            assert cert.abelianization.order() == 3 ** max(spec.k, 1) * spec.m
        else:
            assert cert.abelianization == la.AbelianGroup.from_factors([spec.m])
        # closed-form fixed sets against the oracle kernel, on the involution
        # and on one representative of every class of Gamma
        gamma = cert.gamma
        reps = [cert.iota_tilde] + [gamma.elements[c[0]] for c in gamma.conjugacy_classes()]
        for rotation in reps:
            fs = qt.fixed_set(rotation)
            assert fs.dimension() == fixed_dimension(rotation)
            m = fixed_matrix(rotation)
            for v in fs.basis:
                assert all(x.is_zero() for x in matrix_vector(m, v))
    # negative control: an even-order cyclic group has 2-torsion and the
    # certificate must say so with a witness, not pass silently
    bad = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=4, p=1), allow_invalid=True)
    checks = sf.verify(bad)
    ok, detail = checks["2_no_two_torsion"]
    assert not ok and "Z/" in detail
    _report(6, f"space-form sweep ({len(specs)} specs, 7 checks each)", t0, 60)


def test_acceptance_7_orbit_geometry():
    t0 = time.perf_counter()
    f11 = ob.profile(ob.WeightedAction(1, 1))
    pairs = [
        (k, l)
        for k in range(1, 7)
        for l in range(1, k + 1)
        if math.gcd(k, l) == 1
    ]
    for k, l in pairs:
        fkl = ob.profile(ob.WeightedAction(k, l))
        fk1 = ob.profile(ob.WeightedAction(k, 1))
        assert ob.compare(f11, fk1)
        assert ob.compare(fk1, fkl)
        if l >= 2:
            assert ob.compare(f11, ob.branched_double(fkl))
        a0, a1 = end_slope_cone_angles(fkl)
        assert abs(a0 - 2 * math.pi / k) < 1e-8
        assert abs(a1 - 2 * math.pi / l) < 1e-8
    for weights in [(1, 1), (2, 1), (3, 2)]:
        worst = ob.validate_profile(
            ob.WeightedAction(*weights), samples=100, seed=0, tol=1e-3
        )
        assert worst < 1e-3, weights
    act = ob.WeightedAction(1, 1)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = (raw[0], raw[1])
        q = (raw[2], raw[3])
        pn = math.sqrt(abs(p[0]) ** 2 + abs(p[1]) ** 2)
        qn = math.sqrt(abs(q[0]) ** 2 + abs(q[1]) ** 2)
        p = (p[0] / pn, p[1] / pn)
        q = (q[0] / qn, q[1] / qn)
        t1, a1 = ob.quotient_coordinates(act, p)
        t2, a2 = ob.quotient_coordinates(act, q)
        cosang = math.cos(2 * t1) * math.cos(2 * t2) + math.sin(2 * t1) * math.sin(
            2 * t2
        ) * math.cos(a1 - a2)
        round_metric = 0.5 * math.acos(max(-1.0, min(1.0, cosang)))
        assert abs(ob.orbit_distance(act, p, q) - round_metric) < 1e-5
    _report(7, "orbit chain/doubling/cones/oracle/Hopf", t0, 60)


def test_acceptance_8_oracle_suites():
    t0 = time.perf_counter()
    # Todd-Coxeter vs brute-force word enumeration on 11 presentations
    assert len(NAIVE_CASES) == 11
    for _, ngens, rels, max_len, expected in NAIVE_CASES:
        pres = pr.GroupPresentation.make(ngens, rels)
        assert pr.todd_coxeter(pres, 10_000).order == naive_group_order(
            ngens, rels, max_len
        ) == expected
    # Smith normal form vs determinantal-divisor brute force
    rng = random.Random(424242)
    for _ in range(100):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert la.smith_normal_form(sparse_rows(m), 4) == _determinantal_divisor_oracle(m)
    # oracle kernel dimension vs closed-form fixed set and real-part criterion
    pool = []
    for spec in (
        sf.SpaceFormSpec(sf.CYCLIC, m=5, p=2),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=0),
        sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=1),
    ):
        cert = sf.build(spec)
        gamma = cert.gamma
        pool.extend(gamma.elements)
    rng = random.Random(7)
    for _ in range(10_000):
        g = rng.choice(pool)
        h = rng.choice(pool)
        if g.conductor() != h.conductor():
            continue
        cls = g * h
        dim = fixed_dimension(cls)
        assert dim in (0, 2, 4)
        assert dim == qt.fixed_set(cls).dimension()
        assert (dim > 0) == qt.has_fixed_points(cls)
    _report(8, "oracle suites: TC/words, SNF/minors, kernel/real-part", t0, 300)
