from fractions import Fraction

import pytest

from spherecover import groups
from spherecover import quaternions as qt
from spherecover import spaceforms as sf
from spherecover.errors import CapExceeded, InternalInconsistency, SpecViolation
from spherecover.groups import FiniteRotationGroup, generate_group
from spherecover.linalg import AbelianGroup


def involution_uniqueness_scan(cert, candidates=None):
    """Partition involutions of the extension with circle fixed sets by conjugacy.

    Candidates default to every element of Gamma minus Pi that squares to
    the identity and fixes a circle.  A single part is the uniqueness
    statement for the branch involution.
    """
    gamma = cert.gamma
    if candidates is None:
        # Pi is normal in Gamma, so each condition holds for a whole class or none of it
        return [
            [gamma.elements[i] for i in cls]
            for cls in gamma.conjugacy_classes()
            if cls[0] != gamma.identity_idx
            and gamma.elements[cls[0]] not in cert.pi
            and gamma.imul(cls[0], cls[0]) == gamma.identity_idx
            and sf._class_fixed_set(gamma, cls).kind == "circle"
        ]
    for e in candidates:
        if e not in gamma.index:
            raise SpecViolation(f"candidate {e!r} is not in the extension")
        if not (e * e).is_identity() or qt.fixed_set(e).kind != "circle":
            raise SpecViolation(f"candidate {e!r} is not a circle-fixing involution")
    wanted = set(candidates)
    parts = []
    assigned = {}
    for e in candidates:
        idx = gamma.index[e]
        if idx in assigned:
            continue
        cls = gamma.conjugacy_class(idx)
        members = [gamma.elements[i] for i in cls if gamma.elements[i] in wanted]
        for i in cls:
            assigned[i] = len(parts)
        parts.append(members)
    return parts


@pytest.fixture(scope="module")
def icosa_cert():
    cert = sf.build(sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=1))
    sf.verify(cert)
    return cert


def test_cyclic_orders():
    for m, p in [(1, 1), (3, 1), (5, 2), (9, 4), (15, 2)]:
        cert = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=m, p=p))
        assert cert.pi.order == m


def test_tetrahedral_base_case_orders():
    cert = sf.build(sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=0))
    # the SO(4) group is the binary tetrahedral group; its Spin preimage doubles
    assert cert.pi.order == 24
    assert cert.pi_hat.order == 48


def test_icosahedral_base_case_orders(icosa_cert):
    assert icosa_cert.pi_hat.order == 240
    assert icosa_cert.pi.order == 120


def test_icosahedral_all_checks_pass(icosa_cert):
    assert icosa_cert.all_checks_pass()
    assert icosa_cert.abelianization == AbelianGroup()


def test_cyclic_5_2_checks_and_abelianization():
    cert = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=5, p=2))
    checks = sf.verify(cert)
    assert all(ok for ok, _ in checks.values())
    assert str(cert.abelianization) == "Z/5"


def test_spec_validation():
    with pytest.raises(SpecViolation):
        sf.SpaceFormSpec(sf.CYCLIC, m=4, p=1).validate()
    with pytest.raises(SpecViolation):
        sf.SpaceFormSpec(sf.CYCLIC, m=9, p=3).validate()
    with pytest.raises(SpecViolation):
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=2, k=0).validate()
    with pytest.raises(SpecViolation):
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=5, k=1).validate()
    with pytest.raises(SpecViolation):
        sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=5).validate()
    with pytest.raises(SpecViolation):
        sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=4, p=1))


def test_forced_even_m_fails_two_torsion_check():
    spec = sf.SpaceFormSpec(sf.CYCLIC, m=4, p=1)
    cert = sf.build(spec, allow_invalid=True)
    checks = sf.verify(cert)
    ok, detail = checks["2_no_two_torsion"]
    assert not ok
    assert "Z/4" in detail or "Z/2" in detail


@pytest.mark.parametrize(
    "spec",
    [
        sf.SpaceFormSpec(sf.CYCLIC, m=4, p=1),
        sf.SpaceFormSpec(sf.CYCLIC, m=6, p=3),
        sf.SpaceFormSpec(sf.CYCLIC, m=9, p=4),
        sf.SpaceFormSpec(sf.CYCLIC, m=5, p=-1),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=2, k=1),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=5, k=2),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=3, k=2),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=3),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=4, k=3),
        sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=2),
        sf.SpaceFormSpec("unlisted", m=1),
    ],
    ids=str,
)
def test_spin_order_bound_holds_and_refuses_before_arithmetic(spec, monkeypatch):
    bound = sf._spin_order_bound(spec)
    assert 1 < bound <= sf.build(spec, allow_invalid=True).pi_hat.order
    monkeypatch.setattr(sf, "_build_generators", None)  # a call would raise TypeError
    with pytest.raises(CapExceeded):
        sf.build(spec, cap=bound - 1, allow_invalid=True)


def test_involution_square_and_circle(icosa_cert):
    iota = icosa_cert.iota_tilde
    assert (iota * iota).is_identity()
    assert qt.fixed_set(iota).kind == "circle"


def test_uniqueness_scan_cyclic():
    cert = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=3, p=1))
    sf.verify(cert)
    parts = involution_uniqueness_scan(cert)
    assert len(parts) == 1
    assert cert.iota_tilde in parts[0]


def test_uniqueness_scan_rejects_identity():
    cert = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=3, p=1))
    sf.verify(cert)
    ident = qt.RotationClass(qt.Spin4Element(qt.quat_one(), qt.quat_one())).lift(cert.conductor)
    with pytest.raises(SpecViolation):
        involution_uniqueness_scan(cert, candidates=[ident])


def test_uniqueness_scan_icosahedral(icosa_cert):
    parts = involution_uniqueness_scan(icosa_cert)
    assert len(parts) == 1


def test_orders_reproducible():
    spec = sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=2)
    a = sf.build(spec)
    b = sf.build(spec)
    assert a.pi_hat.order == b.pi_hat.order
    assert a.pi.order == b.pi.order


def test_spin_to_so4_order_relation():
    # |Pi| = |Pi^|/2 exactly when -(1,1) is in the Spin-level group
    minus = qt.Spin4Element(-qt.quat_one(), -qt.quat_one())
    for spec in [
        sf.SpaceFormSpec(sf.CYCLIC, m=5, p=1),
        sf.SpaceFormSpec(sf.CYCLIC, m=5, p=2),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=0),
        sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=1),
    ]:
        cert = sf.build(spec)
        has_minus = minus.lift(cert.conductor) in cert.pi_hat
        if has_minus:
            assert cert.pi.order * 2 == cert.pi_hat.order
        else:
            assert cert.pi.order == cert.pi_hat.order


def test_certificate_report_lines(icosa_cert):
    lines = icosa_cert.report_lines()
    assert lines[0].startswith("spaceform: icosahedral")
    assert any("check[7_intersection_gcd]: pass" in l for l in lines)


def test_group_queries_after_closure_run_on_integers(monkeypatch):
    cert = sf.build(sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=2))
    groups = [cert.pi_hat, cert.pi, cert.gamma_hat, cert.gamma]

    def no_exact_product(self, other):
        raise RuntimeError("exact product after closure")

    monkeypatch.setattr(qt.Spin4Element, "__mul__", no_exact_product)
    monkeypatch.setattr(qt.RotationClass, "__mul__", no_exact_product)
    for group in groups:
        ab = group.abelianization()
        series = group.derived_series()
        # two integer routes to |G/G'|: Schreier-relator SNF and the derived subgroup
        assert ab.order() * len(series[1]) == len(group)
        assert len(series[-1]) == 1  # the tetrahedral family is solvable
        cls = group.conjugacy_class(len(group) - 1)
        ncl = group.normal_closure(cls)
        assert len(group) % len(cls) == 0 and len(group) % len(ncl) == 0
        assert set(cls) <= set(ncl)
    assert str(cert.pi.abelianization()) == "Z/9"
    gamma_hat = groups[2]
    iota_cls = gamma_hat.conjugacy_class(gamma_hat.index[cert.iota_hat])
    assert len(gamma_hat.normal_closure(iota_cls)) == len(gamma_hat)


def test_default_sweep_well_formed():
    specs = sf.default_sweep()
    assert len(specs) >= 12
    for spec in specs:
        spec.validate()
    families = {s.family for s in specs}
    assert families == {sf.CYCLIC, sf.TETRAHEDRAL, sf.ICOSAHEDRAL}


def test_verify_computes_one_fixed_set_per_class(monkeypatch):
    cert = sf.build(sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=2))
    calls = []
    fixed_set = qt.fixed_set
    monkeypatch.setattr(qt, "fixed_set", lambda e: calls.append(e) or fixed_set(e))
    sf.verify(cert)
    assert cert.all_checks_pass()
    assert len(cert.gamma) == 144
    # one fixed set per non-identity class of Gamma, plus one for check 4
    assert len(calls) == len(cert.gamma.conjugacy_classes()) == 15


def test_real_part_criterion_runs_on_every_class_member(monkeypatch):
    cert = sf.build(sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=2))
    gamma = cert.gamma
    iota_cls = gamma.conjugacy_class(gamma.index[cert.iota_tilde])
    liar = iota_cls[-1]
    assert len(iota_cls) > 1 and gamma.elements[liar] not in cert.pi
    # check 6 reads the real-part criterion from the fixed-point mask
    mask = list(gamma.fixed_point_mask)
    mask[liar] = not mask[liar]
    monkeypatch.setattr(gamma, "fixed_point_mask", mask)
    with pytest.raises(InternalInconsistency):
        sf.verify(cert)
    with pytest.raises(InternalInconsistency):
        involution_uniqueness_scan(cert)


def test_check_three_decides_normalization(monkeypatch):
    # omega = (1+i+j+k)/2 conjugates i to j, so it does not normalize <(i, 1)>
    one, i = qt.quat_one(), qt.quat_i()
    h = Fraction(1, 2)
    omega = qt.Spin4Element(qt.quat(h, h, h, h), one)
    monkeypatch.setattr(
        sf, "_build_generators", lambda spec: ([qt.Spin4Element(i, one)], omega)
    )
    cert = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=1, p=1))
    assert len(cert.gamma_hat) == 24  # <i, omega> is the binary tetrahedral group
    ok, detail = sf.verify(cert)["3_normalizes"]
    assert not ok
    escaping = qt.Spin4Element(i, one)
    assert cert.pi_hat.generators() == [escaping]
    assert detail == f"conjugate of {escaping!r} escapes"


@pytest.mark.parametrize(
    "spec",
    [
        sf.SpaceFormSpec(sf.CYCLIC, m=15, p=2),
        sf.SpaceFormSpec(sf.CYCLIC, m=9, p=1),  # iota^2 = -1 is not in Pi^
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=0),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=2),
        sf.SpaceFormSpec(sf.TETRAHEDRAL, m=7, k=0),
        sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=1),
    ],
    ids=lambda spec: spec.label(),
)
def test_pi_read_off_gamma_equals_its_own_closure(spec):
    cert = sf.build(spec)
    gens, _ = sf._build_generators(spec)
    pi_hat = generate_group([g.lift(cert.conductor) for g in gens])
    for read, own in ((cert.pi_hat, pi_hat), (cert.pi, pi_hat.to_so4())):
        assert read.ambient == own.ambient
        assert read.elements == own.elements
        assert (read.right, read.parent, read.gen) == (own.right, own.parent, own.gen)


def test_build_closes_each_factor_once(monkeypatch):
    calls = []
    close = groups._coset_closure
    to_so4 = FiniteRotationGroup.to_so4

    def counting_close(one, gens, cap):
        calls.append("close")
        return close(one, gens, cap)

    monkeypatch.setattr(groups, "_coset_closure", counting_close)
    monkeypatch.setattr(
        FiniteRotationGroup, "to_so4", lambda self: calls.append("to_so4") or to_so4(self)
    )
    cert = sf.build(sf.SpaceFormSpec(sf.TETRAHEDRAL, m=7, k=2))
    assert sorted(calls) == ["close", "close", "to_so4"]
    assert len(cert.gamma_hat) == 2 * len(cert.pi_hat) == 4 * len(cert.pi)
