import hashlib
import math
from fractions import Fraction

import pytest

from spherecover import cyclotomic as cy
from spherecover import groups
from spherecover import quaternions as qt
from spherecover import spaceforms as sf
from spherecover.errors import (
    CapExceeded,
    InvalidArgument,
    NotMember,
    SphereCoverError,
    WrongAmbient,
)
from spherecover.groups import FiniteGroup, generate_group
from spherecover.linalg import AbelianGroup
from spherecover.spaceforms import (
    binary_icosahedral_generators,
    octahedral_extra_generator,
)

import snf_oracle


def spin_left(q):
    return qt.Spin4Element(q, qt.quat_one())


@pytest.fixture(scope="module")
def q8():
    """The eight Lipschitz units as a Spin(4) group acting on the left."""
    return generate_group([spin_left(qt.quat_i()), spin_left(qt.quat_j())], cap=32)


@pytest.fixture(scope="module")
def icosa():
    gens = [spin_left(q) for q in binary_icosahedral_generators()]
    return generate_group(gens, cap=1000)


def test_q8_order(q8):
    assert q8.order == 8


def test_cap_exceeded_cyclic():
    g = spin_left(qt.circle_quaternion(1, 7))
    with pytest.raises(CapExceeded):
        generate_group([g], cap=5)
    assert generate_group([g], cap=7).order == 7


def test_closure_idempotence(q8):
    again = generate_group(q8.elements, cap=64)
    assert set(again.elements) == set(q8.elements)


def test_conjugacy_classes_q8(q8):
    i_elt = spin_left(qt.quat_i())
    cls = q8.conjugacy_class(i_elt)
    members = {q8.elements[x] for x in cls}
    assert members == {i_elt, spin_left(-qt.quat_i())}
    ident = q8.elements[q8.identity_idx]
    assert q8.conjugacy_class(ident) == (q8.identity_idx,)


def test_conjugacy_requires_membership(q8):
    with pytest.raises(NotMember):
        q8.conjugacy_class(spin_left(qt.circle_quaternion(1, 3)))


def test_normal_closure_center_q8(q8):
    minus_one = spin_left(-qt.quat_one())
    ncl = q8.normal_closure([q8.index[minus_one]])
    assert len(ncl) == 2


def test_q8_derived_and_abelianization(q8):
    assert len(q8.derived_series()[1]) == 2
    assert str(q8.abelianization()) == "Z/2 x Z/2"
    assert [len(s) for s in q8.derived_series()] == [8, 2, 1]


def test_cyclic_group_abelianization():
    c5 = generate_group([spin_left(qt.circle_quaternion(1, 5))], cap=16)
    assert c5.order == 5
    assert str(c5.abelianization()) == "Z/5"
    assert [len(s) for s in c5.derived_series()] == [5, 1]


def test_binary_icosahedral_order_and_perfection(icosa):
    assert icosa.order == 120
    assert len(icosa.derived_series()[1]) == len(icosa)  # perfect
    assert icosa.abelianization() == AbelianGroup()
    series = icosa.derived_series()
    assert len(series[-1]) == 120  # stabilizes at the whole group


def test_binary_icosahedral_minus_one_central(icosa):
    minus_one = spin_left(-qt.quat_one()).lift(5)
    assert len(icosa.conjugacy_class(minus_one)) == 1


def test_binary_icosahedral_normal_closure_scan(icosa):
    # only proper nontrivial normal subgroup is the center of order 2
    sizes = {len(icosa.normal_closure(cls)) for cls in icosa.conjugacy_classes()}
    assert sizes == {1, 2, 120}
    j_elt = spin_left(qt.quat_j()).lift(5)
    assert len(icosa.normal_closure([icosa.index[j_elt]])) == 120


def test_stray_octahedral_generator_blows_cap():
    gens = [spin_left(q) for q in binary_icosahedral_generators()]
    gens.append(spin_left(octahedral_extra_generator()))
    with pytest.raises(CapExceeded):
        generate_group(gens, cap=2000)


def test_lagrange_on_subgroup_ops(icosa):
    for cls in icosa.conjugacy_classes():
        sub = icosa.normal_closure(cls)
        assert icosa.order % len(sub) == 0


def test_acts_freely_and_witness():
    # lens-type cyclic group acting freely
    g = qt.Spin4Element(qt.circle_quaternion(1, 5), qt.circle_quaternion(3, 5))
    free_spin = generate_group([g], cap=32)
    assert free_spin.order == 5
    free, witness = free_spin.to_so4().acts_freely()
    assert free and witness is None
    # any group containing the class of (j, j) is not free
    jj = qt.Spin4Element(qt.quat_j(), qt.quat_j())
    not_free_spin = generate_group([g.lift(20), jj.lift(20)], cap=256)
    assert not_free_spin.order == 20
    not_free = not_free_spin.to_so4()
    free, witness = not_free.acts_freely()
    assert not free
    assert qt.has_fixed_points(witness)


def test_acts_freely_needs_so4(q8):
    with pytest.raises(WrongAmbient):
        q8.acts_freely()


def test_rotation_groups_close_on_spin_elements(q8):
    # SO(4) groups come from to_so4 only
    with pytest.raises(WrongAmbient):
        generate_group([qt.RotationClass(e) for e in q8.generators()])


def test_subgroup_intersections(icosa):
    one = qt.quat_one()
    z2 = qt.Spin4Element(one, -one)
    gens = [spin_left(q) for q in binary_icosahedral_generators()] + [z2]
    product = generate_group(gens, cap=512)
    left, right, gcd = product.subgroup_intersections()
    assert (left, right, gcd) == (120, 2, 2)
    trivial = generate_group([spin_left(qt.quat_one())], cap=4)
    assert trivial.subgroup_intersections() == (1, 1, 1)
    diagonal = generate_group(
        [qt.Spin4Element(qt.circle_quaternion(1, 3), qt.circle_quaternion(1, 3))],
        cap=16,
    )
    l, r, g = diagonal.subgroup_intersections()
    assert g <= 2 and l == 1 and r == 1


def test_subgroup_intersections_wrong_ambient():
    jj = generate_group([qt.Spin4Element(qt.quat_one(), qt.quat_j())], cap=8)
    with pytest.raises(WrongAmbient):
        jj.subgroup_intersections()


@pytest.mark.parametrize(
    "spec, r",
    [
        (sf.SpaceFormSpec(sf.CYCLIC, m=5, p=1), 4),  # iota^2 = -1 is not in Pi^
        (sf.SpaceFormSpec(sf.TETRAHEDRAL, m=1, k=0), 2),
    ],
)
def test_extension_matches_breadth_first_closure(spec, r):
    cert = sf.build(spec)
    assert len(cert.gamma_hat) == r * len(cert.pi_hat)
    # the pair closure's tables agree cell by cell with exact products
    for group in (cert.pi_hat, cert.gamma_hat):
        gens = group.generators()
        for s, col in enumerate(group.right):
            for x, y in enumerate(col):
                assert group.elements[y] == group.elements[x] * gens[s]


def test_pair_closure_cap_counts_pairs():
    # each factor has order 3, but the pairs make a group of order 9
    zeta = qt.circle_quaternion(1, 3)
    one = qt.quat_one()
    gens = [qt.Spin4Element(zeta, one), qt.Spin4Element(one, zeta)]
    with pytest.raises(CapExceeded):
        generate_group(gens, cap=8)
    group = generate_group(gens, cap=9)
    assert group.order == 9
    assert group.subgroup_intersections() == (3, 3, 3)


def test_lookups_happen_at_the_group_conductor():
    i = spin_left(qt.quat_i())
    c4 = generate_group([i])
    # a query from a field that does not embed in the group's is refused
    for lookup in (
        lambda: i.lift(7) in c4,
        lambda: c4.conjugacy_class(i.lift(7)),
    ):
        with pytest.raises(WrongAmbient, match="conductor 7.*conductor 1"):
            lookup()
    # a query whose conductor divides the group's is lifted and found
    c4_7 = generate_group([i.lift(7)])
    assert i in c4_7 and qt.Spin4Element(qt.quat_one(), qt.quat_i()) not in c4_7
    assert c4_7.conjugacy_class(i) == c4_7.conjugacy_class(i.lift(7))


@pytest.mark.parametrize(
    "call",
    [
        lambda: FiniteGroup([0, 0], [], [-1, 0], [-1, 0]),
        lambda: FiniteGroup.generate(1, [1], cap=0),
        lambda: generate_group([spin_left(qt.quat_i())], cap=0),
        lambda: generate_group([spin_left(qt.quat_one())], cap=0),
        lambda: generate_group([]),
    ],
    ids=[
        "duplicate_elements",
        "cap_below_one",
        "group_cap_below_one",
        "trivial_group_cap_below_one",
        "no_generators",
    ],
)
def test_bad_arguments_are_invalid_arguments(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, SphereCoverError) and isinstance(info.value, ValueError)


def test_closures_build_their_index_only_on_lookup():
    # Z/6 acting regularly on range(6) by +1 and +2, closed on integers
    maps = [[(x + 1) % 6 for x in range(6)], [(x + 2) % 6 for x in range(6)]]
    on_maps = FiniteGroup.map_closure(maps, 6)
    on_labels = FiniteGroup.closure(0, 2, lambda x, s: maps[s][x], 100)
    for group in (on_maps, on_labels):
        assert "index" not in vars(group)
        assert 5 in group and 6 not in group
        assert group.index == {e: i for i, e in enumerate(group.elements)}
    # a group given its elements from outside still checks them at once
    rotations = generate_group([spin_left(qt.quat_i())])
    assert "index" in vars(rotations)
    with pytest.raises(InvalidArgument):
        FiniteGroup([(0, 1), (0, 1)], [], [-1, 0], [-1, 0])


def test_factor_closures_skip_identity_and_repeated_factors(monkeypatch):
    h = Fraction(1, 2)
    omega = qt.quat(h, h, h, h)
    one, zeta = qt.quat_one(), qt.circle_quaternion(1, 9)
    gens = [
        qt.Spin4Element(omega, one),  # identity right factor
        qt.Spin4Element(qt.quat_i(), zeta),
        qt.Spin4Element(omega, zeta),  # both factors repeat earlier ones
        qt.Spin4Element(one, zeta.inverse()),  # identity left factor
    ]
    calls = []
    close = groups._coset_closure

    def counting(one, factor_gens, cap):
        calls.append(len(factor_gens))
        return close(one, factor_gens, cap)

    monkeypatch.setattr(groups, "_coset_closure", counting)
    group = generate_group(gens)
    # L is closed on omega and i only, R on zeta and its inverse only
    assert calls == [2, 2]
    # the element-level closure of the same generators is the oracle
    lifted = [g.lift(36) for g in gens]
    oracle = FiniteGroup.generate(spin_left(qt.quat_one()).lift(36), lifted, 10_000)
    assert len(group) == 216  # the binary tetrahedral group times the 9th roots
    assert group.elements == oracle.elements
    assert (group.right, group.parent, group.gen) == (oracle.right, oracle.parent, oracle.gen)


def at_one_conductor(quats):
    conductor = math.lcm(*(q.conductor for q in quats))
    return qt.one_at(conductor), [q.lift(conductor) for q in quats]


@pytest.mark.parametrize("spec", sf.default_sweep(), ids=sf.SpaceFormSpec.label)
def test_coset_closure_matches_the_element_level_closure(spec):
    gens, iota_hat = sf._build_generators(spec)
    gens.append(iota_hat)
    for side in ("left", "right"):
        one, quats = at_one_conductor([getattr(g, side) for g in gens])
        elements, columns = groups._factor_closure(one, quats, 10_000)
        oracle = FiniteGroup.generate(one, quats, 10_000)
        assert len(elements) == len(oracle) and set(elements) == set(oracle.elements)
        at = [oracle.index[e] for e in elements]
        for s, col in enumerate(columns):
            assert [at[y] for y in col] == [oracle.right[s][x] for x in at]


def test_coset_closure_makes_one_product_per_element_and_coset_edge(monkeypatch):
    one, quats = at_one_conductor(binary_icosahedral_generators())
    products = []
    mul = qt.UnitQuaternion.__mul__
    monkeypatch.setattr(
        qt.UnitQuaternion, "__mul__", lambda p, q: products.append(1) or mul(p, q)
    )
    elements, _ = groups._factor_closure(one, quats, 120)
    # <i> has order m = 4, so the 120 elements fill t = 30 right cosets:
    # m - 1 products for i^2, ..., i^m = 1 and as many in each further
    # coset, and one for each further representative and each of the k = 5
    # generators
    m, t, k = 4, 30, 5
    assert len(elements) == m * t
    assert len(products) == t * (m - 1) + (t - 1) * k


@pytest.mark.parametrize(
    "quats, order",
    [
        ([qt.circle_quaternion(1, 7)], 7),  # the cap falls among the powers
        (binary_icosahedral_generators(), 120),  # the cap falls on a whole coset
    ],
    ids=["cyclic-7", "binary-icosahedral"],
)
def test_coset_closure_cap_is_the_factor_order(quats, order):
    one, quats = at_one_conductor(quats)
    elements, _ = groups._factor_closure(one, quats, order)
    assert len(elements) == order
    with pytest.raises(CapExceeded):
        groups._factor_closure(one, quats, order - 1)


@pytest.mark.parametrize(
    "quats",
    [
        [qt.quat(Fraction(3, 5), Fraction(4, 5))],  # among the powers
        [qt.quat_i(), qt.quat(Fraction(3, 5), Fraction(4, 5))],  # coset after coset
    ],
    ids=["first", "second"],
)
def test_infinite_order_generator_hits_the_cap(quats):
    with pytest.raises(CapExceeded):
        groups._factor_closure(qt.quat_one(), quats, 50)
    with pytest.raises(CapExceeded):
        generate_group([spin_left(q) for q in quats], cap=50)


@pytest.mark.parametrize(
    "spec",
    [sf.SpaceFormSpec(sf.TETRAHEDRAL, m=7, k=0), sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=1)],
    ids=["tetrahedral-7-0", "icosahedral-1"],
)
def test_to_so4_reads_each_rep_from_the_pair(monkeypatch, spec):
    gamma_hat = sf.build(spec).gamma_hat
    negations = []
    neg = cy.ExactScalar.__neg__

    def counting(self):
        negations.append(self)
        return neg(self)

    monkeypatch.setattr(cy.ExactScalar, "__neg__", counting)
    gamma = gamma_hat.to_so4()
    assert negations == []  # every rep is an element of gamma_hat, none is made
    monkeypatch.undo()
    assert 2 * len(gamma) == len(gamma_hat)
    for cls in gamma.elements:
        first = min(gamma_hat.index[cls.rep], gamma_hat.index[-cls.rep])
        oracle = qt.RotationClass(gamma_hat.elements[first])
        assert cls.rep == oracle.rep and cls == oracle
        assert hash(cls.rep) == hash(oracle.rep) and hash(cls) == hash(oracle)
    firsts = [min(gamma_hat.index[c.rep], gamma_hat.index[-c.rep]) for c in gamma.elements]
    assert firsts == sorted(firsts)  # classes keep the order of their first member


# Element reprs, tables and trees of Gamma^, Gamma, Pi^ and Pi over default_sweep(),
# recorded when rotation groups closed on tuples of factor indices.
SWEEP_GROUPS_SHA256 = "2f1e94e3cd31c4863071c72a28c54c65ec70cb17b453476e2115546b952281e4"
SWEEP = sf.default_sweep()


@pytest.fixture(scope="module")
def sweep_certs():
    return [sf.build(spec) for spec in SWEEP]


def _minus_in(group, conductor):
    m = qt.quat(-1).lift(conductor)
    return qt.Spin4Element(m, m) in group


def _so4_oracle(spin):
    """Classes in order of their first member, each normalized by negation."""
    seen, out = set(), []
    for e in spin.elements:
        cls = qt.RotationClass(e)
        if cls not in seen:
            seen.add(cls)
            out.append(cls)
    return out


def test_sweep_groups_match_the_recorded_digest(sweep_certs):
    h = hashlib.sha256()
    for cert in sweep_certs:
        for g in (cert.gamma_hat, cert.gamma, cert.pi_hat, cert.pi):
            h.update(repr([repr(e) for e in g.elements]).encode())
            h.update(repr((g.right, g.parent, g.gen)).encode())
    assert h.hexdigest() == SWEEP_GROUPS_SHA256


def test_abelianization_equals_the_dense_oracle_over_the_sweep(sweep_certs):
    for cert in sweep_certs:
        for g in (cert.pi, cert.pi_hat, cert.gamma_hat, cert.gamma):
            assert g.abelianization() == snf_oracle.dense_abelianization(g), cert.spec


def _cyclic(n):
    """Z/n on one generator, whose tree is a path of length n - 1."""
    return FiniteGroup.map_closure([[(x + 1) % n for x in range(n)]], n)


def _dihedral(m):
    """D_2m on codes 2k + e for r^k f^e, closed under right products by r, f and r f."""
    r = [2 * ((x // 2 + (1 if x % 2 == 0 else -1)) % m) + x % 2 for x in range(2 * m)]
    f = [x ^ 1 for x in range(2 * m)]
    return FiniteGroup.map_closure([r, f, [f[y] for y in r]], 2 * m)


# The cyclic group's relator s^997 reaches the largest digit |G| the packing
# must hold; the dihedral groups carry across three digits.
@pytest.mark.parametrize(
    "make, order, expected",
    [
        (lambda: _cyclic(997), 997, "Z/997"),
        (lambda: _dihedral(251), 502, "Z/2"),
        (lambda: _dihedral(256), 512, "Z/2 x Z/2"),
    ],
    ids=["cyclic-997", "dihedral-502", "dihedral-512"],
)
def test_abelianization_packing_holds_large_digits(make, order, expected):
    g = make()
    assert len(g) == order
    ab = g.abelianization()
    assert str(ab) == expected
    assert ab == snf_oracle.dense_abelianization(g)


def test_sweep_reaches_to_so4_with_and_without_minus_one(sweep_certs):
    # Pi^ of an odd-p cyclic spec has odd order, so it lacks -1
    lacking = [c.spec for c in sweep_certs if not _minus_in(c.pi_hat, c.conductor)]
    assert lacking and all(s.family == sf.CYCLIC and s.p % 2 for s in lacking)
    assert all(_minus_in(c.gamma_hat, c.conductor) for c in sweep_certs)


@pytest.mark.parametrize("i", range(len(SWEEP)), ids=[spec.label() for spec in SWEEP])
def test_factor_pairs_agree_with_per_element_facts(sweep_certs, i):
    cert = sweep_certs[i]
    one = qt.one_at(cert.conductor)
    for spin in (cert.gamma_hat, cert.pi_hat):
        lq, rq = spin.factors
        assert [qt.Spin4Element(lq[a], rq[b]) for a, b in spin.pairs] == spin.elements
    pi_hat = cert.pi_hat
    left = sum(e.right == one for e in pi_hat.elements)
    right = sum(e.left == one for e in pi_hat.elements)
    assert pi_hat.subgroup_intersections() == (left, right, math.gcd(left, right))
    # the involution's right factor j leaves the circle
    with pytest.raises(WrongAmbient):
        cert.gamma_hat.subgroup_intersections()
    so4s = ((cert.gamma, cert.gamma_hat), (cert.pi, cert.pi_hat), (cert.pi_hat.to_so4(), cert.pi_hat))
    for so4, spin in so4s:
        oracle = _so4_oracle(spin)
        assert [c.rep for c in so4.elements] == [c.rep for c in oracle]
        assert [hash(c) for c in so4.elements] == [hash(c) for c in oracle]
        lq, rq = so4.factors
        lifts = [qt.Spin4Element(lq[a], rq[b]) for a, b in so4.pairs]
        if _minus_in(spin, cert.conductor):
            # the pair is that of the representative itself
            assert lifts == [c.rep for c in so4.elements]
        assert [qt.RotationClass(e) for e in lifts] == so4.elements
    for group in (cert.gamma_hat, cert.gamma, cert.pi_hat, cert.pi):
        assert group.fixed_point_mask == [qt.has_fixed_points(e) for e in group.elements]
