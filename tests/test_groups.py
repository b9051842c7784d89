from fractions import Fraction

import pytest

from spherecover import cyclotomic as cy
from spherecover import quaternions as qt
from spherecover import spaceforms as sf
from spherecover.errors import CapExceeded, NotMember, WrongAmbient
from spherecover.groups import FiniteRotationGroup, generate_group, quaternion_group_q8
from spherecover.spaceforms import (
    binary_icosahedral_generators,
    octahedral_extra_generator,
)


def spin_left(q):
    return qt.Spin4Element(q, qt.quat_one())


@pytest.fixture(scope="module")
def q8():
    return quaternion_group_q8()


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
    assert len(q8.derived_subgroup()) == 2
    assert str(q8.abelianization()) == "Z/2 x Z/2"
    assert [len(s) for s in q8.derived_series()] == [8, 2, 1]


def test_cyclic_group_abelianization():
    c5 = generate_group([spin_left(qt.circle_quaternion(1, 5))], cap=16)
    assert c5.order == 5
    assert str(c5.abelianization()) == "Z/5"
    assert [len(s) for s in c5.derived_series()] == [5, 1]


def test_binary_icosahedral_order_and_perfection(icosa):
    assert icosa.order == 120
    assert icosa.is_perfect()
    assert icosa.abelianization().is_trivial()
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
    g = qt.RotationClass(
        qt.Spin4Element(qt.circle_quaternion(1, 5), qt.circle_quaternion(3, 5))
    )
    free_group = generate_group([g], cap=32)
    free, witness = free_group.acts_freely()
    assert free and witness is None
    # any group containing the class of (j, j) is not free
    jj = qt.RotationClass(qt.Spin4Element(qt.quat_j(), qt.quat_j()))
    not_free = generate_group([g.lift(20), jj.lift(20)], cap=256)
    free, witness = not_free.acts_freely()
    assert not free
    assert qt.has_fixed_points(witness)


def test_acts_freely_needs_so4(q8):
    with pytest.raises(WrongAmbient):
        q8.acts_freely()


def test_subgroup_intersections(icosa):
    one = qt.quat_one()
    z2 = qt.Spin4Element(one, -one)
    gens = [spin_left(q) for q in binary_icosahedral_generators()] + [z2]
    product = generate_group(gens, cap=512)
    left, right, gcd = product.subgroup_intersections()
    assert (left, right, gcd) == (120, 2, 2)
    trivial = generate_group([qt.spin_identity()], cap=4)
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
    reference = generate_group(cert.pi_hat.generators() + [cert.iota_hat])
    gamma_hat = cert.pi_hat.extension(cert.iota_hat)
    assert set(gamma_hat.elements) == set(reference.elements)
    assert len(gamma_hat) == r * len(cert.pi_hat)
    gens = gamma_hat.generators()
    for s, col in enumerate(gamma_hat.right):
        for x, y in enumerate(col):
            assert gamma_hat.elements[y] == gamma_hat.elements[x] * gens[s]


def test_extension_by_element_normalizer_and_cap(q8):
    c4 = generate_group([spin_left(qt.quat_i())])
    assert set(c4.extension(spin_left(qt.quat_j())).elements) == set(q8.elements)
    assert len(c4.extension(spin_left(-qt.quat_one()))) == 4  # t in H: r = 1
    h = Fraction(1, 2)
    omega = spin_left(qt.quat(h, h, h, h))  # conjugates i to j
    with pytest.raises(NotMember):
        c4.extension(omega)
    # a central t of order 7: one conductor for H and t, r = 7
    seventh = qt.Spin4Element(qt.quat_one(), qt.circle_quaternion(1, 7))
    c4 = generate_group([spin_left(qt.quat_i()).lift(seventh.conductor())])
    assert len(c4.extension(seventh)) == 28
    with pytest.raises(CapExceeded):
        c4.extension(seventh, cap=20)


def test_lookups_happen_at_the_group_conductor():
    i = spin_left(qt.quat_i())
    c4 = generate_group([i])
    # a query from a field that does not embed in the group's is refused
    for lookup in (
        lambda: i.lift(7) in c4,
        lambda: c4.conjugacy_class(i.lift(7)),
        lambda: c4.extension(i.lift(7)),
    ):
        with pytest.raises(WrongAmbient, match="conductor 7.*conductor 1"):
            lookup()
    # a query whose conductor divides the group's is lifted and found
    c4_7 = generate_group([i.lift(7)])
    assert i in c4_7 and qt.Spin4Element(qt.quat_one(), qt.quat_i()) not in c4_7
    assert c4_7.conjugacy_class(i) == c4_7.conjugacy_class(i.lift(7))
    assert len(c4_7.extension(spin_left(qt.quat_j()))) == 8
