import math
import random
from fractions import Fraction

import pytest

from spherecover import cyclotomic as cy
from spherecover import quaternions as qt
from spherecover import spaceforms as sf
from spherecover.errors import InternalInconsistency, InvalidArgument, SphereCoverError
from spherecover.spaceforms import binary_icosahedral_generators, octahedral_extra_generator

from kernel_oracle import (
    fixed_dimension,
    fixed_matrix,
    left_mult_matrix,
    matrix_vector,
    right_mult_matrix,
)


def test_hamilton_relations():
    i, j, k, one = qt.quat_i(), qt.quat_j(), qt.quat_k(), qt.quat_one()
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k
    assert i * i == -one and j * j == -one and k * k == -one


def test_unit_check():
    with pytest.raises(ValueError):
        qt.quat(1, 1, 0, 0)
    qt.quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_non_unit_is_an_invalid_argument():
    with pytest.raises(InvalidArgument) as info:
        qt.quat(1, 1, 0, 0)
    assert isinstance(info.value, SphereCoverError) and isinstance(info.value, ValueError)


def _value(s):
    """Float value of a scalar, straight from its canonical form."""
    return sum(float(c) * math.cos(2 * math.pi * e / s.conductor) for e, c in s.canonical())


def _coordinatewise_product(p, q):
    """Hamilton's formula on any coordinates with +, - and *."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def test_fused_product_matches_coordinatewise_formula():
    pool = binary_icosahedral_generators()  # conductor 1 and 5
    pool += [octahedral_extra_generator()]  # conductor 8
    pool += [qt.circle_quaternion(3, 14), qt.circle_quaternion(2, 9)]  # 28 and 36
    pool += [pool[4] * pool[3], pool[6] * pool[7]]  # denser supports
    conductors = set()
    for p in pool:
        for q in pool:
            fused = (p * q).coords
            expected = _coordinatewise_product(p.coords, q.coords)
            assert all(f.conductor == e.conductor for f, e in zip(fused, expected))
            assert [f._canon_key() for f in fused] == [e._canon_key() for e in expected]
            floats = _coordinatewise_product(
                [_value(x) for x in p.coords], [_value(x) for x in q.coords]
            )
            assert all(abs(_value(f) - x) < 1e-12 for f, x in zip(fused, floats))
            conductors.add(fused[0].conductor)
    # same-conductor and mixed-conductor pairs (lifted to the lcm) both occur
    assert {5, 8, 28, 36, 40, 56, 140, 180, 252} <= conductors


def test_quaternion_inverse_is_conjugate():
    h = Fraction(1, 2)
    w = qt.quat(h, h, h, h)
    assert w * w.inverse() == qt.quat_one()


def test_circle_quaternion_agrees_with_general_product():
    a = qt.circle_quaternion(1, 12)
    b = qt.circle_quaternion(5, 12)
    assert a * b == qt.circle_quaternion(6, 12)  # circle fast path
    mixed = a * qt.quat_j()  # generic Hamilton path
    assert mixed * qt.quat_j().inverse() == a


def test_rotation_class_sign_normalization():
    one = qt.quat_one()
    assert qt.RotationClass(qt.Spin4Element(-one, -one)).is_identity()
    g = qt.Spin4Element(-qt.quat_j(), qt.quat_i())
    cls = qt.RotationClass(g)
    # first nonzero left coordinate of the stored representative is positive
    lead = next(x for x in cls.rep.left.coords if not x.is_zero())
    assert lead.sign() > 0
    assert qt.RotationClass(-g) == cls
    assert hash(qt.RotationClass(-g)) == hash(cls)


def test_rotation_class_equality_across_conductors():
    # phi / 2 is irrational: its leading canonical coefficient is -1 at
    # conductor 5 and +1 at 15, so a sign convention read off canonical
    # coefficients would pick opposite representatives before and after a lift
    phi, half = cy.golden_ratio(), Fraction(1, 2)
    q = qt.UnitQuaternion(phi * half, half, (phi - 1) * half, 0)
    cls = qt.RotationClass(qt.Spin4Element(q, qt.quat_one()))
    assert cls.conductor() == 5
    lifted = [cls.lift(15), cls.lift(30)]
    for other in lifted:
        assert cls == other and other == cls
    assert lifted[0] == lifted[1] and lifted[1] == lifted[0]


def test_fixed_set_identity_all():
    assert qt.fixed_set(qt.RotationClass(qt.Spin4Element(qt.quat_one(), qt.quat_one()))).kind == "all"


def test_fixed_set_conjugation_circle():
    fs = qt.fixed_set(qt.RotationClass(qt.Spin4Element(qt.quat_j(), qt.quat_j())))
    assert fs.kind == "circle"
    unit = []
    for v in fs.basis:
        floats = [_value(x) for x in v]
        norm = math.sqrt(sum(x * x for x in floats))
        unit.append([x / norm for x in floats])
    assert abs(sum(x * y for x, y in zip(*unit))) < 1e-12
    # an orthonormal basis spans a plane containing e iff e projects to length 1
    for e in ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)):
        assert abs(sum(sum(x * y for x, y in zip(u, e)) ** 2 for u in unit) - 1) < 1e-12


def test_fixed_set_free_rotation_empty():
    g = qt.Spin4Element(qt.circle_quaternion(1, 5), qt.circle_quaternion(2, 5).inverse())
    assert qt.fixed_set(qt.RotationClass(g)).kind == "empty"
    assert not qt.has_fixed_points(qt.RotationClass(g))


def test_fixed_circle_basis_exactness():
    h = Fraction(1, 2)
    w = qt.quat(h, h, h, h)
    g = qt.RotationClass(qt.Spin4Element(w, w))
    fs = qt.fixed_set(g)
    assert fs.kind == "circle"
    v1, v2 = fs.basis
    # each basis vector is exactly fixed and the two are exactly orthogonal
    elem = g.rep
    lm = left_mult_matrix(elem.left)
    rm = right_mult_matrix(elem.right)
    m = [[lm[i][j] - rm[i][j] for j in range(4)] for i in range(4)]
    for v in (v1, v2):
        assert all(x.is_zero() for x in matrix_vector(m, v))
    dot = sum((a * b for a, b in zip(v1, v2)), cy.zero(v1[0].conductor))
    assert dot.is_zero()


def test_fixed_set_dimensions_cross_check_small_pool():
    # the oracle kernel's dimension agrees with the closed form and with the
    # real-part criterion on a mixed pool
    pool = [
        qt.Spin4Element(qt.quat_i(), qt.quat_one()),
        qt.Spin4Element(qt.quat_j(), qt.quat_j()),
        qt.Spin4Element(qt.circle_quaternion(1, 8), qt.circle_quaternion(3, 8)),
        qt.Spin4Element(qt.circle_quaternion(1, 12), qt.circle_quaternion(1, 12)),
    ]
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        cls = qt.RotationClass(a * b)
        dim = fixed_dimension(cls)
        assert dim in (0, 2, 4)
        assert dim == qt.fixed_set(cls).dimension()
        assert (dim > 0) == qt.has_fixed_points(cls)


def test_fixed_set_closed_form_branches():
    # b = -a: the plane comes from Im(a*e), a branch the default sweep never takes
    c = qt.circle_quaternion(1, 8)
    for pair in (qt.Spin4Element(qt.quat_i(), -qt.quat_i()), qt.Spin4Element(c, c.conjugate())):
        fs = qt.fixed_set(pair)
        assert fs.kind == "circle" and fixed_dimension(pair) == 2
        v1, v2 = fs.basis
        m = fixed_matrix(pair)
        for v in (v1, v2):
            assert not all(x.is_zero() for x in v)
            assert all(x.is_zero() for x in matrix_vector(m, v))
        assert sum((a * b for a, b in zip(v1, v2)), cy.zero(v1[0].conductor)).is_zero()
    # an unnormalized pair fixing everything
    one = qt.quat_one()
    assert qt.fixed_set(qt.Spin4Element(-one, -one)).kind == "all"
    # equal real parts but |Im l| != |Im r|: no exact fixed vector, so it raises
    i, two_i, one_plus_i = (
        qt.UnitQuaternion._raw(tuple(cy.rational(x) for x in v))
        for v in ((0, 1, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0))
    )
    for left, right in ((i, two_i), (one, one_plus_i)):
        with pytest.raises(InternalInconsistency):
            qt.fixed_set(qt.Spin4Element(left, right))
    # negative control: an even cyclic order puts a second fixed-point class in Gamma
    cert = sf.build(sf.SpaceFormSpec(sf.CYCLIC, m=6, p=2), allow_invalid=True)
    ok, detail = sf.verify(cert)["6_fixed_points_conjugate"]
    assert not ok
    assert detail == (
        "witness RotationClass(Spin4(Quat(ExactScalar(0), ExactScalar(0), ExactScalar(0), "
        "ExactScalar(1)), Quat(ExactScalar(0), ExactScalar(0), "
        "ExactScalar(1*z12^1 + -1/2*z12^3), ExactScalar(1/2))))"
    )
