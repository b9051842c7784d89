"""The three families of freely acting space-form groups with involution.

Each family is built at the Spin(4) = S^3 x S^3 level inside S^3 x S^1,
pushed down to SO(4), and packaged with the distinguished involution whose
fixed circle realizes the branch locus.  ``verify`` re-derives, exactly,
every group-theoretic fact the classification argument needs:

  1. the SO(4) group acts freely on S^3;
  2. its abelianization has odd order (no 2-torsion);
  3. the involution normalizes the Spin-level group;
  4. the involution squares to the identity rotation and fixes a circle;
  5. the normal closure of its conjugacy class is the full extension;
  6. every non-identity element of the extension with fixed points is
     conjugate to the involution;
  7. the orders of the intersections with S^3 x {1} and {1} x S^1 have
     gcd at most 2.

The cyclic family realizes weighted lens actions; the tetrahedral family
couples the Hurwitz units to a 3-power root of unity in the circle factor;
the icosahedral family is the product of the order-120 perfect quaternion
group with an odd-order circle subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import cyclotomic as cy
from . import quaternions as qt
from .errors import CapExceeded, InternalInconsistency, SpecViolation
from .groups import DEFAULT_GROUP_CAP, FiniteRotationGroup, generate_group
from .linalg import AbelianGroup

CYCLIC = "cyclic"
TETRAHEDRAL = "tetrahedral"
ICOSAHEDRAL = "icosahedral"


@dataclass(frozen=True)
class SpaceFormSpec:
    """Parameters selecting one space form from the three families."""

    family: str
    m: int = 1
    p: int = 1  # cyclic second weight
    k: int = 0  # tetrahedral 3-power exponent

    def validate(self):
        if self.m < 1:
            raise SpecViolation("m must be a positive integer")
        if self.family == CYCLIC:
            if self.m % 2 == 0:
                raise SpecViolation("cyclic family requires odd order m")
            if math.gcd(self.m, self.p) != 1:
                raise SpecViolation("cyclic weight p must be coprime to m")
        elif self.family == TETRAHEDRAL:
            if math.gcd(self.m, 6) != 1:
                raise SpecViolation("tetrahedral family requires m coprime to 6")
            if self.k == 1 or self.k < 0:
                raise SpecViolation("tetrahedral exponent k must be >= 0 and != 1")
        elif self.family == ICOSAHEDRAL:
            if math.gcd(self.m, 30) != 1:
                raise SpecViolation("icosahedral family requires m coprime to 30")
        else:
            raise SpecViolation(f"unknown family {self.family!r}")

    def label(self):
        if self.family == CYCLIC:
            return f"cyclic(m={self.m}, p={self.p})"
        if self.family == TETRAHEDRAL:
            return f"tetrahedral(m={self.m}, k={self.k})"
        return f"icosahedral(m={self.m})"


def binary_icosahedral_generators():
    """Unit-norm generators of the order-120 perfect quaternion group.

    Quoted generator lists for this group sometimes include (i+j)/sqrt(2),
    but that element is a binary *octahedral* unit -- the angle between
    the two-fold axes (1,0,0) and (1,1,0) is 45 degrees, which no
    icosahedral group realizes -- so adjoining it produces a dense
    infinite subgroup of S^3 (the closure cap detects this at once).
    The generators here, with the golden-ratio element rescaled from norm
    2 to norm 1, close up to order exactly 120; tests pin both facts.
    """
    h = Fraction(1, 2)
    omega = qt.quat(h, h, h, h)
    phi = cy.golden_ratio()
    golden = qt.quat(0, h, phi * h, (phi - 1) * h)
    return [qt.quat_i(), qt.quat_j(), qt.quat_k(), omega, golden]


def octahedral_extra_generator():
    """(i+j)/sqrt(2), the octahedral unit that must NOT join the list above."""
    r = cy.cos_tau(1, 8)  # 1/sqrt(2)
    return qt.quat(0, r, r, 0)


@dataclass
class SpaceFormCertificate:
    """A built family member plus everything needed to re-verify it."""

    spec: SpaceFormSpec
    conductor: int
    pi_hat: FiniteRotationGroup  # Spin(4) level, inside S^3 x S^1
    pi: FiniteRotationGroup  # SO(4) level
    iota_hat: qt.Spin4Element
    iota_tilde: qt.RotationClass
    gamma_hat: FiniteRotationGroup  # the extension by the involution, Spin(4) level
    gamma: FiniteRotationGroup  # SO(4) level
    checks: dict = field(default_factory=dict)
    abelianization: AbelianGroup | None = None

    def all_checks_pass(self):
        return bool(self.checks) and all(ok for ok, _ in self.checks.values())

    def report_lines(self):
        lines = [
            f"spaceform: {self.spec.label()}",
            f"conductor: {self.conductor}",
            f"order_spin: {self.pi_hat.order}",
            f"order_so4: {self.pi.order}",
            f"abelianization: {self.abelianization}",
        ]
        for name in sorted(self.checks):
            ok, detail = self.checks[name]
            status = "pass" if ok else "FAIL"
            lines.append(f"check[{name}]: {status}" + (f" ({detail})" if detail else ""))
        return lines


def _spin(left, right):
    return qt.Spin4Element(left, right)


def _build_generators(spec):
    """Spin-level generators plus the involution for one family member."""
    one = qt.quat_one()
    if spec.family == CYCLIC:
        # weighted rotation (z1, z2) -> (zeta z1, zeta^p z2) via half angles
        gen = _spin(
            qt.circle_quaternion(1 + spec.p, 2 * spec.m),
            qt.circle_quaternion(spec.p - 1, 2 * spec.m),
        )
        gens = [gen]
        iota_hat = _spin(qt.quat_j(), qt.quat_j())
    elif spec.family == TETRAHEDRAL:
        h = Fraction(1, 2)
        omega = qt.quat(h, h, h, h)
        zeta = qt.circle_quaternion(1, 3**spec.k)
        gens = [
            _spin(one, qt.circle_quaternion(1, 2 * spec.m)),
            _spin(omega, zeta),
            _spin(qt.quat_i(), one),
            _spin(qt.quat_j(), one),
        ]
        iota_hat = _spin(octahedral_extra_generator(), qt.quat_j())
    else:
        # quat_k is the product of the i and j generators; dropping it from
        # the closure seed changes nothing but saves a breadth-first column
        quats = [q for q in binary_icosahedral_generators() if q != qt.quat_k()]
        gens = [_spin(q, one) for q in quats]
        gens.append(_spin(one, qt.circle_quaternion(1, 2 * spec.m)))
        iota_hat = _spin(qt.quat_j(), qt.quat_j())
    return gens, iota_hat


def _spin_order_bound(spec, cap=None):
    """A lower bound on |Pi^|, for the generators ``_build_generators`` makes.

    With z of order 2m and zeta of order 3^k: the cyclic generator
    (z^(1+p), z^(p-1)) has order 2m / gcd(2m, p+1, p-1); the tetrahedral
    group maps onto 2T (order 24) with kernel containing {1} x <z, zeta^6>,
    of order lcm(2m, 3^(k-1)); the icosahedral group is 2I x <z>.  Given a
    ``cap`` that 2^(k-1) already passes, the tetrahedral bound is returned
    as ``cap + 1`` without forming 3^(k-1).
    """
    m = spec.m
    if m < 1:
        return 0
    if spec.family == CYCLIC:
        return 2 * m // math.gcd(2 * m, spec.p + 1, spec.p - 1)
    if spec.family == TETRAHEDRAL:
        if cap is not None and spec.k - 1 > cap.bit_length():
            return cap + 1
        return 24 * math.lcm(2 * m, 3 ** max(spec.k - 1, 0))
    return 240 * m


def build(spec, cap=DEFAULT_GROUP_CAP, allow_invalid=False):
    """Construct the certificate skeleton: groups, extension, involution, conductor.

    A spec whose Pi^ is provably larger than ``cap`` is refused before any
    exact arithmetic.
    """
    if not allow_invalid:
        spec.validate()
    if 1 <= cap < _spin_order_bound(spec, cap):
        raise CapExceeded(cap)
    gens, iota_hat = _build_generators(spec)
    conductor = math.lcm(iota_hat.conductor(), *(g.conductor() for g in gens))
    gens = [g.lift(conductor) for g in gens]
    iota_hat = iota_hat.lift(conductor)
    # Pi^ and Pi are closed on the tables of Gamma^ and Gamma, which list
    # the generators of Pi^ first; a group too large for the cap is caught
    # by the closure of its extension
    gamma_hat = generate_group(gens + [iota_hat], cap=cap)
    gamma = gamma_hat.to_so4()
    return SpaceFormCertificate(
        spec=spec,
        conductor=conductor,
        pi_hat=gamma_hat.column_subgroup(len(gens)),
        pi=gamma.column_subgroup(len(gens)),
        iota_hat=iota_hat,
        iota_tilde=qt.RotationClass(iota_hat),
        gamma_hat=gamma_hat,
        gamma=gamma,
    )


def verify(cert):
    """Run the seven checks, recording pass/fail with witnesses. Never silent."""
    checks = {}
    pi, pi_hat = cert.pi, cert.pi_hat

    free, witness = pi.acts_freely()
    checks["1_free_action"] = (free, "" if free else f"fixed-point witness {witness!r}")

    ab = pi.abelianization()
    cert.abelianization = ab
    ok2 = not ab.has_two_torsion()
    checks["2_no_two_torsion"] = (ok2, str(ab))

    iota = cert.iota_hat
    iota_inv = iota.inverse()
    bad = None
    for g in pi_hat.generators():
        conj = iota * g * iota_inv
        if conj not in pi_hat:
            bad = g
            break
    checks["3_normalizes"] = (bad is None, "" if bad is None else f"conjugate of {bad!r} escapes")

    sq = cert.iota_tilde * cert.iota_tilde
    fs = qt.fixed_set(cert.iota_tilde)
    ok4 = sq.is_identity() and fs.kind == "circle"
    checks["4_involution_circle"] = (ok4, f"square_identity={sq.is_identity()}, fixed={fs.kind}")

    gamma_hat = cert.gamma_hat
    cls = gamma_hat.conjugacy_class(gamma_hat.index[iota])
    ncl = gamma_hat.normal_closure(cls)
    ok5 = len(ncl) == gamma_hat.order
    checks["5_class_generates"] = (ok5, f"closure {len(ncl)} of {gamma_hat.order}")

    gamma = cert.gamma
    iota_cls = gamma.conjugacy_class(gamma.index[cert.iota_tilde])
    bad6 = None
    # classes come in the order of their least member (the identity's first),
    # so the first failing class starts with the first failing element
    for cls in gamma.conjugacy_classes()[1:]:
        if _class_fixed_set(gamma, cls).dimension() > 0 and cls != iota_cls:
            bad6 = gamma.elements[cls[0]]
            break
    checks["6_fixed_points_conjugate"] = (
        bad6 is None,
        "" if bad6 is None else f"witness {bad6!r}",
    )

    left_n, right_n, g = pi_hat.subgroup_intersections()
    checks["7_intersection_gcd"] = (g <= 2, f"|S3 part|={left_n}, |S1 part|={right_n}, gcd={g}")

    cert.checks = checks
    return checks


def _class_fixed_set(gamma, cls):
    """Exact fixed set of a class's least member; fixed-point dimension is a class function.

    The real-part criterion, read from each member's factor pair, must
    agree with it on every member.
    """
    fs = qt.fixed_set(gamma.elements[cls[0]])
    fixed, mask = fs.dimension() > 0, gamma.fixed_point_mask
    for i in cls:
        if mask[i] != fixed:
            raise InternalInconsistency(f"fixed-point criteria disagree on {gamma.elements[i]!r}")
    return fs


def default_sweep():
    """Parameter sweep used by tests and the CLI sweep command."""
    specs = []
    for m in (1, 3, 5, 7, 9, 15):
        for p in (1, 2, 4):
            specs.append(SpaceFormSpec(CYCLIC, m=m, p=p))
    for m in (1, 5, 7):
        for k in (0, 2):
            specs.append(SpaceFormSpec(TETRAHEDRAL, m=m, k=k))
    for m in (1, 7, 11):
        specs.append(SpaceFormSpec(ICOSAHEDRAL, m=m))
    return specs
