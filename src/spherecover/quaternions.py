"""Exact unit quaternions, the S^3 x S^3 action on R^4, and fixed sets.

A rotation of R^4 is carried as a pair of unit quaternions ``(l, r)``
acting by ``x -> l * x * r^-1``; the pair and its negation give the same
rotation, and :class:`RotationClass` picks a sign-normalized
representative so rotation equality is plain representative equality.
Fixed sets have a closed form: ``l`` and ``r`` are conjugate exactly when
their real parts agree, and the fixed plane is written down from their
imaginary parts, with every spanning vector checked exactly against
``l*x == x*r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import cyclotomic as cy
from .errors import InternalInconsistency, InvalidArgument


def _unify4(coords):
    coords = [
        c if isinstance(c, cy.ExactScalar) else cy.rational(c) for c in coords
    ]
    n = math.lcm(*(c.conductor for c in coords))
    return tuple(c.lift(n) for c in coords)


class UnitQuaternion:
    """Quaternion with ExactScalar coordinates and exact unit norm."""

    __slots__ = ("coords", "_hash")

    def __init__(self, a, b, c, d, check=True):
        self.coords = _unify4((a, b, c, d))
        self._hash = None
        if check and not self.norm_squared().__eq__(1):
            raise InvalidArgument(f"quaternion is not a unit: {self.coords}")

    @classmethod
    def _raw(cls, coords):
        q = object.__new__(cls)
        q.coords = coords
        q._hash = None
        return q

    def norm_squared(self):
        a, b, c, d = self.coords
        return a * a + b * b + c * c + d * d

    @property
    def conductor(self):
        return self.coords[0].conductor

    def real_part(self):
        return self.coords[0]

    def __mul__(self, other):
        if not isinstance(other, UnitQuaternion):
            return NotImplemented
        a1, b1, c1, d1 = self.coords
        a2, b2, c2, d2 = other.coords
        fused = cy.product_sum
        return UnitQuaternion._raw(
            (
                fused(((1, a1, a2), (-1, b1, b2), (-1, c1, c2), (-1, d1, d2))),
                fused(((1, a1, b2), (1, b1, a2), (1, c1, d2), (-1, d1, c2))),
                fused(((1, a1, c2), (-1, b1, d2), (1, c1, a2), (1, d1, b2))),
                fused(((1, a1, d2), (1, b1, c2), (-1, c1, b2), (1, d1, a2))),
            )
        )

    def conjugate(self):
        a, b, c, d = self.coords
        return UnitQuaternion._raw((a, -b, -c, -d))

    inverse = conjugate  # unit quaternions only

    def __neg__(self):
        return UnitQuaternion._raw(tuple(-x for x in self.coords))

    def lift(self, conductor):
        return UnitQuaternion._raw(tuple(x.lift(conductor) for x in self.coords))

    def is_circle_factor(self):
        """True when the quaternion lies in the e^{i*phi} circle (no j,k part)."""
        return self.coords[2].is_zero() and self.coords[3].is_zero()

    def __eq__(self, other):
        if not isinstance(other, UnitQuaternion):
            return NotImplemented
        return all(x == y for x, y in zip(self.coords, other.coords))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(self.coords))
        return self._hash

    def __repr__(self):
        return "Quat(%s)" % ", ".join(repr(x) for x in self.coords)


def quat(a=0, b=0, c=0, d=0, check=True):
    return UnitQuaternion(a, b, c, d, check=check)


def quat_one():
    return quat(1, 0, 0, 0, check=False)


@lru_cache(maxsize=None)
def one_at(conductor):
    """The identity quaternion at a given conductor, made once.

    Comparing against it at an element's own conductor skips the lift and
    the canonical keys that a mixed-conductor ``==`` recomputes.
    """
    return quat_one().lift(conductor)


def quat_i():
    return quat(0, 1, 0, 0, check=False)


def quat_j():
    return quat(0, 0, 1, 0, check=False)


def quat_k():
    return quat(0, 0, 0, 1, check=False)


def circle_quaternion(num, den):
    """The unit quaternion cos(2*pi*num/den) + i*sin(2*pi*num/den)."""
    c = cy.cos_tau(num, den)
    s = cy.sin_tau(num, den)
    return UnitQuaternion(c, s, 0, 0, check=False)


def leading_sign(q):
    """Sign of the first coordinate of q with nonzero canonical form; 0 if q is null."""
    for scalar in q.coords:
        s = scalar.sign()
        if s:
            return s
    return 0


class Spin4Element:
    """Pair of unit quaternions acting on R^4 by x -> left * x * right^-1."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = None

    def __mul__(self, other):
        if not isinstance(other, Spin4Element):
            return NotImplemented
        return Spin4Element(self.left * other.left, self.right * other.right)

    def inverse(self):
        return Spin4Element(self.left.inverse(), self.right.inverse())

    def __neg__(self):
        return Spin4Element(-self.left, -self.right)

    def lift(self, conductor):
        return Spin4Element(self.left.lift(conductor), self.right.lift(conductor))

    def conductor(self):
        return math.lcm(
            *(x.conductor for x in self.left.coords + self.right.coords)
        )

    def is_identity(self):
        left, right = self.left, self.right
        return left == one_at(left.conductor) and right == one_at(right.conductor)

    def __eq__(self, other):
        if not isinstance(other, Spin4Element):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.left, self.right))
        return self._hash

    def __repr__(self):
        return f"Spin4({self.left!r}, {self.right!r})"


class RotationClass:
    """SO(4) element: a Spin(4) pair up to simultaneous sign flip.

    The stored representative flips signs so that the first coordinate of
    the left factor with nonzero canonical form is positive (the left
    factor of a unit pair always has one, so the right factor is only a
    defensive fallback).
    """

    __slots__ = ("rep", "_hash")

    def __init__(self, element):
        self.rep = self._normalize(element)
        self._hash = None

    @classmethod
    def of_rep(cls, rep):
        """The class of an already normalized representative, taken as it is."""
        c = object.__new__(cls)
        c.rep = rep
        c._hash = None
        return c

    @staticmethod
    def _normalize(element):
        s = leading_sign(element.left) or leading_sign(element.right)
        if s < 0:
            return -element
        if s > 0:
            return element
        raise InternalInconsistency("sign-normalizing a zero pair")

    def __mul__(self, other):
        if not isinstance(other, RotationClass):
            return NotImplemented
        return RotationClass(self.rep * other.rep)

    def lift(self, conductor):
        return RotationClass(self.rep.lift(conductor))

    def conductor(self):
        return self.rep.conductor()

    def is_identity(self):
        return self.rep.is_identity()

    def __eq__(self, other):
        if not isinstance(other, RotationClass):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rep)
        return self._hash

    def __repr__(self):
        return f"RotationClass({self.rep!r})"


# -- fixed sets -----------------------------------------------------------------


@dataclass(frozen=True)
class FixedSet:
    """Fixed points of a rotation of S^3: nothing, one circle, or everything.

    For a circle, ``basis`` holds two exact pairwise-orthogonal vectors in
    R^4 spanning the fixed 2-plane, each exactly fixed by the rotation.
    They are neither content-reduced nor unit length: exact normalization
    can require square roots that leave every cyclotomic field.
    """

    kind: str  # "empty" | "circle" | "all"
    basis: tuple = ()

    def dimension(self):
        return {"empty": 0, "circle": 2, "all": 4}[self.kind]


def _is_null(q):
    return all(x.is_zero() for x in q.coords)


def _imag(q):
    return UnitQuaternion._raw((cy.zero(q.conductor),) + q.coords[1:])


def fixed_set(rotation):
    """Exact fixed set of x -> l*x*r^-1, in closed form from a = Im l, b = Im r.

    Unit quaternions are conjugate exactly when their real parts agree, and
    then l*x == x*r reduces to a*x == x*b.  For a != 0 the fixed plane is
    spanned by x1 = a + b and x2 = a*x1: a*(a + b) = a*b - |a|^2 equals
    (a + b)*b = a*b - |b|^2 because |a| == |b|.  x1 vanishes only when
    b == -a, and then x1 = Im(a*e), orthogonal to a, for the first e of
    i, j, k that makes it nonzero.  Each vector is checked exactly against
    l*x == x*r, so a pair that is not unit can only raise, never pass.
    """
    element = rotation.rep if isinstance(rotation, RotationClass) else rotation
    n = math.lcm(element.left.conductor, element.right.conductor)
    l, r = element.left.lift(n), element.right.lift(n)
    if l.real_part() != r.real_part():
        return FixedSet("empty")
    a, b = _imag(l), _imag(r)
    if _is_null(a):
        if not _is_null(b):
            raise InternalInconsistency(f"{element!r} has Im l = 0 but Im r != 0")
        return FixedSet("all")
    x1 = UnitQuaternion._raw(tuple(x + y for x, y in zip(a.coords, b.coords)))
    if _is_null(x1):
        products = (_imag(a * e) for e in (quat_i(), quat_j(), quat_k()))
        x1 = next(x for x in products if not _is_null(x))
    x2 = a * x1
    for x in (x1, x2):
        if _is_null(x) or l * x != x * r:
            raise InternalInconsistency(f"{x!r} is not a fixed vector of {element!r}")
    return FixedSet("circle", (x1.coords, x2.coords))


def has_fixed_points(rotation):
    """Fixed vectors exist iff Re(q1) == Re(q2); ``fixed_set`` starts from the same test."""
    element = rotation.rep if isinstance(rotation, RotationClass) else rotation
    return element.left.real_part() == element.right.real_part()
