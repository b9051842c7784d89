"""Exact integer linear algebra: abelian invariants, determinants, Smith form.

Determinants use Bareiss fraction-free elimination; Smith normal form uses
naive gcd pivoting on big integers, so there is no overflow to guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInconsistency, InvalidArgument


# -- abelian group invariants --------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    torsion: tuple[int, ...] = ()
    rank: int = 0

    def __post_init__(self):
        for d in self.torsion:
            if d < 2:
                raise InvalidArgument("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvalidArgument(f"divisibility chain broken: {a} does not divide {b}")
        if self.rank < 0:
            raise InvalidArgument("free rank must be nonnegative")

    @classmethod
    def from_factors(cls, factors, rank=0):
        return cls(tuple(d for d in factors if d > 1), rank)

    def order(self):
        """Group order, or None when the free rank is positive."""
        if self.rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def has_two_torsion(self):
        return any(d % 2 == 0 for d in self.torsion)

    def __str__(self):
        parts = [f"Z/{d}" for d in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " x ".join(parts) if parts else "0"


# -- integer matrices ----------------------------------------------------------


def integer_determinant(rows):
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def smith_normal_form(rows, ncols=None):
    """Diagonal invariant factors of an integer matrix by gcd pivoting.

    Returns the list ``[d_1, d_2, ...]`` of positive diagonal entries with
    ``d_1 | d_2 | ...``; zero rows/columns contribute nothing.  Entries are
    Python ints, so there is no overflow to guard beyond memory.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = ncols if ncols is not None else (len(a[0]) if m else 0)
    diags = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # the corner must divide the rest of the submatrix
        d = abs(a[t][t])
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                a[t][j] += a[offender][j]
            continue
        diags.append(d)
        t += 1
        if t >= m or t >= n:
            break
    for x, y in zip(diags, diags[1:]):
        if y % x:
            raise InternalInconsistency(f"invariant factor chain broken: {x}, {y}")
    return diags


def cokernel(rows, ncols):
    """Cokernel of Z^cols -> Z^cols / rowspan(rows) as an AbelianGroup."""
    diags = smith_normal_form(rows, ncols)
    rank = ncols - len(diags)
    return AbelianGroup.from_factors(diags, rank)
