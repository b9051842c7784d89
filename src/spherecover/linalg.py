"""Exact linear algebra over the rationals, the integers, and scalar fields.

Kernels are computed by fraction-free (division-avoiding) elimination:
rows are combined by cross-multiplication only, and kernel vectors are
recovered with Cramer determinants, so the routines work verbatim over
``Fraction`` entries and over :class:`~spherecover.cyclotomic.ExactScalar`
entries.  Smith normal form uses naive gcd pivoting on big integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

    def is_trivial(self):
        return not self.torsion and not self.rank

    def has_two_torsion(self):
        return any(d % 2 == 0 for d in self.torsion)

    def __str__(self):
        parts = [f"Z/{d}" for d in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " x ".join(parts) if parts else "0"


# -- generic fraction-free kernel ----------------------------------------------


def _is_zero(x):
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def _ring_det(rows):
    """Determinant by Laplace expansion; intended for small matrices."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        a = rows[0][j]
        if _is_zero(a):
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = a * _ring_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]  # a zero of the right type
    return total


def kernel(rows, ncols=None):
    """Exact kernel basis of a matrix over a field.

    Entries may be ``Fraction``/``int`` or any field elements supporting
    ``+ - *`` and ``is_zero``.  No entry is ever divided: elimination uses
    cross-multiplied row combinations and the back-substitution is done with
    Cramer determinants, so the vectors are exact but not normalized.
    Returns a list of ``ncols``-tuples with ``M @ v == 0``, one per free
    column (``ncols - rank`` of them).
    """
    work = [list(r) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivot_cols = []
    echelon = []
    for col in range(ncols):
        pivot_idx = None
        for i, row in enumerate(work):
            if not _is_zero(row[col]):
                pivot_idx = i
                break
        if pivot_idx is None:
            continue
        prow = work.pop(pivot_idx)
        p = prow[col]
        work = [
            [p * row[j] - row[col] * prow[j] for j in range(ncols)]
            if not _is_zero(row[col])
            else row
            for row in work
        ]
        echelon.append(prow)
        pivot_cols.append(col)
    rank = len(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    pivot_sub = [[echelon[i][c] for c in pivot_cols] for i in range(rank)]
    det_p = _ring_det(pivot_sub)
    for f in free_cols:
        rhs = [-echelon[i][f] for i in range(rank)]
        vec = [None] * ncols
        vec[f] = det_p
        for idx_i, c in enumerate(pivot_cols):
            replaced = [
                [rhs[i] if j == idx_i else pivot_sub[i][j] for j in range(rank)]
                for i in range(rank)
            ]
            vec[c] = _ring_det(replaced)
        zero = det_p - det_p
        for c in range(ncols):
            if vec[c] is None:
                vec[c] = zero
        basis.append(tuple(vec))
    return basis


def rational_kernel(rows):
    """Kernel basis over Q with content-normalized integer-primitive vectors."""
    rows = [[Fraction(x) for x in r] for r in rows]
    basis = kernel(rows)
    out = []
    for vec in basis:
        nums = [f.numerator for f in vec if f]
        dens = [f.denominator for f in vec if f]
        if nums:
            g = Fraction(math.gcd(*nums), math.lcm(*dens))
            vec = tuple(f / g for f in vec)
            lead = next(f for f in vec if f)
            if lead < 0:
                vec = tuple(-f for f in vec)
        out.append(vec)
    return out


def matrix_vector(rows, vec):
    out = []
    for row in rows:
        acc = None
        for a, b in zip(row, vec):
            term = a * b
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


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
