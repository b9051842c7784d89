"""Exact integer linear algebra: abelian invariants, determinants, Smith form.

Determinants use Bareiss fraction-free elimination on dense rows.  Smith
normal form eliminates on sparse rows (``{column: nonzero int}``): ±1
pivots first, each of least fill, then Euclid steps and a corner
divisibility step on the rest, on big integers, so there is no overflow to
guard.  The two share no code, so a determinant checks a Smith form.
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
    if any(len(r) != n for r in rows):
        raise InvalidArgument(f"determinant of a non-square matrix with {n} rows")
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


def _subtract(mat, cols, k, i, q):
    """Row k -= q * row i, keeping the column index ``cols`` in step."""
    target = mat[k]
    for j, v in mat[i].items():
        w = target.get(j, 0) - q * v
        if w:
            if j not in target:
                cols[j].add(k)
            target[j] = w
        else:
            del target[j]
            cols[j].discard(k)
    if not target:
        del mat[k]


def _pivot(mat, cols):
    """An entry of least magnitude, and among those one of least Markowitz cost.

    The cost of entry (i, j) is (r - 1)(c - 1), for r entries in row i and
    c in column j: the fill its elimination can make.
    """
    best = None
    least = 0
    for i, row in mat.items():
        r = len(row) - 1
        for j, v in row.items():
            if v == 1 or v == -1:
                cost = r * (len(cols[j]) - 1)
                if not cost:
                    return i, j
                if best is None or cost < least:
                    best, least = (i, j), cost
    if best is not None:
        return best
    least = None
    for i, row in mat.items():
        r = len(row) - 1
        for j, v in row.items():
            key = (abs(v), r * (len(cols[j]) - 1))
            if best is None or key < least:
                best, least = (i, j), key
    return best


def smith_normal_form(rows, ncols):
    """Diagonal invariant factors of a sparse integer matrix.

    ``rows`` are mappings ``{column: int}`` over ``range(ncols)``; zero
    entries are dropped.  Returns the list ``[d_1, d_2, ...]`` of positive
    diagonal entries with ``d_1 | d_2 | ...``, one per unit of rank.  Each
    pivot is an entry of least magnitude, so every ±1 comes first, and among
    equals the one of least fill, (r - 1)(c - 1) for r entries in its row
    and c in its column.  Row operations touch only the rows of the pivot's
    column; a remainder becomes the next pivot (Euclid), and a corner that
    fails to divide a remaining entry takes that entry's row.  Entries are
    Python ints, so there is no overflow to guard beyond memory.
    """
    columns = range(ncols)
    mat = {}
    cols = {}
    for i, row in enumerate(rows):
        entries = {}
        for j, v in row.items():
            if j not in columns:
                raise InvalidArgument(f"column {j!r} is outside range({ncols})")
            if v:
                entries[j] = int(v)
                cols.setdefault(j, set()).add(i)
        if entries:
            mat[i] = entries
    diags = []
    while mat:
        i, j = _pivot(mat, cols)
        while True:
            p = mat[i][j]
            for k in [k for k in cols[j] if k != i]:
                q = mat[k][j] // p
                if q:
                    _subtract(mat, cols, k, i, q)
            d = abs(p)
            if d == 1:
                break
            rest = [k for k in cols[j] if k != i]
            if rest:
                i = min(rest, key=lambda k: abs(mat[k][j]))
                continue
            # column j holds only the pivot, so a column operation changes one entry
            row = mat[i]
            rest = []
            for l in [l for l in row if l != j]:
                r = row[l] % p
                if r:
                    row[l] = r
                    rest.append(l)
                else:
                    del row[l]
                    cols[l].discard(i)
            if rest:
                j = min(rest, key=lambda l: abs(row[l]))
                continue
            # the corner must divide the rest of the matrix
            offender = next(
                (k for k, other in mat.items() if any(v % d for v in other.values())), None
            )
            if offender is None:
                break
            _subtract(mat, cols, i, offender, -1)
        # a ±1 pivot clears its row by column operations that change no other row
        diags.append(d)
        for l in mat.pop(i):
            cols[l].discard(i)
    for x, y in zip(diags, diags[1:]):
        if y % x:
            raise InternalInconsistency(f"invariant factor chain broken: {x}, {y}")
    return diags


def cokernel(rows, ncols):
    """Cokernel of Z^ncols / rowspan(rows) as an AbelianGroup; rows are ``{column: int}``."""
    diags = smith_normal_form(rows, ncols)
    rank = ncols - len(diags)
    return AbelianGroup.from_factors(diags, rank)
