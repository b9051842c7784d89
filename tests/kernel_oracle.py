"""Generic fraction-free kernel over any exact field: the fixed-set test oracle.

Rows are combined by cross-multiplication only, and kernel vectors are
recovered with Cramer determinants, so the routines work verbatim over
``Fraction`` entries and over :class:`~spherecover.cyclotomic.ExactScalar`
entries.  The fixed set of a rotation x -> l*x*r^-1 is the kernel of the
4x4 matrix of x -> l*x - x*r; the library computes it in closed form, and
the tests compare that answer with this one.
"""

import math
from fractions import Fraction

from spherecover import quaternions as qt


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


def left_mult_matrix(q):
    a, b, c, d = q.coords
    return [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


def right_mult_matrix(q):
    a, b, c, d = q.coords
    return [
        [a, -b, -c, -d],
        [b, a, d, -c],
        [c, -d, a, b],
        [d, c, -b, a],
    ]


def fixed_matrix(rotation):
    """Matrix of x -> l*x - x*r for a rotation's pair, lifted to one conductor."""
    element = rotation.rep if isinstance(rotation, qt.RotationClass) else rotation
    n = math.lcm(element.left.conductor, element.right.conductor)
    lm = left_mult_matrix(element.left.lift(n))
    rm = right_mult_matrix(element.right.lift(n))
    return [[lm[i][j] - rm[i][j] for j in range(4)] for i in range(4)]


def fixed_dimension(rotation):
    """Dimension of the fixed subspace of R^4, from the generic kernel."""
    return len(kernel(fixed_matrix(rotation), 4))
