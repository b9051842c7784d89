"""Reference Smith normal form: the dense gcd-pivoting routine, kept as an oracle.

``smith_normal_form`` is the dense routine the library used before its
sparse elimination, unchanged.  Invariant factors are unique, so the two
must agree on every matrix.  ``dense_abelianization`` and ``dense_h1`` are
the dense-row paths that ``FiniteGroup.abelianization`` and
``knots.h1_double_cover`` replaced, taken through this oracle.
"""

from spherecover.errors import InternalInconsistency
from spherecover.linalg import AbelianGroup


def sparse_rows(rows):
    """Dense integer rows as the ``{column: int}`` rows the library takes, zeros kept."""
    return [dict(enumerate(row)) for row in rows]


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
    diags = smith_normal_form(rows, ncols)
    return AbelianGroup.from_factors(diags, ncols - len(diags))


def dense_abelianization(group):
    """Exponent-sum rows of the Schreier relators w(x) s w(xs)^-1, as tuples."""
    ngens = len(group.right)
    counts = [(0,) * ngens]
    for x in range(1, len(group)):
        row = list(counts[group.parent[x]])
        row[group.gen[x]] += 1
        counts.append(tuple(row))
    rows = set()
    for s, col in enumerate(group.right):
        for x, y in enumerate(col):
            row = [a - b for a, b in zip(counts[x], counts[y])]
            row[s] += 1
            if any(row):
                rows.add(tuple(row))
    return cokernel(sorted(rows), ngens)


def dense_h1(diagram):
    """Cokernel of the crossing matrix with its last row and column deleted."""
    n = diagram.crossing_count
    arcs = diagram.arc_of_edge
    rows = []
    for cr in diagram.crossings[: n - 1]:
        row = [0] * diagram.arc_count
        row[arcs[cr.over_edges[0]]] += 2
        row[arcs[cr.under_in]] -= 1
        row[arcs[cr.under_out]] -= 1
        rows.append(row[: n - 1])
    return cokernel(rows, n - 1) if n else AbelianGroup()
