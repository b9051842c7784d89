"""Diagram check with a successor walk and union-find arcs: the diagram oracle.

This is the library's diagram check before it was reduced to what the
edge-label rules leave to check: a successor map walked from edge 1 round
the whole knot, arcs glued by union-find across the over-strand passages
and renumbered in order of their first edge, and an arc count compared
with the crossing count.  ``parse_dt`` validates the diagram of every
crossing choice before it counts that choice's faces.  The tests require
the library to give the same crossings, signs and arcs, or the same error.
"""

from spherecover.errors import ParseError, ValidationError
from spherecover.knots import DT_REALIZATION_CAP, Crossing, KnotDiagram, _check_crossings


def _succ(e, n2):
    return e % n2 + 1


def diagram_from_pd_tuples(tuples):
    _check_crossings(len(tuples), "PD diagram")
    tuples = [tuple(int(x) for x in t) for t in tuples]
    n = len(tuples)
    if n == 0:
        return KnotDiagram([], arc_of_edge={1: 0}, arc_count=1)
    n2 = 2 * n
    counts = {}
    for t in tuples:
        if len(t) != 4:
            raise ValidationError(f"crossing {t!r} is not a 4-tuple")
        for e in t:
            if not 1 <= e <= n2:
                raise ValidationError(f"edge label {e} outside 1..{n2}")
            counts[e] = counts.get(e, 0) + 1
    bad = [e for e in range(1, n2 + 1) if counts.get(e, 0) != 2]
    if bad:
        raise ValidationError(f"edge labels {bad} do not occur exactly twice")
    crossings = []
    succ = {}

    def set_succ(e, target, t):
        if e in succ:
            raise ValidationError(
                f"crossing {t!r}: edge {e} has two successors; multi-component input?"
            )
        succ[e] = target

    for t in tuples:
        a, b, c, d = t
        if c != _succ(a, n2):
            raise ValidationError(
                f"crossing {t!r}: under-strand must continue consecutively "
                f"(expected {_succ(a, n2)}, got {c}); multi-component input?"
            )
        set_succ(a, c, t)
        if d == _succ(b, n2) and b != a:
            sign = 1
            set_succ(b, d, t)
        elif b == _succ(d, n2):
            sign = -1
            set_succ(d, b, t)
        else:
            raise ValidationError(f"crossing {t!r}: over edges {b},{d} not consecutive")
        crossings.append(Crossing(t, sign))
    cursor, visited = 1, 0
    while visited < n2:
        if cursor not in succ:
            raise ValidationError(f"edge {cursor} never enters a crossing")
        cursor = succ.pop(cursor)
        visited += 1
    if cursor != 1:
        raise ValidationError("edge successors do not close into one cycle")
    parent = list(range(n2 + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cr in crossings:
        b, d = cr.over_edges
        rb, rd = find(b), find(d)
        if rb != rd:
            parent[rb] = rd
    reps = {}
    arc_of_edge = {}
    for e in range(1, n2 + 1):
        r = find(e)
        if r not in reps:
            reps[r] = len(reps)
        arc_of_edge[e] = reps[r]
    if len(reps) != n:
        raise ValidationError(f"expected {n} arcs, found {len(reps)}")
    return KnotDiagram(crossings, arc_of_edge=arc_of_edge, arc_count=n)


def parse_dt(text):
    tokens = text.split()
    if not tokens:
        raise ParseError("empty DT code", 0)
    code = []
    for idx, tok in enumerate(tokens):
        try:
            code.append(int(tok))
        except ValueError:
            raise ParseError(f"invalid DT entry {tok!r}", idx) from None
    n = len(code)
    _check_crossings(n, "DT code")
    if n > DT_REALIZATION_CAP:
        raise ValidationError(
            f"DT realization supports at most {DT_REALIZATION_CAP} crossings"
        )
    evens = sorted(abs(v) for v in code)
    if evens != [2 * i for i in range(1, n + 1)]:
        raise ValidationError("DT entries must cover 2,4,...,2n exactly once")
    n2 = 2 * n
    pairs = []
    for i, v in enumerate(code):
        odd = 2 * i + 1
        even = abs(v)
        under_pos = odd if v > 0 else even
        pairs.append((odd, even, under_pos))

    def edge_into(pos):
        return (pos - 2) % n2 + 1

    base = []
    for odd, even, under_pos in pairs:
        over_pos = even if under_pos == odd else odd
        a = edge_into(under_pos)
        c = under_pos
        b_in = edge_into(over_pos)
        b_out = over_pos
        base.append((a, b_in, c, b_out))
    for mask in range(1 << n):
        tuples = []
        for i, (a, b_in, c, b_out) in enumerate(base):
            if (mask >> i) & 1:
                tuples.append((a, b_out, c, b_in))
            else:
                tuples.append((a, b_in, c, b_out))
        try:
            diagram = diagram_from_pd_tuples(tuples)
        except ValidationError:
            continue
        if diagram_face_count(diagram) == n + 2:
            return diagram
    raise ValidationError("DT code is not realizable as a planar knot diagram")


def diagram_face_count(diagram):
    n = diagram.crossing_count
    if n == 0:
        return 2
    incidences = {}
    for ci, cr in enumerate(diagram.crossings):
        for slot, e in enumerate(cr.edges):
            incidences.setdefault(e, []).append((ci, slot))
    darts = {(ci, slot) for ci in range(n) for slot in range(4)}
    faces = 0
    while darts:
        start = min(darts)
        cur = start
        faces += 1
        while True:
            darts.discard(cur)
            ci, slot = cur
            e = diagram.crossings[ci].edges[slot]
            inc1, inc2 = incidences[e]
            other = inc2 if inc1 == cur else inc1
            cur = (other[0], (other[1] + 1) % 4)
            if cur == start:
                break
    return faces
