"""Combinatorial knot diagrams: parsers, generators, and the determinant.

Diagram convention.  A diagram with n crossings has 2n edges labeled
1..2n consecutively along the knot.  Each crossing is a 4-tuple
``(a, b, c, d)`` listing the incident edge labels counterclockwise
starting from the incoming under-edge ``a``; the under-strand continues
as ``c = a + 1 (mod 2n)`` and the over-strand occupies ``b`` and ``d``
with ``d = b + 1`` (over-strand running b -> d, recorded as sign +1) or
``b = d + 1`` (d -> b, sign -1).  Published PD codes for knots satisfy
these rules; anything else is rejected, which in particular enforces the
knots-only (single component) invariant.

Wirtinger arcs are the over-strand runs: edges glued across the two over
slots of every crossing.  The homology of the double branched cover comes
from the crossing/arc incidence matrix evaluated at -1 (one redundant row
and column dropped), and so does the determinant of the diagram-level
route, which the tests compare with the pipeline's Fox determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInconsistency, NotAKnot, ParseError, SpecViolation, ValidationError
from .linalg import cokernel, integer_determinant


@dataclass(frozen=True)
class Crossing:
    edges: tuple[int, int, int, int]  # CCW from incoming under-edge
    sign: int  # +1: over-strand runs edges[1]->edges[3]; -1: the reverse

    @property
    def under_in(self):
        return self.edges[0]

    @property
    def under_out(self):
        return self.edges[2]

    @property
    def over_edges(self):
        return (self.edges[1], self.edges[3])


@dataclass
class KnotDiagram:
    """Validated single-component diagram with arc structure."""

    crossings: list[Crossing]
    name: str
    arc_of_edge: dict
    arc_count: int

    @property
    def crossing_count(self):
        return len(self.crossings)

    def pd_text(self):
        inner = ",".join("(%d,%d,%d,%d)" % c.edges for c in self.crossings)
        return f"[{inner}]"


def _succ(e, n2):
    return e % n2 + 1


def diagram_from_pd_tuples(tuples, name=""):
    """Validate raw PD tuples and compute arcs; raises ValidationError.

    Every crossing gives two edges the successor e % 2n + 1, and no edge is
    given two, so the 2n edges with a successor are all of 1..2n and run
    round one cycle.  An arc begins at each under-out edge; the run after
    the last one wraps into arc 0, so arcs are numbered by first edge.
    """
    _check_crossings(len(tuples), "PD diagram")
    tuples = [tuple(int(x) for x in t) for t in tuples]
    n = len(tuples)
    if n == 0:
        return KnotDiagram([], name, {1: 0}, 1)
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
    followed = set()

    def follow(e, t):
        if e in followed:
            raise ValidationError(
                f"crossing {t!r}: edge {e} has two successors; multi-component input?"
            )
        followed.add(e)

    for t in tuples:
        a, b, c, d = t
        if c != _succ(a, n2):
            raise ValidationError(
                f"crossing {t!r}: under-strand must continue consecutively "
                f"(expected {_succ(a, n2)}, got {c}); multi-component input?"
            )
        follow(a, t)
        # with two edges both directions of the over-strand look consecutive;
        # b -> d is ruled out when b is the under-in edge, already followed by c
        if d == _succ(b, n2) and b != a:
            sign = 1
            follow(b, t)
        elif b == _succ(d, n2):
            sign = -1
            follow(d, t)
        else:
            raise ValidationError(f"crossing {t!r}: over edges {b},{d} not consecutive")
        crossings.append(Crossing(t, sign))
    starts = {cr.under_out for cr in crossings}
    arc_of_edge, arc = {}, 0
    for e in range(1, n2 + 1):
        if e in starts and e != 1:
            arc += 1
        arc_of_edge[e] = arc % n
    return KnotDiagram(crossings, name, arc_of_edge, n)


# -- PD parsing -----------------------------------------------------------------


def parse_pd(text, name=""):
    """Parse '[(a,b,c,d),(e,f,g,h),...]' into a validated diagram."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t\r\n":
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def read_int():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        try:  # int() refuses some digits ('²') and more than 4300 of them
            return int(text[start:pos])
        except ValueError:
            raise ParseError("expected an integer", start) from None

    expect("[")
    tuples = []
    skip_ws()
    if pos < n and text[pos] == "]":
        pos += 1
    else:
        while True:
            expect("(")
            quad = [read_int()]
            for _ in range(3):
                expect(",")
                quad.append(read_int())
            expect(")")
            tuples.append(tuple(quad))
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                continue
            expect("]")
            break
    skip_ws()
    if pos != n:
        raise ParseError("trailing input", pos)
    return diagram_from_pd_tuples(tuples, name=name)


# -- braid words ----------------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValidationError("braid needs at least one strand")
        for l in self.letters:
            if l == 0 or abs(l) >= self.strands:
                raise ValidationError(f"braid letter {l} out of range for {self.strands} strands")

    def closure_components(self):
        """Cycles of the closure permutation, in O(letters) whatever the strand count.

        A strand that no letter touches is a fixed point: it is counted,
        never listed.
        """
        perm = {}
        for l in self.letters:
            i = abs(l) - 1
            perm[i], perm[i + 1] = perm.get(i + 1, i + 1), perm.get(i, i)
        comps = self.strands - len(perm)
        while perm:
            comps += 1
            s = next(iter(perm))
            while s in perm:
                s = perm.pop(s)
        return comps


def parse_braid(text):
    """Parse 'strands=n w1 w2 ...' into a braid word."""
    tokens = text.split()
    if not tokens or not tokens[0].startswith("strands="):
        raise ParseError("braid input must start with 'strands=n'", 0)
    try:
        strands = int(tokens[0][len("strands="):])
    except ValueError:
        raise ParseError("invalid strand count", 0) from None
    letters = []
    for idx, tok in enumerate(tokens[1:], start=1):
        try:
            letters.append(int(tok))
        except ValueError:
            raise ParseError(f"invalid braid letter {tok!r}", idx) from None
    try:
        return BraidWord(strands, tuple(letters))
    except ValidationError as exc:
        raise ParseError(str(exc), 0) from None


def reduce_braid(braid):
    """The braid word after free and cyclic reduction and Markov destabilisation.

    Conjugation and stabilisation do not change the closed braid (Markov), so
    the reduced word closes to the same link with no more crossings.  Words are
    reduced as cyclic words; a generator at either end of the strand range that
    occurs once is rotated to the end and dropped with its outer strand.  The
    range is kept as offsets (low, high) of the given indices and shifted once
    at the end, so the cost depends on the letters alone, never on the strand
    count.
    """
    word = []
    for l in braid.letters:
        if word and word[-1] == -l:
            word.pop()
        else:
            word.append(l)
    counts = {}
    for l in word:
        counts[abs(l)] = counts.get(abs(l), 0) + 1
    low, high = 1, braid.strands - 1
    while True:
        start = 0
        while len(word) - start >= 2 and word[start] == -word[-1]:
            for l in (word[start], word.pop()):
                counts[abs(l)] -= 1
            start += 1
        del word[:start]
        if counts.get(high) == 1:
            k, high = high, high - 1
        elif counts.get(low) == 1:
            k, low = low, low + 1
        else:
            break
        i = word.index(k) if k in word else word.index(-k)
        word = word[i + 1:] + word[:i]
        counts[k] = 0
    shift = low - 1
    return BraidWord(high - low + 2, tuple(l - shift if l > 0 else l + shift for l in word))


def torus_knot(p, q):
    """Braid word (s_1 s_2 ... s_{p-1})^q whose closure is the (p,q) torus knot."""
    if p < 2 or q < 2:
        raise SpecViolation("torus parameters must be >= 2")
    if math.gcd(p, q) != 1:
        raise NotAKnot(f"torus({p},{q}) closes to a {math.gcd(p, q)}-component link")
    _check_crossings((p - 1) * q, f"torus({p},{q})")
    return BraidWord(p, tuple(list(range(1, p)) * q))


# -- generic diagram assembly -----------------------------------------------------

MAX_CROSSINGS = 1000


def _check_crossings(count, what):
    """Refuse, before any assembly, a diagram with more than MAX_CROSSINGS crossings."""
    if count > MAX_CROSSINGS:
        raise ValidationError(
            f"{what} has {count} crossings, above the limit MAX_CROSSINGS = {MAX_CROSSINGS}"
        )


class _Assembler:
    """Crossing soup with union-find edge gluing, closed into a labeled diagram.

    Raw crossings carry edge *keys* in CCW slot order with the under-strand
    on slots (u, u+2); strands run through opposite slots.  ``finish``
    walks the single component once from slot 0 of the first crossing and
    labels all four slots on the way: the edge entering a slot as L leaves
    by the opposite slot as L mod 2n + 1.  The walk records the under slot
    it enters each crossing by, since on a one-crossing kink (2 edges)
    label order cannot tell in from out; each PD tuple is the crossing's
    row of labels rotated to start there.
    """

    def __init__(self):
        self.crossings = []  # list of ([k0,k1,k2,k3], under_slot)
        self.parent = {}
        self.next_key = 0

    def fresh(self):
        k = self.next_key
        self.next_key += 1
        self.parent[k] = k
        return k

    def find(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise NotAKnot("closure created a crossingless loop")
        self.parent[ra] = rb

    def add_crossing(self, ends, under_slot):
        self.crossings.append((list(ends), under_slot % 2))

    def finish(self, name=""):
        incidences = {}
        for ci, (ends, _) in enumerate(self.crossings):
            for slot, key in enumerate(ends):
                incidences.setdefault(self.find(key), []).append((ci, slot))
        for key, incs in incidences.items():
            if len(incs) != 2:
                raise ValidationError(f"edge key {key} has {len(incs)} endpoints")
        n2 = 2 * len(self.crossings)
        rows = [[0] * 4 for _ in self.crossings]
        under_in = [0] * len(self.crossings)
        ci, slot, label = 0, 0, 0
        while not rows[ci][slot]:  # back at a labelled slot: the walk has closed
            label += 1
            ends, under_slot = self.crossings[ci]
            out = (slot + 2) % 4
            rows[ci][slot], rows[ci][out] = label, label % n2 + 1
            if slot % 2 == under_slot:
                under_in[ci] = slot
            inc1, inc2 = incidences[self.find(ends[out])]
            ci, slot = inc2 if inc1 == (ci, out) else inc1
        if label != n2:
            raise NotAKnot(f"{label} of {n2} edges on the first component")
        tuples = [tuple(row[u:] + row[:u]) for row, u in zip(rows, under_in)]
        return diagram_from_pd_tuples(tuples, name=name)


def braid_to_diagram(braid, name="", reduce=False):
    """Close a braid word into a knot diagram; rejects multi-component closures.

    The crossing limit and the component count apply to the word as given;
    with ``reduce`` the diagram is the closure of ``reduce_braid(braid)``.
    """
    _check_crossings(len(braid.letters), "braid closure")
    comps = braid.closure_components()
    if comps != 1:
        raise NotAKnot(f"braid closure has {comps} components")
    if reduce:
        braid = reduce_braid(braid)
    asm = _Assembler()
    top = [asm.fresh() for _ in range(braid.strands)]
    cur = list(top)
    for letter in braid.letters:
        i = abs(letter) - 1
        nw, ne = cur[i], cur[i + 1]
        sw, se = asm.fresh(), asm.fresh()
        # CCW slots (NE, NW, SW, SE); strands NW<->SE and NE<->SW
        if letter > 0:
            asm.add_crossing([ne, nw, sw, se], under_slot=0)  # left strand over
        else:
            asm.add_crossing([ne, nw, sw, se], under_slot=1)
        cur[i], cur[i + 1] = sw, se
    if braid.letters:
        for s in range(braid.strands):
            asm.union(cur[s], top[s])
        return asm.finish(name=name)
    return diagram_from_pd_tuples([], name=name)


# -- rational tangles and their closures ---------------------------------------


class _Tangle:
    """A 2-string tangle under construction, with NW/NE/SW/SE corner keys."""

    def __init__(self, asm):
        self.asm = asm
        self.nw = asm.fresh()
        self.ne = self.nw  # zero tangle: two horizontal strands
        self.sw = asm.fresh()
        self.se = self.sw

    def twist_right(self, sign):
        """One crossing between the NE and SE strands."""
        t, u = self.asm.fresh(), self.asm.fresh()
        # CCW slots (NE, NW, SW, SE) = (new t, old ne, old se, new u)
        self.asm.add_crossing(
            [t, self.ne, self.se, u], under_slot=0 if sign > 0 else 1
        )
        self.ne, self.se = t, u

    def twist_bottom(self, sign):
        """One crossing between the SW and SE strands."""
        v, w = self.asm.fresh(), self.asm.fresh()
        # CCW slots (NE, NW, SW, SE) = (old se, old sw, new v, new w)
        self.asm.add_crossing(
            [self.se, self.sw, v, w], under_slot=0 if sign > 0 else 1
        )
        self.sw, self.se = v, w


def continued_fraction(p, q):
    """Continued fraction p/q = a1 + 1/(a2 + 1/(...)) with an odd term count.

    The Euclidean expansion has a last term >= 2 whenever q > 1, so an even
    expansion can always be padded to odd length via a_k = (a_k - 1) + 1/1.
    """
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    if len(out) % 2 == 0:
        if out[-1] < 2:
            raise InternalInconsistency(f"last continued-fraction term {out[-1]} < 2")
        out[-1] -= 1
        out.append(1)
    return out


def rational_tangle(asm, p, q):
    """Build the p/q rational tangle from inner twists outward.

    With terms [a1..ak] (k odd), applying a_k right twists, a_{k-1} bottom
    twists, ..., a_1 right twists realizes the tangle fraction
    a1 + 1/(a2 + 1/(...)): right twists add one, bottom twists act on the
    reciprocal.
    """
    terms = continued_fraction(p, q)
    _check_crossings(sum(map(abs, terms)), f"rational tangle {p}/{q}")
    tangle = _Tangle(asm)
    for pos in range(len(terms) - 1, -1, -1):
        a = terms[pos]
        horizontal = (len(terms) - 1 - pos) % 2 == 0
        for _ in range(abs(a)):
            if horizontal:
                tangle.twist_right(1 if a > 0 else -1)
            else:
                tangle.twist_bottom(1 if a > 0 else -1)
    return tangle


def two_bridge(p, q, name=""):
    """4-plat diagram of the two-bridge knot determined by the fraction p/q."""
    if p < 1 or p % 2 == 0:
        raise SpecViolation("two-bridge p must be odd and positive")
    if p == 1:
        return diagram_from_pd_tuples([], name=name or "unknot")
    if not 0 < q < p or math.gcd(p, q) != 1:
        raise SpecViolation("two-bridge q must satisfy 0 < q < p, gcd(p,q) = 1")
    asm = _Assembler()
    tangle = rational_tangle(asm, p, q)
    asm.union(tangle.nw, tangle.ne)
    asm.union(tangle.sw, tangle.se)
    return asm.finish(name=name or f"twobridge({p},{q})")


def montesinos(e, fractions, name=""):
    """Numerator closure of a sum of rational tangles plus e extra half-twists.

    Fractions are (numerator, denominator) pairs building tangles of value
    num/den with den odd and positive, so the closure of the sum has odd
    determinant |prod(den) * (e + sum(num/den))| when it is a knot; links
    raise NotAKnot.  A single fraction with e = 0 reproduces the two-bridge
    knot of the same fraction.
    """
    for num, den in fractions:
        if den < 1 or den % 2 == 0:
            raise SpecViolation("tangle denominators must be odd and positive")
        if num < 1:
            raise SpecViolation("tangle numerators must be positive")
        if math.gcd(num, den) != 1:
            raise SpecViolation("tangle fractions must be reduced")
    twists = abs(e) + sum(sum(map(abs, continued_fraction(num, den))) for num, den in fractions)
    _check_crossings(twists, "montesinos diagram")
    if not fractions:
        return braid_to_diagram(
            BraidWord(2, tuple([1 if e > 0 else -1] * abs(e))) if e else BraidWord(1, ()),
            name=name or "unknot",
        )
    asm = _Assembler()
    tangles = [rational_tangle(asm, num, den) for num, den in fractions]
    combined = tangles[0]
    for t in tangles[1:]:
        asm.union(combined.ne, t.nw)
        asm.union(combined.se, t.sw)
        combined.ne, combined.se = t.ne, t.se
    for _ in range(abs(e)):
        combined.twist_right(1 if e > 0 else -1)
    asm.union(combined.nw, combined.ne)
    asm.union(combined.sw, combined.se)
    return asm.finish(name=name or f"montesinos(e={e})")


# -- DT codes -------------------------------------------------------------------

DT_REALIZATION_CAP = 14


def parse_dt(text, name=""):
    """Parse a single-row DT code ('4 6 2'), realizing a planar diagram.

    Convention: entry i pairs odd position 2i-1 with the given even
    position; a positive entry means the odd pass goes under.  Crossing
    handedness is recovered by exhaustive search over the 2^n local
    choices, keeping an assignment whose face count satisfies Euler's
    formula for the sphere; prime codes admit one up to overall mirror,
    and every invariant computed downstream is mirror-safe.
    """
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
    # checked before the realization cap, so a limit refusal names the DT code
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
    # every choice passes diagram_from_pd_tuples or none does: turning an
    # over-strand round changes neither the successors nor the under-out edges
    for mask in range(1 << n):
        tuples = []
        for i, (a, b_in, c, b_out) in enumerate(base):
            if (mask >> i) & 1:
                tuples.append((a, b_out, c, b_in))
            else:
                tuples.append((a, b_in, c, b_out))
        if face_count(tuples) == n + 2:
            return diagram_from_pd_tuples(tuples, name=name)
    raise ValidationError("DT code is not realizable as a planar knot diagram")


def face_count(tuples):
    """Number of faces of the 4-valent map of PD tuples (n + 2 iff planar)."""
    n = len(tuples)
    if n == 0:
        return 2
    incidences = {}
    for ci, t in enumerate(tuples):
        for slot, e in enumerate(t):
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
            inc1, inc2 = incidences[tuples[ci][slot]]
            other = inc2 if inc1 == cur else inc1
            cur = (other[0], (other[1] + 1) % 4)
            if cur == start:
                break
    return faces


# -- determinant and branched-cover homology -------------------------------------


def _deleted_crossing_rows(diagram):
    """The crossing rows at -1 without the last row and last arc column, sparse.

    Crossing i gives 2*(over arc) - (under-in arc) - (under-out arc).  There
    are as many rows as columns: n - 1 for n crossings, none for n = 0.
    """
    arcs = diagram.arc_of_edge
    last = diagram.crossing_count - 1
    rows = []
    for cr in diagram.crossings[:last]:
        row = {}
        for edge, v in ((cr.over_edges[0], 2), (cr.under_in, -1), (cr.under_out, -1)):
            a = arcs[edge]
            if a < last:
                row[a] = row.get(a, 0) + v
        rows.append(row)
    return rows


def determinant(diagram):
    """|H_1| of the double branched cover: |det| of the deleted crossing rows.

    The tests' diagram-level oracle for ``presentations.meridian_determinant``,
    which the pipeline calls instead.
    """
    rows = _deleted_crossing_rows(diagram)
    return abs(integer_determinant(rows, len(rows)))


def h1_double_cover(diagram):
    """Full homology of the double branched cover via Smith normal form."""
    rows = _deleted_crossing_rows(diagram)
    return cokernel(rows, len(rows))
