"""Knot in, branched-double-cover report out.

For each diagram the pipeline Tietze-reduces the Wirtinger presentation
of the knot group and reads the determinant off its Fox matrix at t = -1,
and computes the homology of the double branched cover from the crossing
incidence matrix; the homology order must be the determinant, which ties
the reduced presentation to the diagram on every row.  It then enumerates
the meridian-squared quotient of that presentation over the cosets of one
meridian and reads the cover group off the table: the parity kernel acts
on those cosets simply transitively.  The determinant must be odd and a
finite cover's abelianization must be the homology.  Each check raises
InternalInconsistency when it fails, so every report is consistent: its
cover order is never 2, and order 1 comes only with determinant 1.

Finite cover groups fall into exactly three families: cyclic (abelian
case -- a non-cyclic abelian cover would be a contradiction and raises),
tetrahedral (solvable non-abelian), and icosahedral (derived series
stabilizing at the perfect group of order 120).  Anything else raises
UnclassifiedFiniteGroup rather than being binned silently.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import knots as kn
from . import presentations as pr
from .errors import InternalInconsistency, ParseError, SphereCoverError, UnclassifiedFiniteGroup
from .linalg import AbelianGroup

UNKNOT = "unknot"
CYCLIC = "cyclic"
TETRAHEDRAL = "tetrahedral"
ICOSAHEDRAL = "icosahedral"
INFINITE_OR_UNKNOWN = "infinite_or_unknown"

REPORT_SCHEMA = "cover-report/2"


@dataclass
class CoverReport:
    name: str
    determinant: int | None = None
    h1: AbelianGroup | None = None
    orbifold_order: int | None = None
    cover_order: int | None = None
    classification: str | None = None
    cyclic_order: int | None = None
    ms: float | None = None
    error: str | None = None

    def classification_label(self):
        if self.classification == CYCLIC:
            return f"cyclic({self.cyclic_order})"
        return self.classification

    def to_record(self, show_timing=False):
        rec = {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "det": self.determinant,
            "h1": str(self.h1) if self.h1 is not None else None,
            "orbifold_order": self.orbifold_order,
            "cover_order": self.cover_order,
            "classification": self.classification_label(),
        }
        if show_timing:
            rec["ms"] = None if self.ms is None else round(self.ms, 3)
        if self.error is not None:
            rec["error"] = self.error
        return rec

    def stored(self):
        """The cache entry of this report: its record without the name, as JSON bytes."""
        rec = self.to_record()
        del rec["name"]
        return json.dumps(rec).encode()

    @classmethod
    def from_stored(cls, name, data):
        """The report named ``name`` whose :meth:`stored` bytes are ``data``, else None.

        No entry (``data`` None), bytes that do not decode or parse, and bytes
        that the report would not store exactly so (another key order,
        spacing or schema) are a miss.
        """
        try:
            rec = json.loads(data)
            det, orbifold, cover = rec["det"], rec["orbifold_order"], rec["cover_order"]
            if any(v is not None and type(v) is not int for v in (det, orbifold, cover)):
                return None  # json.dumps writes 5.0 and true back as they were read
            report = cls(name, determinant=det, orbifold_order=orbifold, cover_order=cover)
            if rec["h1"] is not None:  # "0", "Z/3 x Z/9": from_factors drops the 0
                factors = rec["h1"].split(" x ")
                report.h1 = AbelianGroup.from_factors(int(d.removeprefix("Z/")) for d in factors)
            if rec["classification"] is not None:  # "cyclic(5)": the label and the order
                report.classification, _, order = rec["classification"].partition("(")
                if order:
                    report.cyclic_order = int(order.removesuffix(")"))
        except (TypeError, ValueError, KeyError, AttributeError, RecursionError):
            return None  # RecursionError: nested too deep
        return report if report.stored() == data else None


def classify_finite(group, abelianization):
    """Place a finite cover group into the cyclic/tetrahedral/icosahedral trichotomy.

    ``abelianization`` is the group's own, computed once by the caller;
    its order times |G'| must be |G|, which ties the Smith form to the
    derived series.
    """
    series = group.derived_series()
    sizes = [len(s) for s in series]
    ab = abelianization.order()
    if ab is None or ab * sizes[1] != group.order:
        raise InternalInconsistency(f"|G'| {sizes[1]} * |G^ab| {ab} is not |G| {group.order}")
    if sizes[-1] == 1:
        if len(sizes) == 2:  # derived subgroup already trivial: abelian
            if len(abelianization.torsion) > 1:
                raise InternalInconsistency(
                    f"abelian cover group is not cyclic: {abelianization}"
                )
            return CYCLIC, group.order
        return TETRAHEDRAL, None  # solvable and non-abelian
    if sizes[-1] == 120:  # series stabilized at a nontrivial perfect group
        return ICOSAHEDRAL, None
    raise UnclassifiedFiniteGroup(
        f"derived series sizes {sizes} fit no expected family"
    )


def analyze(diagram, coset_cap=pr.DEFAULT_COSET_CAP, name=None):
    """Full pipeline on one diagram; raises on internal inconsistencies.

    The orbifold group G is enumerated over the cosets of <x1>, x1 the
    first bridge generator, with at most ``coset_cap`` live cosets.  The
    index d is the cover order, and G has order 2 d once
    :func:`~spherecover.presentations.branched_cover_group` has shown x1 != 1.
    """
    t0 = time.perf_counter()
    report = CoverReport(name or diagram.name or "knot")
    pres = pr.bridge_presentation(pr.wirtinger(diagram))
    det = pr.meridian_determinant(pres)
    h1 = kn.h1_double_cover(diagram)
    report.determinant = det
    report.h1 = h1
    if det % 2 == 0:
        raise InternalInconsistency(
            f"{report.name}: even determinant {det}; the double cover of a knot "
            "is a Z/2-homology sphere"
        )
    if h1.order() != det:
        raise InternalInconsistency(
            f"{report.name}: determinant {det} != homology order {h1.order()}"
        )
    orb = pr.orbifold_quotient(pres)
    outcome = pr.todd_coxeter(orb, cap=coset_cap, fixed=(1,))
    if outcome.finite:
        cover_order, cover = pr.branched_cover_group(outcome)
        report.orbifold_order = 2 * cover_order
        report.cover_order = cover_order
        cover_ab = cover.abelianization()
        if cover_ab.order() != det:
            raise InternalInconsistency(
                f"{report.name}: cover abelianization {cover_ab} has order "
                f"{cover_ab.order()}, determinant says {det}"
            )
        if cover_ab != h1:
            raise InternalInconsistency(
                f"{report.name}: cover abelianization {cover_ab} != homology {h1}"
            )
        if cover_order == 1:
            report.classification = UNKNOT
        else:
            label, cyc = classify_finite(cover, cover_ab)
            report.classification = label
            report.cyclic_order = cyc
    else:
        report.classification = INFINITE_OR_UNKNOWN
    report.ms = (time.perf_counter() - t0) * 1000.0
    return report


# -- corpus ------------------------------------------------------------------------


def diagram_from_payload(fmt, payload, name="", reduce=True):
    """Corpus row dispatch; formats: pd, dt, braid, torus, twobridge, montesinos.

    A braid row closes to its Markov-reduced word, and a torus row T(p, q)
    with p > q to the braid of T(q, p), which has (q - 1)·p crossings
    against (p - 1)·q; with ``reduce=False`` both close the word as written.
    The crossing limit applies to the word as written either way.
    """
    fmt = fmt.strip().lower()
    if fmt == "pd":
        return kn.parse_pd(payload, name=name)
    if fmt == "dt":
        return kn.parse_dt(payload, name=name)
    if fmt == "braid":
        return kn.braid_to_diagram(kn.parse_braid(payload), name=name, reduce=reduce)
    if fmt == "torus":
        p, q = _integers(payload, 2)
        braid = kn.torus_knot(p, q)
        if reduce and p > q:
            braid = kn.torus_knot(q, p)
        return kn.braid_to_diagram(braid, name=name)
    if fmt == "twobridge":
        p, q = _integers(payload, 2)
        return kn.two_bridge(p, q, name=name)
    if fmt == "montesinos":
        head, _, tail = payload.partition(";")
        head = head.strip()
        if not head.startswith("e="):
            raise ParseError("montesinos payload must start with 'e=<int>;'", 0)
        (e,) = _integers(head[2:], 1)
        fractions = []
        for tok in tail.split():
            num, _, den = tok.partition("/")
            fractions.append(_integers(f"{num} {den}", 2))
        return kn.montesinos(e, fractions, name=name)
    raise ParseError(f"unknown corpus format {fmt!r}", 0)


def _integers(text, count):
    """Exactly ``count`` whitespace-separated integers, or a ParseError."""
    try:
        values = tuple(int(t) for t in text.split())
    except ValueError:
        values = ()
    if len(values) != count:
        raise ParseError(f"expected {count} integers, got {text.strip()!r}", 0)
    return values


def parse_corpus(text):
    """One knot per line: name<TAB>format<TAB>payload, any field empty; blank/# lines skipped."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"corpus line {lineno} needs 3 tab-separated fields", lineno)
        rows.append((parts[0].lstrip(), parts[1], parts[2].rstrip()))
    return rows


@dataclass
class CorpusSummary:
    reports: list
    row_errors: int


def analyze_row(row, coset_cap=pr.DEFAULT_COSET_CAP, cache=None):
    """The report of one corpus row; any library error it raises is the report's error.

    With a ``cache`` (a :class:`~spherecover.cache.ResultCache`), an entry
    holding exactly the bytes the report would store is read back instead,
    and a fresh report without an error is stored.
    """
    rname, fmt, payload = row
    if cache is not None:
        key = cache.key_for(payload, fmt, coset_cap)
        hit = CoverReport.from_stored(rname, cache.get(key))
        if hit is not None:
            return hit
    try:
        diagram = diagram_from_payload(fmt, payload, name=rname)
        report = analyze(diagram, coset_cap=coset_cap, name=rname)
    except SphereCoverError as exc:
        return CoverReport(rname, error=f"{type(exc).__name__}: {exc}")
    if cache is not None:
        cache.put(key, report.stored())
    return report


def run_corpus(rows, coset_cap=pr.DEFAULT_COSET_CAP, cache=None):
    """Analyze every corpus row, then sort stably by name; row failures are recorded, not fatal."""
    reports = sorted((analyze_row(row, coset_cap, cache) for row in rows), key=lambda r: r.name)
    return CorpusSummary(reports, row_errors=sum(1 for r in reports if r.error))
