import itertools
import math
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherecover import analyzer as an
from spherecover import knots as kn
from spherecover.config import packaged_corpus_text
from spherecover.errors import (
    InternalInconsistency,
    NotAKnot,
    ParseError,
    SpecViolation,
    SphereCoverError,
    ValidationError,
)
from spherecover.linalg import AbelianGroup, integer_determinant

import assembler_oracle
import diagram_oracle
import snf_oracle
from test_cover_group import markov_torus_braid
from test_presentations import closure_permutation, knot_braids

TREFOIL_PD = "[(1,4,2,5),(3,6,4,1),(5,2,6,3)]"


def alexander_at(diagram, t):
    """|det| of the Alexander matrix at integer t (defined up to powers of |t|).

    Rows follow the crossing relation: at a positive crossing the under-out
    arc is the over-conjugate of the under-in arc; evaluation abelianizes
    every arc generator to t.
    """
    n = diagram.crossing_count
    if n == 0:
        return 1
    arcs = diagram.arc_of_edge
    rows = []
    for cr in diagram.crossings:
        row = [0] * diagram.arc_count
        if cr.sign > 0:
            row[arcs[cr.over_edges[0]]] += 1 - t
            row[arcs[cr.under_in]] += t
            row[arcs[cr.under_out]] -= 1
        else:
            row[arcs[cr.over_edges[0]]] += t - 1
            row[arcs[cr.under_in]] += 1
            row[arcs[cr.under_out]] -= t
        rows.append(row)
    deleted = [row[: n - 1] for row in rows[: n - 1]]
    return abs(integer_determinant(snf_oracle.sparse_rows(deleted), len(deleted)))


def threefree(x):
    x = abs(x)
    while x and x % 3 == 0:
        x //= 3
    return x


# -- parsing ------------------------------------------------------------------


def test_parse_pd_trefoil():
    d = kn.parse_pd(TREFOIL_PD)
    assert d.crossing_count == 3
    assert d.arc_count == 3
    assert kn.determinant(d) == 3


def test_parse_pd_errors_with_position():
    with pytest.raises(ParseError) as exc:
        kn.parse_pd("[(1,4,2,5)")
    assert exc.value.position is not None
    with pytest.raises(ParseError):
        kn.parse_pd("[(1,4,2)]")
    with pytest.raises(ParseError):
        kn.parse_pd("nonsense")


def test_parse_pd_validation():
    with pytest.raises(ValidationError):
        kn.parse_pd("[(1,4,2,5),(3,6,4,1),(5,2,6,4)]")  # label degree broken
    with pytest.raises(ValidationError):
        # two-component link: Hopf-style labels fail the consecutive rule
        kn.parse_pd("[(1,3,2,4),(3,1,4,2)]")


def test_parse_empty_pd_is_unknot():
    d = kn.parse_pd("[]")
    assert d.crossing_count == 0
    assert kn.determinant(d) == 1
    assert kn.h1_double_cover(d) == AbelianGroup()


KINKS = {
    # one crossing on two edges: either over-strand direction looks consecutive
    "pd-1221": (lambda: kn.diagram_from_pd_tuples([(1, 2, 2, 1)]), 1),
    "pd-2112": (lambda: kn.diagram_from_pd_tuples([(2, 1, 1, 2)]), 1),
    "pd-1122": (lambda: kn.diagram_from_pd_tuples([(1, 1, 2, 2)]), -1),
    "pd-2211": (lambda: kn.diagram_from_pd_tuples([(2, 2, 1, 1)]), -1),
    "braid-s1-inverse": (lambda: kn.braid_to_diagram(kn.BraidWord(2, (-1,))), -1),
}


@pytest.mark.parametrize("make, sign", KINKS.values(), ids=KINKS.keys())
def test_one_crossing_kinks_are_unknots(make, sign):
    d = make()
    assert [cr.sign for cr in d.crossings] == [sign]
    assert d.arc_count == 1
    assert kn.determinant(d) == 1
    assert kn.h1_double_cover(d) == AbelianGroup()


def test_parse_dt_trefoil_and_fig8():
    t = kn.parse_dt("4 6 2")
    assert kn.determinant(t) == 3
    assert threefree(alexander_at(t, 3)) == 7
    f = kn.parse_dt("4 6 8 2")
    assert kn.determinant(f) == 5
    assert threefree(alexander_at(f, 3)) == 1


def test_parse_dt_errors():
    with pytest.raises(ParseError):
        kn.parse_dt("4 six 2")
    with pytest.raises(ValidationError):
        kn.parse_dt("4 6 6")
    with pytest.raises(ValidationError):
        kn.parse_dt("2 4 6 8 10 12 14 16 2 4 6 8 10 16 18")  # over the cap


def _cycles(perm):
    """Cycle count of a permutation listed in full."""
    seen, comps = set(), 0
    for s in range(len(perm)):
        if s not in seen:
            comps += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return comps


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, n - 1).flatmap(lambda x: st.sampled_from([x, -x])), max_size=12),
    )
))
def test_closure_components_counts_the_cycles_of_the_permutation(word):
    braid = kn.BraidWord(word[0], tuple(word[1]))
    assert braid.closure_components() == _cycles(closure_permutation(*word))


def test_untouched_strands_are_counted_not_listed():
    assert kn.BraidWord(10**9, ()).closure_components() == 10**9
    assert kn.BraidWord(10**9, (1, 2)).closure_components() == 10**9 - 2
    assert kn.BraidWord(10**9, (1, 2, 1)).closure_components() == 10**9 - 1
    # a 1 GB address-space cap: a list of 10^9 strands would not fit
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from spherecover import knots\n"
        "from spherecover.errors import NotAKnot\n"
        "try:\n"
        "    knots.braid_to_diagram(knots.parse_braid('strands=1000000000 1'))\n"
        "except NotAKnot as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout == b"braid closure has 999999999 components\n"


def test_parse_braid():
    b = kn.parse_braid("strands=2 1 1 1")
    assert b.strands == 2 and b.letters == (1, 1, 1)
    with pytest.raises(ParseError):
        kn.parse_braid("1 1 1")
    with pytest.raises(ParseError):
        kn.parse_braid("strands=2 3")
    with pytest.raises(ParseError):
        kn.parse_braid("strands=2 0")


def test_braid_closure_component_check():
    with pytest.raises(NotAKnot):
        kn.braid_to_diagram(kn.BraidWord(2, (1, 1)))  # Hopf link
    d = kn.braid_to_diagram(kn.parse_braid("strands=2 1 1 1"))
    assert kn.determinant(d) == 3


def test_three_trefoil_routes_agree():
    routes = [
        kn.parse_pd(TREFOIL_PD),
        kn.parse_dt("4 6 2"),
        kn.braid_to_diagram(kn.parse_braid("strands=2 1 1 1")),
    ]
    dets = {kn.determinant(d) for d in routes}
    fingerprints = {threefree(alexander_at(d, 3)) for d in routes}
    assert dets == {3}
    assert fingerprints == {7}


# -- Markov reduction of braid words ----------------------------------------------


@st.composite
def markov_moved_braids(draw):
    """A knot braid after random rotations, conjugations, stabilisations at
    either end and inserted x x^-1 pairs; its closure is the same knot."""
    braid = draw(knot_braids())
    strands, word = braid.strands, list(braid.letters)
    moves = ["rotate", "conjugate", "stabilise-top", "stabilise-bottom", "pair"]
    for move in draw(st.lists(st.sampled_from(moves), max_size=6)):
        x = draw(st.integers(1, strands - 1)) * draw(st.sampled_from([1, -1]))
        sign = draw(st.sampled_from([1, -1]))
        if move == "rotate":
            r = draw(st.integers(0, len(word)))
            word = word[r:] + word[:r]
        elif move == "conjugate":
            word = [x] + word + [-x]
        elif move == "stabilise-top":
            word.append(sign * strands)
            strands += 1
        elif move == "stabilise-bottom":
            word = [l + (1 if l > 0 else -1) for l in word] + [sign]
            strands += 1
        else:
            at = draw(st.integers(0, len(word)))
            word[at:at] = [x, -x]
    return kn.BraidWord(strands, tuple(word))


def _assert_reduces(braid):
    reduced = kn.reduce_braid(braid)
    assert kn.reduce_braid(reduced) == reduced
    assert len(reduced.letters) <= len(braid.letters)
    assert reduced.strands <= braid.strands
    assert reduced.closure_components() == braid.closure_components()
    return reduced


@settings(max_examples=120, deadline=None)
@given(markov_moved_braids())
@example(kn.BraidWord(4, (2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, -2, -3)))
@example(kn.BraidWord(4, (1, 2, 1, 2, 1, 2, 1, 2, 1, -1, -3)))
@example(kn.BraidWord(2, (1, -1, 1)))
def test_the_reduced_word_closes_to_the_same_cover(braid):
    reduced = _assert_reduces(braid)
    diagram = kn.braid_to_diagram(braid, reduce=True)
    assert diagram.pd_text() == kn.braid_to_diagram(reduced).pd_text()
    given = an.analyze(kn.braid_to_diagram(braid), coset_cap=5000, name="k")
    short = an.analyze(diagram, coset_cap=5000, name="k")
    assert (short.determinant, short.h1) == (given.determinant, given.h1)
    if an.INFINITE_OR_UNKNOWN not in (given.classification, short.classification):
        assert short.to_record() == given.to_record()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, max(n - 1, 1)).flatmap(lambda x: st.sampled_from([x, -x])),
                 max_size=14 if n > 1 else 0),
    )
))
def test_reduction_keeps_the_link_of_any_word(word):
    # the component count is a link invariant, so no move may change it
    _assert_reduces(kn.BraidWord(word[0], tuple(word[1])))


def test_reduction_examples():
    assert kn.reduce_braid(kn.BraidWord(4, (1, 3))) == kn.BraidWord(2, ())  # two-component unlink
    assert kn.reduce_braid(kn.BraidWord(3, (1, -2, 1, -2))) == kn.BraidWord(3, (1, -2, 1, -2))
    # the bottom generator goes, and every index shifts down by one
    assert kn.reduce_braid(kn.BraidWord(4, (2, 3, -1, 2, 3, 2, 3))) == kn.BraidWord(3, (1, 2, 1, 2, 1, 2))
    assert kn.reduce_braid(kn.BraidWord(1001, tuple(range(1, 1001)) + (1000, 1000))) == kn.BraidWord(2, (1, 1, 1))


def test_a_staircase_reduces_in_well_under_a_second():
    for letters in (range(1, 1001), range(1000, 0, -1), range(-1, -1001, -1)):
        t0 = time.perf_counter()
        assert kn.reduce_braid(kn.BraidWord(1001, tuple(letters))) == kn.BraidWord(1, ())
        assert time.perf_counter() - t0 < 0.25
    staircase = "strands=1001 " + " ".join(str(i) for i in range(1, 1001))
    assert an.analyze(an.diagram_from_payload("braid", staircase)).classification == an.UNKNOT
    # the cost depends on the letters only, never on the strand count
    assert kn.reduce_braid(kn.BraidWord(10**9, (1, 2, 1))) == kn.BraidWord(10**9, (1, 2, 1))
    assert kn.reduce_braid(kn.BraidWord(10**9, (10**9 - 1,))) == kn.BraidWord(10**9 - 1, ())
    assert kn.reduce_braid(kn.BraidWord(10**9, (-1,))) == kn.BraidWord(10**9 - 1, ())


def test_the_crossing_limit_applies_to_the_word_as_given():
    payload = "strands=2 " + " ".join(["1", "-1"] * 500 + ["1"])
    assert kn.reduce_braid(kn.parse_braid(payload)) == kn.BraidWord(1, ())
    with pytest.raises(ValidationError, match="braid closure has 1001 crossings"):
        an.diagram_from_payload("braid", payload)
    with pytest.raises(NotAKnot, match="braid closure has 2 components"):
        an.diagram_from_payload("braid", "strands=3 1 -1 1 2 2")
    report = an.analyze_row(("big", "braid", payload))
    assert report.classification is None
    assert report.error.startswith("ValidationError: braid closure has 1001 crossings")


BRAID_TOKENS = st.one_of(
    st.integers(-6, 6).map(str),
    st.sampled_from(["strands=", "strands=0", "strands=-2", "strands=x", "strands=1000000000",
                     "strands=3 1", "1e3", "+1", "--1", "1_0", "١", "0x1", "9" * 5000]),
    st.text(max_size=5),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["", "strands=1", "strands=2", "strands=3", "strands=4"]),
    st.lists(BRAID_TOKENS, max_size=14),
    st.sampled_from([" ", "\t", "\n", "  "]),
    st.booleans(),
)
def test_braid_payloads_raise_only_input_errors(head, tokens, sep, reduce):
    _assert_only_input_errors("braid", sep.join([head, *tokens]), reduce)


def _assert_only_input_errors(fmt, text, reduce):
    try:
        diagram = an.diagram_from_payload(fmt, text, reduce=reduce)
    except SphereCoverError as exc:
        assert not isinstance(exc, InternalInconsistency), exc
        return
    assert isinstance(diagram, kn.KnotDiagram)


PAYLOAD_HEADS = {
    "pd": ["", "[", "[(1,2,2,1)", TREFOIL_PD, "[(1,4,2,5),(3,6,4,1)"],
    "dt": ["", "4 6 2", "2", "-2"],
    "torus": ["", "2", "3", "7", "503"],
    "twobridge": ["", "1", "5", "15", "1000001"],
    "montesinos": ["", "e=0;", "e=-1; 1/3", "e=1; 1/3 1/5", "e="],
}
PAYLOAD_TOKENS = st.one_of(
    BRAID_TOKENS,
    st.sampled_from(["[", "]", "(", ")", ",", "(1,2,2,1)", "/", ";", "e=", "1/3", "2/5", "1/0",
                     "-1/3", "²"]),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(PAYLOAD_HEADS)).flatmap(
        lambda fmt: st.tuples(st.just(fmt), st.sampled_from(PAYLOAD_HEADS[fmt]))
    ),
    st.lists(PAYLOAD_TOKENS, max_size=6),
    st.sampled_from([" ", "\t", "", ","]),
    st.booleans(),
)
@example(("pd", "["), ["(1,2,2,", "²", ")]"], "", True)
@example(("pd", "[(1,2,2,"), ["9" * 5000, ")]"], "", True)
def test_other_payloads_raise_only_input_errors(head, tokens, sep, reduce):
    fmt, head = head
    _assert_only_input_errors(fmt, sep.join([head, *tokens]), reduce)


# -- the diagram check against its oracle -----------------------------------------


def _outcome(build, *args):
    """A diagram's crossings, signs and arcs, or the error it raised."""
    try:
        d = build(*args)
    except SphereCoverError as exc:
        return type(exc), str(exc)
    return d.crossings, d.arc_of_edge, d.arc_count


def _generated_diagrams():
    two_bridge = st.integers(1, 30).flatmap(
        lambda h: st.sampled_from(
            [kn.two_bridge(2 * h + 1, q) for q in range(1, 2 * h + 1) if math.gcd(2 * h + 1, q) == 1]
        )
    )
    return st.one_of(knot_braids().map(kn.braid_to_diagram), two_bridge)


@st.composite
def pd_tuples(draw):
    """A generated diagram's PD tuples, relabelled, reordered and maybe broken,
    or random 4-tuples of labels."""
    kind = draw(st.sampled_from(["generated", "random", "twice", "pairs"]))
    if kind != "generated":
        n = draw(st.integers(1, 6))
        n2 = 2 * n
        if kind == "random":
            labels = draw(st.lists(st.integers(0, n2 + 1), min_size=4 * n, max_size=4 * n))
        elif kind == "twice":  # every label twice: past the degree check
            labels = draw(st.permutations([e for e in range(1, n2 + 1) for _ in "ab"]))
        else:  # consecutive under and over pairs: past the crossing rules
            labels = []
            for _ in range(n):
                a, b = draw(st.integers(1, n2)), draw(st.integers(1, n2))
                up = draw(st.booleans())
                labels += [a, b, a % n2 + 1, b % n2 + 1] if up else [a, b % n2 + 1, a % n2 + 1, b]
        return [tuple(labels[4 * i : 4 * i + 4]) for i in range(n)]
    d = draw(_generated_diagrams())
    n2 = 2 * d.crossing_count
    if not n2:
        return []
    shift = draw(st.integers(0, n2 - 1))  # start the labels at another edge
    tuples = [tuple((e - 1 + shift) % n2 + 1 for e in cr.edges) for cr in d.crossings]
    tuples = draw(st.permutations(tuples))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(tuples) - 1)), draw(st.integers(0, len(tuples) - 1))
        si, sj = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        ti, tj = list(tuples[i]), list(tuples[j])
        how = draw(st.sampled_from(["rotate", "flip", "exchange"]))
        if how == "rotate":  # by one slot: a crossing change
            tuples[i] = tuple(ti[si:] + ti[:si])
        elif how == "flip":  # the over-strand turned round
            tuples[i] = (ti[0], ti[3], ti[2], ti[1])
        elif i == j:
            ti[si], ti[sj] = ti[sj], ti[si]
            tuples[i] = tuple(ti)
        else:
            ti[si], tj[sj] = tj[sj], ti[si]
            tuples[i], tuples[j] = tuple(ti), tuple(tj)
    return tuples


@settings(max_examples=400, deadline=None)
@given(pd_tuples())
@example([])
@example([(1, 2, 2, 1)])
@example([(2, 2, 1, 1)])
@example([(1, 3, 2, 4), (3, 1, 4, 2)])  # Hopf link: edge 3 followed twice
@example([(1, 3, 2, 4), (1, 4, 2, 3)])
@example([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 4)])
@example([(1, 4, 2), (3, 6, 4, 1), (5, 2, 6, 3)])
def test_diagram_check_matches_the_oracle(tuples):
    assert _outcome(kn.diagram_from_pd_tuples, tuples) == _outcome(
        diagram_oracle.diagram_from_pd_tuples, tuples
    )


def test_every_small_dt_code_matches_the_oracle():
    codes = [
        " ".join(str(s * e) for s, e in zip(signs, evens))
        for n in range(1, 6)
        for evens in itertools.permutations(range(2, 2 * n + 1, 2))
        for signs in itertools.product((1, -1), repeat=n)
    ]
    assert len(codes) == 4282
    for code in codes:
        assert _outcome(kn.parse_dt, code) == _outcome(diagram_oracle.parse_dt, code), code


# -- the assembler against its oracle ----------------------------------------------


def _any_braid_closure(braid, reduce):
    # past the component count, a link reaches the assembler's walk
    with mock.patch.object(kn.BraidWord, "closure_components", lambda self: 1):
        return kn.braid_to_diagram(braid, reduce=reduce)


def _assemblies():
    braids = st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.integers(1, max(n - 1, 1)).flatmap(lambda x: st.sampled_from([x, -x])),
            max_size=14 if n > 1 else 0,
        ).map(lambda w: kn.BraidWord(n, tuple(w)))
    )
    fractions = st.integers(0, 29).flatmap(
        lambda h: st.tuples(st.just(2 * h + 1), st.integers(1, max(2 * h, 1)))
    )
    sums = st.tuples(
        st.integers(-3, 3),
        st.lists(st.tuples(st.integers(1, 9), st.sampled_from([1, 3, 5, 7, 9])), min_size=1, max_size=4),
    )
    return st.one_of(
        st.tuples(st.just(_any_braid_closure), braids, st.booleans()),
        fractions.map(lambda pq: (kn.two_bridge, *pq)),
        sums.map(lambda es: (kn.montesinos, *es)),
    )


@settings(max_examples=400, deadline=None)
@given(_assemblies())
@example((_any_braid_closure, kn.BraidWord(2, (1,)), False))
@example((_any_braid_closure, kn.BraidWord(2, (-1,)), False))
@example((_any_braid_closure, kn.BraidWord(2, (1, 1)), False))  # Hopf link
@example((kn.montesinos, 1, [(1, 3), (1, 5), (1, 7)]))  # a two-component link
def test_the_assembler_matches_its_oracle(built):
    build, *args = built
    ours = _outcome(build, *args)
    with mock.patch.object(kn._Assembler, "finish", assembler_oracle.finish):
        assert ours == _outcome(build, *args)


# -- generators ---------------------------------------------------------------


def test_torus_knot_words():
    t = kn.torus_knot(2, 3)
    assert t.strands == 2 and list(t.letters) == [1, 1, 1]
    t = kn.torus_knot(3, 5)
    assert t.strands == 3 and len(t.letters) == 10
    with pytest.raises(NotAKnot):
        kn.torus_knot(2, 4)
    with pytest.raises(SpecViolation):
        kn.torus_knot(1, 5)


def test_two_bridge_family_determinants():
    for p, q in [(3, 1), (5, 3), (7, 3), (9, 5), (15, 4), (9, 2), (13, 5)]:
        assert kn.determinant(kn.two_bridge(p, q)) == p


def test_two_bridge_specific_knots():
    # b(5,3) is the figure eight, b(5,1) the (2,5) torus knot
    fig8 = kn.braid_to_diagram(kn.parse_braid("strands=3 1 -2 1 -2"))
    assert threefree(alexander_at(kn.two_bridge(5, 3), 3)) == threefree(
        alexander_at(fig8, 3)
    )
    t25 = kn.braid_to_diagram(kn.torus_knot(2, 5))
    assert threefree(alexander_at(kn.two_bridge(5, 1), 3)) == threefree(
        alexander_at(t25, 3)
    )


def test_two_bridge_validation():
    with pytest.raises(SpecViolation):
        kn.two_bridge(4, 1)
    with pytest.raises(SpecViolation):
        kn.two_bridge(9, 3)
    assert kn.two_bridge(1, 1).crossing_count == 0  # degenerate unknot


def test_montesinos_single_fraction_matches_two_bridge():
    for p, q in [(3, 1), (5, 3), (7, 3), (15, 7)]:
        m = kn.montesinos(0, [(p, q)])
        t = kn.two_bridge(p, q)
        assert kn.determinant(m) == kn.determinant(t)
        assert threefree(alexander_at(m, 3)) == threefree(alexander_at(t, 3))


def test_montesinos_pretzel_determinant_formula():
    # det = |prod(den) * (e + sum(num/den))|
    m = kn.montesinos(0, [(1, 3), (1, 5), (1, 7)])
    assert kn.determinant(m) == 71
    m = kn.montesinos(0, [(1, 3), (1, 3), (1, 3)])
    assert kn.determinant(m) == 27


def test_montesinos_validation_and_links():
    with pytest.raises(SpecViolation):
        kn.montesinos(0, [(1, 4)])
    with pytest.raises(SpecViolation):
        kn.montesinos(0, [(3, 9)])
    with pytest.raises(NotAKnot):
        kn.montesinos(1, [(1, 3), (1, 5), (1, 7)])
    assert kn.determinant(kn.montesinos(1, [])) == 1  # single-twist unknot


def test_generated_diagrams_validate():
    diagrams = [
        kn.braid_to_diagram(kn.torus_knot(3, 5)),
        kn.two_bridge(15, 4),
        kn.montesinos(0, [(1, 3), (1, 5), (1, 7)]),
    ]
    for d in diagrams:
        n = d.crossing_count
        # re-parse own PD text: full arc-degree validation must pass
        again = kn.parse_pd(d.pd_text())
        assert again.crossing_count == n
        assert kn.face_count([cr.edges for cr in d.crossings]) == n + 2  # planar


# -- determinant vs Goeritz oracle ------------------------------------------------


def _faces_of_corners(diagram):
    """Map corner (crossing, slot between slot and slot+1) -> face id."""
    incidences = {}
    for ci, cr in enumerate(diagram.crossings):
        for slot, e in enumerate(cr.edges):
            incidences.setdefault(e, []).append((ci, slot))
    face_of = {}
    face_id = 0
    darts = {(ci, s) for ci in range(diagram.crossing_count) for s in range(4)}
    while darts:
        start = min(darts)
        cur = start
        while True:
            darts.discard(cur)
            ci, slot = cur
            face_of[(ci, slot)] = face_id
            e = diagram.crossings[ci].edges[slot]
            inc1, inc2 = incidences[e]
            other = inc2 if inc1 == cur else inc1
            cur = (other[0], (other[1] + 1) % 4)
            if cur == start:
                break
        face_id += 1
    return face_of, face_id


def goeritz_determinant(diagram):
    """Independent oracle: checkerboard Goeritz matrix of the white regions."""
    face_of, nfaces = _faces_of_corners(diagram)
    # checkerboard 2-coloring: corners (0,1),(2,3) vs (1,2),(3,0) alternate
    color = {}
    queue = []
    color[face_of[(0, 0)]] = 0
    queue.append((0, 0))
    seen_corners = set()
    while queue:
        ci, slot = queue.pop()
        if (ci, slot) in seen_corners:
            continue
        seen_corners.add((ci, slot))
        this_face = face_of[(ci, slot)]
        for other_slot in range(4):
            other_face = face_of[(ci, other_slot)]
            expected = color[this_face] ^ ((other_slot - slot) % 2)
            if other_face in color:
                assert color[other_face] == expected, "diagram not checkerboardable"
            else:
                color[other_face] = expected
            if (ci, other_slot) not in seen_corners:
                queue.append((ci, other_slot))
        # hop to adjacent crossings through shared faces
        for key, face in face_of.items():
            if face == this_face and key not in seen_corners:
                queue.append(key)
    whites = sorted(f for f in range(nfaces) if color[f] == 0)
    index = {f: i for i, f in enumerate(whites)}
    size = len(whites)
    g = [[0] * size for _ in range(size)]
    for ci in range(diagram.crossing_count):
        corner_faces = [face_of[(ci, s)] for s in range(4)]
        white_slots = [s for s in range(4) if color[corner_faces[s]] == 0]
        assert len(white_slots) == 2
        eta = 1 if set(white_slots) == {1, 3} else -1
        u, v = (index[corner_faces[s]] for s in white_slots)
        if u != v:
            g[u][v] -= eta
            g[v][u] -= eta
    for u in range(size):
        g[u][u] = -sum(g[u][v] for v in range(size) if v != u)
    deleted = [row[: size - 1] for row in g[: size - 1]]
    return abs(integer_determinant(snf_oracle.sparse_rows(deleted), len(deleted)))


@pytest.mark.parametrize(
    "diagram_factory",
    [
        lambda: kn.parse_pd(TREFOIL_PD),
        lambda: kn.braid_to_diagram(kn.parse_braid("strands=3 1 -2 1 -2")),
        lambda: kn.two_bridge(7, 3),
        lambda: kn.two_bridge(9, 2),
        lambda: kn.two_bridge(15, 4),
        lambda: kn.braid_to_diagram(kn.torus_knot(2, 5)),
        lambda: kn.braid_to_diagram(kn.torus_knot(3, 4)),
        lambda: kn.montesinos(0, [(1, 3), (1, 5), (1, 7)]),
    ],
)
def test_determinant_vs_goeritz_oracle(diagram_factory):
    d = diagram_factory()
    assert kn.determinant(d) == goeritz_determinant(d)


# -- homology ----------------------------------------------------------------------


def test_h1_matches_determinant():
    for d in [
        kn.parse_pd(TREFOIL_PD),
        kn.two_bridge(9, 2),
        kn.two_bridge(15, 4),
        kn.braid_to_diagram(kn.torus_knot(3, 5)),
    ]:
        h = kn.h1_double_cover(d)
        assert h.order() == kn.determinant(d)


# The corpus and the benchmark's row families: b(p, q) and T(2, n) for odd
# p, n <= 31, Markov-moved T(3, 4) and T(3, 5), the capped torus braids and
# the three odd pretzels with their tangles permuted.
H1_FAMILIES = {
    "corpus": lambda: [
        an.diagram_from_payload(fmt, payload)
        for _, fmt, payload in an.parse_corpus(packaged_corpus_text())
    ],
    "two-bridge": lambda: [
        kn.two_bridge(p, q)
        for p in range(3, 32, 2)
        for q in range(1, p)
        if math.gcd(p, q) == 1
    ],
    "torus-2-n": lambda: [kn.braid_to_diagram(kn.torus_knot(2, n)) for n in range(3, 32, 2)],
    "markov-torus-3": lambda: [
        kn.braid_to_diagram(markov_torus_braid(rng, q))
        for q in (4, 5)
        for rng in [random.Random(q)]
        for _ in range(8)
    ],
    "capped-torus": lambda: [
        kn.braid_to_diagram(kn.torus_knot(p, q)) for p, q in ((3, 7), (3, 8), (4, 5))
    ],
    "pretzel": lambda: [
        kn.montesinos(0, [(1, a) for a in triple])
        for triple in ((3, 3, 5), (3, 5, 3), (3, 5, 5), (5, 3, 5), (3, 5, 7), (7, 3, 5))
    ],
}


@pytest.mark.parametrize("family", sorted(H1_FAMILIES))
def test_h1_double_cover_equals_the_dense_path(family):
    for d in H1_FAMILIES[family]():
        assert kn.h1_double_cover(d) == snf_oracle.dense_h1(d), d.pd_text()


def test_determinants_odd_on_generated_family():
    for p, q in [(3, 1), (5, 1), (5, 3), (7, 3), (9, 2), (11, 3), (13, 5), (15, 4)]:
        assert kn.determinant(kn.two_bridge(p, q)) % 2 == 1
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7)]:
        assert kn.determinant(kn.braid_to_diagram(kn.torus_knot(p, q))) % 2 == 1


def test_crossing_limit_is_checked_before_assembly():
    limit = "MAX_CROSSINGS = 1000"
    assert kn.MAX_CROSSINGS == 1000
    with pytest.raises(ValidationError, match=limit):
        kn.torus_knot(1000, 1001)
    with pytest.raises(ValidationError, match=limit):
        kn.torus_knot(2, 1001)
    assert len(kn.torus_knot(2, 999).letters) == 999
    with pytest.raises(ValidationError, match=limit):
        kn.braid_to_diagram(kn.BraidWord(2, (1,) * 1001))
    with pytest.raises(ValidationError, match=limit):
        kn.two_bridge(1000001, 1)
    with pytest.raises(ValidationError, match=limit):
        kn.montesinos(10**9, [])
    with pytest.raises(ValidationError, match=limit):
        kn.montesinos(1, [(1, 3), (999, 1)])  # 1 + 3 + 999 twists


def test_dt_code_reports_the_crossing_limit(monkeypatch):
    assert kn.parse_dt("4 6 2").crossing_count == 3
    monkeypatch.setattr(kn, "MAX_CROSSINGS", 2)
    with pytest.raises(ValidationError, match="DT code has 3 crossings, above the limit MAX_CROSSINGS = 2"):
        kn.parse_dt("4 6 2")
