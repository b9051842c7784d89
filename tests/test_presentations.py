import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import analyzer as an
from spherecover import knots as kn
from spherecover import presentations as pr
from spherecover.config import packaged_corpus_text
from spherecover.errors import InternalInconsistency, NotAKnot, NotIndexTwo, ValidationError
from spherecover.linalg import AbelianGroup, cokernel

import bridge_oracle
import tc_oracle
from snf_oracle import sparse_rows

TREFOIL_PD = "[(1,4,2,5),(3,6,4,1),(5,2,6,3)]"


def test_free_and_cyclic_reduction():
    assert pr.free_reduce((1, -1, 2)) == (2,)
    assert pr.free_reduce((1, 2, -2, -1)) == ()
    assert pr.cyclic_reduce((1, 2, 2, -1)) == (2, 2)
    assert pr.GroupPresentation.make(2, [(1, 2, -1), (1, -1)]).relators == ((2,),)


def test_presentation_rejects_negative_generator_count():
    with pytest.raises(ValidationError, match="negative"):
        pr.GroupPresentation.make(-1, [])
    assert pr.GroupPresentation.make(0, []).ngens == 0
    with pytest.raises(ValidationError, match="out of range"):
        pr.GroupPresentation.make(1, [(2,)])
    for rel in ((1, 2, -1), ()):
        with pytest.raises(ValidationError, match="not cyclically reduced"):
            pr.GroupPresentation(2, (rel,))


# -- Wirtinger and quotients ----------------------------------------------------


def abelianize(pres):
    """Smith normal form of the exponent-sum matrix."""
    rows = []
    for rel in pres.relators:
        row = [0] * pres.ngens
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return cokernel(sparse_rows(rows), pres.ngens)


def test_wirtinger_unknot():
    d = kn.parse_pd("[]")
    w = pr.wirtinger(d)
    assert w.ngens == 1 and w.relators == ()


def test_wirtinger_trefoil():
    w = pr.wirtinger(kn.parse_pd(TREFOIL_PD))
    assert w.ngens == 3
    assert len(w.relators) == 2
    assert str(abelianize(w)) == "Z"


def test_wirtinger_figure8():
    fig8 = kn.braid_to_diagram(kn.parse_braid("strands=3 1 -2 1 -2"))
    w = pr.wirtinger(fig8)
    assert w.ngens == 4
    assert len(w.relators) == 3
    assert str(abelianize(w)) == "Z"


def test_knot_group_abelianization_is_z_on_corpus_families():
    for d in [
        kn.two_bridge(7, 3),
        kn.two_bridge(15, 4),
        kn.braid_to_diagram(kn.torus_knot(3, 5)),
        kn.montesinos(0, [(1, 3), (1, 5), (1, 7)]),
    ]:
        assert str(abelianize(pr.wirtinger(d))) == "Z"


def test_orbifold_quotient_unknot():
    w = pr.wirtinger(kn.parse_pd("[]"))
    orb = pr.orbifold_quotient(w)
    assert orb.relators == ((1, 1),)
    assert pr.todd_coxeter(orb, 10).order == 2


def test_orbifold_quotient_orders():
    tre = pr.orbifold_quotient(pr.wirtinger(kn.parse_pd(TREFOIL_PD)))
    assert pr.todd_coxeter(tre, 100).order == 6
    fig8 = kn.braid_to_diagram(kn.parse_braid("strands=3 1 -2 1 -2"))
    orb = pr.orbifold_quotient(pr.wirtinger(fig8))
    assert pr.todd_coxeter(orb, 100).order == 10
    assert str(abelianize(tre)) == "Z/2"


# -- Tietze reduction to a bridge presentation ------------------------------------

STABILIZED_T35 = kn.BraidWord(4, (1,) + (1, 2) * 5 + (-1, 3))
BRAIDS = [
    kn.torus_knot(3, 4),
    kn.torus_knot(3, 5),
    kn.torus_knot(3, 7),
    STABILIZED_T35,
    kn.torus_knot(2, 31),
]


@pytest.mark.parametrize("braid", BRAIDS, ids=["T34", "T35", "T37", "T35-stabilized", "T2_31"])
def test_braid_closures_reduce_to_the_strand_count(braid):
    wirt = pr.wirtinger(kn.braid_to_diagram(braid))
    bridge = pr.bridge_presentation(wirt)
    assert bridge.ngens <= braid.strands < wirt.ngens
    assert all(len(r) <= pr.MAX_RELATOR_LENGTH for r in bridge.relators)


def test_reduction_never_adds_generators_and_keeps_the_knot_group_homology():
    rows = an.parse_corpus(packaged_corpus_text())
    diagrams = [an.diagram_from_payload(fmt, payload) for _, fmt, payload in rows]
    for d in diagrams + [kn.braid_to_diagram(b) for b in BRAIDS]:
        wirt = pr.wirtinger(d)
        assert all(r and pr.cyclic_reduce(r) == r for r in wirt.relators), d.pd_text()
        bridge = pr.bridge_presentation(wirt)
        assert bridge.ngens <= wirt.ngens, d.pd_text()
        assert str(abelianize(bridge)) == "Z", d.pd_text()


def hurwitz_orbifold(braid):
    """Orbifold group read off the braid's action on the free group (test oracle).

    x_i = beta(x)_i for every strand, plus the square of every x_i.
    """
    def inv(word):
        return tuple(-x for x in reversed(word))

    images = [(i,) for i in range(1, braid.strands + 1)]
    for letter in braid.letters:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            images[i], images[i + 1] = a + b + inv(a), a
        else:
            images[i], images[i + 1] = b, inv(b) + a + b
    relators = [(-i,) + w for i, w in enumerate(images, start=1)]
    relators += [(i, i) for i in range(1, braid.strands + 1)]
    return pr.GroupPresentation.make(braid.strands, relators)


@pytest.mark.parametrize("q,order", [(4, 48), (5, 240)])
def test_reduced_orbifold_order_matches_the_hurwitz_presentation(q, order):
    braid = kn.torus_knot(3, q)
    bridge = pr.bridge_presentation(pr.wirtinger(kn.braid_to_diagram(braid)))
    assert pr.todd_coxeter(pr.orbifold_quotient(bridge), 10_000).order == order
    assert pr.todd_coxeter(hurwitz_orbifold(braid), 10_000).order == order


def test_reduction_stops_at_the_relator_length_bound(monkeypatch):
    wirt = pr.wirtinger(kn.braid_to_diagram(kn.torus_knot(3, 7)))
    monkeypatch.setattr(pr, "MAX_RELATOR_LENGTH", 6)
    capped = pr.bridge_presentation(wirt)
    assert 3 < capped.ngens < wirt.ngens
    assert max(len(r) for r in capped.relators) <= 6
    assert str(abelianize(capped)) == "Z"
    # the Fox determinant needs no finished reduction
    for p, q, det in [(3, 7, 1), (3, 8, 3), (4, 5, 5)]:
        diagram = kn.braid_to_diagram(kn.torus_knot(p, q))
        capped = pr.bridge_presentation(pr.wirtinger(diagram))
        assert pr.meridian_determinant(capped) == kn.determinant(diagram) == det


@pytest.mark.parametrize("n", [65, 101, 201])
def test_fox_determinant_of_long_torus_knots(n):
    # T(2, n) for n >= 65 stops at the relator length bound with n - 62
    # generators, so its Fox matrix is far larger than the benchmark rows'
    diagram = kn.braid_to_diagram(kn.torus_knot(2, n))
    bridge = pr.bridge_presentation(pr.wirtinger(diagram))
    assert bridge.ngens == n - 62
    assert pr.meridian_determinant(bridge) == kn.determinant(diagram) == n


def test_reduction_guard_rejects_a_lost_generator(monkeypatch):
    monkeypatch.setattr(pr, "_substitute", lambda rel, c, value, inverse: rel + (c, c))
    with pytest.raises(InternalInconsistency, match="survivors"):
        pr.bridge_presentation(pr.wirtinger(kn.braid_to_diagram(kn.torus_knot(3, 5))))


# -- Tietze reduction against its oracle ---------------------------------------------


def assert_matches_the_bridge_oracle(diagram):
    wirt = pr.wirtinger(diagram)
    assert pr.bridge_presentation(wirt) == bridge_oracle.bridge_presentation(wirt), (
        diagram.pd_text()
    )


def test_reduction_matches_the_oracle_on_the_corpus():
    for _, fmt, payload in an.parse_corpus(packaged_corpus_text()):
        assert_matches_the_bridge_oracle(an.diagram_from_payload(fmt, payload))


def test_reduction_matches_the_oracle_on_two_bridge_and_two_strand_torus_knots():
    for p in range(3, 32, 2):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert_matches_the_bridge_oracle(kn.two_bridge(p, q))
        assert_matches_the_bridge_oracle(kn.braid_to_diagram(kn.torus_knot(2, p)))


@pytest.mark.parametrize("p, q", [(3, 7), (3, 8), (4, 5)])
def test_reduction_matches_the_oracle_on_rotated_and_mirrored_torus_braids(p, q):
    word = kn.torus_knot(p, q).letters
    for r in range(len(word)):
        for sign in (1, -1):
            rotated = tuple(sign * x for x in word[r:] + word[:r])
            assert_matches_the_bridge_oracle(kn.braid_to_diagram(kn.BraidWord(p, rotated)))


@pytest.mark.parametrize("q", [4, 5])
def test_reduction_matches_the_oracle_on_markov_moved_torus_braids(q):
    rng = random.Random(q)
    word = list(kn.torus_knot(3, q).letters)
    for _ in range(24):
        r = rng.randrange(len(word))
        x = rng.choice([1, -1, 2, -2])
        moved = [x] + word[r:] + word[:r] + [-x, rng.choice([3, -3])]
        assert_matches_the_bridge_oracle(kn.braid_to_diagram(kn.BraidWord(4, tuple(moved))))


@pytest.mark.parametrize("triple", [(3, 3, 5), (3, 5, 5), (3, 5, 7)])
def test_reduction_matches_the_oracle_on_odd_pretzels(triple):
    for order in sorted(set(itertools.permutations(triple))):
        assert_matches_the_bridge_oracle(kn.montesinos(0, [(1, a) for a in order]))


def closure_permutation(strands, letters):
    """The strand order after the braid word, listing every strand."""
    perm = list(range(strands))
    for l in letters:
        i = abs(l) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


@st.composite
def knot_braids(draw):
    """A random braid word, closed up by crossings that make its strands one cycle."""
    strands = draw(st.integers(2, 5))
    letters = list(draw(st.lists(st.integers(1, strands - 1), max_size=12)))
    # bubble the strand order into (1 2 ... n-1 0), the order of one n-cycle
    order = closure_permutation(strands, letters)
    for pos, strand in enumerate(list(range(1, strands)) + [0]):
        for k in range(order.index(strand), pos, -1):
            order[k - 1], order[k] = order[k], order[k - 1]
            letters.append(k)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(letters), max_size=len(letters)))
    braid = kn.BraidWord(strands, tuple(s * x for s, x in zip(signs, letters)))
    assert braid.closure_components() == 1
    return braid


@settings(max_examples=150, deadline=None)
@given(knot_braids())
def test_reduction_matches_the_oracle_on_random_braids(braid):
    assert_matches_the_bridge_oracle(kn.braid_to_diagram(braid))


# -- the determinant from the Fox matrix of the reduced presentation ----------------


def assert_fox_determinant_matches_the_crossing_matrix(diagram):
    bridge = pr.bridge_presentation(pr.wirtinger(diagram))
    assert pr.meridian_determinant(bridge) == kn.determinant(diagram), diagram.pd_text()


def test_fox_determinant_matches_the_crossing_matrix_on_the_corpus():
    for _, fmt, payload in an.parse_corpus(packaged_corpus_text()):
        assert_fox_determinant_matches_the_crossing_matrix(an.diagram_from_payload(fmt, payload))


def test_fox_determinant_matches_the_crossing_matrix_on_two_bridge_knots():
    for p in range(1, 60, 2):
        for q in range(1, max(p, 2)):
            if math.gcd(p, q) == 1:
                assert_fox_determinant_matches_the_crossing_matrix(kn.two_bridge(p, q))


def test_fox_determinant_matches_the_crossing_matrix_on_torus_knots():
    for p in range(2, 12):
        for q in range(2, 12):
            if math.gcd(p, q) == 1:
                assert_fox_determinant_matches_the_crossing_matrix(
                    kn.braid_to_diagram(kn.torus_knot(p, q))
                )


def test_fox_determinant_matches_the_crossing_matrix_on_montesinos_sums():
    tangles = [(1, 3), (2, 3), (1, 5), (2, 5), (3, 5), (1, 7), (3, 7), (2, 9)]
    knots_seen = 0
    for e in (-2, -1, 0, 1):
        for size in (2, 3, 4):
            for fractions in itertools.combinations(tangles, size):
                try:
                    diagram = kn.montesinos(e, list(fractions))
                except NotAKnot:
                    continue
                assert_fox_determinant_matches_the_crossing_matrix(diagram)
                knots_seen += 1
    assert knots_seen > 100


@settings(max_examples=150, deadline=None)
@given(knot_braids())
def test_fox_determinant_matches_the_crossing_matrix_on_random_braids(braid):
    assert_fox_determinant_matches_the_crossing_matrix(kn.braid_to_diagram(braid))


@pytest.mark.parametrize("text", ["[]", "strands=2 -1", "strands=2 1"])
def test_fox_determinant_of_the_zero_and_one_crossing_unknots(text):
    if text == "[]":
        diagram = kn.parse_pd(text)
    else:
        diagram = kn.braid_to_diagram(kn.parse_braid(text))
    bridge = pr.bridge_presentation(pr.wirtinger(diagram))
    assert (bridge.ngens, bridge.relators) == (1, ())
    assert pr.meridian_determinant(bridge) == kn.determinant(diagram) == 1


def test_fox_determinant_needs_deficiency_one():
    trefoil = pr.bridge_presentation(pr.wirtinger(kn.parse_pd(TREFOIL_PD)))
    assert pr.meridian_determinant(trefoil) == 3
    for pres in (
        pr.GroupPresentation.make(trefoil.ngens, trefoil.relators * 2),
        pr.GroupPresentation.make(trefoil.ngens, ()),
        pr.GroupPresentation.make(0, ()),
        pr.orbifold_quotient(trefoil),
    ):
        with pytest.raises(InternalInconsistency, match="deficiency one"):
            pr.meridian_determinant(pres)


# -- Todd-Coxeter ---------------------------------------------------------------


def test_todd_coxeter_triangle_dihedral():
    pres = pr.GroupPresentation.make(2, [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)])
    out = pr.todd_coxeter(pres, 100)
    assert out.finite and out.order == 6


def test_todd_coxeter_cyclic():
    out = pr.todd_coxeter(pr.GroupPresentation.make(1, [(1,) * 5]), 100)
    assert out.order == 5


def test_todd_coxeter_free_group_inconclusive():
    out = pr.todd_coxeter(pr.GroupPresentation.make(2, []), 1000)
    assert not out.finite
    assert out.cap == 1000


def test_todd_coxeter_torus_3_7_orbifold_inconclusive():
    # the (2,3,7) orbifold group is infinite, so the cap ends the run
    diagram = kn.braid_to_diagram(kn.torus_knot(3, 7))
    orb = pr.orbifold_quotient(pr.bridge_presentation(pr.wirtinger(diagram)))
    out = pr.todd_coxeter(orb, 5000)
    assert not out.finite
    assert out.order is None
    assert out.cap == 5000


def test_coset_cap_counts_peak_live_cosets(monkeypatch):
    # S4 = <a, b | a^2, b^3, (ab)^4> peaks at 26 live cosets on its way to 24.
    # Live cosets only grow between coincidences, so the peak is the larger
    # of the live counts on entry to each coincidence and the final order.
    pres = pr.GroupPresentation.make(2, [(1, 1), (2, 2, 2), (1, 2) * 4])
    coincidence = pr._Enumerator._coincidence
    samples = []

    def sampled(self, a, b):
        samples.append(len(self.p) - self.dead)
        coincidence(self, a, b)

    monkeypatch.setattr(pr._Enumerator, "_coincidence", sampled)
    out = pr.todd_coxeter(pres, 10_000)
    monkeypatch.undo()
    assert out.order == 24
    assert max(samples + [out.order]) == 26
    assert pr.todd_coxeter(pres, 26).order == 24
    below = pr.todd_coxeter(pres, 25)
    assert below.finite is False
    assert below.order is None


def test_fixed_generators_enumerate_the_cosets_of_their_subgroup():
    # S4 = <a, b | a^2, b^3, (ab)^4>: <a> has index 12, <b> index 8
    pres = pr.GroupPresentation.make(2, [(1, 1), (2, 2, 2), (1, 2) * 4])
    for fixed, index in [((), 24), ((1,), 12), ((2,), 8), ((1, 2), 1)]:
        table = pr.todd_coxeter(pres, 100, fixed)
        assert (table.order, table.fixed) == (index, fixed)
        assert pr.certify_table(table, pres.relators)
        assert all(table.perms[g - 1][0] == 0 for g in fixed)
    capped = pr.todd_coxeter(pres, 5, (1,))
    assert not capped.finite and capped.fixed == (1,)


def test_completed_tables_are_certified():
    pres = pr.GroupPresentation.make(2, [(1, 1, 1), (2, 2), (1, 2, 1, 2)])
    out = pr.todd_coxeter(pres, 1000)
    assert out.finite
    assert pr.certify_table(out, [list(r) for r in pres.relators])
    # transitivity and bijectivity are part of the certificate
    assert sorted(out.perms[0]) == list(range(out.order))


def test_squared_generators_get_one_self_inverse_column():
    orb = pr.orbifold_quotient(pr.wirtinger(kn.parse_pd(TREFOIL_PD)))
    assert pr._Enumerator(orb, 100).ncols == orb.ngens
    free = pr.GroupPresentation.make(2, [])
    assert pr._Enumerator(free, 100).ncols == 2 * free.ngens


def test_certificate_still_checks_the_unscanned_squares():
    # <a, b | a^2, b^2>: a 3-cycle in a's column breaks a^2 and nothing else
    pres = pr.GroupPresentation.make(2, [(1, 1), (2, 2)])
    table = pr.CosetTable(10, 3, ((1, 2, 0), (0, 2, 1)))
    assert not pr.certify_table(table, pres.relators)
    assert pr.certify_table(table, [(2, 2)])


# <a, b | a^2, b^6, (ab)^2>: the dihedral group of order 12 on its own cosets
D12 = pr.GroupPresentation.make(2, [(1, 1), (2,) * 6, (1, 2) * 2])


def d12_with(column, perm):
    table = pr.todd_coxeter(D12, 100)
    assert table.order == 12 and pr.certify_table(table, D12.relators)
    perms = list(table.perms)
    perms[column] = perm(list(perms[column]))
    return pr.CosetTable(table.cap, table.order, tuple(perms))


def test_fixed_generators_are_in_range_and_fix_coset_zero():
    for fixed in [(0,), (3,), (-1,)]:
        with pytest.raises(ValidationError):
            pr.todd_coxeter(D12, 100, fixed)
    # <b> has index 2 in D12, and a moves coset 0
    table = pr.todd_coxeter(D12, 100, (2,))
    assert table.order == 2 and pr.certify_table(table, D12.relators)
    assert not pr.certify_table(pr.CosetTable(table.cap, 2, table.perms, (1,)), D12.relators)
    assert not pr.certify_table(pr.CosetTable(table.cap, 2, table.perms, (3,)), D12.relators)


# With no relators to trace, only the bijectivity and transitivity checks
# can reject a table.


def test_certificate_rejects_a_column_of_the_wrong_length():
    assert pr.certify_table(d12_with(0, lambda p: p), [])
    assert not pr.certify_table(d12_with(0, lambda p: p[:-1]), [])
    assert not pr.certify_table(d12_with(1, lambda p: p + [0]), [])


@pytest.mark.parametrize("bad", [-1, 12, 13])
def test_certificate_rejects_an_entry_out_of_range(bad):
    assert not pr.certify_table(d12_with(1, lambda p: p[:5] + [bad] + p[6:]), [])


def test_certificate_rejects_a_repeated_entry():
    table = d12_with(1, lambda p: p[:5] + [p[4]] + p[6:])
    assert len(table.perms[1]) == 12 and max(table.perms[1]) < 12
    assert not pr.certify_table(table, [])
    # a is a 3-cycle, so the table stays transitive; b repeats 0
    assert not pr.certify_table(pr.CosetTable(10, 3, ((1, 2, 0), (0, 0, 1))), [])


@pytest.mark.parametrize("relator", [(2,), (-2,), (0,)], ids=["2", "-2", "0"])
def test_certificate_rejects_a_letter_naming_no_column(relator):
    # one coset, one generator: only the letters 1 and -1 name a column
    table = pr.CosetTable(10, 1, ((0,),))
    assert pr.certify_table(table, [(1,), (-1,)])
    assert not pr.certify_table(table, [relator])


def test_certificate_rejects_an_intransitive_table():
    # two disjoint copies of Z/2: bijective, relator a^2 holds everywhere
    table = pr.CosetTable(10, 4, ((1, 0, 3, 2),))
    assert not pr.certify_table(table, [(1, 1)])
    assert pr.certify_table(pr.CosetTable(10, 2, ((1, 0),)), [(1, 1)])


def test_certificate_traces_relators_from_every_coset():
    # b is a 6-cycle and a swaps cosets 4 and 5 only: a holds from cosets
    # 0-3 and fails from 4 and 5, the fewest a permutation can fail from
    table = pr.CosetTable(10, 6, ((0, 1, 2, 3, 5, 4), (1, 2, 3, 4, 5, 0)))
    assert pr.certify_table(table, [(2,) * 6, (-2,) * 6, (1, 1), (-1, -1)])
    assert not pr.certify_table(table, [(1,)])
    assert not pr.certify_table(table, [(-2, -2, -2)])


def test_certificate_rejects_capped_and_empty_tables():
    assert not pr.certify_table(pr.CosetTable(10), [])
    assert not pr.certify_table(pr.CosetTable(10, 0, ()), [])


def test_uncertified_table_raises(monkeypatch):
    monkeypatch.setattr(pr, "certify_table", lambda table, relators: False)
    with pytest.raises(InternalInconsistency):
        pr.todd_coxeter(pr.GroupPresentation.make(1, [(1,) * 5]), 100)


NAIVE_CASES = [
    ("Z5", 1, [(1,) * 5], 12, 5),
    ("Z8", 1, [(1,) * 8], 18, 8),
    ("Z60", 1, [(1,) * 60], 122, 60),
    ("Z2xZ2", 2, [(1, 1), (2, 2), (1, 2, -1, -2)], 6, 4),
    ("S3", 2, [(1, 1), (2, 2, 2), (1, 2, 1, 2)], 7, 6),
    ("D4", 2, [(1, 1), (2, 2, 2, 2), (1, 2, 1, 2)], 8, 8),
    ("Q8", 2, [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)], 8, 8),
    ("Z6", 2, [(1, 1), (2, 2, 2), (1, 2, -1, -2)], 8, 6),
    ("D6", 2, [(1, 1), (2,) * 6, (1, 2, 1, 2)], 9, 12),
    ("A4", 2, [(1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2)], 9, 12),
    ("D4-inverted", 2, [(-1, -1), (2, 2, 2, 2), (-1, 2, 1, 2)], 8, 8),
]


def naive_group_order(ngens, relators, max_len):
    """Brute-force word enumeration: union freely-reduced words of bounded
    length under insertion of relator conjugates at every position."""
    letters = list(range(1, ngens + 1)) + [-g for g in range(1, ngens + 1)]
    words = {(): 0}
    order = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for l in letters:
                if w and w[-1] == -l:
                    continue
                w2 = w + (l,)
                if len(w2) <= max_len and w2 not in words:
                    words[w2] = len(order)
                    order.append(w2)
                    nxt.append(w2)
        frontier = nxt
    parent = list(range(len(order)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rels = set()
    for r in relators:
        r = pr.free_reduce(r)
        inv = tuple(-x for x in reversed(r))
        for base in (r, inv):
            for i in range(len(base)):
                rels.add(pr.free_reduce(base[i:] + base[:i]))
    rels.discard(())
    for w, wi in words.items():
        for p in range(len(w) + 1):
            head, tail = w[:p], w[p:]
            for r in rels:
                target = pr.free_reduce(head + r + tail)
                ti = words.get(target)
                if ti is not None:
                    ra, rb = find(wi), find(ti)
                    if ra != rb:
                        parent[ra] = rb
    return len({find(i) for i in range(len(order))})


@pytest.mark.parametrize("name,ngens,rels,max_len,expected", NAIVE_CASES)
def test_todd_coxeter_vs_naive_word_enumeration(name, ngens, rels, max_len, expected):
    pres = pr.GroupPresentation.make(ngens, rels)
    tc = pr.todd_coxeter(pres, 10_000)
    naive = naive_group_order(ngens, rels, max_len)
    assert tc.finite
    assert tc.order == naive == expected


def random_presentation(rng, ngens, squares):
    """1-3 random relators of length 1-8, plus squares of some generators."""
    letters = list(range(1, ngens + 1)) + [-g for g in range(1, ngens + 1)]
    relators = [
        tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 3))
    ]
    if squares:
        squared = [g for g in range(1, ngens + 1) if rng.random() < 0.5] or [1]
        relators += [(g, g) if rng.random() < 0.5 else (-g, -g) for g in squared]
    return pr.GroupPresentation.make(ngens, relators)


ORACLE_KNOTS = [
    (lambda: kn.braid_to_diagram(kn.torus_knot(3, 4)), 10_000),
    (lambda: kn.braid_to_diagram(kn.torus_knot(3, 5)), 10_000),
    (lambda: kn.two_bridge(7, 3), 10_000),
    (lambda: kn.braid_to_diagram(kn.torus_knot(3, 7)), 5000),
    (lambda: kn.montesinos(0, [(1, 3), (1, 5), (1, 7)]), 5000),
]


@pytest.mark.parametrize("factory,cap", ORACLE_KNOTS, ids=["T34", "T35", "b7_3", "T37", "P357"])
def test_flat_table_matches_the_oracle_on_knot_orbifolds(factory, cap):
    wirt = pr.wirtinger(factory())
    for orb in (pr.orbifold_quotient(pr.bridge_presentation(wirt)), pr.orbifold_quotient(wirt)):
        assert pr.todd_coxeter(orb, cap) == tc_oracle.todd_coxeter(orb, cap)


def test_flat_table_matches_the_oracle_on_the_test_presentations():
    fig8 = kn.braid_to_diagram(kn.parse_braid("strands=3 1 -2 1 -2"))
    cases = [(pr.GroupPresentation.make(n, rels), 10_000) for _, n, rels, _, _ in NAIVE_CASES]
    cases += [
        (pr.GroupPresentation.make(2, [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)]), 100),
        (pr.GroupPresentation.make(1, [(1,) * 5]), 100),
        (pr.GroupPresentation.make(2, []), 1000),
        (pr.GroupPresentation.make(2, [(1, 1, 1), (2, 2), (1, 2, 1, 2)]), 1000),
        (pr.GroupPresentation.make(1, [(1, 1, 1)]), 10),
        (pr.GroupPresentation.make(0, []), 10),
        (pr.orbifold_quotient(pr.wirtinger(kn.parse_pd("[]"))), 10),
        (pr.orbifold_quotient(pr.wirtinger(kn.parse_pd(TREFOIL_PD))), 100),
        (pr.orbifold_quotient(pr.wirtinger(fig8)), 100),
        (hurwitz_orbifold(kn.torus_knot(3, 4)), 10_000),
        (hurwitz_orbifold(kn.torus_knot(3, 5)), 10_000),
    ]
    s4 = pr.GroupPresentation.make(2, [(1, 1), (2, 2, 2), (1, 2) * 4])
    cases += [(s4, cap) for cap in (10_000, 26, 25, 1)]
    for pres, cap in cases:
        assert pr.todd_coxeter(pres, cap) == tc_oracle.todd_coxeter(pres, cap), pres


@pytest.mark.parametrize("ngens", [1, 2, 3])
@pytest.mark.parametrize("squares", [False, True], ids=["no-squares", "squares"])
def test_flat_table_matches_the_oracle_on_random_presentations(ngens, squares):
    rng = random.Random(1000 * ngens + squares)
    for _ in range(40):
        pres = random_presentation(rng, ngens, squares)
        for cap in (50, 500, 5000):
            ours = pr.todd_coxeter(pres, cap)
            assert ours == tc_oracle.todd_coxeter(pres, cap), (pres, cap)


# -- gap fill against the oracle -------------------------------------------------------


class _PeakOracle(tc_oracle._Enumerator):
    """The oracle's enumeration, recording the most live cosets it held at once."""

    peak = 1

    def _define(self, alpha, x):
        super()._define(alpha, x)
        self.peak = max(self.peak, self.n_live)


def peak_live_cosets(pres, cap):
    enumerator = _PeakOracle(pres, cap)
    enumerator.run()
    return enumerator.peak


def assert_matches_the_oracle_at_the_peak(pres, cap):
    """Equal tables at ``cap``, at the run's peak live count and one below it."""
    peak = peak_live_cosets(pres, cap)
    for c in {cap, peak, max(peak - 1, 1)}:
        assert pr.todd_coxeter(pres, c) == tc_oracle.todd_coxeter(pres, c), (pres, c)


GAP_CASES = {
    # a a inside a longer word, a squared: the fresh coset made for the
    # first a already has the entry the second a follows
    "squared-letter-pair": (2, [(1, 1), (-2, -2, -2, 1, 1, 1, -2, 1)], 16, 19),
    # the last word starts and ends with the squared b, so the gap's first
    # definition at coset 0 is also the backward trace's next step
    "backward-step": (3, [(1, 1), (2, 2), (3, 3), (2, 1, 2, 3, 1, 3, 2, 3, 2)], 8, 48),
    # one below the peak the cap falls inside a gap of several letters
    "cap-inside-a-gap": (2, [(1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, -2)], 3, 24),
}


@pytest.mark.parametrize(
    "ngens, relators, order, peak", GAP_CASES.values(), ids=GAP_CASES.keys()
)
def test_gap_fill_matches_the_oracle_at_the_peak(ngens, relators, order, peak):
    pres = pr.GroupPresentation.make(ngens, relators)
    assert peak_live_cosets(pres, 10_000) == peak
    assert pr.todd_coxeter(pres, peak).order == order
    assert not pr.todd_coxeter(pres, peak - 1).finite
    assert_matches_the_oracle_at_the_peak(pres, 10_000)


@st.composite
def gap_presentations(draw):
    """1-3 words of length 1-9, some with a a on a squared a, plus the squares."""
    ngens = draw(st.integers(1, 3))
    letter = st.integers(1, ngens).flatmap(lambda g: st.sampled_from([g, -g]))
    squared = sorted(draw(st.sets(st.integers(1, ngens))))
    relators = []
    for word in draw(st.lists(st.lists(letter, min_size=1, max_size=9), min_size=1, max_size=3)):
        if squared and draw(st.booleans()):
            g = draw(st.sampled_from(squared))
            k = draw(st.integers(0, len(word)))
            word = word[:k] + [g, g] + word[k:]
        relators.append(word)
    return pr.GroupPresentation.make(ngens, relators + [(g, g) for g in squared])


@settings(max_examples=150, deadline=None)
@given(gap_presentations())
def test_gap_fill_matches_the_oracle_on_random_presentations(pres):
    assert_matches_the_oracle_at_the_peak(pres, 500)


# -- branched cover extraction -----------------------------------------------------


def test_cover_unknot_trivial():
    out = pr.todd_coxeter(pr.orbifold_quotient(pr.wirtinger(kn.parse_pd("[]"))), 10)
    order, cover = pr.branched_cover_group(out)
    assert order == 1


def test_cover_trefoil_cyclic3():
    out = pr.todd_coxeter(pr.orbifold_quotient(pr.wirtinger(kn.parse_pd(TREFOIL_PD))), 100)
    order, cover = pr.branched_cover_group(out)
    assert order == 3
    assert str(cover.abelianization()) == "Z/3"
    assert out.order == 2 * order


def test_cover_torus35_poincare():
    d = kn.braid_to_diagram(kn.torus_knot(3, 5))
    out = pr.todd_coxeter(pr.orbifold_quotient(pr.wirtinger(d)), 200_000)
    order, cover = pr.branched_cover_group(out)
    assert out.order == 240
    assert order == 120
    assert len(cover.derived_series()[1]) == len(cover)  # perfect
    assert cover.abelianization() == AbelianGroup()


def test_not_index_two():
    out = pr.todd_coxeter(pr.GroupPresentation.make(1, [(1, 1, 1)]), 10)
    with pytest.raises(NotIndexTwo):
        pr.branched_cover_group(out)


# -- Reidemeister-Schreier oracle ----------------------------------------------------


def rs_kernel_abelianization(pres):
    """Index-2 parity kernel homology via Schreier rewriting (test oracle).

    Transversal {e, g1}; Schreier generators sigma(r, g) = rep(r) g
    rep(r+1)^-1; the tree generator sigma(0, g1) is forced trivial.
    """
    ngens = pres.ngens

    def idx(state, g):
        return state * ngens + (g - 1)

    rows = []
    for rel in pres.relators:
        for start in (0, 1):
            row = [0] * (2 * ngens)
            state = start
            for letter in rel:
                g = abs(letter)
                if letter > 0:
                    row[idx(state, g)] += 1
                    state ^= 1
                else:
                    state ^= 1
                    row[idx(state, g)] -= 1
            assert state == start, "relator must have even meridian length"
            rows.append(row)
    tree = [0] * (2 * ngens)
    tree[idx(0, 1)] = 1
    rows.append(tree)
    return cokernel(sparse_rows(rows), 2 * ngens)


@pytest.mark.parametrize(
    "factory,expected",
    [
        (lambda: kn.parse_pd(TREFOIL_PD), "Z/3"),
        (lambda: kn.braid_to_diagram(kn.parse_braid("strands=3 1 -2 1 -2")), "Z/5"),
        (lambda: kn.two_bridge(7, 3), "Z/7"),
    ],
)
def test_rs_oracle_matches_determinant_and_cover(factory, expected):
    d = factory()
    orb = pr.orbifold_quotient(pr.wirtinger(d))
    rs = rs_kernel_abelianization(orb)
    assert str(rs) == expected
    assert rs.order() == kn.determinant(d)
    out = pr.todd_coxeter(orb, 10_000)
    _, cover = pr.branched_cover_group(out)
    assert cover.abelianization() == rs
    reduced = pr.orbifold_quotient(pr.bridge_presentation(pr.wirtinger(d)))
    assert reduced.ngens < orb.ngens
    assert rs_kernel_abelianization(reduced) == rs == kn.h1_double_cover(d)
