"""The cover group read off the coset table, against the regular-group oracle.

``presentations.branched_cover_group`` closes the parity kernel on the
actions of its Schreier generators, each the composition of two table
columns.  ``cover_oracle.branched_cover_group`` closes it by products in
the regular group.  The two must agree on the order, the abelianization
and the derived series, on knot orbifolds and on small presentations
with involutive generators.  The same holds when the library reads the
kernel off the cosets of the first generator, half the regular table;
there the kernel must also be isomorphic to the oracle's through its
kept generators.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import analyzer as an
from spherecover import knots as kn
from spherecover import presentations as pr
from spherecover.config import packaged_corpus_text
from spherecover.errors import InternalInconsistency, NotIndexTwo, ValidationError
from spherecover.groups import FiniteGroup

import cover_oracle
import snf_oracle

CAP = 5000  # every finite cover below enumerates well inside it


def orbifold_table(diagram):
    orb = pr.orbifold_quotient(pr.bridge_presentation(pr.wirtinger(diagram)))
    return pr.todd_coxeter(orb, CAP)


def derived_sizes(group):
    return [len(s) for s in group.derived_series()]


def assert_matches_oracle(outcome):
    try:
        expected_order, expected = cover_oracle.branched_cover_group(outcome)
    except NotIndexTwo:
        with pytest.raises(NotIndexTwo):
            pr.branched_cover_group(outcome)
        return
    order, cover = pr.branched_cover_group(outcome)
    assert order == len(cover) == expected_order
    assert cover.abelianization() == expected.abelianization()
    assert derived_sizes(cover) == derived_sizes(expected)
    # both keep the same Schreier generators, so the closures agree edge
    # for edge; the oracle's elements index the regular group, whose
    # elements are the cosets
    assert (cover.right, cover.parent, cover.gen) == (expected.right, expected.parent, expected.gen)
    regular = cover_oracle.regular_group(outcome)
    assert cover.elements == [regular.elements[x] for x in expected.elements]


def markov_torus_braid(rng, q):
    """T(3, q) as a 3-braid, conjugated by one letter and stabilised to 4 strands."""
    word = [1, 2] * q
    r = rng.randrange(len(word))
    word = word[r:] + word[:r]
    x = rng.choice([1, -1, 2, -2])
    return kn.BraidWord(4, tuple([x] + word + [-x, rng.choice([3, -3])]))


def test_every_finite_corpus_row_matches_the_oracle():
    finite = 0
    for name, fmt, payload in an.parse_corpus(packaged_corpus_text()):
        outcome = orbifold_table(an.diagram_from_payload(fmt, payload, name=name))
        if outcome.finite:
            assert_matches_oracle(outcome)
            finite += 1
    assert finite == 13


def test_cover_abelianization_equals_the_dense_oracle_on_the_corpus():
    finite = 0
    for name, fmt, payload in an.parse_corpus(packaged_corpus_text()):
        outcome = orbifold_table(an.diagram_from_payload(fmt, payload, name=name))
        if outcome.finite:
            _, cover = pr.branched_cover_group(outcome)
            assert cover.abelianization() == snf_oracle.dense_abelianization(cover), name
            finite += 1
    assert finite == 13


@pytest.mark.parametrize("p", [3, 5, 9, 15, 21, 31])
def test_two_bridge_rows_match_the_oracle(p):
    for q in (1, 2, p - 2):
        outcome = orbifold_table(kn.two_bridge(p, q))
        assert outcome.order == 2 * p
        assert_matches_oracle(outcome)


@pytest.mark.parametrize("n", [3, 7, 13, 31])
def test_two_strand_torus_rows_match_the_oracle(n):
    outcome = orbifold_table(kn.braid_to_diagram(kn.torus_knot(2, n)))
    assert outcome.order == 2 * n
    assert_matches_oracle(outcome)


@pytest.mark.parametrize("q, order", [(4, 48), (5, 240)])
def test_markov_moved_torus_braids_match_the_oracle(q, order):
    rng = random.Random(q)
    for _ in range(4):
        outcome = orbifold_table(kn.braid_to_diagram(markov_torus_braid(rng, q)))
        assert outcome.order == order
        assert_matches_oracle(outcome)


@pytest.mark.parametrize(
    "pres, order",
    [
        (pr.GroupPresentation.make(1, [(1,) * 4]), 2),
        # the quaternion group: i^4, i^2 j^-2, j^-1 i j i
        (pr.GroupPresentation.make(2, [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)]), 4),
        (pr.GroupPresentation.make(2, [(1,) * 6, (2, 2), (1, 2) * 2]), 6),
    ],
    ids=["Z4", "Q8", "D12"],
)
def test_generators_of_higher_order_match_the_oracle(pres, order):
    # t * g and g * t^-1 differ once t is not an involution
    outcome = pr.todd_coxeter(pres, 100)
    assert pr.branched_cover_group(outcome)[0] == order
    assert_matches_oracle(outcome)


# Coxeter triples (m12, m13, m23) of the finite rank-3 reflection groups
SPHERICAL_TRIPLES = [(2, 2, 2), (2, 2, 3), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5)]


@st.composite
def involutive_presentations(draw):
    """A finite Coxeter group on 1-3 generators, with up to two extra relators.

    Every generator squares to the identity.  Extra relators have even
    length, except now and then one letter more: a relator of odd length
    leaves no parity map, and both paths must then refuse.
    """
    ngens = draw(st.integers(1, 3))
    relators = [(g, g) for g in range(1, ngens + 1)]
    if ngens == 2:
        relators.append((1, 2) * draw(st.integers(1, 6)))
    elif ngens == 3:
        triple = draw(st.permutations(draw(st.sampled_from(SPHERICAL_TRIPLES))))
        relators += [(i, j) * m for (i, j), m in zip(((1, 2), (1, 3), (2, 3)), triple)]
    letters = st.sampled_from([s * g for g in range(1, ngens + 1) for s in (1, -1)])
    pairs = st.lists(st.tuples(letters, letters), min_size=1, max_size=4)
    for word in draw(st.lists(pairs, max_size=1)):
        relators.append(sum(word, ()))
    if draw(st.sampled_from(range(6))) == 5:
        relators.append(sum(draw(pairs), (draw(letters),)))
    return pr.GroupPresentation.make(ngens, relators)


@settings(max_examples=150, deadline=None)
@given(involutive_presentations())
def test_small_involutive_presentations_match_the_oracle(pres):
    outcome = pr.todd_coxeter(pres, CAP)
    assert outcome.finite, pres
    assert_matches_oracle(outcome)


def test_cover_is_read_off_the_table_without_group_products(monkeypatch):
    outcome = orbifold_table(kn.braid_to_diagram(kn.torus_knot(3, 5)))

    def refuse(self, i, j):
        raise AssertionError("the cover path multiplies in a group")

    monkeypatch.setattr(FiniteGroup, "imul", refuse)
    order, cover = pr.branched_cover_group(outcome)
    assert order == 120
    color = cover_oracle.parity_classes(outcome)
    assert sorted(cover.elements) == [c for c in range(240) if color[c] == 0]


def test_index_two_trap(monkeypatch):
    outcome = orbifold_table(kn.parse_pd("[(1,4,2,5),(3,6,4,1),(5,2,6,3)]"))
    assert pr.branched_cover_group(outcome)[0] == 3
    # a kernel closure that also takes the meridian t closes to all of S3
    t = outcome.perms[0]
    closure = FiniteGroup.map_closure

    def whole(maps, size):
        return closure(list(maps) + [t], size)

    monkeypatch.setattr(FiniteGroup, "map_closure", staticmethod(whole))
    with pytest.raises(InternalInconsistency, match="index two"):
        pr.branched_cover_group(outcome)


def test_no_generator_has_no_parity_map():
    outcome = pr.todd_coxeter(pr.GroupPresentation.make(0, []), 10)
    assert outcome.order == 1
    with pytest.raises(NotIndexTwo):
        pr.branched_cover_group(outcome)


def test_classify_keeps_the_non_cyclic_trap():
    # Z/3 x Z/3 is abelian and not cyclic: no knot's double cover
    pres = pr.GroupPresentation.make(2, [(1, 1, 1), (2, 2, 2), (1, 2, -1, -2)])
    group = cover_oracle.regular_group(pr.todd_coxeter(pres, 100))
    assert group.order == 9
    with pytest.raises(InternalInconsistency, match="not cyclic"):
        an.classify_finite(group, group.abelianization())


# -- the cover read off the cosets of one meridian ----------------------------------
#
# ``todd_coxeter(pres, cap, fixed=(1,))`` enumerates the cosets of <x1>, and
# the parity kernel acts on them simply transitively.  The tests below
# compare that path with the regular table and its oracle, and trap its checks.


def kernel_generator_words(outcome):
    """Each Schreier element in the library's order, with its action on ``outcome``.

    The words are pairs (g, kind): g * t^-1 for kind 0 and t * g for kind 1,
    with t the first generator and g a generator index from 0.
    """
    perms = outcome.perms
    t = perms[0]
    tinv = [0] * outcome.order
    for x, y in enumerate(t):
        tinv[y] = x
    out = []
    for g, perm in enumerate(perms):
        out.append(((g, 0), [tinv[y] for y in perm]))
        out.append(((g, 1), [perm[y] for y in t]))
    return out


def assert_isomorphic_to_the_oracle(cover, meridian, regular_table, expected):
    """Kept-generator words evaluated in the oracle kernel: a bijection of Cayley tables."""
    regular = cover_oracle.regular_group(regular_table)
    gens = regular.gens_idx
    t = gens[0]
    words = kernel_generator_words(meridian)
    images = []
    for s in range(len(cover.right)):
        label = cover.elements[cover.right[s][0]]
        g, kind = next(word for word, action in words if action[0] == label)
        if kind == 0:
            images.append(regular.imul(gens[g], regular.inverse[t]))
        else:
            images.append(regular.imul(t, gens[g]))
    phi = [0] * len(cover)
    for x in range(1, len(cover)):
        phi[x] = regular.imul(phi[cover.parent[x]], images[cover.gen[x]])
    assert sorted(phi) == sorted(expected.elements)
    for s, col in enumerate(cover.right):
        for x, y in enumerate(col):
            assert regular.imul(phi[x], images[s]) == phi[y]


def assert_meridian_cover_matches_oracle(pres):
    regular_table = pr.todd_coxeter(pres, CAP)
    meridian = pr.todd_coxeter(pres, CAP, fixed=(1,))
    assert regular_table.finite and meridian.finite, pres
    try:
        expected_order, expected = cover_oracle.branched_cover_group(regular_table)
    except NotIndexTwo:
        with pytest.raises(NotIndexTwo):
            pr.branched_cover_group(meridian)
        return
    assert 2 * meridian.order == regular_table.order
    order, cover = pr.branched_cover_group(meridian)
    assert order == len(cover) == expected_order == meridian.order
    assert cover.abelianization() == expected.abelianization()
    assert derived_sizes(cover) == derived_sizes(expected)
    assert_isomorphic_to_the_oracle(cover, meridian, regular_table, expected)


def orbifold(diagram):
    return pr.orbifold_quotient(pr.bridge_presentation(pr.wirtinger(diagram)))


def test_meridian_cover_matches_the_oracle_on_the_finite_corpus_rows():
    finite = 0
    for name, fmt, payload in an.parse_corpus(packaged_corpus_text()):
        pres = orbifold(an.diagram_from_payload(fmt, payload, name=name))
        if pr.todd_coxeter(pres, CAP).finite:
            assert_meridian_cover_matches_oracle(pres)
            finite += 1
    assert finite == 13


@pytest.mark.parametrize("p", range(3, 32, 2))
def test_meridian_cover_matches_the_oracle_on_every_two_bridge_knot(p):
    for q in range(1, p):
        if math.gcd(p, q) == 1:
            assert_meridian_cover_matches_oracle(orbifold(kn.two_bridge(p, q)))


@pytest.mark.parametrize("n", range(3, 32, 2))
def test_meridian_cover_matches_the_oracle_on_two_strand_torus_knots(n):
    assert_meridian_cover_matches_oracle(orbifold(kn.braid_to_diagram(kn.torus_knot(2, n))))


@pytest.mark.parametrize("q", [4, 5])
def test_meridian_cover_matches_the_oracle_on_markov_moved_torus_braids(q):
    rng = random.Random(q)
    for _ in range(4):
        assert_meridian_cover_matches_oracle(orbifold(kn.braid_to_diagram(markov_torus_braid(rng, q))))


@settings(max_examples=150, deadline=None)
@given(involutive_presentations())
def test_meridian_cover_matches_the_oracle_on_small_involutive_presentations(pres):
    assert_meridian_cover_matches_oracle(pres)


def test_meridian_enumeration_completes_where_the_regular_one_is_capped():
    # |G| = 240 for T(3,5): the regular run peaks above 200 live cosets,
    # the cosets of <x1> complete below that cap
    pres = orbifold(kn.braid_to_diagram(kn.torus_knot(3, 5)))
    assert not pr.todd_coxeter(pres, 200).finite
    meridian = pr.todd_coxeter(pres, 200, fixed=(1,))
    assert meridian.order == 120 and meridian.fixed == (1,)
    assert pr.branched_cover_group(meridian)[0] == 120


def test_cover_trap_rejects_a_transitive_kernel_that_is_not_regular():
    # S4 on 4 points, a fixing point 0: the table is certified, and the
    # Schreier actions generate A4, transitive on the points but not regular
    s4 = pr.GroupPresentation.make(3, [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2])
    perms = ((0, 2, 1, 3), (1, 0, 2, 3), (3, 1, 2, 0))
    table = pr.CosetTable(10, 4, perms, (1,), s4.relators)
    assert pr.certify_table(table, s4.relators)
    actions = [action for _, action in kernel_generator_words(table)]
    assert len(FiniteGroup.map_closure(actions, 4)) == 4  # transitive
    assert len(FiniteGroup.closure(tuple(range(4)), len(actions),
                                   lambda p, s: tuple(actions[s][x] for x in p), 100)) == 12
    with pytest.raises(InternalInconsistency, match="simply transitively"):
        pr.branched_cover_group(table)
    # the enumerated cosets of <a> give the true kernel, A4
    meridian = pr.todd_coxeter(s4, 100, fixed=(1,))
    assert meridian.order == 12 and pr.branched_cover_group(meridian)[0] == 12


def test_meridian_cover_needs_an_involution_fixing_coset_zero():
    z4 = pr.GroupPresentation.make(1, [(1,) * 4])
    with pytest.raises(ValidationError):
        pr.branched_cover_group(pr.todd_coxeter(z4, 100, fixed=(1,)))
    d12 = pr.GroupPresentation.make(2, [(1,) * 6, (2, 2), (1, 2) * 2])
    with pytest.raises(ValidationError):
        pr.branched_cover_group(pr.todd_coxeter(d12, 100, fixed=(2,)))
