"""The cover group read off the coset table, against the regular-group oracle.

``presentations.branched_cover_group`` closes the parity kernel on the
actions of its Schreier generators, each the composition of two table
columns.  ``cover_oracle.branched_cover_group`` closes it by products in
the regular group.  The two must agree on the order, the abelianization
and the derived series, on knot orbifolds and on small presentations
with involutive generators.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import analyzer as an
from spherecover import knots as kn
from spherecover import presentations as pr
from spherecover.config import packaged_corpus_text
from spherecover.errors import InternalInconsistency, NotIndexTwo
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
