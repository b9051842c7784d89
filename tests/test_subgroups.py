"""Derived series and normal closures against the subgroup oracle.

The library takes each derived term as a normal closure in G, on G's own
table; ``subgroup_oracle`` computes it inside the previous term, by
products.  Both must give the same series, term for term as a set, the
same derived subgroup, the same conjugacy classes and the same normal
closure of every class, on the space-form groups of the default sweep,
small Spin(4) groups, and the finite cover groups of the corpus and of
the benchmark's row families.
"""

import pytest

from spherecover import knots as kn
from spherecover import presentations as pr
from spherecover import quaternions as qt
from spherecover import spaceforms as sf
from spherecover.groups import generate_group

import subgroup_oracle as oracle
from test_cover_group import orbifold_table
from test_knots import H1_FAMILIES


def assert_matches_oracle(group):
    assert group.derived_series() == oracle.derived_series(group)
    assert group.derived_series()[1] == oracle.derived_subgroup(group)
    classes = group.conjugacy_classes()
    assert sum(map(len, classes)) == len(group)
    for cls in classes:
        products = oracle.conjugation_closure(group, {cls[0]}, by=group.gens_idx)
        assert cls == tuple(sorted(products))
        assert group.normal_closure(cls) == oracle.normal_closure(group, cls)


@pytest.mark.parametrize("spec", sf.default_sweep(), ids=sf.SpaceFormSpec.label)
def test_sweep_groups_match_the_oracle(spec):
    cert = sf.build(spec)
    for group in (cert.gamma_hat, cert.gamma, cert.pi_hat, cert.pi):
        assert_matches_oracle(group)


def spin_left(q):
    return qt.Spin4Element(q, qt.quat_one())


@pytest.mark.parametrize(
    "gens, order",
    [
        (lambda: [qt.quat_i(), qt.quat_j()], 8),
        (lambda: [qt.circle_quaternion(1, 5)], 5),
        (sf.binary_icosahedral_generators, 120),
    ],
    ids=["Q8", "C5", "binary-icosahedral"],
)
def test_small_spin4_groups_match_the_oracle(gens, order):
    group = generate_group([spin_left(q) for q in gens()], cap=1000)
    assert len(group) == order
    assert_matches_oracle(group)


@pytest.mark.parametrize("family", ["corpus", "two-bridge", "torus-2-n", "markov-torus-3"])
def test_cover_groups_match_the_oracle(family):
    finite = 0
    for diagram in H1_FAMILIES[family]():
        outcome = orbifold_table(diagram)
        if outcome.finite:
            _, cover = pr.branched_cover_group(outcome)
            assert_matches_oracle(cover)
            finite += 1
    assert finite == {"corpus": 13, "two-bridge": 212, "torus-2-n": 15, "markov-torus-3": 16}[family]


def test_perfect_and_trivial_groups_list_the_whole_group_twice():
    _, cover = pr.branched_cover_group(orbifold_table(kn.braid_to_diagram(kn.torus_knot(3, 5))))
    trivial = generate_group([spin_left(qt.quat_one())], cap=1)
    for group in (cover, trivial):
        whole = tuple(range(len(group)))
        assert group.derived_series() == [whole, whole]


@pytest.mark.parametrize("m, sizes", [(1, [480, 120]), (7, [3360, 840, 120])])
def test_a_proper_perfect_term_is_listed_once(m, sizes):
    # Gamma^ of the icosahedral family: its series stops at the binary
    # icosahedral group, a perfect proper subgroup
    gamma_hat = sf.build(sf.SpaceFormSpec(sf.ICOSAHEDRAL, m=m)).gamma_hat
    assert [len(t) for t in gamma_hat.derived_series()] == sizes
