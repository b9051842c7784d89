import math

import numpy as np
import pytest

from spherecover import orbits as ob
from spherecover.errors import OracleMismatch, SpecViolation


def unit2(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    n = math.sqrt(abs(raw[0]) ** 2 + abs(raw[1]) ** 2)
    return (raw[0] / n, raw[1] / n)


def test_weighted_action_validation():
    with pytest.raises(SpecViolation):
        ob.WeightedAction(2, 2)
    with pytest.raises(SpecViolation):
        ob.WeightedAction(1, 2)
    ob.WeightedAction(6, 5)


def test_profile_values():
    assert ob.profile(ob.WeightedAction(1, 1)).value(math.pi / 4) == pytest.approx(0.5, abs=1e-15)
    assert ob.profile(ob.WeightedAction(2, 1)).value(math.pi / 4) == pytest.approx(
        1 / math.sqrt(10), abs=1e-15
    )


def test_profile_boundary_and_positivity():
    prof = ob.profile(ob.WeightedAction(3, 2))
    t0, t1 = prof.domain
    assert prof.value(t0) == 0.0 and prof.value(t1) == pytest.approx(0.0, abs=1e-15)
    ts = np.linspace(t0 + 1e-6, t1 - 1e-6, 1000)
    assert np.all(prof.value(ts) > 0)


def test_small_t_asymptotics():
    # f(t)/t -> 1/k encodes the cone angle 2 pi / k
    for k, l in [(2, 1), (3, 2), (5, 4)]:
        prof = ob.profile(ob.WeightedAction(k, l))
        assert prof.value(1e-6) / 1e-6 == pytest.approx(1 / k, rel=1e-6)


def test_cone_angles_weighted():
    for k, l in [(1, 1), (2, 1), (3, 2), (5, 2), (6, 5)]:
        a0, a1 = ob.cone_angles(ob.profile(ob.WeightedAction(k, l)))
        assert a0 == pytest.approx(2 * math.pi / k, abs=1e-8)
        assert a1 == pytest.approx(2 * math.pi / l, abs=1e-8)


def test_cone_angles_suspension():
    for n in (1, 2, 3, 4, 7):
        a0, a1 = ob.cone_angles(ob.suspension_profile(n))
        assert a0 == pytest.approx(2 * math.pi / n, abs=1e-8)
        assert a1 == pytest.approx(2 * math.pi / n, abs=1e-8)


def test_distance_chain_examples():
    f11 = ob.profile(ob.WeightedAction(1, 1))
    f31 = ob.profile(ob.WeightedAction(3, 1))
    f32 = ob.profile(ob.WeightedAction(3, 2))
    ok, _, _ = ob.compare(f11, f31)
    assert ok
    ok, _, _ = ob.compare(f31, f32)
    assert ok
    ok, violation, _ = ob.compare(ob.profile(ob.WeightedAction(2, 1)), f11)
    assert not ok and violation > 0.1


def test_chain_all_pairs_up_to_six():
    f11 = ob.profile(ob.WeightedAction(1, 1))
    for k in range(1, 7):
        fk1 = ob.profile(ob.WeightedAction(k, 1))
        assert ob.compare(f11, fk1)[0]
        for l in range(1, k + 1):
            if math.gcd(k, l) != 1:
                continue
            assert ob.compare(fk1, ob.profile(ob.WeightedAction(k, l)))[0]


def test_branched_double_bound():
    f11 = ob.profile(ob.WeightedAction(1, 1))
    for k in range(2, 7):
        for l in range(2, k + 1):
            if math.gcd(k, l) != 1:
                continue
            doubled = ob.branched_double(ob.profile(ob.WeightedAction(k, l)))
            assert ob.compare(f11, doubled)[0]
            # the exact algebraic form: k^2 cos^2 + l^2 sin^2 >= 4 is linear in
            # sin^2, so checking both endpoints proves it for all t
            assert k * k >= 4 and l * l >= 4
    # negative control: doubling the round profile is NOT dominated
    doubled_11 = ob.RevolutionProfile("doubled", f11.domain, (1, 1))
    ok, violation, _ = ob.compare(f11, doubled_11)
    assert not ok and violation > 0.4


def test_branched_double_rejects_suspension():
    with pytest.raises(SpecViolation):
        ob.branched_double(ob.suspension_profile(3))


def test_orbit_distance_hopf_poles():
    act = ob.WeightedAction(1, 1)
    d = ob.orbit_distance(act, (1 + 0j, 0j), (0j, 1 + 0j))
    assert d == pytest.approx(math.pi / 2, abs=1e-9)


def test_orbit_distance_same_orbit_zero():
    act = ob.WeightedAction(2, 1)
    p = (0.6 + 0j, 0.8j)
    q = act.act(1.234, p)
    assert ob.orbit_distance(act, p, q) == 0.0


def test_orbit_distance_hopf_matches_round_metric():
    act = ob.WeightedAction(1, 1)
    rng = np.random.default_rng(11)
    for _ in range(60):
        p, q = unit2(rng), unit2(rng)
        t1, f1 = ob.quotient_coordinates(act, p)
        t2, f2 = ob.quotient_coordinates(act, q)
        cosang = math.cos(2 * t1) * math.cos(2 * t2) + math.sin(2 * t1) * math.sin(
            2 * t2
        ) * math.cos(f1 - f2)
        expected = 0.5 * math.acos(max(-1.0, min(1.0, cosang)))
        assert ob.orbit_distance(act, p, q) == pytest.approx(expected, abs=1e-5)


def test_orbit_distance_metric_axioms_sampled():
    act = ob.WeightedAction(3, 2)
    rng = np.random.default_rng(5)
    pts = [unit2(rng) for _ in range(12)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dij = ob.orbit_distance(act, pts[i], pts[j])
            dji = ob.orbit_distance(act, pts[j], pts[i])
            assert dij == pytest.approx(dji, abs=1e-9)
    for _ in range(150):
        a, b, c = rng.choice(len(pts), size=3, replace=False)
        dab = ob.orbit_distance(act, pts[a], pts[b])
        dbc = ob.orbit_distance(act, pts[b], pts[c])
        dac = ob.orbit_distance(act, pts[a], pts[c])
        assert dac <= dab + dbc + 1e-6


def test_meridian_distance_two_one():
    # from the Z2 orbit (t = pi/2 end has isotropy Z_l = trivial for l=1;
    # the t = 0 end carries Z_2): meridian length is pi/2 in the quotient
    act = ob.WeightedAction(2, 1)
    d = ob.orbit_distance(act, (1 + 0j, 0j), (0j, 1 + 0j))
    assert d == pytest.approx(math.pi / 2, abs=1e-6)


def test_profile_distance_round_sphere_exact_cases():
    prof = ob.profile(ob.WeightedAction(1, 1))
    # same meridian
    assert ob.profile_distance(prof, (0.3, 1.0), (0.9, 1.0)) == pytest.approx(0.6, abs=1e-8)
    # pole route
    assert ob.profile_distance(prof, (0.2, 0.0), (0.3, math.pi)) == pytest.approx(
        0.5, abs=1e-6
    )


@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (3, 2)])
def test_validate_profile(weights):
    worst = ob.validate_profile(
        ob.WeightedAction(*weights), samples=100, seed=0, tol=1e-3
    )
    assert worst < 1e-3


def test_validate_profile_raises_on_fake_profile(monkeypatch):
    # sabotage the closed form: the oracle gate must reject it loudly
    act = ob.WeightedAction(2, 1)
    real_value = ob.RevolutionProfile.value

    def fake_value(self, t):
        if self.kind == "weighted" and self.params == (2, 1):
            k, l = 1, 1
            s, c = np.sin(t), np.cos(t)
            return s * c / np.sqrt(l * l * s * s + k * k * c * c)
        return real_value(self, t)

    monkeypatch.setattr(ob.RevolutionProfile, "value", fake_value)
    with pytest.raises(OracleMismatch):
        ob.validate_profile(act, samples=10, seed=3, tol=1e-3)


# Each row once missed the geodesic through the tangency at c = c_max: the
# target angle lay between the end values of the direct and turning branches.
@pytest.mark.parametrize(
    "weights, samples, seed",
    [((1, 1), 1, 230), ((3, 2), 1, 273), ((1, 1), 8, 4), ((1, 1), 30, 1877894435)],
)
def test_profile_distance_brackets_the_tangency(weights, samples, seed):
    act = ob.WeightedAction(*weights)
    assert ob.validate_profile(act, samples=samples, seed=seed) < 1e-3
    if weights != (1, 1):
        return
    # the (1,1) quotient is the round sphere of radius 1/2: exact distances
    prof = ob.profile(act)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        p, q = raw[:2] / np.linalg.norm(raw[:2]), raw[2:] / np.linalg.norm(raw[2:])
        (t1, f1), (t2, f2) = ob.quotient_coordinates(act, p), ob.quotient_coordinates(act, q)
        cosang = math.cos(2 * t1) * math.cos(2 * t2) + math.sin(2 * t1) * math.sin(
            2 * t2
        ) * math.cos(f1 - f2)
        exact = 0.5 * math.acos(max(-1.0, min(1.0, cosang)))
        assert ob.profile_distance(prof, (t1, f1), (t2, f2)) == pytest.approx(exact, abs=1e-6)
