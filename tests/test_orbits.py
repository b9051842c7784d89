import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import orbits as ob
from spherecover.errors import OracleMismatch, SpecViolation


def unit2(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    n = math.sqrt(abs(raw[0]) ** 2 + abs(raw[1]) ** 2)
    return (raw[0] / n, raw[1] / n)


def end_slope_cone_angles(prof):
    """(2*pi*f'(0+), 2*pi*|f'(T-)|) by one-sided Richardson differences of f alone."""

    def one_sided(t0, direction):
        h = 1e-3
        d = [direction * prof.value(t0 + direction * h / 2**j) / (h / 2**j) for j in range(4)]
        # Richardson ladder for O(h) one-sided quotients of an odd-ish profile
        for _ in range(3):
            d = [(4 * b - a) / 3 for a, b in zip(d, d[1:])]
        return d[0]

    t0, t1 = prof.domain
    return 2 * math.pi * one_sided(t0, 1.0), 2 * math.pi * abs(one_sided(t1, -1.0))


def coprime_pairs(n):
    return [(k, l) for k in range(1, n + 1) for l in range(1, k + 1) if math.gcd(k, l) == 1]


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
    assert all(prof.value(t) > 0 for t in ts)


def test_small_t_asymptotics():
    # f(t)/t -> 1/k encodes the cone angle 2 pi / k
    for k, l in [(2, 1), (3, 2), (5, 4)]:
        prof = ob.profile(ob.WeightedAction(k, l))
        assert prof.value(1e-6) / 1e-6 == pytest.approx(1 / k, rel=1e-6)


def test_cone_angles_weighted():
    for k, l in [(1, 1), (2, 1), (3, 2), (5, 2), (6, 5)]:
        a0, a1 = end_slope_cone_angles(ob.profile(ob.WeightedAction(k, l)))
        assert a0 == pytest.approx(2 * math.pi / k, abs=1e-8)
        assert a1 == pytest.approx(2 * math.pi / l, abs=1e-8)


def test_distance_chain_examples():
    f11 = ob.profile(ob.WeightedAction(1, 1))
    f31 = ob.profile(ob.WeightedAction(3, 1))
    f32 = ob.profile(ob.WeightedAction(3, 2))
    assert ob.compare(f11, f31) is True
    assert ob.compare(f31, f32) is True
    assert ob.compare(ob.profile(ob.WeightedAction(2, 1)), f11) is False


def test_chain_all_pairs_up_to_six():
    f11 = ob.profile(ob.WeightedAction(1, 1))
    for k in range(1, 7):
        fk1 = ob.profile(ob.WeightedAction(k, 1))
        assert ob.compare(f11, fk1)
        for l in range(1, k + 1):
            if math.gcd(k, l) != 1:
                continue
            assert ob.compare(fk1, ob.profile(ob.WeightedAction(k, l)))


def test_branched_double_bound():
    f11 = ob.profile(ob.WeightedAction(1, 1))
    for k in range(2, 7):
        for l in range(2, k + 1):
            if math.gcd(k, l) != 1:
                continue
            doubled = ob.branched_double(ob.profile(ob.WeightedAction(k, l)))
            assert ob.compare(f11, doubled)
            # the exact algebraic form: k^2 cos^2 + l^2 sin^2 >= 4 is linear in
            # sin^2, so checking both endpoints proves it for all t
            assert k * k >= 4 and l * l >= 4
    # negative control: doubling the round profile is NOT dominated
    doubled_11 = ob.RevolutionProfile("doubled", f11.domain, (1, 1))
    assert ob.compare(f11, doubled_11) is False


def test_compare_matches_dense_sampling():
    # every weighted and doubled profile with coprime weights up to 8, against
    # every other: the integer verdict is the sign of f_a - f_b on a dense grid
    profiles = []
    for k, l in coprime_pairs(8):
        prof = ob.profile(ob.WeightedAction(k, l))
        profiles += [prof, ob.RevolutionProfile("doubled", prof.domain, prof.params)]
    ts = np.linspace(0.0, math.pi / 2, 4001)[1:-1]
    values = [np.array([p.value(t) for t in ts]) for p in profiles]
    for pa, va in zip(profiles, values):
        for pb, vb in zip(profiles, values):
            assert ob.compare(pa, pb) == bool(np.all(va - vb >= -1e-15)), (pa, pb)


def test_branched_double_rejects_doubled():
    doubled = ob.branched_double(ob.profile(ob.WeightedAction(3, 2)))
    with pytest.raises(SpecViolation):
        ob.branched_double(doubled)


def test_turning_points_at_the_ends_of_the_range():
    for k, l in [(1, 1), (2, 1), (7, 3)]:
        prof = ob.profile(ob.WeightedAction(k, l))
        assert ob._turning(prof, 0.0) == (0.0, math.pi / 2, 0.0, 0.0)
        # f evaluated beside the peak can exceed 1/(k + l) in floats
        peak = math.atan(math.sqrt(k / l))
        c = max(prof.value(t) for t in np.linspace(peak - 1e-7, peak + 1e-7, 201))
        a, b, _, _ = ob._turning(prof, c)
        assert a == pytest.approx(peak, abs=1e-7) and b == pytest.approx(peak, abs=1e-7)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(coprime_pairs(50)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_turning_points_solve_f_equals_c(weights, fraction):
    prof = ob.profile(ob.WeightedAction(*weights))
    c = fraction / sum(weights)  # below the peak f = 1/(k + l)
    a, b, s_a, v_b = ob._turning(prof, c)
    assert 0.0 <= a <= b <= math.pi / 2
    assert s_a == pytest.approx(math.sin(a) ** 2, rel=1e-12)
    k = weights[0]
    assert s_a * (1.0 - v_b) == pytest.approx((c * k) ** 2, rel=1e-12)  # s_a s_b
    # relative 1e-12, plus one ulp of t near pi/2, where f' = -1/l
    for t in (a, b):
        assert abs(prof.value(t) - c) <= 1e-12 * c + math.ulp(math.pi / 2)


def arcs_by_quadrature(prof, c, t1, t2):
    """(delta phi, length) of the arcs [a, t1], [t1, t2], [t2, b] at Clairaut c, to 40 digits.

    a and b are the exact turning points, theta = 0 and pi below.  The substitution s = s_a + (s_b - s_a) (1 - cos theta) / 2 turns
    ds / sqrt((s - s_a)(s_b - s)) into d theta, so the length is theta / 2
    and the angle integrand (k^2 / s + l^2 / (1 - s)) c / (2 sigma) is smooth.
    """
    k, l = prof.params
    sigma = 2 if prof.kind == "doubled" else 1
    with mpmath.workdps(40):
        cw = mpmath.mpf(c) / sigma
        h = (1 + cw * cw * (k * k - l * l)) / 2
        root = mpmath.sqrt(h * h - (cw * k) ** 2)
        s_a, s_b = h - root, h + root

        def theta(t):
            u = (mpmath.sin(mpmath.mpf(t)) ** 2 - s_a) / (s_b - s_a)
            return mpmath.acos(1 - 2 * min(max(u, 0), 1))

        def s_of(th):
            return s_a + (s_b - s_a) * (1 - mpmath.cos(th)) / 2

        thetas = [0, theta(t1), theta(t2), mpmath.pi]
        phis, lengths = [], []
        for x, y in zip(thetas, thetas[1:]):
            angle = mpmath.quad(lambda th: k * k / s_of(th) + l * l / (1 - s_of(th)), [x, y])
            phis.append(float(cw * angle / (2 * sigma)))
            lengths.append(float((y - x) / 2))
    return phis, lengths


@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (5, 3), (40, 7)])
@pytest.mark.parametrize("doubled", [False, True])
def test_arcs_match_quadrature(weights, doubled):
    prof = ob.profile(ob.WeightedAction(*weights))
    if doubled:
        prof = ob.branched_double(prof)
    peak = prof.value(math.atan(math.sqrt(weights[0] / weights[1])))
    for fraction in (1e-4, 0.3, 0.9, 1 - 1e-6):
        c = fraction * peak
        a, b, _, _ = ob._turning(prof, c)
        ends = [(a + 0.25 * (b - a), a + 0.7 * (b - a))]
        if fraction < 0.99:
            # an endpoint beside its turning point, where naive arcsines lose
            # half the digits; closer than 1e-6 of the arc, or with a and b
            # the near-double root of the peak, an ulp of t1 or of c moves
            # the exact answer by more than the tolerance
            ends.append((a + 1e-6 * (b - a), a + 0.5 * (b - a)))
        for t1, t2 in ends:
            phis, lengths = ob._arcs(prof, c, t1, t2, prof.value(t1), prof.value(t2))
            ref_phis, ref_lengths = arcs_by_quadrature(prof, c, t1, t2)
            assert phis == pytest.approx(ref_phis, rel=1e-9, abs=1e-12), (fraction, t1, t2)
            assert lengths == pytest.approx(ref_lengths, rel=1e-9, abs=1e-12), (fraction, t1, t2)


@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (3, 2), (7, 3)])
def test_arcs_at_c_zero_are_the_cone_limits(weights):
    # c = 0 is the meridian; the arcs to the cone points turn by half the
    # cone's angle period, k pi / 2 and l pi / 2 (over sigma), the c -> 0 limits
    k, l = weights
    for prof in (ob.profile(ob.WeightedAction(k, l)), ob.branched_double(ob.profile(ob.WeightedAction(k, l)))):
        sigma = 2 if prof.kind == "doubled" else 1
        t1, t2 = 0.3, 1.1
        f1, f2 = prof.value(t1), prof.value(t2)
        phis, lengths = ob._arcs(prof, 0.0, t1, t2, f1, f2)
        assert phis == [k * math.pi / 2 / sigma, 0.0, l * math.pi / 2 / sigma]
        assert lengths == pytest.approx([t1, t2 - t1, math.pi / 2 - t2], abs=1e-15)
        near_phis, near_lengths = ob._arcs(prof, 1e-15, t1, t2, f1, f2)
        assert near_phis == pytest.approx(phis, abs=1e-10)
        assert near_lengths == pytest.approx(lengths, abs=1e-10)


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


@pytest.mark.parametrize("delta", [0.0, 1e-9, -3e-9, 1e-6, 1e-4, -1e-4])
def test_profile_distance_along_the_peak_parallel(delta):
    # no Clairaut bracket forms for two points on one parallel at the peak of
    # f; the route through a pole (pi/2) used to win over the parallel (0.5)
    act = ob.WeightedAction(1, 1)
    t = math.pi / 4 + delta
    p = (complex(math.cos(t)), complex(math.sin(t)))
    q = (math.cos(t) * cmath.exp(1j), complex(math.sin(t)))
    a, b = ob.quotient_coordinates(act, p), ob.quotient_coordinates(act, q)
    assert abs(a[1] - b[1]) == pytest.approx(1.0)
    distance = ob.profile_distance(ob.profile(act), a, b)
    assert distance == pytest.approx(ob.orbit_distance(act, p, q), abs=1e-8)


@pytest.mark.parametrize("weights", [(1, 1), (2, 1), (3, 2), (5, 3)])
def test_validate_profile(weights):
    worst = ob.validate_profile(
        ob.WeightedAction(*weights), samples=100, seed=0, tol=1e-3
    )
    assert worst < 1e-3


def test_validate_profile_raises_on_fake_profile(monkeypatch):
    # sabotage the closed form: the oracle gate must reject it loudly
    act = ob.WeightedAction(2, 1)
    real_profile = ob.profile

    def fake_profile(action):
        if (action.k, action.l) == (2, 1):
            return real_profile(ob.WeightedAction(1, 1))
        return real_profile(action)

    monkeypatch.setattr(ob, "profile", fake_profile)
    with pytest.raises(OracleMismatch):
        ob.validate_profile(act, samples=10, seed=3, tol=1e-3)


def test_validate_profile_rejects_a_negative_seed():
    with pytest.raises(SpecViolation, match="seed -1 is negative"):
        ob.validate_profile(ob.WeightedAction(3, 2), samples=1, seed=-1)


def test_validate_profile_large_weights():
    # two lobes of A(theta) nearly tie here; the oracle once refined the wrong
    # one and rejected the correct profile by 1.7e-2
    assert ob.validate_profile(ob.WeightedAction(100, 1), samples=5, seed=0) < 1e-3


@pytest.mark.parametrize("weights", [(200, 1), (1001, 1000)])
def test_orbit_distance_beats_dense_brute_force(weights):
    # a sampled maximum of A(theta) is attained, so its distance bounds the
    # orbit distance from above; the oracle must never be larger
    act = ob.WeightedAction(*weights)
    thetas = np.linspace(0.0, 2 * math.pi, 2**20, endpoint=False)
    rng = np.random.default_rng(7)
    for _ in range(3):
        p, q = unit2(rng), unit2(rng)
        c1, c2 = p[0] * q[0].conjugate(), p[1] * q[1].conjugate()
        top = max(
            float(np.max((c1 * np.exp(-1j * act.k * chunk)).real + (c2 * np.exp(-1j * act.l * chunk)).real))
            for chunk in np.split(thetas, 16)
        )
        assert ob.orbit_distance(act, p, q) <= math.acos(min(1.0, top)) + 1e-12


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
