"""Orbit geometry of weighted circle actions on the round 3-sphere.

The action e^{i*theta} (z1, z2) = (e^{ik theta} z1, e^{il theta} z2) with
coprime k >= l >= 1 has quotient a singular surface of revolution.  The
candidate closed form for its profile,

    f(t) = sin t cos t / sqrt(l^2 sin^2 t + k^2 cos^2 t),   t in [0, pi/2],

is treated as a hypothesis, not ground truth: ``validate_profile``
compares geodesic distances in the metric dt^2 + f(t)^2 dphi^2 (computed
by Clairaut shooting) against true orbit distances obtained by minimizing
round-sphere distance over the circle action, and rejects the profile
loudly when they disagree beyond tolerance.

In s = sin^2 t the profile is f^2 = s (1 - s) / (l^2 s + k^2 (1 - s)), so
everything but the oracle is decided in closed form: the chain and
doubling comparisons are two integer inequalities, the turning points
f = c of a Clairaut geodesic are the roots of a quadratic in s, and the
angle and length of every arc are elementary.  Only the oracle uses numpy,
and it imports it on first call.  The gate threshold defaults to
``DEFAULT_TOL_ORACLE``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import OracleMismatch, SpecViolation

DEFAULT_TOL_ORACLE = 1e-3


@dataclass(frozen=True)
class WeightedAction:
    k: int
    l: int

    def __post_init__(self):
        if self.l < 1 or self.k < self.l:
            raise SpecViolation("weights must satisfy k >= l >= 1")
        if math.gcd(self.k, self.l) != 1:
            raise SpecViolation("weights must be coprime")

    def act(self, theta, z):
        z1, z2 = z
        return (
            cmath.exp(1j * self.k * theta) * z1,
            cmath.exp(1j * self.l * theta) * z2,
        )


@dataclass(frozen=True)
class RevolutionProfile:
    """Profile f >= 0 on [0, T] with f(0) = f(T) = 0; metric dt^2 + f^2 dphi^2."""

    kind: str  # "weighted" | "doubled"
    domain: tuple[float, float]
    params: tuple

    def value(self, t):
        """f at t."""
        k, l = self.params
        s, c = math.sin(t), math.cos(t)
        f = s * c / math.sqrt(l * l * s * s + k * k * c * c)
        return 2.0 * f if self.kind == "doubled" else f


def profile(action):
    """Quotient profile hypothesis for a weighted action."""
    return RevolutionProfile("weighted", (0.0, math.pi / 2), (action.k, action.l))


def branched_double(prof):
    """Profile of the two-fold cover branched at both singular ends (2*f)."""
    if prof.kind != "weighted":
        raise SpecViolation("doubling is defined for weighted quotient profiles")
    return RevolutionProfile("doubled", prof.domain, prof.params)


def _scale(prof):
    """sigma in f = sigma * sqrt(s (1 - s) / D): 2 for a doubled profile, else 1."""
    return 2 if prof.kind == "doubled" else 1


def compare(prof_a, prof_b):
    """Whether f_a >= f_b on the whole domain, decided on integers.

    sigma_a^2 D_b - sigma_b^2 D_a is linear in s = sin^2 t, so it is
    nonnegative on [0, 1] exactly when it is at s = 0 and at s = 1.
    """
    (ka, la), (kb, lb) = prof_a.params, prof_b.params
    sa, sb = _scale(prof_a) ** 2, _scale(prof_b) ** 2
    return sa * kb * kb >= sb * ka * ka and sa * lb * lb >= sb * la * la


# -- distances ----------------------------------------------------------------------


MAX_ORACLE_WEIGHT = 10_000  # largest k the oracle samples (its grid has 16 k points)


def orbit_distance(action, p, q):
    """Distance between the orbits of p and q: min over the circle parameter.

    The inner product with the rotated q is A(theta) = Re(c1 e^{-ik theta}
    + c2 e^{-il theta}).  It is sampled 16 times per period of its fastest
    term, and Newton steps on A' refine every local maximum of the samples
    at once; a refined value only counts where it beats the samples.
    """
    import numpy as np

    k, l = action.k, action.l
    if k > MAX_ORACLE_WEIGHT:
        raise SpecViolation(f"the orbit oracle takes weights up to {MAX_ORACLE_WEIGHT}")
    c1 = p[0] * q[0].conjugate()
    c2 = p[1] * q[1].conjugate()

    def terms(theta):
        return c1 * np.exp(-1j * k * theta), c2 * np.exp(-1j * l * theta)

    thetas = np.linspace(0.0, 2 * math.pi, max(2048, 16 * k), endpoint=False)
    e1, e2 = terms(thetas)
    vals = e1.real + e2.real
    top = vals.max()
    if top >= 1.0 - 1e-14:
        return 0.0
    theta = thetas[(vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))]
    for _ in range(4):  # from 16 samples per period, three steps reach rounding
        e1, e2 = terms(theta)
        d1 = k * e1.imag + l * e2.imag  # A'
        d2 = -k * k * e1.real - l * l * e2.real  # A''
        theta = theta - d1 / np.where(d2 < 0.0, d2, -np.inf)  # non-concave points stay
    e1, e2 = terms(theta)
    top = max(top, (e1.real + e2.real).max())
    return math.acos(max(-1.0, min(1.0, top)))


def quotient_coordinates(action, z):
    """(t, phi) of an orbit: t from the moduli, phi the invariant angle mix."""
    z1, z2 = z
    t = math.atan2(abs(z2), abs(z1))
    phi = (action.l * cmath.phase(z1) - action.k * cmath.phase(z2)) % (2 * math.pi)
    return t, phi


# -- geodesics on the revolution surface ----------------------------------------------

SAMPLES = 24  # Clairaut constants sampled per branch before root bracketing


def _turning(prof, c):
    """(a, b, s_a, v_b): the roots a <= b of f = c, the turning points of a Clairaut geodesic.

    In s = sin^2 t, f = c is s^2 - 2 h s + (c k)^2 = 0 with
    h = (1 + c^2 (k^2 - l^2)) / 2 (c scaled to the weighted profile).  The
    small root s_a = sin^2 a is taken without cancellation, the far one as
    v_b = cos^2 b through (1 - s_a)(1 - s_b) = (c l)^2, and the discriminant
    h^2 - (c k)^2 in factored form, which keeps its digits near the peak
    f = 1/(k + l).
    """
    k, l = prof.params
    c = c / _scale(prof)
    h = 0.5 * (1.0 + c * c * (k * k - l * l))
    disc = (h + c * k) * 0.5 * max(1.0 - c * (k + l), 0.0) * (1.0 - c * (k - l))
    s_a = (c * k) ** 2 / (h + math.sqrt(disc))
    v_b = (c * l) ** 2 / (1.0 - s_a)
    a = math.atan2(math.sqrt(s_a), math.sqrt(1.0 - s_a))
    b = math.atan2(math.sqrt(1.0 - v_b), math.sqrt(v_b))
    return a, max(a, b), s_a, v_b  # at the peak the two can cross by an ulp


def _arcs(prof, c, t1, t2, f1, f2):
    """Columns (delta phi, length) over the arcs [a, t1], [t1, t2], [t2, b] at Clairaut c.

    a <= t1 and b >= t2 are the turning points f = c around the endpoints;
    an endpoint whose f (f1 or f2) is at most c is its own, the tangency.
    With s = sin^2 t, v = 1 - s, P = s - s_a and R = s_b - s, the integrands
    dL = ds / (2 sqrt(P R)) and sigma dphi = (c / 2)(k^2 / s + l^2 / v) ds / sqrt(P R)
    have arcsine primitives, as s_a s_b = (c k)^2 and v_a v_b = (c l)^2; up
    to constants they are

        L = atan2(sqrt P, sqrt R),
        sigma phi = k atan2(sqrt(s_b P), sqrt(s_a R)) - l atan2(sqrt(v_a R), sqrt(v_b P)),

    with P = sin(t - a) sin(t + a) and R = sin(b - t) sin(b + t), which keep
    the digits of an endpoint near a turning point.  At c = 0 the middle arc
    is the meridian, and atan2(0, 0) = 0 at a = 0 and b = pi/2 gives the
    outer arcs k pi / 2 and l pi / 2 (over sigma), their limits as c -> 0.
    """
    k, l = prof.params
    a, b, s_a, v_b = _turning(prof, c)
    a = t1 if f1 <= c else min(a, t1)
    b = t2 if f2 <= c else max(b, t2)
    ra, rb = math.sqrt(s_a), math.sqrt(1.0 - v_b)  # sqrt s_a, sqrt s_b
    qa, qb = math.sqrt(1.0 - s_a), math.sqrt(v_b)  # sqrt v_a, sqrt v_b
    sigma = _scale(prof)
    phi, length = [], []
    for t in (a, t1, t2, b):
        p = math.sqrt(math.sin(t - a) * math.sin(t + a))
        r = math.sqrt(math.sin(b - t) * math.sin(b + t))
        phi.append((k * math.atan2(rb * p, ra * r) - l * math.atan2(qa * r, qb * p)) / sigma)
        length.append(math.atan2(p, r))
    return [y - x for x, y in zip(phi, phi[1:])], [y - x for x, y in zip(length, length[1:])]


def profile_distance(prof, a, b):
    """Geodesic distance between orbit points (t, phi) in dt^2 + f^2 dphi^2.

    Candidates: routes through either cone point, the direct meridian when
    the angles agree, the route along the parallel of the endpoint with the
    smaller f and then along the meridian, and Clairaut geodesics whose
    angular transport matches the target; the shortest wins.  The parallel
    route is the answer where no Clairaut bracket forms, as for two points
    on the peak parallel of f, which is itself a geodesic.  Over the arcs
    A, M, B of :func:`_arcs`, the direct geodesic at Clairaut constant c
    is M, the one turning below t1 is 2A + M and the one turning beyond t2
    is M + 2B.  At c_max = min(f(t1), f(t2)) the endpoint with the smaller f
    is a turning point, so the direct branch continues into the turning
    branch on that side.  The two are shot as one path, so a target
    whose geodesic is close to that tangency is bracketed like any other.
    The other turning branch is a path of its own.  Turning branches run
    down to c = 0, the route through the cone point.  The angle is
    continuous along each path, except where both endpoints lie on one
    parallel near the peak of f: there the branches meet in a jump at c_max,
    and a bracket across it holds no root.
    """
    t1, phi1 = a
    t2, phi2 = b
    t0, t_end = prof.domain
    if t2 < t1:
        t1, t2 = t2, t1
        phi1, phi2 = phi2, phi1
    w = abs(phi1 - phi2) % (2 * math.pi)
    w = min(w, 2 * math.pi - w)
    candidates = [t1 - t0 + (t2 - t0), (t_end - t1) + (t_end - t2)]
    if w < 1e-12:
        candidates.append(t2 - t1)
    eps = 1e-9
    if not t0 + eps < t1 <= t2 < t_end - eps:
        return min(candidates)  # a point at a cone tip: the route through it is exact
    f1, f2 = prof.value(t1), prof.value(t2)
    c_max = min(f1, f2)
    candidates.append(c_max * w + (t2 - t1))
    direct, left, right = (0, 1, 0), (2, 1, 0), (0, 1, 2)
    near, far = (left, right) if f1 <= f2 else (right, left)

    def shoot(s, branch):
        # the direct branch for s in [0, 1), ``branch`` for s in [1, 2], at
        # c = c_max s (2 - s): phi grows like sqrt(c_max - c) = sqrt(c_max) |1 - s|
        # from the tangency, so the path is smooth through it
        arcs = _arcs(prof, c_max * s * (2.0 - s), t1, t2, f1, f2)
        weights = branch if s >= 1.0 else direct
        return [sum(n * x for n, x in zip(weights, column)) for column in arcs]

    grid = [i / SAMPLES for i in range(SAMPLES + 1)]
    turning = [1.0 + s for s in grid]
    for branch, path in ((near, grid[:-1] + turning), (far, turning)):
        prev_s = prev_gap = None
        for s in path:
            gap = shoot(s, branch)[0] - w
            if prev_gap is not None and (gap == 0 or (gap > 0) != (prev_gap > 0)):
                lo, hi = prev_s, s  # bisect, keeping prev_gap's side at lo
                while hi - lo > 1e-13:
                    mid = 0.5 * (lo + hi)
                    if (shoot(mid, branch)[0] > w) == (prev_gap > 0):
                        lo = mid
                    else:
                        hi = mid
                phi_root, len_root = shoot(0.5 * (lo + hi), branch)
                if abs(phi_root - w) < 1e-5:  # reject a bracket across the jump at c_max
                    candidates.append(len_root)
            prev_s, prev_gap = s, gap
    return min(candidates)


def validate_profile(action, samples=100, seed=0, tol=DEFAULT_TOL_ORACLE):
    """Max |closed-form geodesic distance - true orbit distance| over samples.

    This is the gate that earns the closed-form profile: failure above
    tolerance rejects the profile by raising OracleMismatch.
    """
    import numpy as np

    if samples < 1:
        raise SpecViolation("the oracle needs at least one sample")
    if seed < 0:
        raise SpecViolation(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    prof = profile(action)
    worst = 0.0
    for _ in range(samples):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = (raw[0], raw[1])
        q = (raw[2], raw[3])
        np_ = math.sqrt(abs(p[0]) ** 2 + abs(p[1]) ** 2)
        nq = math.sqrt(abs(q[0]) ** 2 + abs(q[1]) ** 2)
        p = (p[0] / np_, p[1] / np_)
        q = (q[0] / nq, q[1] / nq)
        oracle = orbit_distance(action, p, q)
        modeled = profile_distance(
            prof, quotient_coordinates(action, p), quotient_coordinates(action, q)
        )
        worst = max(worst, abs(oracle - modeled))
    if worst > tol:
        raise OracleMismatch(
            f"profile for weights ({action.k},{action.l}) off by {worst:.3e} > {tol:g}"
        )
    return worst
