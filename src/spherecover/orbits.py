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

Thresholds default to the run configuration: ``RunConfig.tol_grid`` for
pointwise closed-form comparisons and ``RunConfig.tol_oracle`` for the
oracle gate.  Orbit distances refine the circle parameter to 1e-9.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .config import RunConfig
from .errors import OracleMismatch, SpecViolation


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

    kind: str  # "weighted" | "suspension" | "doubled"
    domain: tuple[float, float]
    params: tuple

    def value(self, t):
        """f at t, for a float or an array of floats."""
        t = np.asarray(t, dtype=float)
        if self.kind == "suspension":
            (n,) = self.params
            return np.sin(t) / n
        k, l = self.params
        s, c = np.sin(t), np.cos(t)
        f = s * c / np.sqrt(l * l * s * s + k * k * c * c)
        return 2.0 * f if self.kind == "doubled" else f


def profile(action):
    """Quotient profile hypothesis for a weighted action."""
    return RevolutionProfile("weighted", (0.0, math.pi / 2), (action.k, action.l))


def suspension_profile(n):
    """S^2(1)/Z_n: the spherical suspension of a circle of length 2*pi/n."""
    if n < 1:
        raise SpecViolation("suspension order must be >= 1")
    return RevolutionProfile("suspension", (0.0, math.pi), (n,))


def branched_double(prof):
    """Profile of the two-fold cover branched at both singular ends (2*f)."""
    if prof.kind != "weighted":
        raise SpecViolation("doubling is defined for weighted quotient profiles")
    return RevolutionProfile("doubled", prof.domain, prof.params)


def cone_angles(prof):
    """(2*pi*f'(0+), 2*pi*|f'(T-)|) by one-sided Richardson differences."""

    def one_sided(t0, direction):
        h = 1e-3
        estimates = []
        for level in range(4):
            step = h / (2**level)
            estimates.append(direction * prof.value(t0 + direction * step) / step)
        # Richardson ladder for O(h) one-sided quotients of an odd-ish profile
        d = estimates
        for _ in range(3):
            d = [(4 * b - a) / 3 for a, b in zip(d, d[1:])]
        return d[0]

    t0, t1 = prof.domain
    return (
        2 * math.pi * one_sided(t0, 1.0),
        2 * math.pi * abs(one_sided(t1, -1.0)),
    )


def compare(prof_a, prof_b, grid_size=10_000, tol=RunConfig.tol_grid):
    """Pointwise domination f_a >= f_b - tol on a uniform grid."""
    if prof_a.domain != prof_b.domain:
        raise SpecViolation("profiles must share a domain to compare")
    if grid_size < 2:
        raise SpecViolation("a comparison grid needs both domain ends (grid >= 2)")
    ts = np.linspace(prof_a.domain[0], prof_a.domain[1], grid_size)
    va, vb = prof_a.value(ts), prof_b.value(ts)
    gap = vb - va
    worst = int(np.argmax(gap))
    ok = bool(gap[worst] <= tol)
    return ok, float(gap[worst]), float(ts[worst])


# -- distances ----------------------------------------------------------------------


def round_s3_distance(p, q):
    inner = (p[0] * q[0].conjugate() + p[1] * q[1].conjugate()).real
    return math.acos(max(-1.0, min(1.0, inner)))


def orbit_distance(action, p, q, grid=2048):
    """Distance between the orbits of p and q: min over the circle parameter.

    The inner product with the rotated q is A(theta) = Re(c1 e^{-ik theta}
    + c2 e^{-il theta}); dense sampling brackets the maximum and a bounded
    scalar minimization refines it.
    """
    c1 = p[0] * q[0].conjugate()
    c2 = p[1] * q[1].conjugate()
    thetas = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    vals = (c1 * np.exp(-1j * action.k * thetas)).real + (
        c2 * np.exp(-1j * action.l * thetas)
    ).real
    best = int(np.argmax(vals))
    if vals[best] >= 1.0 - 1e-14:
        return 0.0

    def neg(theta):
        return -(
            (c1 * cmath.exp(-1j * action.k * theta)).real
            + (c2 * cmath.exp(-1j * action.l * theta)).real
        )

    width = 2 * math.pi / grid
    center = thetas[best]
    res = optimize.minimize_scalar(
        neg,
        bounds=(center - width, center + width),
        method="bounded",
        options={"xatol": 1e-9},
    )
    top = max(vals[best], -res.fun)
    return math.acos(max(-1.0, min(1.0, top)))


def quotient_coordinates(action, z):
    """(t, phi) of an orbit: t from the moduli, phi the invariant angle mix."""
    z1, z2 = z
    t = math.atan2(abs(z2), abs(z1))
    phi = (action.l * cmath.phase(z1) - action.k * cmath.phase(z2)) % (2 * math.pi)
    return t, phi


# -- geodesics on the revolution surface ----------------------------------------------

# Gauss-Legendre rule on [0, 1] (Golub & Welsch 1969), shared by every half-segment
GL_NODES = 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W

SAMPLES = 24  # Clairaut constants sampled per branch before root bracketing
TIP = 1e-3  # smallest turning-branch constant, as a fraction of c_max


def _turning(prof, c, tip, t):
    """The point between the cone tip and t where f = c; the tip itself when f(tip) >= c."""
    if prof.value(tip) >= c:
        return tip
    return optimize.brentq(lambda s: prof.value(s) - c, tip, t, xtol=1e-13)


def _pieces(prof, c, a, b, t1, t2):
    """Rows (delta phi, length), columns the arcs [a, t1], [t1, t2], [t2, b], at Clairaut c.

    a <= t1 <= t2 <= b are the turning points f(a) = f(b) = c around the
    endpoints.  Each arc is split at its midpoint; the lower half is
    integrated in u = sqrt(t - a) and the upper half in u = sqrt(b - t),
    which removes the inverse-square-root behaviour at a turning point
    that bounds the half and keeps a near-tangent endpoint smooth.  Near a
    turning point floating cancellation can drive f(t) - c below half its
    linearization slope * x; there the linearization is used instead.
    All six halves share the same nodes and one profile evaluation.
    """
    lo, hi = np.array([a, t1, t2]), np.array([t1, t2, b])
    mid = 0.5 * (lo + hi)
    # one row per half: x = |t - ref| runs over [x_lo, x_hi]
    ref = np.repeat([a, b], 3)[:, None]
    sign = np.repeat([1.0, -1.0], 3)[:, None]
    x_lo = np.concatenate([lo - a, b - hi])[:, None]
    x_hi = np.concatenate([mid - a, b - mid])[:, None]
    u_lo, u_hi = np.sqrt(x_lo), np.sqrt(x_hi)
    u = u_lo + (u_hi - u_lo) * _GL_X
    x = u * u
    h = np.maximum(1e-6 * x_hi, 1e-12)
    f = prof.value(ref + sign * np.hstack([x, h]))  # the nodes, then a slope probe
    f, slope = f[:, :-1], np.maximum((f[:, -1:] - c) / h, 1e-30)
    raw, lin = f - c, slope * x
    cancelled = (x < 1e-2 * x_hi) & ((raw < 0.5 * lin) | (raw <= 0.0))
    diff = np.where(cancelled, lin, np.where(raw <= 0.0, 1e-300, raw))
    # weight * dt / sqrt(f^2 - c^2), with dt = 2 u du
    dw = 2 * u * (u_hi - u_lo) * _GL_W / np.sqrt(diff * (f + c))
    halves = np.array([(c / f * dw).sum(axis=1), (f * dw).sum(axis=1)])
    return halves[:, :3] + halves[:, 3:]


def profile_distance(prof, a, b):
    """Geodesic distance between orbit points (t, phi) in dt^2 + f^2 dphi^2.

    Candidates: routes through either cone point, the direct meridian when
    the angles agree, and Clairaut geodesics whose angular transport
    matches the target; the shortest wins.  Over the arcs A, M, B of
    :func:`_pieces`, the direct geodesic at Clairaut constant c is M, the
    one turning below t1 is 2A + M and the one turning beyond t2 is
    M + 2B.  At c_max = min(f(t1), f(t2)) the endpoint with the smaller f
    is a turning point, so the direct branch continues into the turning
    branch on that side.  The two are shot as one path, so a target
    whose geodesic is close to that tangency is bracketed like any other.
    The other turning branch is a path of its own.  Turning branches stop at
    c = TIP * c_max, where their geodesics pass the cone point within
    O(TIP^2) of the route through it.  Quadrature and root tolerances
    leave ~1e-6 of slack.
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
    direct, left, right = (0, 1, 0), (2, 1, 0), (0, 1, 2)
    near, far = (left, right) if f1 <= f2 else (right, left)

    def shoot(s, branch):
        # s in [0, 1): the direct branch at c = s * c_max; s in [1, 2]:
        # ``branch`` at c = (2 - s) * c_max
        c = c_max * (1.0 - abs(1.0 - s))
        ta, tb = _turning(prof, c, t0, t1), _turning(prof, c, t_end, t2)
        return _pieces(prof, c, ta, tb, t1, t2) @ (branch if s >= 1.0 else direct)

    grid = np.linspace(0.0, 1.0, SAMPLES + 1)
    turning = 1.0 + (1.0 - TIP) * grid
    for branch, path in ((near, np.concatenate([grid[:-1], turning])), (far, turning)):
        prev_s = prev_gap = None
        for s in path:
            gap = shoot(s, branch)[0] - w
            if prev_gap is not None and (gap == 0 or (gap > 0) != (prev_gap > 0)):
                s_root = optimize.brentq(lambda v: shoot(v, branch)[0] - w, prev_s, s, xtol=1e-11)
                phi_root, len_root = shoot(s_root, branch)
                if abs(phi_root - w) < 1e-5:  # reject quadrature-jitter roots
                    candidates.append(len_root)
            prev_s, prev_gap = s, gap
    return min(candidates)


def validate_profile(
    action, samples=100, seed=0, tol=RunConfig.tol_oracle, raise_on_mismatch=True
):
    """Max |closed-form geodesic distance - true orbit distance| over samples.

    This is the gate that earns the closed-form profile: failure above
    tolerance rejects the profile by raising OracleMismatch.
    """
    if samples < 1:
        raise SpecViolation("the oracle needs at least one sample")
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
    if raise_on_mismatch and worst > tol:
        raise OracleMismatch(
            f"profile for weights ({action.k},{action.l}) off by {worst:.3e} > {tol:g}"
        )
    return worst
