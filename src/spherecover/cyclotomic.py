"""Exact arithmetic in real subfields of cyclotomic fields.

A scalar is a finite sum ``sum_e c_e * zeta_N^e`` with rational ``c_e``,
constrained to be fixed by complex conjugation (so it represents a real
number).  Internally the sum is kept as a sparse exponent->numerator map
over one common denominator, with exponents folded into ``[0, N/2)`` for
even ``N`` (using ``zeta^(N/2) = -1``), which keeps products of roots of
unity short and avoids per-operation rational normalization.  The
canonical form -- the representative reduced modulo the N-th cyclotomic
polynomial, supported on exponents ``0 .. phi(N)-1`` -- is computed lazily
and cached; equality and hashing always go through it, so two scalars are
equal exactly when their canonical coefficient maps agree.

Mixed-conductor arithmetic lifts both operands to the lcm conductor.
Within one computation context the conductor is fixed, which makes hashes
comparable; hash-based containers must not mix conductors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistency, InvalidArgument, NotReal

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _interval_context():
    """A private mpmath interval context for the sign fallback, made on first use.

    mpmath is loaded only here: the double fast path settles almost every
    sign, so most runs never import it.  ``mpmath.iv`` is never touched.
    """
    from mpmath.ctx_iv import MPIntervalContext

    return MPIntervalContext()


def cyclotomic_polynomial(n):
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    Phi_n(x) = prod (x^(n/q) - 1)^mu(q) over the squarefree divisors q of n:
    the binomials with mu(q) = +1 multiply, then each other one divides exactly.
    """
    terms, rest, p = [(n, 1)], n, 2  # (n/q, mu(q)) for the squarefree q found so far
    while rest > 1:
        p = p if p * p <= rest else rest  # no factor up to its square root: rest is prime
        if rest % p == 0:
            terms += [(e // p, -mu) for e, mu in terms]
            while rest % p == 0:
                rest //= p
        p += 1
    poly = [1]
    for e, mu in terms:
        if mu > 0:  # times x^e - 1
            poly = [-c for c in poly] + [0] * e
            for i in range(len(poly) - 1, e - 1, -1):
                poly[i] -= poly[i - e]
    for e, mu in terms:
        if mu < 0:  # x^i = x^(i-e) (x^e - 1) + x^(i-e), top term first
            for i in range(len(poly) - 1, e - 1, -1):
                poly[i - e] += poly[i]
            if any(poly[:e]):
                raise InternalInconsistency(f"x^{e} - 1 leaves a remainder in Phi_{n}")
            poly = poly[e:]
    return tuple(poly)


class _FieldContext:
    """Per-conductor reduction data: degree, folding bound, power tables."""

    __slots__ = ("conductor", "degree", "half", "rows")

    def __init__(self, n):
        phi_poly = cyclotomic_polynomial(n)
        degree = len(phi_poly) - 1
        half = n // 2 if n % 2 == 0 else n
        # rows[e - degree] = integer vector of x^e mod Phi_n for e in [degree, half)
        rows = []
        if half > degree:
            cur = [-c for c in phi_poly[:degree]]  # x^degree
            rows.append(tuple(cur))
            for _ in range(degree + 1, half):
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    for i in range(degree):
                        cur[i] -= top * phi_poly[i]
                rows.append(tuple(cur))
        self.conductor = n
        self.degree = degree
        self.half = half
        self.rows = tuple(rows)


@lru_cache(maxsize=None)
def _context(n):
    if n < 1:
        raise InvalidArgument("conductor must be a positive integer")
    return _FieldContext(n)


def _fold(pairs, k, ctx):
    """The one exponent map: ``e -> k*e mod N``, folded into ``[0, half)``.

    Takes (exponent, numerator) pairs and returns the exponent -> numerator
    map, zeros dropped.  Folding uses ``zeta^(N/2) = -1``: an exponent at or
    above ``half`` moves down by ``half`` and flips its numerator's sign.
    Distinct exponents may land on the same slot, where they add up.
    """
    n, half = ctx.conductor, ctx.half
    num = {}
    for e, v in pairs:
        e = e * k % n
        if e >= half:
            e -= half
            v = -v
        num[e] = num.get(e, 0) + v
    return {e: v for e, v in num.items() if v}


def _accumulate(num, n, half, scale, anum, bnum):
    """The one product loop: add ``scale * a * b`` into the map ``num``.

    ``anum`` and ``bnum`` are folded exponent -> numerator maps at conductor
    ``n``; exponents add mod ``n`` and fold into ``[0, half)``.  An entry of
    ``num`` that cancels to zero is dropped, so ``num`` never holds zeros.
    """
    bitems = bnum.items()
    for e1, v1 in anum.items():
        v1 *= scale
        for e2, v2 in bitems:
            e = e1 + e2
            v = v1 * v2
            if e >= n:
                e -= n
            if e >= half:
                e -= half
                v = -v
            w = num.get(e, 0) + v
            if w:
                num[e] = w
            elif e in num:
                del num[e]


class ExactScalar:
    """An element of the real subfield of the conductor-N cyclotomic field."""

    __slots__ = ("conductor", "_num", "_den", "_canon", "_hash")

    def __init__(self, conductor, terms):
        """Build from an exponent -> rational map (exponents arbitrary ints)."""
        ctx = _context(conductor)
        coeffs = [(int(e), Fraction(c)) for e, c in terms.items()]
        den = math.lcm(*(c.denominator for _, c in coeffs))
        pairs = ((e, c.numerator * (den // c.denominator)) for e, c in coeffs)
        self._set(conductor, _fold(pairs, 1, ctx), den, ctx)

    @classmethod
    def _make(cls, conductor, num, den):
        """Trusted constructor: exponents already folded into [0, half)."""
        s = object.__new__(cls)
        s._set(conductor, num, den, _context(conductor))
        return s

    def _set(self, conductor, num, den, ctx):
        """Store a folded map over ``den``.

        Cancels the common content, and rewrites in the canonical basis once
        the support outgrows the field degree.
        """
        self.conductor = conductor
        self._canon = None
        self._hash = None
        if not num:
            self._num, self._den = num, 1
            return
        g = den
        for v in num.values():
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            num = {e: v // g for e, v in num.items()}
            den //= g
        self._num, self._den = num, den
        if len(num) > ctx.degree:
            vec = self._canonical_vector(ctx)
            self._num = {e: v for e, v in enumerate(vec) if v}

    # -- canonical form -------------------------------------------------

    def _canonical_vector(self, ctx):
        vec = [0] * ctx.degree
        deg = ctx.degree
        for e, v in self._num.items():
            if e < deg:
                vec[e] += v
            else:
                for i, r in enumerate(ctx.rows[e - deg]):
                    if r:
                        vec[i] += v * r
        return vec

    def _canon_key(self):
        """Reduced (denominator, ((exp, num), ...)) form; unique per value."""
        if self._canon is None:
            num = self._num
            ctx = _context(self.conductor)
            if not num or max(num) < ctx.degree:
                pairs = sorted(num.items())  # already in the reduced basis
            else:
                vec = self._canonical_vector(ctx)
                pairs = [(i, v) for i, v in enumerate(vec) if v]
            d = self._den
            g = d
            for _, v in pairs:
                g = math.gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                pairs = [(i, v // g) for i, v in pairs]
                d //= g
            if not pairs:
                d = 1
            self._canon = (d, tuple(pairs))
        return self._canon

    def canonical(self):
        """Sorted tuple of (exponent, coefficient) pairs of the reduced form."""
        d, pairs = self._canon_key()
        return tuple((e, Fraction(v, d)) for e, v in pairs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor=1):
        value = value if isinstance(value, Fraction) else Fraction(value)
        if not value:
            return cls._make(conductor, {}, 1)
        return cls._make(conductor, {0: value.numerator}, value.denominator)

    def lift(self, conductor):
        """Re-express in a larger conductor; conductor must be a multiple."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise InvalidArgument("conductor lift must go to a multiple")
        # exponents scaled past the new half fold down with a sign flip;
        # distinct exponents of [0, half_old) never land on one slot
        k = conductor // self.conductor
        return ExactScalar._make(
            conductor, _fold(self._num.items(), k, _context(conductor)), self._den
        )

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self._canon_key()[1]

    def conjugate_is_self(self):
        return self._conj_raw()._canon_key() == self._canon_key()

    def _conj_raw(self):
        """Complex conjugate (zeta -> zeta^-1) without the reality check."""
        return self.galois_image(-1)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.conductor == self.conductor:
                return self, other
            l = math.lcm(self.conductor, other.conductor)
            return self.lift(l), other.lift(l)
        if isinstance(other, (int, Fraction)):
            return self, ExactScalar.from_rational(other, self.conductor)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        da, db = a._den, b._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g  # lcm(da, db) = da * ma = db * mb
        num = {e: v * ma for e, v in a._num.items()}
        for e, v in b._num.items():
            w = num.get(e, 0) + v * mb
            if w:
                num[e] = w
            elif e in num:
                del num[e]
        return ExactScalar._make(a.conductor, num, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._make(
            self.conductor, {e: -v for e, v in self._num.items()}, self._den
        )

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        n = a.conductor
        num = {}
        _accumulate(num, n, _context(n).half, 1, a._num, b._num)
        return ExactScalar._make(n, num, a._den * b._den)

    __rmul__ = __mul__

    def galois_image(self, k):
        """Apply the automorphism zeta -> zeta^k (k coprime to the conductor)."""
        n = self.conductor
        return ExactScalar._make(n, _fold(self._num.items(), k, _context(n)), self._den)

    # -- equality and sign --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ExactScalar) and other.conductor == self.conductor:
            return self._canon_key() == other._canon_key()
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a._canon_key() == b._canon_key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.conductor, self._canon_key()))
        return self._hash

    def _float_fast(self):
        n = self.conductor
        tau = 2.0 * math.pi / n
        den = float(self._den)
        s = 0.0
        mag = 0.0
        for e, v in self._num.items():
            cf = v / den
            s += cf * math.cos(tau * e)
            mag += abs(cf)
        return s, mag

    def sign(self):
        """Exact sign of the real value: -1, 0, or +1.

        Fast path: a double evaluation accepted only when it clears a
        conservative error bound.  Otherwise the sign is settled by interval
        arithmetic at increasing precision; a nonzero canonical form
        guarantees termination because the true value is then nonzero.
        """
        den, canon = self._canon_key()
        if not canon:
            return 0
        if len(canon) == 1 and canon[0][0] == 0:
            return -1 if canon[0][1] < 0 else 1
        try:
            s, mag = self._float_fast()
            if abs(s) > mag * 1e-12 + 1e-290:
                return -1 if s < 0 else 1
        except OverflowError:
            pass
        n = self.conductor
        iv = _interval_context()
        prec = 128
        while prec <= 1 << 16:
            iv.prec = prec
            tau = 2 * iv.pi
            total = iv.mpf(0)
            for e, v in canon:
                total += iv.mpf(v) / iv.mpf(den) * iv.cos(tau * e / n)
            if total > 0:
                return 1
            if total < 0:
                return -1
            prec *= 2
        raise InternalInconsistency("could not certify sign at 65536 bits")  # pragma: no cover

    def __repr__(self):
        canon = self.canonical()
        if not canon:
            return "ExactScalar(0)"
        body = " + ".join(
            f"{c}" if e == 0 else f"{c}*z{self.conductor}^{e}" for e, c in canon
        )
        return f"ExactScalar({body})"


# -- public constructors ------------------------------------------------------


def scalar_make(conductor, coeffs):
    """Build a scalar from an exponent->rational map; must be conjugation-fixed."""
    s = ExactScalar(conductor, dict(coeffs))
    if not s.conjugate_is_self():
        raise NotReal(f"coefficients {coeffs!r} do not define a real value")
    return s


def rational(value, conductor=1):
    return ExactScalar.from_rational(value, conductor)


def zero(conductor=1):
    return ExactScalar._make(conductor, {}, 1)


def cos_tau(num, den):
    """cos(2*pi*num/den) as an exact scalar of conductor den."""
    if den < 1:
        raise InvalidArgument("denominator must be positive")
    g = math.gcd(num, den)
    num, den = num // g, den // g
    terms = {}
    half = Fraction(1, 2)
    for e in (num % den, (-num) % den):
        terms[e] = terms.get(e, _ZERO) + half
    return ExactScalar(den, terms)


def sin_tau(num, den):
    """sin(2*pi*num/den) as an exact scalar; conductor divides 4*den."""
    return cos_tau(den - 4 * num, 4 * den)


def golden_ratio():
    """(1 + sqrt(5)) / 2, equal to 1 + zeta_5 + zeta_5^4."""
    return scalar_make(5, {0: 1, 1: 1, 4: 1})


def product_sum(terms):
    """``sum(sign * a * b)`` over ``(sign, a, b)`` terms, made as one scalar.

    Every product's numerators go straight into one exponent -> numerator
    map over the terms' common denominator, and the sum is reduced once,
    so no scalar is made per product or per partial sum.  Operands at
    different conductors are lifted to their lcm first; a term with a zero
    operand adds nothing and is skipped.
    """
    n = terms[0][1].conductor if terms else 1
    live = []
    for sign, a, b in terms:
        if a.conductor != n or b.conductor != n:
            n = math.lcm(*(x.conductor for t in terms for x in t[1:]))
            return product_sum([(s, x.lift(n), y.lift(n)) for s, x, y in terms])
        if a._num and b._num:
            live.append((sign, a._num, b._num, a._den * b._den))
    den = math.lcm(*[d for _, _, _, d in live])
    half = _context(n).half
    num = {}
    for sign, anum, bnum, d in live:
        _accumulate(num, n, half, sign * (den // d), anum, bnum)
    return ExactScalar._make(n, num, den)
