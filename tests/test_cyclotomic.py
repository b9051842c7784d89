import math
import random
from fractions import Fraction

import cyclotomic_oracle
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import cyclotomic as cy
from spherecover.errors import InternalInconsistency, InvalidArgument, NotReal, SphereCoverError


def sqrt2():
    return cy.scalar_make(8, {1: 1, 7: 1})


def sqrt3():
    return cy.scalar_make(12, {1: 1, 11: 1})


def sqrt5():
    return cy.scalar_make(5, {0: 1, 1: 2, 4: 2})


def _value(s):
    """Float value of a scalar, straight from its canonical form."""
    return sum(float(c) * math.cos(2 * math.pi * e / s.conductor) for e, c in s.canonical())


def test_make_sqrt2_squares_to_two():
    s = cy.scalar_make(8, {1: 1, -1: 1})
    assert s * s == 2


def test_make_sqrt5_minimal_polynomial():
    # independent check of x^2 - 5 by expanding in the reduced basis
    s = cy.scalar_make(5, {1: 2, 4: 2, 0: 1})
    square = s * s
    assert square == 5
    assert any(e for e, _ in s.canonical())  # degree exactly 2, not 1


def test_make_rational_embedding():
    s = cy.scalar_make(1, {0: Fraction(3, 2)})
    assert s == Fraction(3, 2)


def test_make_rejects_non_real():
    with pytest.raises(NotReal):
        cy.scalar_make(8, {1: 1})
    with pytest.raises(NotReal):
        cy.scalar_make(5, {1: 1, 2: 1})


def test_cos_two_pi_fifth_closed_form():
    lhs = cy.cos_tau(1, 5)
    rhs = (sqrt5() - 1) * Fraction(1, 4)
    assert lhs == rhs


def test_sign_determination():
    assert (sqrt2() - 1).sign() == 1
    assert (1 - sqrt2()).sign() == -1
    assert (sqrt2() - sqrt2()).sign() == 0
    # a value within 1e-5 of zero still gets an exact sign
    close = sqrt2() - Fraction(141421356237, 100000000000)
    assert close.sign() == (1 if math.sqrt(2) > 1.41421356237 else -1)


def test_sign_fallback_uses_its_own_interval_context(monkeypatch):
    x = tiny = sqrt2() - 1
    for _ in range(39):
        tiny = tiny * x  # (sqrt(2) - 1)^40, about 4.9e-16
    assert tiny._float_fast()[0] == 0.0  # the double fast path cannot decide
    cy._interval_context.cache_clear()  # the context is made inside the patch below
    monkeypatch.setattr(mpmath, "iv", None)  # the global interval context is never used
    monkeypatch.setattr(mpmath.mp, "prec", 20)
    assert tiny.sign() == 1
    assert (-tiny).sign() == -1
    expected = (math.sqrt(2) - 1) ** 40
    assert (tiny - Fraction(expected * (1 - 1e-12))).sign() == 1
    assert (tiny - Fraction(expected * (1 + 1e-12))).sign() == -1
    assert mpmath.mp.prec == 20


def _random_scalar(rng, conductor=12):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = rng.randrange(conductor)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        terms[e] = terms.get(e, Fraction(0)) + coeff
    raw = cy.ExactScalar(conductor, terms)
    return raw + raw._conj_raw()  # symmetrize: guaranteed real


def test_field_axioms_on_random_pairs():
    rng = random.Random(20240817)
    for _ in range(500):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        lhs = (a + b) * (a + b)
        rhs = a * a + 2 * a * b + b * b
        assert lhs._canon_key() == rhs._canon_key()
        assert (a * b)._canon_key() == (b * a)._canon_key()
        assert ((a + b) - b)._canon_key() == a._canon_key()


def test_mixed_conductor_lifts_to_lcm():
    s6 = sqrt2() * sqrt3()
    assert s6.conductor == 24
    assert abs(_value(s6) - math.sqrt(6)) < 1e-13
    assert s6 * s6 == 6


def test_lift_preserves_value_and_equality():
    s = sqrt2()
    assert s.lift(120) == s
    assert (s.lift(40)).lift(120) == s.lift(120)
    assert hash(s.lift(120)) == hash(sqrt2().lift(120))


def test_eager_canonical_forms_make_hashing_stable():
    a = cy.cos_tau(1, 5)
    b = (sqrt5() - 1) * Fraction(1, 4)
    assert hash(a.lift(5)) == hash(b.lift(5))


def test_sin_tau():
    assert cy.sin_tau(1, 4) == 1
    assert cy.sin_tau(0, 7).is_zero()
    assert abs(_value(cy.sin_tau(1, 5)) - math.sin(2 * math.pi / 5)) < 1e-13


@pytest.mark.parametrize(
    "call",
    [
        lambda: cy.zero(0),  # conductor below 1
        lambda: sqrt2().lift(12),  # 12 is not a multiple of 8
        lambda: cy.cos_tau(1, 0),
    ],
    ids=["conductor", "lift", "cos_tau"],
)
def test_bad_arguments_are_invalid_arguments(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, SphereCoverError) and isinstance(info.value, ValueError)


def test_product_sum_is_the_signed_sum_of_products():
    a, b, c = sqrt2(), cy.cos_tau(1, 5), cy.cos_tau(2, 9)
    terms = [(1, a, b), (-1, c, c), (1, b, cy.zero()), (-1, a, cy.rational(Fraction(1, 3)))]
    fused = cy.product_sum(terms)
    assert fused.conductor == 360
    assert fused == a * b - c * c - a * Fraction(1, 3)
    expected = math.sqrt(2) * (math.cos(2 * math.pi / 5) - 1 / 3) - math.cos(4 * math.pi / 9) ** 2
    assert abs(_value(fused) - expected) < 1e-13
    assert cy.product_sum([(1, a, a), (-1, cy.rational(2), cy.rational(1))]).is_zero()


def _embedding(conductor, terms, k=1):
    """Float value of sum c_e * cos(2*pi*k*e/N), straight from the terms."""
    return sum(float(c) * math.cos(2 * math.pi * k * e / conductor) for e, c in terms.items())


@pytest.mark.parametrize("conductor", [5, 7, 8, 12, 15, 24])
def test_galois_image_matches_float_embedding(conductor):
    rng = random.Random(conductor)
    for _ in range(4):
        terms = {}
        for e in rng.sample(range(conductor), min(conductor, 4)):
            terms[e] = terms[-e % conductor] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        x = cy.scalar_make(conductor, terms)
        for k in range(1, conductor):
            if math.gcd(k, conductor) != 1:
                continue
            image = x.galois_image(k)
            assert image.conductor == conductor
            assert abs(_value(image) - _embedding(conductor, terms, k)) < 1e-12
        assert x.galois_image(-1) == x._conj_raw() == x


@pytest.mark.parametrize("old, new", [(3, 12), (5, 20), (8, 24), (15, 60)])
def test_lift_folds_scaled_exponents_and_keeps_the_value(old, new):
    # exponents scaled past new/2 fold down with a sign flip
    rng = random.Random(old * new)
    for _ in range(6):
        terms = {e: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for e in range(old)}
        x = cy.ExactScalar(old, terms)
        y = x.lift(new)
        assert y.conductor == new
        assert abs(_value(y) - _embedding(old, terms)) < 1e-12
        assert abs(_value(y) - _value(x)) < 1e-12
        assert y == x and hash(y) == hash(x.lift(new))


@pytest.mark.parametrize(
    "conductor, terms, expected",
    [
        (12, {-1: 1, 1: 1}, lambda: 2 * cy.cos_tau(1, 12)),
        (12, {-5: Fraction(3, 4), 5: Fraction(3, 4), 3: 0}, lambda: Fraction(3, 2) * cy.cos_tau(5, 12)),
        (12, {0: Fraction(1, 2), -12: 2, 24: Fraction(-1, 3)}, lambda: cy.rational(Fraction(13, 6), 12)),
        (8, {7: 1, -7: 1, 9: Fraction(1, 2), -9: Fraction(1, 2), 4: 0, -4: 1}, lambda: 3 * cy.cos_tau(1, 8) - 1),
        (5, {-1: 2, 1: 2, 0: 1}, lambda: sqrt5()),
        (6, {1: 1, 5: 1, 2: 0, -2: Fraction(0, 7)}, lambda: cy.rational(1, 6)),
        (7, {3: 0}, lambda: cy.zero(7)),
    ],
    ids=["negative", "fraction", "multiple-of-n", "fold", "sqrt5", "zeros", "all-zero"],
)
def test_constructor_matches_rational_and_cos_tau_arithmetic(conductor, terms, expected):
    x = cy.ExactScalar(conductor, terms)
    want = expected()
    assert x == want and hash(x) == hash(want.lift(conductor))
    assert x._canon_key() == want.lift(conductor)._canon_key()
    assert abs(_value(x) - _embedding(conductor, terms)) < 1e-12


# -- sparse canonical keys, one-conductor product sums, same-conductor equality --

CONDUCTORS = (5, 7, 8, 12, 15, 20, 24, 56, 60, 72)


@st.composite
def sparse_scalars(draw, conductor=None):
    """A scalar with at most four terms, kept as drawn (no canonical rewrite).

    Half of the draws put one exponent in ``[degree, half)``, where the key
    needs reducing; at conductor 8 that range is empty.
    """
    n = draw(st.sampled_from(CONDUCTORS)) if conductor is None else conductor
    ctx = cy._context(n)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    terms = draw(st.dictionaries(st.integers(0, ctx.degree - 1), coeff, max_size=3))
    if ctx.half > ctx.degree and draw(st.booleans()):
        terms[draw(st.integers(ctx.degree, ctx.half - 1))] = draw(coeff.filter(bool))
    return cy.ExactScalar(n, terms)


def _dense_key(s):
    """The canonical key as the dense reduction builds it."""
    vec = s._canonical_vector(cy._context(s.conductor))
    pairs = [(i, v) for i, v in enumerate(vec) if v]
    g = math.gcd(s._den, *(v for _, v in pairs))
    return (s._den // g, tuple((i, v // g) for i, v in pairs))


def _lifted(s, k):
    return s.lift(s.conductor * k)


@settings(max_examples=300, deadline=None)
@given(sparse_scalars())
def test_sparse_canonical_key_equals_the_dense_reduction(s):
    assert all(s._num.values())  # the sparse key relies on no stored zeros
    assert s._canon_key() == _dense_key(s)
    twin = cy.ExactScalar._make(s.conductor, dict(s._num), s._den)
    assert hash(twin) == hash(s) and twin == s


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONDUCTORS).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.sampled_from((1, -1)), sparse_scalars(n), sparse_scalars(n)), max_size=4),
    st.lists(st.sampled_from((1, 2, 3)), min_size=8, max_size=8),
)))
def test_one_conductor_product_sum_matches_mixed_and_composed(case):
    terms, ks = case
    n = terms[0][1].conductor if terms else 1
    fused = cy.product_sum(terms)
    assert fused.conductor == n
    composed = cy.zero(n)
    for sign, a, b in terms:
        composed = composed + sign * (a * b)
    assert fused._canon_key() == composed._canon_key()
    mixed_terms = [
        (sign, _lifted(a, ks[2 * i % 8]), _lifted(b, ks[(2 * i + 1) % 8]))
        for i, (sign, a, b) in enumerate(terms)
    ]
    mixed = cy.product_sum(mixed_terms)
    assert mixed == fused and fused == mixed
    assert mixed._canon_key() == fused.lift(mixed.conductor)._canon_key()


@given(st.sampled_from(CONDUCTORS))
def test_product_sum_of_nothing_or_zero_operands_is_zero(n):
    empty = cy.product_sum([])
    assert empty.conductor == 1 and empty.is_zero() and empty._canon_key() == (1, ())
    x = cy.cos_tau(1, n)
    zeros = cy.product_sum([(1, x, cy.zero(n)), (-1, cy.zero(n), x)])
    assert zeros.conductor == n and zeros._canon_key() == (1, ()) and zeros == 0
    assert cy.product_sum([(1, x, x), (1, cy.zero(n), x)]) == x * x


@settings(max_examples=200, deadline=None)
@given(sparse_scalars(), sparse_scalars(), st.sampled_from((2, 3, 7)))
def test_equality_compares_keys_at_one_conductor_and_lifts_across(a, b, k):
    if a.conductor == b.conductor:
        assert (a == b) == (a._canon_key() == b._canon_key())
    up = _lifted(a, k)
    assert up == a and a == up
    assert (up == b) == (a - b).is_zero()
    assert not (up == a + 1) and a + 1 != up


def test_equality_across_conductors_lifts():
    s = sqrt2()
    assert s == s.lift(56) and s.lift(56) == s
    assert s != s.lift(56) + 1
    assert s.lift(56) != cy.cos_tau(1, 7)
    one8, one56 = cy.rational(1, 8), cy.rational(1, 56)
    assert one8 == 1 and one56 == Fraction(1) and one8 == one56


def test_cyclotomic_polynomial_equals_the_divisor_recursion():
    for n in range(1, 601):
        assert cy.cyclotomic_polynomial(n) == cyclotomic_oracle.cyclotomic_polynomial(n), n


@pytest.mark.parametrize("n", [2004, 4004, 19996, 120120])
def test_large_cyclotomic_polynomials_have_degree_phi_and_are_palindromic(n):
    poly = cy.cyclotomic_polynomial(n)
    assert len(poly) - 1 == sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
    assert poly == poly[::-1]


def test_a_cyclotomic_division_remainder_raises_even_without_asserts(monkeypatch):
    # every remainder reads as nonzero: a raise, not an assert, reports it
    monkeypatch.setattr(cy, "any", lambda values: True, raising=False)
    assert cy.cyclotomic_polynomial(1) == (-1, 1)  # x - 1, no division
    with pytest.raises(InternalInconsistency):
        cy.cyclotomic_polynomial(5)
