"""Cyclotomic polynomials by divisor recursion: the coefficient oracle.

This is how the library made Phi_n before it used the Moebius product of
binomials: x^n - 1 divided, by general polynomial long division, by Phi_d
for every proper divisor d of n, each Phi_d memoised.  Phi_n is unique, so
the two must return equal coefficients for every n.
"""

from functools import lru_cache

from spherecover.errors import InternalInconsistency


def _proper_divisors(n):
    return [d for d in range(1, n) if n % d == 0]


def _polydiv_exact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        q, r = divmod(num[i], lead)
        if r:
            raise InternalInconsistency("non-exact polynomial division")
        out[i - dn] = q
        if q:
            for j, c in enumerate(den):
                num[i - dn + j] -= q * c
    if any(num):
        raise InternalInconsistency("nonzero remainder in cyclotomic division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _proper_divisors(n):
        poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)
