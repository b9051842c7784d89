import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from spherecover import linalg as la
from spherecover.errors import InvalidArgument, SphereCoverError

from kernel_oracle import matrix_vector, rational_kernel


def test_kernel_identity_empty():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rational_kernel(eye) == []


def test_kernel_zero_matrix_full():
    basis = rational_kernel([[0] * 4 for _ in range(4)])
    assert len(basis) == 4


def test_kernel_rank_one():
    basis = rational_kernel([[1, 1], [2, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0


def test_kernel_vectors_are_exact():
    rng = random.Random(5)
    for _ in range(50):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
            for _ in range(3)
        ]
        for vec in rational_kernel(rows):
            image = matrix_vector(rows, vec)
            assert all(x == 0 for x in image)


def test_smith_examples():
    assert la.smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    assert la.smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert la.smith_normal_form([]) == []
    assert la.cokernel([], 0) == la.AbelianGroup()
    assert str(la.cokernel([[2, 4], [6, 8]], 2)) == "Z/2 x Z/4"


def _determinantal_divisor_oracle(m):
    """Invariant factors via gcds of k x k minors: d1...dk = gcd of all k-minors."""
    rows, cols = len(m), len(m[0])
    prev = 1
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ris in combinations(range(rows), k):
            for cis in combinations(range(cols), k):
                sub = [[m[i][j] for j in cis] for i in ris]
                g = math.gcd(g, abs(la.integer_determinant(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_smith_vs_minor_oracle_random():
    rng = random.Random(99)
    for _ in range(100):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert la.smith_normal_form(m) == _determinantal_divisor_oracle(m)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        la.AbelianGroup((3, 2))  # broken divisibility chain
    with pytest.raises(ValueError):
        la.AbelianGroup((1,))
    g = la.AbelianGroup((2, 4), rank=1)
    assert g.order() is None
    assert la.AbelianGroup((3, 3)).order() == 9
    assert la.AbelianGroup.from_factors([1, 1]) == la.AbelianGroup()
    assert la.AbelianGroup((2,)).has_two_torsion()
    assert not la.AbelianGroup((3, 9)).has_two_torsion()


def test_integer_determinant():
    assert la.integer_determinant([[2, 4], [6, 8]]) == -8
    assert la.integer_determinant([]) == 1
    rng = random.Random(3)
    for _ in range(30):
        m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        rule = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert la.integer_determinant(m) == rule


@pytest.mark.parametrize(
    "torsion, rank",
    [((1, 2), 0), ((2, 3), 0), ((2,), -1)],
    ids=["factor-below-2", "divisibility", "negative-rank"],
)
def test_abelian_group_bad_invariants_are_invalid_arguments(torsion, rank):
    with pytest.raises(InvalidArgument) as info:
        la.AbelianGroup(torsion, rank)
    assert isinstance(info.value, SphereCoverError) and isinstance(info.value, ValueError)
