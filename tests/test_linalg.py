import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecover import linalg as la
from spherecover.errors import InvalidArgument, SphereCoverError

import snf_oracle
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


def smith(m, ncols=None):
    """The library's Smith form of dense rows, through the one conversion helper."""
    return la.smith_normal_form(snf_oracle.sparse_rows(m), len(m[0]) if ncols is None else ncols)


def test_smith_examples():
    assert smith([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    assert smith([[2, 4], [6, 8]]) == [2, 4]
    assert la.smith_normal_form([], 0) == []
    assert la.smith_normal_form([{}, {2: 0}], 3) == []
    assert la.cokernel([], 0) == la.AbelianGroup()
    assert str(la.cokernel(snf_oracle.sparse_rows([[2, 4], [6, 8]]), 2)) == "Z/2 x Z/4"
    assert str(la.cokernel([{1: 6}, {1: 4}], 3)) == "Z/2 x Z^2"


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
                g = math.gcd(g, abs(snf_oracle.integer_determinant(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_smith_vs_minor_oracle_random():
    rng = random.Random(99)
    for nrows, ncols in [(4, 4), (2, 5), (5, 2), (3, 4), (5, 3), (1, 4), (4, 1)]:
        for _ in range(100):
            m = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            assert smith(m) == _determinantal_divisor_oracle(m), m


@st.composite
def integer_matrices(draw):
    """Non-square, sparse or dense matrices with zero and duplicate rows and columns."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    entry = st.integers(-60, 60) | st.sampled_from([-2, -1, 1, 2])
    m = [
        [draw(entry) if draw(st.floats(0, 1)) < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows and draw(st.booleans()):
        m.append(list(m[draw(st.integers(0, nrows - 1))]))
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in m:
            row.append(row[j])
        ncols += 1
    if draw(st.booleans()):
        m.append([0] * ncols)
    return m, ncols


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
def test_sparse_smith_form_equals_the_dense_oracle(case):
    m, ncols = case
    assert smith(m, ncols) == snf_oracle.smith_normal_form(m, ncols)
    # the same rows with their zeros left out
    bare = [{j: v for j, v in enumerate(row) if v} for row in m]
    assert la.cokernel(bare, ncols) == snf_oracle.cokernel(m, ncols)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: la.integer_determinant(snf_oracle.sparse_rows([[1, 2, 3], [4, 5, 6]]), 3),
        lambda: la.integer_determinant(snf_oracle.sparse_rows([[1, 2], [3, 4], [5, 6]]), 2),
        lambda: la.integer_determinant([{0: 1}, {2: 1}], 2),
        lambda: la.cokernel(snf_oracle.sparse_rows([[2, 0, 0]]), 2),
        lambda: la.smith_normal_form(snf_oracle.sparse_rows([[1, 2], [3, 4, 5]]), 2),
    ],
    ids=[
        "determinant-2x3",
        "determinant-3x2",
        "determinant-column-outside",
        "cokernel-extra-column",
        "smith-ragged-rows",
    ],
)
def test_bad_arguments_are_invalid_arguments(call):
    with pytest.raises(InvalidArgument):
        call()


def determinant(m):
    """The library's determinant of dense square rows, through the one conversion helper."""
    return la.integer_determinant(snf_oracle.sparse_rows(m), len(m))


def test_integer_determinant():
    assert determinant([[2, 4], [6, 8]]) == -8
    assert determinant([]) == 1
    assert la.integer_determinant([{}, {1: 3}], 2) == 0
    assert la.integer_determinant([{1: 2}, {0: 3}], 2) == -6
    rng = random.Random(3)
    for _ in range(30):
        m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        rule = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert determinant(m) == rule


@st.composite
def square_matrices(draw):
    """Sparse or dense square matrices, often singular: zero and repeated rows and columns."""
    n = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    entry = st.integers(-60, 60) | st.sampled_from([-2, -1, 1, 2])
    m = [[draw(entry) if draw(st.floats(0, 1)) < density else 0 for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[i] = list(m[j])
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        for row in m:
            row[i] = row[j]
    if n and draw(st.booleans()):
        m[draw(st.integers(0, n - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in m:
            row[j] = 0
    return m


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_sparse_determinant_equals_the_dense_oracle(m):
    n = len(m)
    dense = snf_oracle.integer_determinant(m)
    assert determinant(m) == dense
    # the same rows with their zeros left out
    assert la.integer_determinant([{j: v for j, v in enumerate(row) if v} for row in m], n) == dense


@pytest.mark.parametrize(
    "torsion, rank",
    [((1, 2), 0), ((2, 3), 0), ((2,), -1)],
    ids=["factor-below-2", "divisibility", "negative-rank"],
)
def test_abelian_group_bad_invariants_are_invalid_arguments(torsion, rank):
    with pytest.raises(InvalidArgument) as info:
        la.AbelianGroup(torsion, rank)
    assert isinstance(info.value, SphereCoverError) and isinstance(info.value, ValueError)
