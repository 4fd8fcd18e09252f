"""Exact linear algebra: frozen examples, oracles, and properties."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moduli_sys.errors import IndexOutOfRange, NonSquareSelection, SingularMatrix
from moduli_sys.linalg import (
    Field,
    Matrix,
    charpoly,
    det,
    hstack,
    inverse,
    kernel_basis,
    minor_det,
    pivot_columns,
    rank,
    rref_with_pivots,
    solve_right,
    vstack,
)

from helpers import all_f2_matrices, gauss_rank_oracle, leibniz_det, span_rank_oracle, unimodular

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def mat(field, rows):
    return Matrix.from_rows(field, rows)


# -- fields ------------------------------------------------------------------

def test_prime_validation():
    with pytest.raises(ValueError):
        Field.prime(4)
    with pytest.raises(ValueError):
        Field.prime(1)
    assert Field.prime(2).q == 2


def test_primality_of_large_moduli():
    import sympy

    from moduli_sys.linalg import _is_prime

    assert [q for q in range(5000) if _is_prime(q)] == list(sympy.primerange(5000))
    # the smallest strong pseudoprimes to the first k prime bases, and a Carmichael number
    for q in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461, 561):
        assert not _is_prime(q), q
    assert Field.prime(10 ** 24 + 7).q == 10 ** 24 + 7
    assert Field.prime(2 ** 61 - 1).q == 2 ** 61 - 1
    with pytest.raises(ValueError):
        Field.prime((10 ** 12 + 39) * (10 ** 12 + 61))  # two primes, no small factor
    with pytest.raises(ValueError, match="too large"):
        Field.prime(2 ** 89 - 1)  # prime, but beyond the proven Miller-Rabin range


def test_coercion():
    assert QQ.coerce("2/3") == Fraction(2, 3)
    assert QQ.coerce(5) == Fraction(5)
    assert F5.coerce(-1) == 4
    assert F5.coerce("7") == 2
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = inverse of 2 mod 5
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


def test_field_json_roundtrip():
    for f in (QQ, F2, F5):
        assert Field.from_json(f.to_json()) == f


# -- frozen examples ---------------------------------------------------------

def test_rank_examples():
    assert rank(Matrix.identity(QQ, 3)) == 3
    assert rank(Matrix.zeros(F2, 2, 4)) == 0
    assert rank(mat(QQ, [[1, 2], [2, 4]])) == 1


def test_rref_examples():
    red, piv = rref_with_pivots(mat(QQ, [[0, 1], [1, 0]]))
    assert red == Matrix.identity(QQ, 2) and piv == (0, 1)

    red, piv = rref_with_pivots(mat(QQ, [[2, 4]]))
    assert red == mat(QQ, [[1, 2]]) and piv == (0,)

    red, piv = rref_with_pivots(mat(F2, [[1, 1], [1, 1]]))
    assert red == mat(F2, [[1, 1], [0, 0]]) and piv == (0,)


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 2)).rows == 0

    k = kernel_basis(mat(QQ, [[1, 1]]))
    assert k.rows == 1
    assert k.entry(0, 0) == -k.entry(0, 1) != 0

    c, a = Fraction(3), Fraction(5)
    k = kernel_basis(mat(QQ, [[1, c, a]]))
    assert k.to_rows() == [[-c, 1, 0], [-a, 0, 1]]


def test_minor_det_examples():
    eye = Matrix.identity(QQ, 4)
    assert minor_det(eye, range(4), range(4)) == 1
    with_zero_row = mat(QQ, [[1, 2], [0, 0]])
    assert minor_det(with_zero_row, [0, 1], [0, 1]) == 0
    assert minor_det(mat(QQ, [[1, 2], [3, 4]]), [0, 1], [0, 1]) == -2


def test_minor_det_errors():
    m = mat(QQ, [[1, 2], [3, 4]])
    with pytest.raises(NonSquareSelection):
        minor_det(m, [0, 1], [0])
    with pytest.raises(IndexOutOfRange):
        minor_det(m, [0, 2], [0, 1])
    with pytest.raises(ValueError):
        minor_det(m, [1, 0], [0, 1])


def test_empty_shapes():
    empty = Matrix.zeros(QQ, 0, 3)
    assert rank(empty) == 0
    assert kernel_basis(empty) == Matrix.identity(QQ, 3)
    tall = Matrix.zeros(QQ, 3, 0)
    assert rank(tall) == 0
    assert kernel_basis(tall).rows == 0
    assert minor_det(Matrix.zeros(QQ, 2, 2), [], []) == 1


# -- exhaustive F_2 oracle comparison ---------------------------------------

def test_rank_against_oracles_exhaustive_f2():
    for m in all_f2_matrices(3, 3):
        r = rank(m)
        assert r == span_rank_oracle(m)
        assert r == gauss_rank_oracle(m.to_rows(), 2)
        # column rank profile: the pivots below k count the rank of the first k columns
        piv = pivot_columns(m)
        for k in range(m.cols + 1):
            assert sum(c < k for c in piv) == span_rank_oracle(m.columns_at(range(k)))


def test_kernel_against_enumeration_exhaustive_f2():
    for m in all_f2_matrices(2, 3):
        k = kernel_basis(m)
        assert k.rows == m.cols - rank(m)
        assert rank(k) == k.rows  # rows independent
        product = m @ k.transpose()
        assert product.is_zero()
        solutions = sum(
            1
            for v in itertools.product((0, 1), repeat=m.cols)
            if all(sum(m.entry(i, j) * v[j] for j in range(m.cols)) % 2 == 0 for i in range(m.rows))
        )
        assert solutions == 2 ** k.rows


def test_det_against_leibniz():
    for m in all_f2_matrices(3, 3):
        if m.rows == m.cols:
            assert det(m) == leibniz_det(m)
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = mat(QQ, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert det(m) == leibniz_det(m)


# -- algebraic properties ----------------------------------------------------

ENTRY = st.integers(min_value=-5, max_value=5)


@st.composite
def qq_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    ent = draw(st.lists(ENTRY, min_size=r * c, max_size=r * c))
    return Matrix(QQ, r, c, tuple(Fraction(x) for x in ent))


@st.composite
def f5_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    ent = draw(st.lists(st.integers(0, 4), min_size=r * c, max_size=r * c))
    return Matrix(F5, r, c, tuple(ent))


@given(qq_matrices())
def test_rank_transpose_qq(m):
    assert rank(m) == rank(m.transpose())


@given(f5_matrices())
def test_rank_transpose_f5(m):
    assert rank(m) == rank(m.transpose())


@given(qq_matrices())
def test_pivot_columns_are_the_independent_prefix_extensions(m):
    # column c is a pivot exactly when it lies outside the span of the columns before it
    piv = pivot_columns(m)
    for c in range(m.cols):
        outside = solve_right(m.columns_at(range(c)), m.column(c)) is None
        assert (c in piv) == outside


@given(qq_matrices())
def test_rref_idempotent(m):
    red, piv = rref_with_pivots(m)
    again, piv2 = rref_with_pivots(red)
    assert red == again and piv == piv2


def test_rref_preserves_row_space_exhaustive_f2():
    from helpers import span_rank_oracle

    def span_set(matrix):
        rows = matrix.to_rows()
        out = set()
        for coeffs in itertools.product((0, 1), repeat=len(rows)):
            out.add(tuple(
                sum(c * row[k] for c, row in zip(coeffs, rows)) % 2
                for k in range(matrix.cols)
            ))
        return out

    for m in all_f2_matrices(2, 3):
        red, piv = rref_with_pivots(m)
        assert span_set(red) == span_set(m)
        assert len(piv) == rank(m)


@given(qq_matrices(), st.integers(0, 2 ** 30))
def test_rank_invariant_under_invertible(m, seed):
    import random

    p = unimodular(QQ, m.rows, random.Random(seed))
    assert rank(p @ m) == rank(m)


@given(qq_matrices())
def test_kernel_contract(m):
    k = kernel_basis(m)
    assert k.rows == m.cols - rank(m)
    assert (m @ k.transpose()).is_zero()
    assert rank(k) == k.rows


def test_inverse_and_errors():
    import random

    rng = random.Random(3)
    for n in range(5):
        g = unimodular(QQ, n, rng)
        assert g @ inverse(g) == Matrix.identity(QQ, n)
        h = unimodular(F3, n, rng)
        assert inverse(h) @ h == Matrix.identity(F3, n)
    with pytest.raises(SingularMatrix):
        inverse(mat(QQ, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(QQ, 2, 3))


def test_solve_right():
    import random

    rng = random.Random(11)
    for _ in range(20):
        r, c, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        a = mat(QQ, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        x = mat(QQ, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(c)])
        b = a @ x
        s = solve_right(a, b)
        assert s is not None and a @ s == b
    assert solve_right(mat(QQ, [[1], [0]]), mat(QQ, [[0], [1]])) is None


def test_charpoly_by_evaluation():
    import random

    rng = random.Random(5)
    for field in (QQ, F5):
        for _ in range(15):
            n = rng.randint(0, 4)
            entries = [
                [field.coerce(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
            ]
            m = Matrix.from_rows(field, entries, cols=n)
            coeffs = charpoly(m)
            assert len(coeffs) == n + 1 and coeffs[0] == field.one
            for t in (0, 1, 2, -1):
                tval = field.coerce(t)
                shifted = Matrix.identity(field, n).scaled(tval) - m
                expected = det(shifted)
                value = field.zero
                for c in coeffs:
                    value = field.add(field.mul(value, tval), c)
                assert value == expected


def test_stacking_and_power():
    a = mat(QQ, [[1, 2]])
    b = mat(QQ, [[3, 4]])
    assert vstack([a, b]) == mat(QQ, [[1, 2], [3, 4]])
    assert hstack([a, b]) == mat(QQ, [[1, 2, 3, 4]])
    m = mat(QQ, [[1, 1], [0, 1]])
    assert m.power(3) == m @ m @ m
    assert m.power(0) == Matrix.identity(QQ, 2)
