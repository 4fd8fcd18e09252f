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

from helpers import (
    all_f2_matrices,
    fraction_det,
    fraction_product,
    fraction_rank,
    fraction_rref,
    gauss_rank_oracle,
    is_canonical_rational,
    leibniz_det,
    modq_product,
    modq_rref,
    span_rank_oracle,
    unimodular,
)

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
    with pytest.raises(TypeError, match="floating point values are not accepted"):
        QQ.coerce(0.5)
    with pytest.raises(TypeError, match="boolean True is not a scalar"):
        Field(5).coerce(True)
    with pytest.raises(TypeError, match="boolean False is not a scalar"):
        Field.rationals().coerce(False)


def test_field_json_roundtrip():
    for f in (QQ, F2, F5):
        assert Field.from_json(f.to_json()) == f
    with pytest.raises(ValueError, match="^unrecognized field description: 'R'$"):
        Field.from_json("R")


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

    # the unique reduced-echelon basis: the free columns 1 and 2 are its pivots
    k = kernel_basis(mat(QQ, [[1, 3, 5]]))
    assert k.to_rows() == [[1, 0, Fraction(-1, 5)], [0, 1, Fraction(-3, 5)]]


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


@pytest.mark.parametrize("build, error, message", [
    (lambda: Matrix(QQ, -1, 0, ()), ValueError, "negative matrix dimension"),
    (lambda: Matrix(QQ, 1, 2, (1,)), ValueError, "entry count 1 != 1x2"),
    (lambda: Matrix.from_rows(QQ, [[1, 2], [3]]), ValueError, r"every row must have 2 entries, got \[2, 1\]"),
    (lambda: Matrix.from_rows(F5, [[1, 2]], cols=3), ValueError, r"every row must have 3 entries, got \[2\]"),
    (lambda: mat(QQ, [[1]]) @ mat(F5, [[1]]), ValueError, "field mismatch"),
    (lambda: mat(QQ, [[1, 2]]) @ mat(QQ, [[1, 2]]), ValueError, "shape mismatch 1x2 @ 1x2"),
    (lambda: hstack([]), ValueError, "hstack of nothing"),
    (lambda: vstack([]), ValueError, "vstack of nothing"),
    (lambda: vstack([mat(QQ, [[1]]), mat(QQ, [[1, 2]])]), ValueError, "vstack: column count / field mismatch"),
    (lambda: det(Matrix.zeros(QQ, 2, 3)), NonSquareSelection, "determinant of a non-square matrix"),
    (lambda: charpoly(Matrix.zeros(QQ, 2, 3)), ValueError, "characteristic polynomial of a non-square matrix"),
    (lambda: solve_right(Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 3, 1)), ValueError, "row mismatch in solve"),
], ids=["negative-dimension", "entry-count", "ragged-rows", "rows-against-cols", "matmul-fields",
        "matmul-shapes", "hstack-nothing", "vstack-nothing", "vstack-columns", "det-non-square",
        "charpoly-non-square", "solve-rows"])
def test_shape_and_field_refusals(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_empty_shapes():
    assert Matrix.from_rows(QQ, []) == Matrix.zeros(QQ, 0, 0)
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
        assert rref_with_pivots(k)[0] == k  # already reduced
        product = m @ k.transpose()
        assert product.is_zero()
        solutions = sum(
            1
            for v in itertools.product((0, 1), repeat=m.cols)
            if all(sum(m.entry(i, j) * v[j] for j in range(m.cols)) % 2 == 0 for i in range(m.rows))
        )
        assert solutions == 2 ** k.rows


def prime_field_cases(field, rng):
    """Seeded matrices over ``F_q``, many of whose pivots are not 1.

    Random wide, tall, square and empty shapes with zeros mixed in, and
    square ones whose pivots need row swaps: triangular matrices with
    diagonal entries in ``2..q-1`` and the rows reversed, some with a
    repeated row.
    """
    q = field.q
    for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (3, 6), (6, 3), (4, 4), (5, 5)):
        for _ in range(12):
            density = rng.choice((0.3, 0.6, 1.0))
            rows = [[rng.randrange(1, q) if rng.random() < density else 0 for _ in range(c)] for _ in range(r)]
            yield Matrix.from_rows(field, rows, cols=c)
    for n in range(1, 6):
        for _ in range(4):
            upper = [[rng.randrange(2, q) if i == j else (rng.randrange(q) if i < j else 0) for j in range(n)]
                     for i in range(n)]
            if n > 1 and rng.random() < 0.5:
                upper[0] = upper[-1]
            yield Matrix.from_rows(field, upper[::-1], cols=n)


@pytest.mark.parametrize("q", [3, 5, 7, 1048573])
def test_prime_field_elimination_against_oracles(q):
    import random

    rng = random.Random(q)
    field = Field.prime(q)
    for m in prime_field_cases(field, rng):
        rows = m.to_rows()
        r = gauss_rank_oracle(rows, q)
        assert rank(m) == r
        prefix_ranks = [gauss_rank_oracle([row[:c] for row in rows], q) for c in range(m.cols + 1)]
        assert pivot_columns(m) == tuple(c for c in range(m.cols) if prefix_ranks[c + 1] > prefix_ranks[c])
        red, piv = modq_rref(rows, q)
        assert rref_with_pivots(m) == (Matrix.from_rows(field, red, cols=m.cols), tuple(piv))
        k = min(m.rows, m.cols)
        if k:
            ri = sorted(rng.sample(range(m.rows), k))
            ci = sorted(rng.sample(range(m.cols), k))
            value = minor_det(m, ri, ci)
            assert value == leibniz_det(mat(field, [[m.entry(i, j) for j in ci] for i in ri])) and 0 <= value < q
        if m.rows == m.cols:
            assert det(m) == leibniz_det(m)
            eye = Matrix.identity(field, m.rows)
            if r == m.rows:
                inv = inverse(m)
                assert m @ inv == eye and inv @ m == eye
            else:
                with pytest.raises(SingularMatrix):
                    inverse(m)
        for cols in (0, 1, 2):
            x = Matrix(field, m.cols, cols, tuple(rng.randrange(q) for _ in range(m.cols * cols)))
            noise = Matrix(field, m.rows, cols, tuple(rng.randrange(q) for _ in range(m.rows * cols)))
            for b in (m @ x, noise):
                sol = solve_right(m, b)
                if sol is None:
                    assert gauss_rank_oracle([row + b.row_list(i) for i, row in enumerate(rows)], q) > r
                else:
                    assert m @ sol == b


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
    # the minor at rows {0, 1, 3}, columns {0, 2, 3} needs exactly one row swap
    odd = [[0, 9, 2, 1], [1, 5, 0, 0], [3, 3, 3, 3], [0, 6, 4, 0]]
    for field in (QQ, F5):
        minor = leibniz_det(mat(field, [[0, 2, 1], [1, 0, 0], [0, 4, 0]]))
        assert minor != (-minor % field.q if field.q is not None else -minor)
        assert minor_det(mat(field, odd), [0, 1, 3], [0, 2, 3]) == minor


# -- algebraic properties ----------------------------------------------------

ENTRY = st.integers(min_value=-5, max_value=5)


@st.composite
def qq_matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    ent = draw(st.lists(ENTRY, min_size=r * c, max_size=r * c))
    return Matrix(QQ, r, c, tuple(Fraction(x) for x in ent))


# denominators 1..9; Fraction(k, 1) values stay raw, as if they had bypassed coerce
RATIONAL = st.one_of(ENTRY, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def qq_rational_matrices(draw, rows=None, max_rows=4, max_cols=4):
    r = draw(st.integers(min_value=0, max_value=max_rows)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=max_cols))
    ent = draw(st.lists(RATIONAL, min_size=r * c, max_size=r * c))
    return Matrix(QQ, r, c, tuple(ent))


@st.composite
def fq_matrices(draw, q, rows=None, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=max_dim))
    ent = draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))
    return Matrix(Field.prime(q), r, c, tuple(ent))


@given(qq_matrices())
def test_rank_transpose_qq(m):
    assert rank(m) == rank(m.transpose())


@given(fq_matrices(5))
def test_rank_transpose_f5(m):
    assert rank(m) == rank(m.transpose())


@given(qq_matrices())
def test_pivot_columns_are_the_independent_prefix_extensions(m):
    # column c is a pivot exactly when it lies outside the span of the columns before it
    piv = pivot_columns(m)
    for c in range(m.cols):
        outside = solve_right(m.columns_at(range(c)), m.columns_at([c])) is None
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
    assert rref_with_pivots(k)[0] == k


# -- rational elimination against the Fraction-only referees -----------------


def assert_canonical(matrix):
    assert all(is_canonical_rational(x) for x in matrix.entries), matrix.entries


@given(qq_rational_matrices())
def test_rank_and_rref_match_fraction_referee(m):
    rows = m.to_rows()
    ref, ref_pivots = fraction_rref(rows)
    assert rank(m) == fraction_rank(rows) == len(ref_pivots)
    assert pivot_columns(m) == tuple(ref_pivots)
    red, pivots = rref_with_pivots(m)
    assert pivots == tuple(ref_pivots)
    assert red.to_rows() == ref
    assert_canonical(red)


@given(qq_rational_matrices(max_rows=5, max_cols=5), st.data())
def test_det_and_minors_match_fraction_referee(m, data):
    k = data.draw(st.integers(0, min(m.rows, m.cols)))
    rows = sorted(data.draw(st.sets(st.integers(0, m.rows - 1), min_size=k, max_size=k))) if k else []
    cols = sorted(data.draw(st.sets(st.integers(0, m.cols - 1), min_size=k, max_size=k))) if k else []
    value = minor_det(m, rows, cols)
    assert value == fraction_det([[m.entry(i, j) for j in cols] for i in rows])
    assert is_canonical_rational(value)
    if m.rows == m.cols:
        value = det(m)
        assert value == fraction_det(m.to_rows()) == leibniz_det(m)
        assert is_canonical_rational(value)


@given(qq_rational_matrices(), st.data())
def test_product_matches_fraction_referee(a, data):
    b = data.draw(qq_rational_matrices(rows=a.cols))
    prod = a @ b
    assert prod.to_rows() == fraction_product(a.to_rows(), b.to_rows(), b.cols)
    assert_canonical(prod)


@pytest.mark.parametrize("q", [5, 1048573])
@given(data=st.data())
def test_product_matches_modq_referee(q, data):
    a = data.draw(fq_matrices(q))
    b = data.draw(fq_matrices(q, rows=a.cols))
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.to_rows() == modq_product(a.to_rows(), b.to_rows(), b.cols, q)


@given(qq_rational_matrices(), st.data())
def test_solve_and_inverse_match_fraction_referee(a, data):
    # the solution with free unknowns 0 is the right part of the reduced [A | B]
    b = data.draw(qq_rational_matrices(rows=a.rows, max_cols=3))
    ref, pivots = fraction_rref([ra + rb for ra, rb in zip(a.to_rows(), b.to_rows())])
    x = solve_right(a, b)
    if any(p >= a.cols for p in pivots):
        assert x is None
    else:
        expected = [[0] * b.cols for _ in range(a.cols)]
        for row, pc in zip(ref, pivots):
            expected[pc] = row[a.cols:]
        assert x.to_rows() == expected
        assert_canonical(x)
    if a.rows == a.cols:
        eye = [[int(i == j) for j in range(a.rows)] for i in range(a.rows)]
        ref, pivots = fraction_rref([row + e for row, e in zip(a.to_rows(), eye)])
        if fraction_det(a.to_rows()) == 0:
            with pytest.raises(SingularMatrix):
                inverse(a)
        else:
            g = inverse(a)
            assert g.to_rows() == [row[a.cols:] for row in ref]
            assert_canonical(g)


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


def test_inverse_exhaustive_f2():
    # singular exactly when the Leibniz determinant vanishes; a two-sided inverse otherwise
    singular = 0
    for m in all_f2_matrices(3, 3):
        if m.rows != m.cols:
            continue
        eye = Matrix.identity(F2, m.rows)
        if leibniz_det(m) == 0:
            with pytest.raises(SingularMatrix):
                inverse(m)
            singular += 1
        else:
            g = inverse(m)
            assert g @ m == eye and m @ g == eye
    assert singular == 1 + 10 + 344  # 2^(n^2) - |GL_n(F_2)| for n = 1, 2, 3
    assert inverse(Matrix.zeros(F2, 0, 0)) == Matrix.zeros(F2, 0, 0)


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
    # det(tI - M) from the referees: cofactor expansion in Fraction over Q,
    # the permutation sum mod q over F_5
    import random

    rng = random.Random(5)
    for field in (QQ, F5):
        q = field.q
        for _ in range(15):
            n = rng.randint(0, 6)
            if q is None:
                entries = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
            else:
                entries = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            coeffs = charpoly(Matrix.from_rows(field, entries, cols=n))
            assert len(coeffs) == n + 1 and coeffs[0] == 1
            for t in (0, 1, 2, -1):
                shifted = [[(t if i == j else 0) - entries[i][j] for j in range(n)] for i in range(n)]
                value = 0
                for c in coeffs:
                    value = value * t + c
                if q is None:
                    assert value == fraction_det(shifted)
                else:
                    shifted = Matrix(field, n, n, tuple(x % q for row in shifted for x in row))
                    assert value % q == leibniz_det(shifted)


def test_stacking():
    a = mat(QQ, [[1, 2]])
    b = mat(QQ, [[3, 4]])
    assert vstack([a, b]) == mat(QQ, [[1, 2], [3, 4]])
    assert hstack([a, b]) == mat(QQ, [[1, 2, 3, 4]])
