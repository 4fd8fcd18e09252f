"""Linear systems: classification, group action, duality, Markov data."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moduli_sys.errors import SingularBaseChange
from moduli_sys.grassmann import system_from_cell
from moduli_sys.kalman import all_codes, multiindex_from_code
from moduli_sys.linalg import Field, Matrix, det, inverse, rank
from moduli_sys.realization import MarkovSequence, realize
from moduli_sys.system import (
    LinearSystem,
    act,
    all_systems,
    classify,
    controllability_matrix,
    dualize,
    markov_parameters,
    observability_matrix,
    random_system,
    system_from_json,
    system_to_json,
)

from helpers import reference_markov_parameters, unimodular

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def sys1x1(field, a, b, c):
    return LinearSystem(
        Matrix.from_rows(field, [[a]]),
        Matrix.from_rows(field, [[b]]),
        Matrix.from_rows(field, [[c]]),
    )


def test_a_system_is_its_three_matrices():
    assert [f.name for f in dataclasses.fields(LinearSystem)] == ["A", "B", "C"]
    for field in (QQ, F5):
        for m, n, p in ((0, 3, 0), (2, 0, 1), (2, 3, 0), (0, 0, 0), (1, 2, 3)):
            a, b, c = Matrix.zeros(field, n, n), Matrix.zeros(field, n, m), Matrix.zeros(field, p, n)
            s = LinearSystem(a, b, c)
            assert (s.field, s.m, s.n, s.p) == (a.field, b.cols, a.rows, c.rows) == (field, m, n, p)
            assert s.shape() == (m, n, p)
            assert system_from_json(json.loads(json.dumps(system_to_json(s)))) == s


def test_shape_validation():
    # a non-square A, B with other than n rows, C with other than n columns (n = 0 too)
    for a, b, c in (((1, 2), (1, 1), (1, 2)), ((2, 2), (1, 1), (1, 2)), ((2, 2), (2, 1), (1, 3)),
                    ((0, 0), (1, 0), (0, 0))):
        shapes = f"{a[0]}x{a[1]}, {b[0]}x{b[1]} and {c[0]}x{c[1]}"
        with pytest.raises(ValueError, match=f"^A, B and C must be n x n, n x m and p x n, got {shapes}$"):
            LinearSystem(Matrix.zeros(QQ, *a), Matrix.zeros(QQ, *b), Matrix.zeros(QQ, *c))
    for fields in ((QQ, F2, QQ), (F2, QQ, QQ), (F3, F3, F5)):
        with pytest.raises(ValueError, match="^A, B and C must be over one field"):
            LinearSystem(*(Matrix.zeros(f, 1, 1) for f in fields))


def test_controllability_matrix_examples():
    # A = 0, B = identity: [I | 0]
    s = LinearSystem(Matrix.zeros(QQ, 2, 2),
                     Matrix.identity(QQ, 2),
                     Matrix.zeros(QQ, 0, 2))
    c = controllability_matrix(s)
    assert c.to_rows() == [[1, 0, 0, 0], [0, 1, 0, 0]]

    # nilpotent Jordan block, B = e2: columns [e2, e1], rank 2
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    b = Matrix.from_rows(QQ, [[0], [1]])
    s = LinearSystem(a, b, Matrix.zeros(QQ, 0, 2))
    c = controllability_matrix(s)
    assert c.to_rows() == [[0, 1], [1, 0]]
    assert rank(c) == 2

    # n = 1: just B
    s = LinearSystem(Matrix.from_rows(QQ, [[7]]),
                     Matrix.from_rows(QQ, [[1, 2, 3]]),
                     Matrix.zeros(QQ, 0, 1))
    assert controllability_matrix(s) == s.B


def test_observability_matrix_examples():
    rng = random.Random(0)
    a = Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    s = LinearSystem(a, Matrix.zeros(QQ, 2, 1), Matrix.identity(QQ, 2))
    assert rank(observability_matrix(s)) == 2

    s0 = LinearSystem(a, Matrix.zeros(QQ, 2, 1), Matrix.zeros(QQ, 1, 2))
    assert rank(observability_matrix(s0)) == 0
    assert not classify(s0).co

    for _ in range(10):
        m, n, p = rng.randint(1, 2), rng.randint(0, 3), rng.randint(0, 2)
        s = random_system(QQ, m, n, p, rng)
        assert observability_matrix(dualize(s)) == controllability_matrix(s).transpose()


def test_classify_examples():
    assert classify(sys1x1(QQ, 2, 1, 3)) == classify(sys1x1(QQ, 2, 1, 3))
    cls = classify(sys1x1(QQ, 2, 1, 3))
    assert cls.cc and cls.co and cls.canonical

    cls = classify(sys1x1(QQ, 2, 0, 3))
    assert not cls.cc and cls.co and not cls.canonical

    # census over F_2 of all 1x1x1 systems: cc iff b != 0
    systems = list(all_systems(F2, 1, 1, 1))
    assert len(systems) == 8
    assert sum(classify(s).cc for s in systems) == 4
    for s in systems:
        assert classify(s).cc == (s.B.entry(0, 0) != 0)
    with pytest.raises(ValueError, match="^exhaustive enumeration needs a finite field$"):
        next(all_systems(QQ, 1, 1, 1))


def test_empty_system_is_canonical():
    s = LinearSystem(Matrix.zeros(QQ, 0, 0),
                     Matrix.zeros(QQ, 0, 2),
                     Matrix.zeros(QQ, 1, 0))
    cls = classify(s)
    assert cls.cc and cls.co and cls.canonical
    assert cls.rank_c == cls.rank_o == 0


def test_act_identity_and_errors():
    s = sys1x1(QQ, 2, 1, 3)
    assert act(Matrix.identity(QQ, 1), s) == s
    with pytest.raises(SingularBaseChange):
        act(Matrix.zeros(QQ, 1, 1), s)
    with pytest.raises(ValueError):
        act(Matrix.identity(QQ, 2), s)


@given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
def test_act_composition_f3(seed_g, seed_h, seed_s):
    rng = random.Random(seed_s)
    s = random_system(F3, 2, 2, 1, rng)
    g = unimodular(F3, 2, random.Random(seed_g))
    h = unimodular(F3, 2, random.Random(seed_h))
    assert act(g @ h, s) == act(g, act(h, s))


@given(st.integers(0, 2 ** 30))
def test_act_preserves_class_and_markov(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 3)
    s = random_system(QQ, 2, n, 1, rng)
    g = unimodular(QQ, n, rng)
    moved = act(g, s)
    assert classify(moved) == classify(s)
    assert markov_parameters(moved, 2 * n + 1) == markov_parameters(s, 2 * n + 1)


def test_dualize():
    rng = random.Random(1)
    s = random_system(QQ, 2, 1, 1, rng)
    d = dualize(s)
    assert (d.m, d.n, d.p) == (1, 1, 2)
    assert dualize(d) == s


def test_dualize_swaps_cc_co_exhaustively(f2_sweep):
    for s, cls in f2_sweep:
        dual_cls = classify(dualize(s))
        assert dual_cls.cc == cls.co
        assert dual_cls.co == cls.cc


def test_markov_examples():
    ones = markov_parameters(sys1x1(QQ, 1, 1, 1), 5)
    assert [blk.entry(0, 0) for blk in ones] == [1] * 5

    doubling = markov_parameters(sys1x1(QQ, 2, 1, 1), 5)
    assert [blk.entry(0, 0) for blk in doubling] == [1, 2, 4, 8, 16]


def _markov_cases():
    """Systems over Q, F_2 and F_5, with empty dimensions, for the Markov referee."""
    rng = random.Random(16)
    shapes = [(0, 0, 0), (1, 0, 1), (0, 2, 1), (2, 2, 0), (0, 3, 0), (1, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 2)]
    cases = [random_system(field, *shape, rng) for field in (QQ, F2, F5) for shape in shapes]
    for shape in shapes[5:]:  # Q moved by an upper triangular g of determinant 2^n and by g^-1
        n = shape[1]
        g = Matrix.from_rows(QQ, [[2 if i == j else rng.randint(-2, 2) if i < j else 0
                                   for j in range(n)] for i in range(n)])
        cases += [act(h, random_system(QQ, *shape, rng)) for h in (g, inverse(g))]
    for field in (QQ, F5):  # realized systems; over Q their entries are Fractions
        for shape in shapes[5:]:
            s = random_system(field, *shape, rng, require="canonical")
            cases.append(realize(MarkovSequence.from_system(s, 2 * s.n + 1)))
    return cases


def test_markov_parameters_match_the_product_loop():
    cases = _markov_cases()
    for name in "ABC":
        assert any(isinstance(x, Fraction) for s in cases for x in getattr(s, name).entries), name
    for s in cases:
        for count in sorted({0, 1, 2 * s.n + 1}):
            got, want = markov_parameters(s, count), reference_markov_parameters(s, count)
            assert len(got) == count
            assert got == want, (s, count)
            # the same scalar types too: int when integral over Q
            assert [list(map(type, b.entries)) for b in got] == [list(map(type, b.entries)) for b in want]
            assert all(b.field == s.field and (b.rows, b.cols) == (s.p, s.m) for b in got)
    with pytest.raises(ValueError, match="^count must be non-negative, got -1$"):
        markov_parameters(cases[0], -1)


def test_single_input_cc_iff_det(f2_sweep):
    for s, cls in f2_sweep:
        if s.m == 1 and s.n > 0:
            c = controllability_matrix(s)
            assert cls.cc == (det(c) != 0)


def test_json_roundtrip():
    rng = random.Random(9)
    for field in (QQ, F5):
        shape = (rng.randint(1, 2), rng.randint(0, 3), rng.randint(0, 2))
        s = random_system(field, *shape, rng)
        doc = system_to_json(s)
        text = json.dumps(doc)
        assert system_from_json(json.loads(text)) == s
    # rationals serialize as strings, prime field as ints
    s_q = random_system(QQ, 1, 1, 1, rng)
    assert all(isinstance(x, str) for x in system_to_json(s_q)["A"])
    s_5 = random_system(F5, 1, 1, 1, rng)
    assert all(isinstance(x, int) for x in system_to_json(s_5)["A"])


def test_json_accepts_fraction_strings():
    doc = {
        "field": "Q", "m": 1, "n": 1, "p": 1,
        "A": ["1/2"], "B": [2], "C": ["-3"],
    }
    s = system_from_json(doc)
    assert s.A.entry(0, 0) == Fraction(1, 2)
    assert s.C.entry(0, 0) == -3


def test_random_system_reproducible_and_constrained():
    a = random_system(F5, 2, 3, 1, random.Random(42))
    b = random_system(F5, 2, 3, 1, random.Random(42))
    assert a == b
    cc = random_system(F2, 1, 2, 0, random.Random(0), require="cc")
    assert classify(cc).cc
    canon = random_system(QQ, 2, 3, 2, random.Random(0), require="canonical")
    assert classify(canon).canonical
    with pytest.raises(ValueError):
        random_system(QQ, 0, 1, 1, random.Random(0), require="cc")
    with pytest.raises(ValueError):
        random_system(QQ, 1, 1, 0, random.Random(0), require="canonical")
    with pytest.raises(ValueError, match="^unknown requirement 'cc!'$"):
        random_system(QQ, 1, 1, 1, random.Random(0), require="cc!")


# -- classify's Krylov walk against the full-matrix referee ------------------


def assert_ranks_match_full_matrices(s):
    cls = classify(s)
    assert cls.rank_c == rank(controllability_matrix(s))
    assert cls.rank_o == rank(controllability_matrix(dualize(s)))
    return cls


def hidden_block_system(field, m, n, p, r, kind, rng):
    """A random system whose last ``n - r`` coordinates are unreachable
    (``kind="c"``: A block upper triangular, B zero below row r) or
    unobservable (``kind="o"``: A block lower triangular, C zero right of
    column r), hidden by a unimodular base change."""
    s = random_system(field, m, n, p, rng)
    a, b, c = s.A.to_rows(), s.B.to_rows(), s.C.to_rows()
    for i in range(r, n):
        for j in range(r):
            if kind == "c":
                a[i][j] = field.zero
            else:
                a[j][i] = field.zero
        if kind == "c":
            b[i] = [field.zero] * m
        else:
            for row in c:
                row[i] = field.zero
    blocked = LinearSystem(
        Matrix.from_rows(field, a, cols=n),
        Matrix.from_rows(field, b, cols=m),
        Matrix.from_rows(field, c, cols=n),
    )
    return act(unimodular(field, n, rng), blocked)


def test_classify_ranks_match_full_matrices_on_f2_sweep(f2_sweep):
    for s, _ in f2_sweep:
        assert_ranks_match_full_matrices(s)


def test_classify_ranks_match_full_matrices_on_random_systems():
    rng = random.Random(71)
    for field in (QQ, F5):
        for n in range(0, 9):
            for m in range(1, 4):
                p = rng.randint(0, 3)
                assert_ranks_match_full_matrices(random_system(field, m, n, p, rng))
                if n < 2:
                    continue
                r = rng.randint(1, n - 1)
                cls = assert_ranks_match_full_matrices(hidden_block_system(field, m, n, p, r, "c", rng))
                assert cls.rank_c <= r
                cls = assert_ranks_match_full_matrices(hidden_block_system(field, m, n, p, r, "o", rng))
                assert cls.rank_o <= r


def test_classify_ranks_match_full_matrices_on_tall_columns():
    # a column taller than ceil(n/m) makes the walk eliminate more than once
    rng = random.Random(72)
    tall = 0
    for field in (F2, F5, QQ):
        for m in range(2, 4):
            for n in range(2, 6):
                for code in all_codes(m, n):
                    if max(code.column_heights) <= -(-n // m):
                        continue
                    p = rng.randint(1, 2)
                    c = random_system(field, 1, n, p, rng).C
                    s = system_from_cell(multiindex_from_code(code), m, n, field, C=c)
                    assert assert_ranks_match_full_matrices(s).cc
                    assert_ranks_match_full_matrices(act(unimodular(field, n, rng), s))
                    tall += 1
    assert tall > 0
