"""Grassmannian points, cells, embeddings and the locus tests."""

import itertools
import random

import pytest

from moduli_sys.errors import DimensionMismatch, NotInLocus, RankDeficient
from moduli_sys.grassmann import (
    GrassmannPoint,
    InfiniteGrassmannPoint,
    locus_membership,
    moduli_point,
    point_from_matrix,
    schubert_cell_of,
    stratum_dimension,
    stratum_point,
    system_from_cell,
)
from moduli_sys.kalman import MultiIndex, kalman_code, multiindex_from_code
from moduli_sys.linalg import Field, Matrix, rank
from moduli_sys.system import LinearSystem, act, classify, random_system

from helpers import col_list, unimodular

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def test_point_from_matrix_examples():
    p = point_from_matrix(Matrix.from_rows(QQ, [[2, 0], [0, 3]]))
    assert p.rep == Matrix.identity(QQ, 2)
    assert list(p.pivots) == [1, 2]

    p = point_from_matrix(Matrix.from_rows(QQ, [[0, 1, 5]]))
    assert p.rep.to_rows() == [[0, 1, 5]]
    assert list(p.pivots) == [2]

    a = point_from_matrix(Matrix.from_rows(QQ, [[1, 1], [0, 1]]))
    b = point_from_matrix(Matrix.identity(QQ, 2))
    assert a == b  # equal row spaces give the identical point

    with pytest.raises(RankDeficient):
        point_from_matrix(Matrix.from_rows(QQ, [[1, 1], [2, 2]]))


def test_schubert_cell_matches_prefix_rank_jumps():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randint(1, 3)
        c = rng.randint(r, 5)
        while True:
            m = Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])
            if rank(m) == r:
                break
        point = point_from_matrix(m)
        cell = list(schubert_cell_of(point))
        jumps = []
        for j in range(1, c + 1):
            prefix = m.columns_at(range(j))
            if rank(prefix) > len(jumps):
                jumps.append(j)
        assert cell == jumps
        # the cell minor is invertible
        assert point.minor(point.pivots) != 0


def test_moduli_point_examples():
    s = LinearSystem(
        QQ, 2, 1, 0,
        Matrix.from_rows(QQ, [[4]]),
        Matrix.from_rows(QQ, [[1, 0]]),
        Matrix.zeros(QQ, 0, 1),
    )
    p = moduli_point(s)
    assert (p.k, p.N) == (1, 2)
    assert p.rep.to_rows() == [[1, 0]]

    rng = random.Random(5)
    s2 = random_system(QQ, 1, 2, 1, rng, require="cc")
    p2 = moduli_point(s2)
    assert (p2.k, p2.N) == (2, 2)
    assert p2.rep == Matrix.identity(QQ, 2)


def test_moduli_point_orbit_invariance():
    rng = random.Random(6)
    for field in (QQ, F3):
        for _ in range(10):
            n = rng.randint(1, 3)
            s = random_system(field, 2, n, 1, rng, require="cc")
            g = unimodular(field, n, rng)
            assert moduli_point(act(g, s)) == moduli_point(s)


def test_moduli_point_requires_cc_and_positive_n():
    bad = LinearSystem(QQ, 1, 1, 0,
                       Matrix.from_rows(QQ, [[1]]),
                       Matrix.zeros(QQ, 1, 1),
                       Matrix.zeros(QQ, 0, 1))
    from moduli_sys.errors import NotControllable

    with pytest.raises(NotControllable):
        moduli_point(bad)
    empty = LinearSystem(QQ, 1, 0, 0,
                         Matrix.zeros(QQ, 0, 0),
                         Matrix.zeros(QQ, 0, 1),
                         Matrix.zeros(QQ, 0, 0))
    with pytest.raises(ValueError):
        moduli_point(empty)


def test_cell_of_moduli_point_matches_code(f2_sweep):
    for s, cls in f2_sweep:
        if cls.cc and s.n >= 1:
            assert schubert_cell_of(moduli_point(s)) == multiindex_from_code(kalman_code(s))


def test_system_from_cell_surjectivity():
    for field in (F2, QQ):
        for m in range(1, 4):
            for n in range(1, 4):
                for values in itertools.combinations(range(1, m + n), n):
                    idx = MultiIndex(values, ambient=m + n - 1)
                    s = system_from_cell(idx, m, n, field)
                    assert classify(s).cc
                    assert schubert_cell_of(moduli_point(s)) == idx


def test_system_from_cell_free_values_round_trip():
    # cell {1, 3} for m = 2, n = 2: column 2 is free in row 0
    idx = MultiIndex((1, 3), ambient=3)
    s = system_from_cell(idx, 2, 2, QQ, free_values={(0, 1): 7})
    assert classify(s).cc
    point = moduli_point(s)
    assert schubert_cell_of(point) == idx
    assert point.rep.entry(0, 1) == 7

    with pytest.raises(ValueError):
        system_from_cell(idx, 2, 2, QQ, free_values={(1, 1): 1})  # wrong row
    with pytest.raises(ValueError):
        system_from_cell(idx, 2, 2, QQ, free_values={(0, 0): 1})  # pinned column


def test_system_from_cell_companion_type():
    idx = MultiIndex((1, 2), ambient=2)
    s = system_from_cell(idx, 1, 2, QQ)
    assert col_list(s.B, 0) == [1, 0]
    assert col_list(s.A, 0) == [0, 1]
    assert classify(s).cc


def test_stratum_point_scalar_example():
    a, c = 5, 7
    s = LinearSystem(
        QQ, 1, 1, 1,
        Matrix.from_rows(QQ, [[a]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[c]]),
    )
    big = stratum_point(s)
    assert big.stratum == 1
    assert (big.point.k, big.point.N) == (2, 3)
    # rows span the kernel of [1 c a]
    kernel_vectors = [(-c, 1, 0), (-a, 0, 1)]
    for vec in kernel_vectors:
        stacked = Matrix.from_rows(QQ, big.point.rep.to_rows() + [list(vec)])
        assert rank(stacked) == 2
    # the {2, 3} minor is invertible
    assert big.point.minor(MultiIndex((2, 3))) != 0


def test_stratum_point_n0_full_space():
    s = LinearSystem(QQ, 1, 0, 1,
                     Matrix.zeros(QQ, 0, 0),
                     Matrix.zeros(QQ, 0, 1),
                     Matrix.zeros(QQ, 1, 0))
    big = stratum_point(s)
    assert big.stratum == 0
    assert big.point.rep == Matrix.identity(QQ, 2)
    membership = locus_membership(big, 1, 1)
    assert membership.in_cc and membership.in_co and membership.in_canonical
    assert stratum_dimension(big, 1, 1) == 0


def test_stratum_point_orbit_invariance():
    rng = random.Random(16)
    for field in (QQ, F3):
        for _ in range(8):
            n = rng.randint(1, 3)
            s = random_system(field, 2, n, 1, rng, require="cc")
            g = unimodular(field, n, rng)
            assert stratum_point(act(g, s)) == stratum_point(s)
            assert stratum_point(act(g, s)).point.rep == stratum_point(s).point.rep


def test_stratum_point_rank_deficient():
    s = LinearSystem(QQ, 1, 2, 1,
                     Matrix.zeros(QQ, 2, 2),
                     Matrix.zeros(QQ, 2, 1),
                     Matrix.from_rows(QQ, [[0, 1]]))
    with pytest.raises(RankDeficient):
        stratum_point(s)


def _locus_by_minor_enumeration(point: GrassmannPoint, required: set[int]) -> bool:
    """Referee: search for an invertible minor through the required columns."""
    k, N = point.k, point.N
    required = sorted(required)
    if len(required) > k:
        return False
    others = [c for c in range(1, N + 1) if c not in required]
    for extra in itertools.combinations(others, k - len(required)):
        cols = sorted(required + list(extra))
        if point.minor(cols) != 0:
            return True
    return False


def test_locus_membership_against_minor_enumeration(f2_sweep):
    rng = random.Random(13)
    sampled = [item for item in f2_sweep if item[1].cc]
    rng.shuffle(sampled)
    for s, _ in sampled[:120]:
        big = stratum_point(s)
        membership = locus_membership(big, s.m, s.p)
        n = big.minimal_ambient() - (s.m + s.p)
        req_cc = set(range(s.m + 1, s.m + s.p + 1)) | {s.m + s.p + n}
        req_co = set(range(1, s.m + 1)) | {s.m + s.p + n}
        stripped = InfiniteGrassmannPoint(
            point_from_matrix(big.point.rep.columns_at(range(big.minimal_ambient()))),
            n,
        )
        assert membership.in_cc == _locus_by_minor_enumeration(stripped.point, req_cc)
        assert membership.in_co == _locus_by_minor_enumeration(stripped.point, req_co)


def test_locus_membership_summary(f2_sweep):
    from moduli_sys.system import dualize

    for s, cls in f2_sweep:
        if not cls.cc:
            continue
        big = stratum_point(s)
        membership = locus_membership(big, s.m, s.p)
        assert membership.in_cc
        assert membership.in_canonical == (membership.in_cc and membership.in_co)
        if cls.canonical:
            # the dual class always sits in its own controllable locus
            dual_membership = locus_membership(stratum_point(dualize(s)), s.p, s.m)
            assert dual_membership.in_cc


def test_co_column_test_is_a_dual_side_property():
    # A canonical class whose relation plane has a zero input-block
    # column: no relation among the columns of [B' C'^T A'] involves
    # B', so the {1..m, m+p+n} columns cannot be independent even
    # though the system is canonical.  The co-locus column test
    # characterizes the image of the dual embedding, not of this one.
    a = Matrix.from_rows(F2, [[0, 0], [0, 1]])
    b = Matrix.from_rows(F2, [[1], [1]])
    c = Matrix.from_rows(F2, [[1, 1]])
    s = LinearSystem(F2, 1, 2, 1, a, b, c)
    assert classify(s).canonical
    membership = locus_membership(stratum_point(s), 1, 1)
    assert membership.in_cc
    assert not membership.in_co

    from moduli_sys.system import dualize

    dual_membership = locus_membership(stratum_point(dualize(s)), 1, 1)
    assert dual_membership.in_cc


def test_no_chart_union_decides_co_past_n1(f2_sweep):
    # "Columns S are independent" holds exactly when some Plucker coordinate
    # p_I with I a superset of S is nonzero, so every column test on the
    # relation plane is a union of charts.  F is the set of charts whose
    # minor vanishes on every cc system that is not co: the largest union
    # that never accepts such a system.  Over F_2, F decides co at
    # (1,1,1) only (notes/decisions.md).
    expected = {  # shape: (cc systems, co among them, F, does F decide co)
        (1, 1, 1): (4, 2, {(1, 3)}, True),
        (1, 2, 1): (96, 48, set(), False),
        (2, 2, 1): (672, 288, set(), False),
        (1, 2, 2): (384, 288, {(1, 4, 5)}, False),
    }
    for (m, n, p), (cc_count, co_count, charts, decides) in expected.items():
        subsets = list(itertools.combinations(range(1, m + p + n + 1), m + p))
        nonzero = {True: [], False: []}  # per system, its charts with a nonzero minor, keyed by co
        for s, cls in f2_sweep:
            if s.shape() == (m, n, p) and cls.cc:
                point = stratum_point(s).point
                nonzero[cls.co].append({idx for idx in subsets if point.minor(idx) != 0})
        assert (len(nonzero[True]) + len(nonzero[False]), len(nonzero[True])) == (cc_count, co_count)
        union = set(subsets).difference(*nonzero[False])
        assert union == charts, (m, n, p)
        assert all(found & union for found in nonzero[True]) == decides, (m, n, p)


def test_locus_membership_zero_columns_false():
    rep = Matrix.from_rows(QQ, [[1, 0, 0, 1], [0, 0, 1, 0]])
    point = InfiniteGrassmannPoint(point_from_matrix(rep), 2)
    membership = locus_membership(point, 1, 1)
    assert not membership.in_cc  # column m+1 = 2 is zero


def test_locus_dimension_mismatch():
    point = stratum_point(random_system(QQ, 1, 1, 1, random.Random(0), require="cc"))
    with pytest.raises(DimensionMismatch):
        locus_membership(point, 2, 2)


def test_stratum_dimension_and_not_in_locus():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(0, 3)
        s = random_system(QQ, 2, n, 1, rng, require="cc")
        big = stratum_point(s)
        assert stratum_dimension(big, 2, 1) == n
        g = unimodular(QQ, n, rng)
        assert stratum_dimension(stratum_point(act(g, s)), 2, 1) == n

    rep = Matrix.from_rows(QQ, [[1, 0, 0, 1], [0, 0, 1, 0]])
    point = InfiniteGrassmannPoint(point_from_matrix(rep), 2)
    with pytest.raises(NotInLocus):
        stratum_dimension(point, 1, 1)


def test_padding_stability():
    rng = random.Random(15)
    s = random_system(QQ, 2, 2, 1, rng, require="canonical")
    big = stratum_point(s)
    padded = big.padded(3)
    assert padded == big  # same subspace up to trailing zeros
    assert hash(padded) == hash(big)
    assert padded.point == point_from_matrix(padded.point.rep)  # still reduced, same pivots
    assert padded.stratum == big.stratum + 3
    m1 = locus_membership(big, 2, 1)
    m2 = locus_membership(padded, 2, 1)
    assert m1 == m2
    assert stratum_dimension(padded, 2, 1) == stratum_dimension(big, 2, 1) == 2


def test_rank_p_plus_one_claim(f2_sweep):
    for s, cls in f2_sweep:
        if not cls.cc:
            continue
        big = stratum_point(s)
        required = sorted(set(range(s.m + 1, s.m + s.p + 1)) | {s.m + s.p + s.n})
        selected = big.point.rep.columns_at([c - 1 for c in required])
        expected = s.p + 1 if s.n >= 1 else len(required)
        assert rank(selected) == expected


def test_grassmann_point_json():
    p = point_from_matrix(Matrix.from_rows(QQ, [[0, 1, 5]]))
    doc = p.to_json()
    assert doc["k"] == 1 and doc["N"] == 3 and doc["pivots"] == [2]
    assert doc["rep"] == ["0", "1", "5"]
