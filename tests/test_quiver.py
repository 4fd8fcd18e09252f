"""Quiver view: simplicity and stability against the subspace oracle."""

import random

import pytest

from moduli_sys.counting import q_binomial
from moduli_sys.errors import NonzeroThetaAlpha, OracleTooLarge
from moduli_sys.linalg import Field, Matrix
from moduli_sys.quiver import (
    QuiverRep,
    controllability_weight,
    euler_dimension,
    is_simple,
    is_theta_semistable,
    is_theta_stable,
    iter_subspace_bases,
    observability_weight,
    subrep_dimvectors,
)
from moduli_sys.system import LinearSystem, classify, random_system

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def sys1x1(field, a, b, c):
    return LinearSystem(
        field, 1, 1, 1,
        Matrix.from_rows(field, [[a]]),
        Matrix.from_rows(field, [[b]]),
        Matrix.from_rows(field, [[c]]),
    )


def test_euler_dimension_grid():
    assert euler_dimension(1, 1, 1) == 2
    assert euler_dimension(2, 3, 1) == 9
    for m in range(4):
        for p in range(4):
            for n in range(5):
                assert euler_dimension(m, n, p) == (m + p) * n
    assert euler_dimension(2, 0, 2) == 0


def test_weights_and_pairings():
    assert controllability_weight(3) == (-3, 1)
    assert observability_weight(3) == (3, -1)
    n = 3
    tp = controllability_weight(n)
    tm = observability_weight(n)
    for l in range(1, n + 1):
        assert tp[0] * 0 + tp[1] * l == l > 0
        assert tp[0] * 1 + tp[1] * l == l - n
        assert tm[0] * 0 + tm[1] * l == -l < 0
    assert tp[0] * 1 + tp[1] * n == 0  # pairs to zero on the full vector


def test_subrep_examples():
    canonical = QuiverRep.of(sys1x1(QQ, 2, 1, 3))
    assert subrep_dimvectors(canonical) == frozenset()

    no_input = QuiverRep.of(sys1x1(QQ, 1, 0, 1))
    assert (1, 0) in subrep_dimvectors(no_input)

    no_output = QuiverRep.of(sys1x1(QQ, 1, 1, 0))
    assert (0, 1) in subrep_dimvectors(no_output)


def test_simple_examples():
    assert is_simple(QuiverRep.of(sys1x1(QQ, 2, 1, 3)))
    assert not is_simple(QuiverRep.of(sys1x1(QQ, 2, 0, 3)))


def test_theta_examples():
    cc_only = LinearSystem(
        QQ, 1, 1, 1,
        Matrix.from_rows(QQ, [[2]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[0]]),
    )
    rep = QuiverRep.of(cc_only)
    assert is_theta_stable(rep, controllability_weight(1))
    assert not is_theta_stable(rep, observability_weight(1))

    not_cc = QuiverRep.of(sys1x1(QQ, 2, 0, 1))
    assert not is_theta_stable(not_cc, controllability_weight(1))

    with pytest.raises(NonzeroThetaAlpha):
        is_theta_stable(rep, (1, 1))


def test_oracle_guards():
    rep = QuiverRep.of(sys1x1(F2, 1, 1, 1))
    with pytest.raises(OracleTooLarge):
        subrep_dimvectors(rep, mode="oracle", limit=1)
    with pytest.raises(ValueError):
        subrep_dimvectors(QuiverRep.of(sys1x1(QQ, 1, 1, 1)), mode="oracle")
    with pytest.raises(ValueError):
        subrep_dimvectors(rep, mode="nonsense")


def test_subspace_enumeration_counts():
    for q, n in ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)):
        field = Field.prime(q)
        count = sum(1 for _ in iter_subspace_bases(field, n))
        assert count == sum(q_binomial(n, k, q) for k in range(n + 1))


def test_rank_mode_is_exact_not_an_interval():
    # A acts irreducibly on F_2^2, so with B = 0 and C = 0 the only
    # subrepresentation dimensions are (1,0) and (0,2); in particular
    # (1,1) and (0,1) must NOT be reported.
    a = Matrix.from_rows(F2, [[0, 1], [1, 1]])
    s = LinearSystem(F2, 1, 2, 1, a, Matrix.zeros(F2, 2, 1), Matrix.zeros(F2, 1, 2))
    rep = QuiverRep.of(s)
    expected = frozenset({(1, 0), (0, 2)})
    assert subrep_dimvectors(rep, mode="rank") == expected
    assert subrep_dimvectors(rep, mode="oracle") == expected


def test_modes_agree_exhaustively_f2(f2_sweep):
    for s, cls in f2_sweep:
        rep = QuiverRep.of(s)
        by_rank = subrep_dimvectors(rep, mode="rank")
        by_oracle = subrep_dimvectors(rep, mode="oracle")
        assert by_rank == by_oracle
        assert is_simple(rep) == cls.canonical
        tp, tm = controllability_weight(s.n), observability_weight(s.n)
        assert is_theta_stable(rep, tp) == cls.cc
        assert is_theta_stable(rep, tm) == cls.co
        assert is_theta_stable(rep, tp, mode="oracle") == cls.cc
        assert is_theta_stable(rep, tm, mode="oracle") == cls.co
        # no strictly-semistable boundary for this dimension vector
        assert is_theta_semistable(rep, tp) == is_theta_stable(rep, tp)
        assert is_theta_semistable(rep, tm) == is_theta_stable(rep, tm)


def test_simple_iff_canonical_random_rationals():
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 3)
        n = rng.randint(0, 4)
        p = rng.randint(0, 2)
        s = random_system(QQ, m, n, p, rng, bound=2)
        assert is_simple(QuiverRep.of(s)) == classify(s).canonical


def test_factor_cache_is_bounded(monkeypatch):
    from moduli_sys import quiver

    assert quiver._FACTOR_CACHE_SIZE == 2 ** 16
    monkeypatch.setattr(quiver, "_FACTOR_CACHE_SIZE", 3)
    monkeypatch.setattr(quiver, "_FACTOR_CACHE", {})
    ops = [Matrix.from_rows(QQ, [[k, 0], [1, k]]) for k in range(6)]
    first = [quiver._invariant_subspace_dims(op) for op in ops]
    assert len(quiver._FACTOR_CACHE) == 3
    # the three newest keys stay; evicted ones are recomputed to the same value
    assert [(None, (1, -2 * k, k * k)) for k in range(3, 6)] == list(quiver._FACTOR_CACHE)
    assert [quiver._invariant_subspace_dims(op) for op in ops] == first
    assert len(quiver._FACTOR_CACHE) == 3
