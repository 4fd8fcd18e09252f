"""Hankel matrices, order certification, Ho-Kalman realization."""

import random

import pytest

from moduli_sys.errors import (
    InconsistentData,
    InsufficientData,
    NotStabilizedError,
    ShapeMismatch,
)
from moduli_sys.kalman import canonical_form
from moduli_sys.linalg import Field, Matrix, rank
from moduli_sys.realization import (
    HankelRankProfile,
    MarkovSequence,
    NotStabilized,
    _realize_at,
    hankel,
    realizability_order,
    realize,
    verify_realization,
)
from moduli_sys.system import LinearSystem, all_systems, classify, random_system

QQ = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)


def scalar_seq(values, field=QQ):
    return MarkovSequence.from_scalars(field, values)


def test_hankel_examples():
    seq = scalar_seq([1, 1, 1])
    h = hankel(seq, 2, 2)
    assert h.to_rows() == [[1, 1], [1, 1]]
    assert rank(h) == 1

    seq = scalar_seq([1, 2, 4])
    h = hankel(seq, 2, 2)
    assert h.to_rows() == [[1, 2], [2, 4]]
    assert rank(h) == 1

    zeros = scalar_seq([0, 0, 0, 0])
    for i, j in ((1, 1), (2, 2), (1, 3)):
        assert hankel(zeros, i, j).is_zero()

    with pytest.raises(InsufficientData):
        hankel(scalar_seq([1, 2]), 2, 2)
    with pytest.raises(ValueError):
        hankel(scalar_seq([1, 2]), 0, 1)


def test_hankel_block_layout():
    blocks = [Matrix.from_rows(QQ, [[j], [10 * j]]) for j in (1, 2, 3)]
    seq = MarkovSequence(QQ, 1, 2, tuple(blocks))
    h = hankel(seq, 2, 2)
    assert h.to_rows() == [[1, 2], [10, 20], [2, 3], [20, 30]]


def test_realizability_order_examples():
    prof = realizability_order(scalar_seq([1, 1, 1, 1]))
    assert isinstance(prof, HankelRankProfile)
    assert (prof.r, prof.s, prof.order) == (1, 1, 1)

    prof = realizability_order(scalar_seq([0, 0, 0, 0]))
    assert prof.order == 0

    prof = realizability_order(scalar_seq([1, 1, 2, 3, 5, 8]))
    assert prof.order == 2
    assert prof.rank_table()[(prof.r, prof.s)] == 2


def test_realizability_not_stabilized():
    verdict = realizability_order(scalar_seq([1, 2]))
    assert isinstance(verdict, NotStabilized)
    assert verdict.window == 2
    with pytest.raises(ValueError):
        realizability_order(scalar_seq([1]))
    with pytest.raises(NotStabilizedError):
        realize(scalar_seq([1, 2]))


def test_realize_constant_and_geometric():
    system = realize(scalar_seq([1, 1, 1, 1]))
    assert system.n == 1
    assert verify_realization(system, scalar_seq([1, 1, 1, 1]))
    reference = LinearSystem(
        QQ, 1, 1, 1,
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
    )
    assert canonical_form(system)[1] == canonical_form(reference)[1]

    system = realize(scalar_seq([1, 2, 4, 8]))
    assert system.n == 1
    reference = LinearSystem(
        QQ, 1, 1, 1,
        Matrix.from_rows(QQ, [[2]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
    )
    assert canonical_form(system)[1] == canonical_form(reference)[1]


def test_realize_fibonacci():
    seq = scalar_seq([1, 1, 2, 3, 5, 8])
    system = realize(seq)
    assert system.n == 2
    assert classify(system).canonical
    assert verify_realization(system, seq)


def test_realize_zero_sequence():
    system = realize(scalar_seq([0, 0, 0, 0]))
    assert system.n == 0
    assert verify_realization(system, scalar_seq([0, 0, 0, 0]))


def test_realize_output_is_canonical_round_trip():
    rng = random.Random(21)
    for field in (QQ, F5):
        for _ in range(40):
            n = rng.randint(0, 3)
            m = rng.randint(1, 2)
            p = rng.randint(1, 2)
            original = random_system(field, m, n, p, rng, require="canonical")
            seq = MarkovSequence.from_system(original, max(2 * n + 1, 3))
            realized = realize(seq)
            assert realized.n == n
            assert classify(realized).canonical
            assert verify_realization(realized, seq)
            if n > 0:
                assert canonical_form(realized)[1] == canonical_form(original)[1]


def test_realize_matrix_blocks():
    rng = random.Random(22)
    original = random_system(QQ, 2, 3, 2, rng, require="canonical")
    seq = MarkovSequence.from_system(original, 7)
    realized = realize(seq)
    assert realized.n == 3
    assert verify_realization(realized, seq)
    assert canonical_form(realized)[1] == canonical_form(original)[1]


def test_minimality_exhaustive_f2():
    # no F_2 system of state dimension < 2 reproduces these order-2 windows
    rng = random.Random(23)
    instances = []
    while len(instances) < 2:
        s = random_system(F2, 1, 2, 1, rng, require="canonical")
        instances.append(MarkovSequence.from_system(s, 5))
    for seq in instances:
        assert realize(seq).n == 2
        for n_small in (0, 1):
            for candidate in all_systems(F2, 1, n_small, 1):
                assert not verify_realization(candidate, seq)


def test_inconsistent_data():
    # (r, s) = (1, 1) sees rank 1, but the tail breaks the recursion
    seq = scalar_seq([1, 1, 1, 5])
    with pytest.raises(InconsistentData):
        _realize_at(seq, 1, 1)


def test_verify_shape_mismatch():
    system = LinearSystem(
        QQ, 1, 1, 1,
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
    )
    with pytest.raises(ShapeMismatch):
        verify_realization(system, MarkovSequence(QQ, 2, 1, (Matrix.from_rows(QQ, [[1, 1]]),)))
    assert not verify_realization(system, scalar_seq([1, 2]))


def test_equivalent_systems_verify_the_same_sequence():
    from moduli_sys.system import act

    from helpers import unimodular

    rng = random.Random(25)
    s = random_system(QQ, 2, 3, 1, rng, require="canonical")
    seq = MarkovSequence.from_system(s, 7)
    for _ in range(5):
        moved = act(unimodular(QQ, 3, rng), s)
        assert verify_realization(moved, seq)


def test_markov_sequence_json_roundtrip():
    rng = random.Random(24)
    s = random_system(F5, 2, 2, 1, rng)
    seq = MarkovSequence.from_system(s, 5)
    assert MarkovSequence.from_json(seq.to_json()) == seq


def test_realizability_order_matches_reference_scan():
    # the prefix-count certification against one elimination per inspected H_ij
    from helpers import reference_realizability_order

    rng = random.Random(26)
    verdicts = {HankelRankProfile: 0, NotStabilized: 0}
    random_windows = []

    def check(seq):
        got = realizability_order(seq)
        assert got == reference_realizability_order(seq), seq
        verdicts[type(got)] += 1
        return got

    for field in (QQ, F2, F5):
        for m in (1, 2, 3):
            for p in (1, 2, 3):
                for n in range(5):
                    require = rng.choice(("any", "canonical"))
                    system = random_system(field, m, n, p, rng, require=require)
                    exact = max(2 * n + 1, 2)
                    for window in (exact, exact + rng.randint(1, 3)):
                        check(MarkovSequence.from_system(system, window))
                for window in (2, 3, 5):
                    zero = Matrix.zeros(field, p, m)
                    check(MarkovSequence(field, m, p, (zero,) * window))
                for window in (2, 3, 4):
                    blocks = tuple(
                        Matrix(field, p, m, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(p * m)))
                        for _ in range(window)
                    )
                    random_windows.append(check(MarkovSequence(field, m, p, blocks)))
    assert verdicts[HankelRankProfile] > 0 and verdicts[NotStabilized] > 0
    # random short windows are mostly not realizable inside the window
    unstable = sum(isinstance(v, NotStabilized) for v in random_windows)
    assert unstable >= 2 * len(random_windows) // 3
