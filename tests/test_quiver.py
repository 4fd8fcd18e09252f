"""Quiver view: the rank verdicts against the subspace enumeration referee."""

import random

import pytest

from moduli_sys.counting import q_binomial
from moduli_sys.errors import NonzeroThetaAlpha, OracleTooLarge
from moduli_sys.linalg import Field, Matrix, rank
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
    subrep_dimvectors_by_enumeration,
)
from moduli_sys.system import LinearSystem, act, all_systems, classify, controllability_matrix, dualize, random_system

from helpers import from_cols, semistable_by_definition, stable_by_definition, unimodular

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


def test_oracle_guards(monkeypatch):
    import moduli_sys.quiver as quiver

    def no_enumeration(*_):
        raise AssertionError("a refused system reached the enumeration")

    monkeypatch.setattr(quiver, "iter_subspace_bases", no_enumeration)
    # the bound counts subspaces, not vectors: F_2^8 has 256 vectors and 417 199 subspaces
    for field, n, subspaces in ((F2, 8, 417199), (F3, 6, 56632)):
        rep = QuiverRep.of(random_system(field, 1, n, 1, random.Random(n)))
        with pytest.raises(OracleTooLarge, match=f"^{subspaces} subspaces of F_{field.q}\\^{n} exceed the limit 32768$"):
            subrep_dimvectors_by_enumeration(rep)
    monkeypatch.undo()
    # F_3^5, the largest space over F_3 the bound admits, has 2 664 subspaces
    rep = QuiverRep.of(random_system(F3, 1, 5, 1, random.Random(5)))
    assert subrep_dimvectors_by_enumeration(rep) == subrep_dimvectors(rep)
    with pytest.raises(ValueError, match="needs a finite field"):
        subrep_dimvectors_by_enumeration(QuiverRep.of(sys1x1(QQ, 1, 1, 1)))


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
    assert subrep_dimvectors(rep) == expected
    assert subrep_dimvectors_by_enumeration(rep) == expected


def test_modes_agree_exhaustively_f2(f2_sweep):
    # one enumeration per system; every verdict of the rank path is
    # checked against the definition applied to the enumerated set
    for s, cls in f2_sweep:
        rep = QuiverRep.of(s)
        by_oracle = subrep_dimvectors_by_enumeration(rep)
        assert subrep_dimvectors(rep) == by_oracle
        assert is_simple(rep) == cls.canonical == (not by_oracle)
        tp, tm = controllability_weight(s.n), observability_weight(s.n)
        assert is_theta_stable(rep, tp) == cls.cc == stable_by_definition(by_oracle, tp)
        assert is_theta_stable(rep, tm) == cls.co == stable_by_definition(by_oracle, tm)
        # no strictly-semistable boundary for this dimension vector
        assert is_theta_semistable(rep, tp) == is_theta_stable(rep, tp)
        assert is_theta_semistable(rep, tm) == is_theta_stable(rep, tm)
        # every legal weight k * (-n, 1), k = 0 included
        for k in range(-2, 3):
            theta = (-s.n * k, k)
            assert is_theta_stable(rep, theta) == stable_by_definition(by_oracle, theta)
            assert is_theta_semistable(rep, theta) == semistable_by_definition(by_oracle, theta)
        assert is_theta_stable(rep, (0, 0)) == cls.canonical
        assert is_theta_semistable(rep, (0, 0))


def test_modes_agree_with_proper_reachable_and_unobservable_spaces():
    # beyond the n <= 2 sweep: both spaces proper and nonzero, so both
    # quotient computations of the rank path contribute
    rng = random.Random(41)
    for field, n in ((F2, 3), (F2, 4), (F3, 3)):
        found = 0
        while found < 25:
            s = random_system(field, rng.randint(1, 2), n, rng.randint(1, 2), rng)
            rank_c = rank(controllability_matrix(s))
            rank_o = rank(controllability_matrix(dualize(s)))
            if 0 < rank_c < n and 0 < rank_o < n:
                rep = QuiverRep.of(s)
                assert subrep_dimvectors(rep) == subrep_dimvectors_by_enumeration(rep)
                found += 1


def _mixed_degree_cases():
    """Systems with their subrepresentation dimension vectors, built afresh on each call.

    N = span(e2, e3, e4) is unobservable (C = e1^T, first row of A zero
    off the diagonal) and A on N has charpoly (x^2 + x + 1)(x + 1) over
    F_2, so N holds invariant subspaces of dimensions 1, 2 and 3; over
    F_3, A on N = span(e2, e3) has the irreducible charpoly x^2 + 1.
    Each system comes also under a random base change.
    """
    a2 = Matrix.from_rows(F2, [[1, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    a3 = Matrix.from_rows(F3, [[1, 0, 0], [1, 0, 2], [0, 1, 0]])
    cases = [
        (a2, [0, 0, 0, 1], {(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)}),
        (a2, [0, 1, 0, 0], {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}),
        (a3, [0, 1, 0], {(0, 2), (1, 2)}),
    ]
    rng = random.Random(42)
    out = []
    for a, b, expected in cases:
        field, n = a.field, a.rows
        c = Matrix.from_rows(field, [[1] + [0] * (n - 1)])
        s = LinearSystem(field, 1, n, 1, a, from_cols(field, [b], n), c)
        out += [(s, expected), (act(unimodular(field, n, rng), s), expected)]
    return out


def test_modes_agree_on_an_unobservable_space_with_mixed_factor_degrees():
    for s, expected in _mixed_degree_cases():
        rep = QuiverRep.of(s)
        assert subrep_dimvectors(rep) == expected
        assert subrep_dimvectors_by_enumeration(rep) == expected


def test_the_two_deciders_stay_separate(monkeypatch):
    # the rank verdicts never enumerate, and the referee never walks;
    # every system is built afresh, so none keeps a walk from earlier
    import moduli_sys.quiver as quiver
    import moduli_sys.system as system

    def systems():
        return [s for s, _ in _mixed_degree_cases()] + list(all_systems(F2, 1, 2, 1))

    def refuse(*_):
        raise AssertionError("a decider reached the other one's code")

    monkeypatch.setattr(system, "_krylov_pivots", refuse)
    by_enumeration = [subrep_dimvectors_by_enumeration(QuiverRep.of(s)) for s in systems()]
    monkeypatch.undo()
    monkeypatch.setattr(quiver, "iter_subspace_bases", refuse)
    for s, subreps in zip(systems(), by_enumeration):
        rep = QuiverRep.of(s)
        assert subrep_dimvectors(rep) == subreps
        assert is_simple(rep) == (not subreps)
        for theta in (controllability_weight(s.n), observability_weight(s.n)):
            assert is_theta_stable(rep, theta) == stable_by_definition(subreps, theta)
            assert is_theta_semistable(rep, theta) == semistable_by_definition(subreps, theta)


def test_simple_iff_canonical_random_rationals():
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 3)
        n = rng.randint(0, 4)
        p = rng.randint(0, 2)
        s = random_system(QQ, m, n, p, rng, bound=2)
        assert is_simple(QuiverRep.of(s)) == classify(s).canonical
