"""The scalar contract and the coercion boundary.

Over Q a scalar is an ``int`` when it is integral on entry and a
``Fraction`` otherwise; ``0`` and ``1`` serve every field.  Only data
from outside the library passes through ``Field.coerce``.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from moduli_sys.counting import census_cc
from moduli_sys.grassmann import locus_membership, moduli_point, stratum_point
from moduli_sys.kalman import canonical_form, kalman_code
from moduli_sys.linalg import Field, Matrix, charpoly, hstack, kernel_basis
from moduli_sys.quiver import QuiverRep, is_simple, subrep_dimvectors, subrep_dimvectors_by_enumeration
from moduli_sys.realization import MarkovSequence, realize, verify_realization
from moduli_sys.system import (
    LinearSystem,
    _krylov_pivots,
    classify,
    markov_parameters,
    random_system,
    system_from_json,
    system_to_json,
)

from helpers import is_canonical_rational

QQ = Field.rationals()
F5 = Field.prime(5)

Q_SYSTEM = {
    "field": "Q", "m": 2, "n": 3, "p": 1,
    "A": ["1/2", "1", "1", "-1", "-1", "-1", "2", "1", "-2"],
    "B": ["-2", "-1", "2", "-2", "0", "-2"],
    "C": ["0", "1", "-3/2"],
}
F5_SYSTEM = {
    "field": {"Fp": 5}, "m": 2, "n": 3, "p": 1,
    "A": [1, 1, 3, 2, 0, 4, 2, 0, 2], "B": [4, 2, 4, 1, 3, 3], "C": [4, 2, 3],
}
F2_SYSTEM = {
    "field": {"Fp": 2}, "m": 1, "n": 3, "p": 1,
    "A": [1, 0, 0, 1, 1, 0, 0, 0, 1], "B": [1, 1, 1], "C": [0, 0, 0],
}


def all_int(values) -> bool:
    return all(type(x) is int for x in values)


# -- the scalar contract ------------------------------------------------------


def test_integral_rationals_are_int():
    for value in ("4/2", 3, Fraction(6, 3), "-7", Fraction(0)):
        assert type(QQ.coerce(value)) is int
    assert QQ.coerce("4/2") == 2 and QQ.coerce(Fraction(6, 3)) == 2
    assert QQ.coerce("1/2") == Fraction(1, 2) and type(QQ.coerce("2/4")) is Fraction
    for field in (QQ, F5, Field.prime(2)):
        assert type(field.zero) is int and field.zero == 0
        assert type(field.one) is int and field.one == 1


def test_coerce_refuses_a_vanishing_denominator_in_either_form():
    message = "^scalar '1/5' has no value in F5: its denominator vanishes$"
    for value in ("1/5", Fraction(1, 5)):
        with pytest.raises(ValueError, match=message):
            F5.coerce(value)
    with pytest.raises(ValueError, match="^scalar '3/10' has no value in F5"):
        F5.coerce(Fraction(3, 10))
    for field in (QQ, F5):
        with pytest.raises(ValueError, match=f"^scalar '1/0' has no value in {field}: its denominator vanishes$"):
            field.coerce("1/0")
    assert F5.coerce(Fraction(10, 5)) == 2 and F5.coerce(Fraction(1, 2)) == 3
    # a string, a Decimal and the argument of inv are read as the same exact fraction:
    # refused when q divides its denominator in lowest terms, and not truncated
    F3 = Field.prime(3)
    assert [F3.coerce(s) for s in ("6/3", "3/3", "0/3")] == [F3.coerce(Fraction(6, 3)), 1, 0]
    assert F5.coerce("5/10") == F5.coerce(Fraction(1, 2))
    with pytest.raises(ValueError, match="^scalar '2/6' has no value in F3: its denominator vanishes$"):
        F3.coerce("2/6")
    assert F5.coerce(Decimal("2.5")) == F5.coerce(Fraction(5, 2)) == 0
    assert [F5.coerce(Decimal(s)) for s in ("7", "-3", "4.0")] == [2, 2, 4]
    for value in (0, 5, -10):
        with pytest.raises(ZeroDivisionError):
            F5.inv(value)
    assert F5.inv(Fraction(1, 2)) == 2


def test_field_inv_over_q_returns_canonical_scalars():
    assert QQ.inv(1) == 1 and type(QQ.inv(1)) is int
    values = [-3, -1, 1, 2, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 3), Fraction(-1, 6)]
    for a in values:
        assert QQ.inv(a) == 1 / Fraction(a) and is_canonical_rational(QQ.inv(a))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_charpoly_over_q_returns_canonical_scalars():
    coeffs = charpoly(Matrix(QQ, 2, 2, (Fraction(1, 2), 0, 0, 2)))
    assert coeffs == (1, Fraction(-5, 2), 1)
    assert type(coeffs[0]) is int and type(coeffs[2]) is int
    rng = random.Random(19)
    for n in range(7):
        for _ in range(10):
            entries = tuple(QQ.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for _ in range(n * n))
            coeffs = charpoly(Matrix(QQ, n, n, entries))
            assert all(is_canonical_rational(c) for c in coeffs), coeffs


def test_integer_systems_stay_int():
    rng = random.Random(21)
    for n in (1, 3, 6):
        s = random_system(QQ, 2, n, 2, rng)
        assert all_int(s.A.entries + s.B.entries + s.C.entries)
        assert all_int(_krylov_pivots(s.A, s.B)[1].entries)
        assert all(all_int(blk.entries) for blk in markov_parameters(s, 2 * n + 1))
        assert all_int(charpoly(s.A))


def test_int_and_fraction_scalars_are_indistinguishable():
    holding_fraction = Matrix(QQ, 1, 2, (Fraction(2), Fraction(-1, 3)))
    holding_int = Matrix(QQ, 1, 2, (2, Fraction(-1, 3)))
    assert holding_fraction == holding_int
    assert hash(holding_fraction) == hash(holding_int)
    assert str(holding_fraction) == str(holding_int)
    systems = [
        LinearSystem(Matrix(QQ, 1, 1, (x,)), Matrix(QQ, 1, 1, (1,)),
                     holding.transpose())
        for x, holding in ((Fraction(2), holding_fraction), (2, holding_int))
    ]
    assert systems[0] == systems[1]
    assert system_to_json(systems[0]) == system_to_json(systems[1])


# -- the coercion boundary ----------------------------------------------------


def refuse_coerce(monkeypatch):
    """From here on, any call of ``Field.coerce`` fails the test."""

    def refuse(self, value):
        raise AssertionError(f"Field.coerce reached with {value!r}")

    monkeypatch.setattr(Field, "coerce", refuse)


@pytest.mark.parametrize("payload", [Q_SYSTEM, F5_SYSTEM], ids=["Q", "F5"])
def test_pipeline_coerces_only_its_input(payload, monkeypatch):
    system = system_from_json(payload)
    refuse_coerce(monkeypatch)
    assert classify(system).canonical
    assert is_simple(QuiverRep.of(system))
    code = kalman_code(system)
    _, canon = canonical_form(system)
    assert kalman_code(canon) == code
    moduli_point(system)
    big = stratum_point(system)
    assert locus_membership(big, system.m, system.p).in_cc
    assert big.padded(2) == big
    relations = kernel_basis(hstack([system.B, system.C.transpose(), system.A]))
    assert relations.rows == system.m + system.p
    seq = MarkovSequence.from_system(system, 2 * system.n + 2)
    real = realize(seq)
    assert real.n == system.n and verify_realization(real, seq)


def test_census_and_oracle_coerce_nothing(monkeypatch):
    system = system_from_json(F2_SYSTEM)
    refuse_coerce(monkeypatch)
    assert subrep_dimvectors_by_enumeration(QuiverRep.of(system)) == subrep_dimvectors(QuiverRep.of(system))
    assert census_cc(1, 2, 1, 3, mode="canonical-forms").match
