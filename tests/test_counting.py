"""Point-count formulas, q-binomials and the census referee."""

import random
from fractions import Fraction

import numpy as np
import pytest

from moduli_sys.counting import (
    CSV_HEADER,
    census_cc,
    census_co,
    census_csv,
    count_cc_formula,
    count_co_formula,
    gl_order,
    q_binomial,
    series_identity_check,
    _batched_rank_modq,
)
from moduli_sys.errors import CensusTooLarge
from moduli_sys.linalg import Field, Matrix, rank


def test_gl_order():
    assert gl_order(0, 5) == 1
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == (8 - 1) * (8 - 2) * (8 - 4)


def test_q_binomial():
    assert q_binomial(2, 1, 2) == 3
    assert q_binomial(7, 0, 3) == 1
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(4, 2, 3) == 130
    with pytest.raises(ValueError):
        q_binomial(2, 3, 2)
    # symmetry and exactness against a Fraction evaluation
    for a in range(7):
        for b in range(a + 1):
            for q in (2, 3, 5):
                direct = Fraction(1)
                for i in range(1, b + 1):
                    direct *= Fraction(q ** (a - b + i) - 1, q ** i - 1)
                assert q_binomial(a, b, q) == direct
                assert q_binomial(a, b, q) == q_binomial(a, a - b, q)


def test_count_formulas():
    assert count_cc_formula(1, 1, 1, 2) == 4
    assert count_cc_formula(2, 1, 0, 2) == 6
    assert count_cc_formula(1, 0, 1, 7) == 1
    assert count_cc_formula(1, 2, 0, 2) == 4
    assert count_cc_formula(0, 2, 1, 3) == 0  # no inputs, no cc systems
    assert count_co_formula(0, 1, 2, 3) == 12
    for m in range(0, 4):
        for n in range(0, 4):
            for p in range(0, 4):
                for q in (2, 3):
                    assert count_co_formula(m, n, p, q) == count_cc_formula(p, n, m, q)
                    if m >= 1:
                        assert count_cc_formula(m, n, p, q) == q ** (n * (p + 1)) * q_binomial(m + n - 1, n, q)


def test_batched_rank_against_scalar_rank():
    rng = np.random.default_rng(0)
    for q in (2, 3, 5):
        field = Field.prime(q)
        for rows, cols in ((1, 1), (2, 3), (3, 2), (3, 6), (2, 4)):
            batch = rng.integers(0, q, size=(200, rows, cols))
            got = _batched_rank_modq(batch, q)
            for mat, expected in zip(batch, got):
                m = Matrix.from_rows(field, mat.tolist())
                assert rank(m) == expected


def test_census_cc_small_grid():
    for (m, n, p, q) in [
        (1, 1, 1, 2), (2, 1, 0, 2), (1, 2, 0, 2), (1, 2, 1, 3), (2, 2, 1, 2),
        (1, 0, 2, 5),
    ]:
        report = census_cc(m, n, p, q)
        assert report.match, report
        assert report.orbit_count * report.gl_order == report.raw_cc_triples
        assert report.formula_value == count_cc_formula(m, n, p, q)


def test_census_canonical_forms_mode():
    for (m, n, p, q) in [(1, 1, 1, 2), (1, 1, 1, 3), (2, 1, 1, 2), (1, 2, 0, 2), (1, 2, 1, 2)]:
        by_division = census_cc(m, n, p, q)
        by_forms = census_cc(m, n, p, q, mode="canonical-forms")
        assert by_forms.match
        assert by_forms.orbit_count == by_division.orbit_count
        assert by_forms.raw_cc_triples == by_division.raw_cc_triples


def test_census_co_small_grid():
    for (m, n, p, q) in [(1, 1, 1, 2), (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 1, 3)]:
        report = census_co(m, n, p, q)
        assert report.match, report
        assert report.orbit_count == census_cc(p, n, m, q).orbit_count


def test_census_bound():
    with pytest.raises(CensusTooLarge):
        census_cc(2, 3, 0, 5, bound=10_000)
    with pytest.raises(CensusTooLarge):
        census_cc(1, 1, 1, 2, mode="canonical-forms", bound=4)


def test_census_mode_validation():
    with pytest.raises(ValueError):
        census_cc(1, 1, 1, 2, mode="guess")
    with pytest.raises(ValueError):
        census_cc(1, 1, 1, 4)


def test_series_identity():
    assert series_identity_check(1, 0, 2, 5)
    assert series_identity_check(2, 1, 3, 6)
    assert series_identity_check(3, 2, 2, 8)
    assert series_identity_check(2, 0, 5, 0)  # constant terms always agree


def test_csv_format():
    reports = [census_cc(1, n, 1, 2) for n in range(3)]
    text = census_csv(reports)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,0,1,2,1,1,1,1,true"
    assert all(line.endswith("true") for line in lines[1:])


def test_env_bound_override(monkeypatch):
    monkeypatch.setenv("MODULI_SYS_CENSUS_BOUND", "3")
    with pytest.raises(CensusTooLarge):
        census_cc(1, 1, 1, 2)
    monkeypatch.delenv("MODULI_SYS_CENSUS_BOUND")
    assert census_cc(1, 1, 1, 2).match


def test_pair_count_cache_is_bounded():
    from moduli_sys import counting

    info = counting._cc_pair_count.cache_info()
    assert info.maxsize == counting._PAIR_COUNT_CACHE_SIZE == 1 << 16
    for q in (2, 3):
        census_cc(1, 1, 1, q)
    assert 0 < counting._cc_pair_count.cache_info().currsize <= info.maxsize
