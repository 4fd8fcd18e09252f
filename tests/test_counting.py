"""Point-count formulas, q-binomials and the census referee."""

import itertools
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from moduli_sys.counting import (
    CSV_HEADER,
    DEFAULT_CENSUS_BOUND,
    census_cc,
    census_co,
    census_csv,
    count_cc_formula,
    count_co_formula,
    gl_order,
    q_binomial,
    series_identity_check,
    _batched_rank_modq,
    _inverse_table,
    _cc_pair_count,
)
from moduli_sys.errors import CensusTooLarge
from moduli_sys.linalg import Field, Matrix, rank
from moduli_sys.system import LinearSystem, all_systems, classify

from helpers import reference_batched_rank_modq, reference_cc_pair_count


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
                    # the explicit product, not q_binomial: the library computes the formula through it
                    product = Fraction(q ** (n * (p + 1)))
                    for i in range(1, n + 1):
                        product *= Fraction(q ** (m + i - 1) - 1, q ** i - 1)
                    assert count_cc_formula(m, n, p, q) == product


def test_batched_rank_against_scalar_rank():
    rng = np.random.default_rng(0)
    for q in (2, 3, 5):
        field = Field.prime(q)
        for rows, cols in ((1, 1), (2, 3), (3, 2), (3, 6), (2, 4)):
            batch = rng.integers(0, q, size=(200, rows, cols))
            got = _batched_rank_modq(batch, q, _inverse_table(q))
            for mat, expected in zip(batch, got):
                m = Matrix.from_rows(field, mat.tolist())
                assert rank(m) == expected


LARGEST_CENSUS_PRIME = 1048573  # the largest prime below the census modulus cap


def _rank_test_batch(rng, q, count, rows, cols):
    """Uniform matrices, almost all of full rank, then products of thin factors of every inner size."""
    uniform = rng.integers(0, q, size=(count, rows, cols))
    thin = [
        np.matmul(rng.integers(0, q, size=(count, rows, k)), rng.integers(0, q, size=(count, k, cols))) % q
        for k in range(min(rows, cols))
    ]
    return np.concatenate([uniform] + thin)


@pytest.mark.parametrize("q", [2, 3, 5, 7, LARGEST_CENSUS_PRIME])
def test_batched_rank_against_referee_kernel(q):
    rng = np.random.default_rng(q)
    field = Field.prime(q)
    inv = _inverse_table(q)
    for rows, cols in ((0, 3), (3, 0), (1, 1), (3, 5), (4, 16), (16, 4), (1, 64)):
        batch = _rank_test_batch(rng, q, 40, rows, cols)
        got = _batched_rank_modq(batch, q, inv)
        assert got.tolist() == reference_batched_rank_modq(batch, q).tolist(), (q, rows, cols)
        for mat, expected in zip(batch[::10], got[::10]):
            assert rank(Matrix.from_rows(field, mat.tolist(), cols=cols)) == expected
        if min(rows, cols):
            # a rank-deficient share, not only full-rank matrices
            assert (got < min(rows, cols)).sum() >= 40 * min(rows, cols), (q, rows, cols)
    for shape in ((0, 4, 4), (0, 0, 0)):
        assert _batched_rank_modq(np.zeros(shape, dtype=np.int64), q, inv).tolist() == [0] * shape[0]


def test_batched_rank_of_every_4x4_matrix_over_f2():
    idx = np.arange(1 << 16, dtype=np.int64)
    batch = ((idx[:, None] >> np.arange(16)) & 1).reshape(-1, 4, 4)
    got = _batched_rank_modq(batch, 2, _inverse_table(2))
    assert got.tolist() == reference_batched_rank_modq(batch, 2).tolist()
    # |GL_4(F_2)| = 20160 invertible matrices; 2^16 - 20160 singular ones
    assert np.bincount(got).tolist() == [1, 225, 7350, 37800, 20160]


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
    for (m, n, p, q) in [(1, 1, 1, 2), (1, 1, 1, 3), (2, 1, 1, 2), (1, 2, 0, 2), (1, 2, 1, 2),
                         (0, 2, 1, 2), (1, 0, 1, 3), (1, 2, 1, 3), (2, 2, 1, 2),
                         (1, 2, 2, 3), (1, 1, 3, 2), (2, 1, 2, 3)]:
        by_division = census_cc(m, n, p, q)
        by_forms = census_cc(m, n, p, q, mode="canonical-forms")
        assert by_forms.match
        assert by_forms.orbit_count == by_division.orbit_count
        assert by_forms.raw_cc_triples == by_division.raw_cc_triples


def test_census_refuses_pairs_that_are_not_the_orbits_times_gl(monkeypatch):
    from moduli_sys import counting

    # one pair too many in the exhaustive count
    monkeypatch.setattr(counting, "_cc_pair_count", lambda m, n, q: _cc_pair_count(m, n, q) + 1)
    with pytest.raises(ArithmeticError, match=r"^25 cc pairs but 4 orbits over GL of order 6$"):
        census_cc(1, 2, 1, 2)
    # every pair reads the same canonical pair in the canonical-forms mode
    one = next(s for s in all_systems(Field.prime(2), 1, 2, 0) if classify(s).cc)
    monkeypatch.setattr(counting, "all_systems", lambda field, m, n, p: itertools.repeat(one, 2 ** 6))
    with pytest.raises(ArithmeticError, match=r"^64 cc pairs but 1 orbits over GL of order 6$"):
        census_cc(1, 2, 1, 2, mode="canonical-forms")


def test_census_co_small_grid():
    for (m, n, p, q) in [(1, 1, 1, 2), (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 1, 3)]:
        report = census_co(m, n, p, q)
        assert report.match, report
        assert report.orbit_count == census_cc(p, n, m, q).orbit_count


def test_census_co_against_classify():
    # independent of the cc census: count co triples one by one
    for (m, n, p, q) in [(1, 2, 1, 2), (1, 2, 2, 2), (1, 2, 1, 3)]:
        co_triples = sum(classify(s).co for s in all_systems(Field.prime(q), m, n, p))
        assert co_triples % gl_order(n, q) == 0
        orbits = co_triples // gl_order(n, q)
        assert orbits == census_co(m, n, p, q).orbit_count == count_co_formula(m, n, p, q)


def test_census_bound():
    with pytest.raises(CensusTooLarge):
        census_cc(2, 3, 0, 5, bound=10_000)
    with pytest.raises(CensusTooLarge):
        census_cc(1, 1, 1, 2, mode="canonical-forms", bound=3)


def test_census_bound_counts_enumerated_states():
    # (1,1,1,2) enumerates 2^1 matrices B and 1 * 2^1 matrices A
    assert census_cc(1, 1, 1, 2, bound=4).match
    with pytest.raises(CensusTooLarge, match="^4 states exceed the bound 3$"):
        census_cc(1, 1, 1, 2, bound=3)
    # the canonical forms enumerate the 2^(2*3) pairs (A, B), not the 2^(2*13) triples
    assert census_cc(1, 2, 10, 2, mode="canonical-forms").match
    with pytest.raises(CensusTooLarge, match="^64 states exceed the bound 63$"):
        census_cc(1, 2, 10, 2, mode="canonical-forms", bound=63)


def test_census_rejects_negative_dimensions():
    for census in (census_cc, census_co):
        for name, (m, n, p) in (("m", (-1, 1, 1)), ("n", (1, -2, 1)), ("p", (1, 1, -1))):
            with pytest.raises(ValueError, match=f"census dimension {name} must be non-negative"):
                census(m, n, p, 2)


BIG_PRIME = 4294967311  # above the census modulus cap


def _unprintable(power: str, n) -> str:
    return f"{power} = q^(n(n+m+p)) has more than 4300 digits, too many to print the report of n = {n}"


@pytest.mark.parametrize("census, args, kwargs, error, message", [
    # a negative dimension comes first, then primality, the mode, the modulus cap,
    # the printable report and last the bound
    (census_cc, (-1, 1, 1, 4), {"mode": "guess", "bound": 0}, ValueError, "census dimension m must be non-negative"),
    (census_co, (1, 1, -1, 4), {"bound": 0}, ValueError, "census dimension p must be non-negative"),
    (census_cc, (1, 1, 1, 4), {"mode": "guess", "bound": 0}, ValueError, "field modulus must be prime"),
    (census_cc, (1, 1, 1, 2), {"mode": "guess", "bound": 0}, ValueError, "unknown census mode 'guess'"),
    (census_cc, (1, 1, 1, BIG_PRIME), {"bound": 0}, ValueError, f"census modulus {BIG_PRIME} is too large"),
    (census_co, (0, 1, 1, BIG_PRIME), {"bound": 0}, ValueError, f"census modulus {BIG_PRIME} is too large"),
    (census_cc, (2, 4, 0, 3), {}, CensusTooLarge, f"^86100003 states exceed the bound {DEFAULT_CENSUS_BOUND}$"),
    (census_co, (0, 4, 2, 3), {}, CensusTooLarge, f"^86100003 states exceed the bound {DEFAULT_CENSUS_BOUND}$"),
    # without inputs there is no modulus cap: one state, the empty B
    (census_cc, (0, 1, 0, BIG_PRIME), {"bound": 0}, CensusTooLarge, "^1 states exceed the bound 0$"),
    (census_co, (1, 1, 0, BIG_PRIME), {"bound": 0}, CensusTooLarge, "^1 states exceed the bound 0$"),
    # the canonical forms have no modulus cap and count the q^(n(n+m)) pairs they enumerate, n = 0 too
    (census_cc, (1, 1, 1, BIG_PRIME), {"mode": "canonical-forms", "bound": 10 ** 19}, CensusTooLarge,
     f"^{BIG_PRIME ** 2} states exceed the bound {10 ** 19}$"),
    (census_cc, (1, 0, 1, 2), {"mode": "canonical-forms", "bound": 0}, CensusTooLarge, "^1 states exceed the bound 0$"),
    # counts are exact up to 256 bits, then "more than 2^k" with the largest true k
    (census_cc, (17, 15, 0, 2), {"bound": 0}, CensusTooLarge, f"^{2 ** 255 + 15 * 2 ** 225} states exceed the bound 0$"),
    (census_cc, (1, 16, 0, 2), {"bound": 0}, CensusTooLarge, r"^more than 2\^256 states exceed the bound 0$"),
    (census_cc, (31, 31, 0, 2), {"bound": 0}, CensusTooLarge, r"^more than 2\^965 states exceed the bound 0$"),  # 2^966 exactly
    # a cell past both size rules is refused as unprintable, whatever its bound, so its count is never formed
    (census_cc, (1, 120, 0, 2), {}, CensusTooLarge, re.escape(_unprintable("2^(120*121)", 120)) + "$"),
    (census_co, (0, 120, 1, 2), {}, CensusTooLarge, re.escape(_unprintable("2^(120*121)", 120)) + "$"),
    (census_cc, (1, 120, 0, 2), {"mode": "canonical-forms"}, CensusTooLarge,
     re.escape(_unprintable("2^(120*121)", 120)) + "$"),
    (census_cc, (1, 3000, 0, 1048573), {}, CensusTooLarge, re.escape(_unprintable("1048573^(3000*3001)", 3000)) + "$"),
    (census_cc, (1, 1000, 0, 3), {"mode": "canonical-forms"}, CensusTooLarge,
     re.escape(_unprintable("3^(1000*1001)", 1000)) + "$"),
    (census_cc, (1, 300, 0, 3), {"bound": 10 ** 5000}, CensusTooLarge, re.escape(_unprintable("3^(300*301)", 300)) + "$"),
    (census_cc, (1, 3000, 0, 3), {"bound": 10 ** 5000}, CensusTooLarge,
     re.escape(_unprintable("3^(3000*3001)", 3000)) + "$"),
    # a bound past 256 bits is named by the same rule as a count: 10^5000 has 16610 bits
    (census_cc, (1, 2, 0, 3), {"bound": -10 ** 5000}, CensusTooLarge,
     r"^90 states exceed the bound less than -2\^16609$"),
    # a report must print: q^(n(n+m+p)) bounds its numbers and may have at most 4300 digits;
    # an exhaustive m = 0 enumerates one state, and no output map is enumerated
    (census_cc, (0, 120, 0, 2), {}, CensusTooLarge, re.escape(_unprintable("2^(120*120)", 120)) + "$"),
    (census_cc, (0, 119, 0, 3), {}, CensusTooLarge, re.escape(_unprintable("3^(119*119)", 119)) + "$"),
    (census_cc, (1, 1, 100000, 2), {}, CensusTooLarge, re.escape(_unprintable("2^(1*100002)", 1)) + "$"),
    (census_co, (100000, 1, 1, 2), {}, CensusTooLarge, re.escape(_unprintable("2^(1*100002)", 1)) + "$"),
    (census_cc, (0, 20000, 0, 2), {}, CensusTooLarge, re.escape(_unprintable("2^(20000*20000)", 20000)) + "$"),
    # the 2^14520 triples pass a bound of 10^5000 but have 4371 digits
    (census_cc, (1, 120, 0, 2), {"mode": "canonical-forms", "bound": 10 ** 5000}, CensusTooLarge,
     re.escape(_unprintable("2^(120*121)", 120)) + "$"),
    # a printable count past 256 bits over a bound past 256 bits: 2^40 + 2^1600 states, 10^300 has 997 bits
    (census_cc, (1, 40, 0, 2), {"bound": 10 ** 300}, CensusTooLarge,
     r"^more than 2\^1600 states exceed the bound more than 2\^996$"),
    # a huge n is named by its bit length, as str() refuses ints past 4300 digits
    (census_cc, (1, 10 ** 2200, 0, 2), {}, CensusTooLarge,
     re.escape(_unprintable("2^(more than 2^7308*more than 2^7308)", "more than 2^7308")) + "$"),
    (census_cc, (1, 10 ** 4300 - 1, 0, 2), {}, CensusTooLarge,
     re.escape(_unprintable("2^(more than 2^14284*more than 2^14284)", "more than 2^14284")) + "$"),
    # the canonical forms count 64 pairs, within the default bound that their 2^26 triples
    # would exceed, so this cell reaches the work
    (census_cc, (1, 2, 10, 2), {"mode": "canonical-forms"}, AssertionError, "^a refused cell reached the work$"),
])
def test_census_refusals_come_in_order_before_any_work(census, args, kwargs, error, message, monkeypatch):
    from moduli_sys import counting

    def no_work(*_):
        raise AssertionError("a refused cell reached the work")

    for name in ("gl_order", "count_cc_formula", "_cc_pair_count", "all_systems"):
        monkeypatch.setattr(counting, name, no_work)
    start = time.monotonic()
    with pytest.raises(error, match=message):
        census(*args, **kwargs)
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("mode", ["exhaustive", "canonical-forms"])
def test_census_admits_every_printable_cell_at_its_triple_count(mode, monkeypatch):
    # the state count is computed only for printable cells, so it must never pass
    # q^(n(n+m+p)): with that bound every cell that prints reaches the work
    from moduli_sys import counting

    class Work(Exception):
        pass

    def work(*_):
        raise Work

    for name in ("gl_order", "count_cc_formula", "_cc_pair_count", "all_systems"):
        monkeypatch.setattr(counting, name, work)
    cells = [(m, n, p, q) for m in range(4) for p in range(4) for n in range(9) for q in (2, 3, 1048573)]
    cells += [(0, 119, 0, 2), (1, 119, 0, 2)]  # the last printable n over F_2; n = 120 is refused above
    for m, n, p, q in cells:
        with pytest.raises(Work):
            census_cc(m, n, p, q, mode=mode, bound=q ** (n * (n + m + p)))


def test_exhaustive_census_never_refuses_n_zero():
    for m, p in ((0, 0), (2, 1), (1, 3)):
        for q in (2, BIG_PRIME):
            for bound in (-1, 0):
                assert census_cc(m, 0, p, q, bound=bound).csv_row() == f"{m},0,{p},{q},1,1,1,1,true"
                assert census_co(m, 0, p, q, bound=bound).csv_row() == f"{m},0,{p},{q},1,1,1,1,true"


def test_census_mode_validation():
    with pytest.raises(ValueError):
        census_cc(1, 1, 1, 2, mode="guess")
    with pytest.raises(ValueError):
        census_cc(1, 1, 1, 4)


def test_census_modulus_cap():
    from moduli_sys.counting import _MAX_CENSUS_MODULUS

    for q in (1048583, 4294967311):  # primes above the cap
        for census in (census_cc, census_co):
            with pytest.raises(ValueError, match=str(_MAX_CENSUS_MODULUS)):
                census(1, 1, 1, q, bound=10 ** 20)
    assert census_cc(1, 0, 0, 1048573).match  # the largest prime below the cap
    # cells that never reach the int64 kernel keep working above the cap
    assert census_cc(1, 0, 0, 1048583).match
    assert census_cc(0, 1, 0, 1048583, bound=10 ** 20).orbit_count == 0


# The (m, n, q) pair counts behind criterion 1: census_cc reads (m, n, q)
# and census_co the dual (p, n, q).
CRITERION_1_PAIR_CELLS = sorted(
    {(k, n, q) for k in (0, 1, 2) for n in (0, 1, 2) for q in (2, 3, 5)}
    | {(k, 3, 2) for k in (0, 1, 2)}
)


def test_pair_count_against_full_pair_enumeration():
    for m, n, q in CRITERION_1_PAIR_CELLS + [(1, 3, 3), (3, 3, 2)]:
        assert _cc_pair_count(m, n, q) == reference_cc_pair_count(m, n, q), (m, n, q)


def test_pair_count_builds_one_inverse_table(monkeypatch):
    from moduli_sys import counting

    builds = []
    monkeypatch.setattr(counting, "_inverse_table", lambda q: builds.append(q) or _inverse_table(q))
    monkeypatch.setattr(counting, "_CHUNK", 8)  # 11 chunks in each of the three passes
    assert counting._cc_pair_count.__wrapped__(2, 2, 3) == reference_cc_pair_count(2, 2, 3)
    assert builds == [3]


def test_controllability_depends_on_b_only_through_its_rank():
    # the invariance step of the rank-stratified census, with the scalar classify
    for m, n, q in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        field = Field.prime(q)
        no_output = Matrix.zeros(field, 0, n)
        all_a = [Matrix(field, n, n, e) for e in itertools.product(range(q), repeat=n * n)]

        def cc_count(b):
            return sum(classify(LinearSystem(a, b, no_output)).cc for a in all_a)

        by_rank = {
            r: cc_count(Matrix(field, n, m, tuple(int(i == j < r) for i in range(n) for j in range(m))))
            for r in range(min(n, m) + 1)
        }
        for entries in itertools.product(range(q), repeat=n * m):
            b = Matrix(field, n, m, entries)
            assert cc_count(b) == by_rank[rank(b)], (m, n, q, entries)


def test_census_cells_beyond_full_pair_enumeration():
    # cells a full (A, B) enumeration cannot afford: 2^24 pairs for (2,4,0,2) alone, 3^15 for (2,3,1,3)
    for m, n, p, q in [(2, 4, 0, 2), (2, 3, 1, 3), (3, 3, 1, 3)]:
        cc = census_cc(m, n, p, q)
        assert cc.match and cc.formula_value == count_cc_formula(m, n, p, q), cc
        co = census_co(m, n, p, q)
        assert co.match and co.formula_value == count_co_formula(m, n, p, q), co


@pytest.mark.parametrize("function, args, message", [
    (gl_order, (-2, 3), "n must be non-negative, got -2"),
    (count_cc_formula, (0, -1, 1, 2), "n must be non-negative, got -1"),
    (count_cc_formula, (1, 1, -3, 2), "p must be non-negative, got -3"),
    (count_co_formula, (-1, 1, 3, 2), "m must be non-negative, got -1"),  # named before m and p swap
    (series_identity_check, (1, 1, 2, -1), "terms must be non-negative, got -1"),
    (series_identity_check, (1, -3, 2, 2), "p must be non-negative, got -3"),
], ids=["gl-order-n", "cc-n", "cc-p", "co-m", "series-terms", "series-p"])
def test_formulas_refuse_negative_sizes(function, args, message):
    # each used to return a wrong value, such as 1, 0 or the float 0.25
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


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


def test_pair_count_cache_is_bounded():
    from moduli_sys import counting

    info = counting._cc_pair_count.cache_info()
    assert info.maxsize == counting._PAIR_COUNT_CACHE_SIZE == 1 << 16
    for q in (2, 3):
        census_cc(1, 1, 1, q)
    assert 0 < counting._cc_pair_count.cache_info().currsize <= info.maxsize
