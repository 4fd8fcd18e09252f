"""Kalman codes, the multi-index bijection, and canonical forms."""

import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from moduli_sys import system as system_module
from moduli_sys.counting import census_cc
from moduli_sys.errors import InvalidMultiIndex, NotControllable
from moduli_sys.grassmann import moduli_point, stratum_point, system_from_cell
from moduli_sys.kalman import (
    KalmanCode,
    MultiIndex,
    _code,
    all_codes,
    canonical_form,
    code_from_multiindex,
    kalman_code,
    multiindex_from_code,
)
from moduli_sys.linalg import Field, Matrix, charpoly, pivot_columns
from moduli_sys.system import LinearSystem, act, all_systems, controllability_matrix, markov_parameters, random_system

from helpers import col_list, from_cols, reference_new_direction_walk, unimodular

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def assert_canonical_structure(code: KalmanCode, canon: LinearSystem):
    """Entry-wise checks of the pinned columns of B' and A'."""
    f = canon.field
    n = canon.n
    prefixes = code.height_prefixes
    for t, j in enumerate(code.occupied_columns):
        col = col_list(canon.B, j - 1)
        expected = [f.one if r == prefixes[t] else f.zero for r in range(n)]
        assert col == expected, f"B column {j} not pinned"
    ends = set(prefixes[1:])
    for i in range(1, n + 1):
        if i in ends:
            continue
        col = col_list(canon.A, i - 1)
        expected = [f.one if r == i else f.zero for r in range(n)]
        assert col == expected, f"A column {i} not pinned"


# -- codes -------------------------------------------------------------------

def test_code_validation():
    KalmanCode(2, 2, frozenset({(0, 1), (1, 1)}))
    with pytest.raises(ValueError):
        KalmanCode(2, 2, frozenset({(1, 1)}))  # wrong count
    with pytest.raises(ValueError):
        KalmanCode(2, 2, frozenset({(1, 1), (0, 2)}))  # not top-justified
    with pytest.raises(ValueError):
        KalmanCode(2, 1, frozenset({(0, 3)}))  # column out of range


def test_code_single_input():
    rng = random.Random(0)
    s = random_system(QQ, 1, 3, 1, rng, require="cc")
    code = kalman_code(s)
    assert code.occupied_columns == (1,)
    assert code.column_heights == (3,)
    assert code.height_prefixes == (0, 3)


def test_code_first_nonzero_column():
    s = LinearSystem(
        Matrix.from_rows(QQ, [[5]]),
        Matrix.from_rows(QQ, [[0, 7]]),
        Matrix.zeros(QQ, 0, 1),
    )
    assert kalman_code(s).black == frozenset({(0, 2)})


def test_code_identity_b():
    s = LinearSystem(
        Matrix.zeros(QQ, 2, 2),
        Matrix.identity(QQ, 2),
        Matrix.zeros(QQ, 0, 2),
    )
    code = kalman_code(s)
    assert code.black == frozenset({(0, 1), (0, 2)})
    assert code.column_heights == (1, 1)


def test_code_not_controllable():
    s = LinearSystem(
        Matrix.identity(QQ, 2),
        Matrix.zeros(QQ, 2, 1),
        Matrix.zeros(QQ, 0, 2),
    )
    with pytest.raises(NotControllable):
        kalman_code(s)


def test_code_orbit_invariance():
    rng = random.Random(4)
    for field in (QQ, F3):
        for _ in range(20):
            n = rng.randint(1, 3)
            s = random_system(field, 2, n, 1, rng, require="cc")
            g = unimodular(field, n, rng)
            assert kalman_code(act(g, s)) == kalman_code(s)


def test_ascii_art_and_json():
    code = KalmanCode(3, 3, frozenset({(0, 1), (1, 1), (0, 3)}))
    assert code.ascii_art() == "#.#\n#..\n..."
    assert code.to_json() == {"m": 3, "n": 3, "occupied_columns": [1, 3], "column_heights": [2, 1]}
    # the JSON names the code: its occupied columns and their heights rebuild it
    for m in range(1, 4):
        for n in range(4):
            for code in all_codes(m, n):
                doc = code.to_json()
                assert _code(doc["m"], doc["n"], doc["occupied_columns"], doc["column_heights"]) == code


def test_codes_refuse_floats_and_booleans():
    with pytest.raises(ValueError, match="must be an integer"):
        KalmanCode(2, 1, frozenset({(0, 1.0)}))
    with pytest.raises(ValueError, match="must be an integer"):
        KalmanCode(2, 1, frozenset({(True, 1)}))
    with pytest.raises(ValueError, match="must be an integer"):
        MultiIndex((1.9,))
    # non-integral numbers are refused too, not truncated
    for value in (Fraction(5, 2), Decimal("2.5")):
        with pytest.raises(ValueError, match="must be an integer"):
            MultiIndex((value,))
        with pytest.raises(ValueError, match="must be an integer"):
            KalmanCode(2, 1, frozenset({(0, value)}))
    # integral numbers and the decimal strings of JSON stay accepted
    assert MultiIndex((Fraction(4, 2), Decimal(3), "4")).values == (2, 3, 4)
    assert KalmanCode(2, 1, frozenset({("0", Fraction(2))})).black == frozenset({(0, 2)})


# -- multi-index bijection ----------------------------------------------------

def test_all_codes_refuses_a_negative_size():
    with pytest.raises(ValueError, match="^n must be non-negative, got -1$"):
        list(all_codes(2, -1))  # it used to yield nothing


@pytest.mark.parametrize("build, message", [
    (lambda: KalmanCode(-1, 0, frozenset()), "m must be non-negative, got -1"),  # its ascii_art printed (empty)
    (lambda: MultiIndex((), ambient=-1), "ambient must be non-negative, got -1"),
    (lambda: all_systems(Field.prime(2), -1, 1, 0), "m must be non-negative, got -1"),  # was an entry count
], ids=["kalman-code", "multi-index", "all-systems"])
def test_constructors_refuse_a_negative_size(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        next(iter(build()))


def test_multiindex_examples():
    single = KalmanCode(1, 3, frozenset({(0, 1), (1, 1), (2, 1)}))
    assert list(multiindex_from_code(single)) == [1, 2, 3]

    one_box = KalmanCode(2, 1, frozenset({(0, 2)}))
    assert list(multiindex_from_code(one_box)) == [2]

    assert code_from_multiindex(MultiIndex((1, 2, 3)), 1, 3) == single
    assert code_from_multiindex(MultiIndex((2,)), 2, 1) == one_box


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex((2, 1))
    with pytest.raises(ValueError):
        MultiIndex((0, 1))
    with pytest.raises(ValueError):
        MultiIndex((1, 5), ambient=4)


def test_code_from_multiindex_errors():
    with pytest.raises(InvalidMultiIndex):
        code_from_multiindex(MultiIndex((1,)), 2, 2)  # wrong size
    with pytest.raises(InvalidMultiIndex):
        code_from_multiindex(MultiIndex((3,)), 2, 1)  # out of range
    with pytest.raises(InvalidMultiIndex):
        code_from_multiindex(MultiIndex((2, 3)), 1, 2)  # no column <= m
    with pytest.raises(InvalidMultiIndex, match="^0 small entries cannot carry 1 column heights$"):
        code_from_multiindex((2, 2), 1, 2)  # a repeated entry, which a MultiIndex refuses


def test_bijection_exhaustive():
    import itertools

    for m in range(1, 5):
        for n in range(0, 5):
            codes = list(all_codes(m, n))
            assert len(codes) == math.comb(m + n - 1, n)
            seen = set()
            for code in codes:
                idx = multiindex_from_code(code)
                assert code_from_multiindex(idx, m, n) == code
                seen.add(tuple(idx))
            assert len(seen) == len(codes)
            # and conversely every n-subset of {1..m+n-1} is hit
            universe = set(
                tuple(sorted(c)) for c in itertools.combinations(range(1, m + n), n)
            )
            assert seen == universe


# -- canonical form ------------------------------------------------------------

def test_canonical_form_single_input_companion():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 4)
        s = random_system(QQ, 1, n, 1, rng, require="cc")
        g, canon = canonical_form(s)
        assert act(g, s) == canon
        assert col_list(canon.B, 0) == [QQ.one] + [QQ.zero] * (n - 1)
        coeffs = charpoly(s.A)
        last = col_list(canon.A, n - 1)
        assert last == [-coeffs[n - k] for k in range(n)]
        for i in range(1, n):
            col = col_list(canon.A, i - 1)
            assert col == [QQ.one if r == i else QQ.zero for r in range(n)]


def test_canonical_form_fixed_point_and_idempotence():
    rng = random.Random(10)
    for field in (QQ, F5):
        for _ in range(15):
            n = rng.randint(0, 3)
            s = random_system(field, 2, n, 1, rng, require="cc")
            g, canon = canonical_form(s)
            assert act(g, s) == canon
            g2, canon2 = canonical_form(canon)
            assert g2 == Matrix.identity(field, n)
            assert canon2 == canon


def test_canonical_form_structure_and_orbit_invariance():
    rng = random.Random(11)
    for field in (QQ, F3):
        for _ in range(15):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            p = rng.randint(0, 2)
            s = random_system(field, m, n, p, rng, require="cc")
            code = kalman_code(s)
            g, canon = canonical_form(s)
            assert_canonical_structure(code, canon)
            assert canon.C == s.C @ (Matrix.identity(field, n) if n == 0 else _inv(g))
            for _ in range(3):
                h = unimodular(field, n, rng)
                _, canon_h = canonical_form(act(h, s))
                assert canon_h == canon


def _inv(g):
    from moduli_sys.linalg import inverse

    return inverse(g)


def test_equivalence_iff_equal_canonical_forms():
    rng = random.Random(12)
    s = random_system(QQ, 2, 3, 1, rng, require="cc")
    t = act(unimodular(QQ, 3, rng), s)
    _, canon_s = canonical_form(s)
    _, canon_t = canonical_form(t)
    assert canon_s == canon_t

    other = random_system(QQ, 2, 3, 1, rng, require="cc")
    if markov_parameters(other, 7) != markov_parameters(s, 7):
        _, canon_o = canonical_form(other)
        assert canon_o != canon_s


def test_canonical_form_n0():
    s = LinearSystem(Matrix.zeros(QQ, 0, 0),
                     Matrix.zeros(QQ, 0, 2),
                     Matrix.zeros(QQ, 1, 0))
    g, canon = canonical_form(s)
    assert g.rows == 0 and canon == s
    assert kalman_code(s).black == frozenset()
    assert list(multiindex_from_code(kalman_code(s))) == []


# -- the Krylov-pivot walk against the column-by-column walk -----------------


def assert_walk_matches_reference(system: LinearSystem):
    """Same black boxes, same vectors and the same canonical form as the reference walk.

    Below full rank the boxes and vectors are the pivot columns of the
    whole Krylov matrix, and the code and the canonical form refuse.
    """
    try:
        vectors = reference_new_direction_walk(system)
    except NotControllable:
        krylov = controllability_matrix(system)
        pivots = pivot_columns(krylov)
        assert system._walk == (tuple((c // system.m, c % system.m + 1) for c in pivots), krylov.columns_at(pivots))
        with pytest.raises(NotControllable):
            kalman_code(system)
        with pytest.raises(NotControllable):
            canonical_form(system)
        return
    black, basis = system._walk
    assert len(black) == basis.cols == system.n and list(black) == sorted(black)
    assert dict(zip(black, (col_list(basis, c) for c in range(basis.cols)))) == vectors
    ordered = [vectors[box] for box in sorted(vectors, key=lambda box: (box[1], box[0]))]
    g = _inv(from_cols(system.field, ordered, system.n))
    assert canonical_form(system) == (g, act(g, system))
    p, canon, g = system._reduction
    assert (g @ system.A @ p, g @ system.B, system.C @ p) == (canon.A, canon.B, canon.C)


def fractional(system: LinearSystem, rng: random.Random) -> LinearSystem:
    """``system`` moved by a rational base change of non-unit determinant, with ``B`` scaled by a fraction.

    The diagonal factor has numerators prime to its denominators 2 and 7,
    so its determinant is never a unit."""
    n = system.n
    scales = [Fraction(rng.choice((1, -1, 3, -5)), rng.choice((2, 7))) for _ in range(n)]
    diag = Matrix(QQ, n, n, tuple(QQ.coerce(scales[i]) if i == j else 0 for i in range(n) for j in range(n)))
    moved = act(diag @ unimodular(QQ, n, rng), system)
    factor = Fraction(rng.choice((2, -3, 5)), rng.choice((3, 4, 7)))
    return dataclasses.replace(moved, B=Matrix(QQ, n, system.m, tuple(QQ.coerce(factor * x) for x in moved.B.entries)))


def uncontrollable(m: int, n: int, p: int, rng: random.Random) -> LinearSystem:
    """A system over ``Q`` whose reachable space lies in the first ``n - 1`` coordinates."""
    s = random_system(QQ, m, n, p, rng)
    a = tuple(0 if k // n == n - 1 and k % n < n - 1 else x for k, x in enumerate(s.A.entries))
    b = tuple(0 if k // m == n - 1 else x for k, x in enumerate(s.B.entries))
    return dataclasses.replace(s, A=Matrix(QQ, n, n, a), B=Matrix(QQ, n, m, b))


def test_walk_matches_reference_on_f2_sweep(f2_sweep):
    for s, _ in f2_sweep:
        assert_walk_matches_reference(s)


def test_walk_matches_reference_on_every_code():
    # system_from_cell realizes each code, so the non-generic ones (some
    # column taller than ceil(n/m)) take the block-growing path
    rng = random.Random(13)
    for field in (F2, F3, QQ):
        for m in range(1, 4):
            for n in range(1, 5):
                for code in all_codes(m, n):
                    s = system_from_cell(multiindex_from_code(code), m, n, field)
                    assert kalman_code(s) == code
                    assert_walk_matches_reference(s)
                    assert_walk_matches_reference(act(unimodular(field, n, rng), s))
        # heights (5, 3) at (m, n) = (3, 8) need three eliminations: 6, 7, then 8 pivots
        code = KalmanCode(3, 8, frozenset([(i, 1) for i in range(5)] + [(i, 2) for i in range(3)]))
        s = act(unimodular(field, 8, rng), system_from_cell(multiindex_from_code(code), 3, 8, field))
        assert kalman_code(s) == code
        assert_walk_matches_reference(s)


def test_walk_matches_reference_on_random_systems():
    rng = random.Random(14)
    for field in (QQ, F5):
        for n in range(0, 11):
            for _ in range(4):
                m, p = rng.randint(1, 3), rng.randint(0, 2)
                assert_walk_matches_reference(random_system(field, m, n, p, rng))
    # over Q the walk scales A and B to integers and divides its pivot
    # columns back, so the entries must carry denominators here
    for n in (2, 3, 6, 10):
        for _ in range(4):
            m, p = rng.randint(1, 3), rng.randint(0, 2)
            for s in (random_system(QQ, m, n, p, rng), uncontrollable(m, n, p, rng)):
                s = fractional(s, rng)
                assert any(isinstance(x, Fraction) for x in s.A.entries + s.B.entries)
                assert_walk_matches_reference(s)


def test_canonical_system_is_read_off_without_inverting(monkeypatch):
    # the canonical system and g = P^-1 come from one reduction of
    # [P | B | A P_tops | I], whose right block is the only identity a system
    # builds on the canonical and embedding paths (inverse(M) would build
    # Matrix.identity for solve_right(M, I)), and the census walks once per
    # pair (A, B), not once per triple
    blocks, right_blocks, walks = [], [], []
    identity, eliminate, walk = Matrix.identity.__func__, system_module._eliminate, system_module._krylov_pivots

    def recording(field, grid, ncols, reduced):
        if reduced:
            right_blocks.append([row[ncols - len(grid):] for row in grid])
        return eliminate(field, grid, ncols, reduced)

    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, f, n: blocks.append(n) or identity(cls, f, n)))
    monkeypatch.setattr(system_module, "_eliminate", recording)
    monkeypatch.setattr(system_module, "_krylov_pivots", lambda f, n, m, a, b: walks.append(m) or walk(f, n, m, a, b))
    rng = random.Random(15)
    for field in (QQ, F2, F5):
        s = random_system(field, 2, 4, 1, rng, require="cc")
        blocks.clear()
        right_blocks.clear()
        assert moduli_point(s).k == 4
        assert stratum_point(s).stratum == 4
        g, canon = canonical_form(s)
        assert blocks == []
        assert right_blocks == [[[int(r == k) for k in range(4)] for r in range(4)]]
        assert g @ s.A @ s._reduction[0] == canon.A
    walks.clear()
    assert census_cc(1, 2, 1, 3, mode="canonical-forms").match
    assert len(walks) == 3 ** (2 * (2 + 1))


def test_canonical_form_reduces_the_chain_basis_once(monkeypatch):
    # g is the right block of the one reduction that reads off the canonical
    # system, and every later reader of that reduction finds it kept
    from moduli_sys import linalg

    calls = []
    eliminate = linalg._eliminate
    for module in (linalg, system_module):  # the walk and the reduction call it from system
        monkeypatch.setattr(module, "_eliminate", lambda *args: calls.append(args[3]) or eliminate(*args))
    rng = random.Random(16)
    for field in (QQ, F5):
        for m, n in ((1, 2), (2, 4), (3, 6)):
            s = random_system(field, m, n, 1, rng, require="cc")
            calls.clear()
            g, canon = canonical_form(s)
            assert calls.count(True) == 1
            calls.clear()
            assert canonical_form(s) == (g, canon) and kalman_code(s).n == n
            assert calls == []
            basis, kept, kept_g = s._reduction
            assert kept is canon and kept_g is g
            assert g @ basis == Matrix.identity(field, n) == basis @ g
