"""Shared test utilities: generators and independent oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random

import numpy as np

from moduli_sys.counting import _digit_matrices
from moduli_sys.errors import InconsistentData, NotControllable
from moduli_sys.linalg import Field, Matrix, inverse, rank, rref_with_pivots
from moduli_sys.realization import HankelRankProfile, NotStabilized, hankel
from moduli_sys.system import LinearSystem, all_systems, markov_parameters


def unimodular(field: Field, n: int, rng: Random, bound: int = 2) -> Matrix:
    """Random invertible matrix, built as L @ U with unit diagonals."""
    def entry():
        if field.q is None:
            return Fraction(rng.randint(-bound, bound))
        return rng.randrange(field.q)

    lower = [[field.one if i == j else (entry() if i > j else field.zero) for j in range(n)] for i in range(n)]
    upper = [[field.one if i == j else (entry() if i < j else field.zero) for j in range(n)] for i in range(n)]
    l_mat = Matrix.from_rows(field, lower, cols=n)
    u_mat = Matrix.from_rows(field, upper, cols=n)
    return l_mat @ u_mat


def sweep_shapes(n_max: int = 2, ms=(1, 2), ps=(0, 1, 2)):
    return [(m, n, p) for n in range(n_max + 1) for m in ms for p in ps]


def f2_systems(shapes) -> list[LinearSystem]:
    field = Field.prime(2)
    out = []
    for m, n, p in shapes:
        out.extend(all_systems(field, m, n, p))
    return out


# -- independent oracles ----------------------------------------------------


def span_rank_oracle(matrix: Matrix) -> int:
    """Rank by brute force: enumerate the whole row span and count it."""
    q = matrix.field.q
    assert q is not None, "span oracle needs a finite field"
    rows = matrix.to_rows()
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        vec = tuple(
            sum(c * row[k] for c, row in zip(coeffs, rows)) % q
            for k in range(matrix.cols)
        )
        span.add(vec)
    size = len(span)
    r = 0
    while q ** r < size:
        r += 1
    assert q ** r == size, "span size must be a power of q"
    return r


def gauss_rank_oracle(grid: list, q: int) -> int:
    """Textbook recursive elimination, structured differently on purpose."""
    grid = [row[:] for row in grid if any(x % q for x in row)]
    if not grid:
        return 0
    pi = pj = None
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            if x % q:
                pi, pj = i, j
                break
        if pi is not None:
            break
    inv = pow(grid[pi][pj], q - 2, q)
    reduced = []
    for i, row in enumerate(grid):
        if i == pi:
            continue
        factor = (row[pj] * inv) % q
        reduced.append([
            (row[k] - factor * grid[pi][k]) % q for k in range(len(row)) if k != pj
        ])
    return 1 + gauss_rank_oracle(reduced, q)


def leibniz_det(matrix: Matrix):
    """Determinant by the permutation-sum formula."""
    f = matrix.field
    n = matrix.rows
    assert matrix.cols == n
    total = f.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = f.one
        for i in range(n):
            term = f.mul(term, matrix.entry(i, perm[i]))
        total = f.add(total, term if sign > 0 else f.neg(term))
    return total


# Fraction-only referees: plain lists of rows, no library linear algebra.


def fraction_rref(rows: list) -> tuple[list, list]:
    """Reduced row-echelon form (``Fraction`` rows) and pivot columns, by textbook Gauss-Jordan."""
    grid = [[Fraction(x) for x in row] for row in rows]
    ncols = len(grid[0]) if grid else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(grid)) if grid[i][c] != 0), None)
        if found is None:
            continue
        grid[r], grid[found] = grid[found], grid[r]
        lead = grid[r][c]
        grid[r] = [x / lead for x in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c] != 0:
                factor = grid[i][c]
                grid[i] = [x - factor * y for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
    return grid, pivots


def fraction_rank(rows: list) -> int:
    return len(fraction_rref(rows)[1])


def fraction_det(rows: list) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        ((-1) ** j * Fraction(rows[0][j]) * fraction_det([row[:j] + row[j + 1:] for row in rows[1:]])
         for j in range(len(rows)) if rows[0][j] != 0),
        Fraction(0),
    )


def fraction_product(a: list, b: list, cols: int) -> list:
    """``a @ b`` for row lists, ``b`` with ``cols`` columns, one ``Fraction`` sum per entry."""
    return [[sum((Fraction(x) * row_b[j] for x, row_b in zip(row, b)), Fraction(0)) for j in range(cols)] for row in a]


def is_canonical_rational(x) -> bool:
    """An ``int`` when integral, a ``Fraction`` otherwise: the scalar format over ``Q``."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def all_f2_matrices(max_rows: int = 3, max_cols: int = 3):
    field = Field.prime(2)
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for bits in itertools.product((0, 1), repeat=r * c):
                yield Matrix(field, r, c, bits)


def reference_realizability_order(seq):
    """The order certification scan with one elimination per inspected H_ij.

    Over ``Q`` each rank comes from the Fraction-only :func:`fraction_rank`.
    """
    L = len(seq)
    if L < 2:
        raise ValueError("need at least two blocks to certify anything")
    cache = {}

    def rk(i, j):
        if (i, j) not in cache:
            h = hankel(seq, i, j)
            cache[(i, j)] = fraction_rank(h.to_rows()) if seq.field.q is None else rank(h)
        return cache[(i, j)]

    for r in range(1, L - 1):
        for s in range(1, L - r):
            base = rk(r, s)
            if all(rk(r + 1, s + j) == base for j in range(1, L - r - s + 1)):
                ranks = tuple(sorted((i, j, v) for (i, j), v in cache.items()))
                return HankelRankProfile(r=r, s=s, order=base, ranks=ranks)
    ranks = tuple(sorted((i, j, v) for (i, j), v in cache.items()))
    return NotStabilized(window=L, ranks=ranks)


def reference_realize_at(seq, r: int, s: int) -> LinearSystem:
    """Ho-Kalman at (r, s) through ``H_rs``, anchor rows and an inverse.

    Factors ``H_rs = O R`` through its reduced echelon form, solves
    ``O X = H^`` on ``n`` independent rows of ``O`` (found by a second
    elimination, of ``O^T``) and checks the solution on every row, with
    the shifted Hankel matrix ``H^`` built block by block from ``F_(a+b)``.
    """
    f, m, p = seq.field, seq.m, seq.p
    h = hankel(seq, r, s)
    red, pivots = rref_with_pivots(h)
    n = len(pivots)
    obs = h.columns_at(pivots)
    rowspan = red.rows_at(range(n))
    shifted = Matrix.from_rows(f, [
        [x for b in range(s) for x in seq.blocks[a + b + 1].row_list(row)]
        for a in range(r) for row in range(p)
    ], cols=m * s)
    if n == 0:
        a_mat, b_mat, c_mat = Matrix.zeros(f, 0, 0), Matrix.zeros(f, 0, m), Matrix.zeros(f, p, 0)
    else:
        _, anchor = rref_with_pivots(obs.transpose())
        x = inverse(obs.rows_at(anchor)) @ shifted.rows_at(anchor)
        if obs @ x != shifted:
            raise InconsistentData("shift equation O X = H^ has no solution")
        a_mat = x.columns_at(pivots)
        if a_mat @ rowspan != x:
            raise InconsistentData("shift equation A R = X has no solution")
        b_mat = rowspan.columns_at(range(m))
        c_mat = obs.rows_at(range(p))
    system = LinearSystem(f, m, n, p, a_mat, b_mat, c_mat)
    if markov_parameters(system, len(seq)) != list(seq.blocks):
        raise InconsistentData("realized system does not reproduce the data window")
    return system


def reference_new_direction_walk(system: LinearSystem):
    """The Kalman walk column by column: reduce each ``A^i B_j`` against the basis so far."""
    f = system.field
    n, m = system.n, system.m
    black: set[tuple[int, int]] = set()
    vectors: dict[tuple[int, int], list] = {}
    basis: list[list] = []  # forward-eliminated copies, leading entries known

    def try_add(vec: list) -> bool:
        v = list(vec)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if v[lead] != 0:
                factor = f.div(v[lead], b[lead])
                v = [f.sub(x, f.mul(factor, y)) for x, y in zip(v, b)]
        if all(x == 0 for x in v):
            return False
        basis.append(v)
        return True

    block = system.B
    for i in range(n):
        for j in range(1, m + 1):
            col = block.col_list(j - 1)
            if try_add(col):
                black.add((i, j))
                vectors[(i, j)] = col
                if len(black) == n:
                    return black, vectors
        if i + 1 < n:
            block = system.A @ block
    if len(black) < n:
        raise NotControllable(f"controllability rank is {len(black)} < n = {n}")
    return black, vectors


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> np.ndarray:
    """``inv[x] = 1/x mod q`` for ``x`` in ``1..q-1`` (``inv[0] = 0``), one ``pow`` per entry."""
    inv = np.zeros(q, dtype=np.int64)
    for x in range(1, q):
        inv[x] = pow(x, q - 2, q)
    inv.flags.writeable = False
    return inv


def reference_batched_rank_modq(mats: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of a batch of matrices with entries in ``0..q-1``.

    Forward elimination with row swaps on the rows of the batch that
    still have a pivot in the current column, reduced mod q after every
    step: a second batched kernel, independent of the census's own.
    """
    m = np.array(mats, dtype=np.int64, copy=True)
    count, nrows, ncols = m.shape
    ranks = np.zeros(count, dtype=np.int64)
    if count == 0 or nrows == 0 or ncols == 0:
        return ranks
    inv = _inverse_table(q)
    row_ids = np.arange(nrows)
    all_ids = np.arange(count)
    for col in range(ncols):
        active = ranks < nrows
        if not active.any():
            break
        eligible = (row_ids[None, :] >= ranks[:, None]) & (m[:, :, col] != 0)
        eligible &= active[:, None]
        has = eligible.any(axis=1)
        if not has.any():
            continue
        sel = all_ids[has]
        r0 = ranks[has]
        pr = eligible[has].argmax(axis=1)
        top = m[sel, r0, :].copy()
        m[sel, r0, :] = m[sel, pr, :]
        m[sel, pr, :] = top
        piv = m[sel, r0, col]
        m[sel, r0, :] = (m[sel, r0, :] * inv[piv][:, None]) % q
        sub = m[sel]
        pivot_rows = sub[np.arange(len(sel)), r0, :]
        factors = np.where(row_ids[None, :] > r0[:, None], sub[:, :, col], 0)
        m[sel] = (sub - factors[:, :, None] * pivot_rows[:, None, :]) % q
        ranks[has] = r0 + 1
    return ranks


def reference_cc_pair_count(m: int, n: int, q: int) -> int:
    """Controllable (A, B) pairs over F_q, by enumerating every pair at once."""
    states = q ** (n * (n + m))
    count = 0
    for start in range(0, states, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), states), dtype=np.int64)
        a, b = _digit_matrices(idx, q, [(n, n), (n, m)])
        blocks = [b]
        cur = b
        for _ in range(1, n):
            cur = np.matmul(a, cur) % q
            blocks.append(cur)
        ctrb = np.concatenate(blocks, axis=2)
        count += int((reference_batched_rank_modq(ctrb, q) == n).sum())
    return count
