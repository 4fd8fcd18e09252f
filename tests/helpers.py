"""Shared test utilities: generators and independent oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from moduli_sys.linalg import Field, Matrix, rank
from moduli_sys.realization import HankelRankProfile, NotStabilized, hankel
from moduli_sys.system import LinearSystem, all_systems


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


def all_f2_matrices(max_rows: int = 3, max_cols: int = 3):
    field = Field.prime(2)
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for bits in itertools.product((0, 1), repeat=r * c):
                yield Matrix(field, r, c, bits)


def reference_realizability_order(seq):
    """The order certification scan with one elimination per inspected H_ij."""
    L = len(seq)
    if L < 2:
        raise ValueError("need at least two blocks to certify anything")
    cache = {}

    def rk(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = rank(hankel(seq, i, j))
        return cache[(i, j)]

    for r in range(1, L - 1):
        for s in range(1, L - r):
            base = rk(r, s)
            if all(rk(r + 1, s + j) == base for j in range(1, L - r - s + 1)):
                ranks = tuple(sorted((i, j, v) for (i, j), v in cache.items()))
                return HankelRankProfile(r=r, s=s, order=base, ranks=ranks)
    ranks = tuple(sorted((i, j, v) for (i, j), v in cache.items()))
    return NotStabilized(window=L, ranks=ranks)
