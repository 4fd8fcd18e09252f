"""Shared test utilities: generators and independent oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random

import numpy as np

from moduli_sys.errors import InconsistentData, NotControllable
from moduli_sys.linalg import Field, Matrix
from moduli_sys.realization import HankelRankProfile, NotStabilized
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


def col_list(matrix: Matrix, j: int) -> list:
    """Column ``j`` of a matrix, as a list."""
    return [matrix.entry(i, j) for i in range(matrix.rows)]


def from_cols(field: Field, cols: list, rows: int) -> Matrix:
    """The ``rows``-row matrix whose columns are the given lists."""
    return Matrix.from_rows(field, cols, cols=rows).transpose()


def sweep_shapes(n_max: int = 2, ms=(1, 2), ps=(0, 1, 2)):
    return [(m, n, p) for n in range(n_max + 1) for m in ms for p in ps]


def f2_systems(shapes) -> list[LinearSystem]:
    field = Field.prime(2)
    out = []
    for m, n, p in shapes:
        out.extend(all_systems(field, m, n, p))
    return out


def stable_by_definition(subreps, theta) -> bool:
    """King's definition on an enumerated set: every proper nonzero subrepresentation pairs to > 0."""
    return all(theta[0] * a + theta[1] * l > 0 for a, l in subreps)


def semistable_by_definition(subreps, theta) -> bool:
    """The same, with the pairing allowed to vanish."""
    return all(theta[0] * a + theta[1] * l >= 0 for a, l in subreps)


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


def modq_rref(rows: list, q: int) -> tuple[list, list]:
    """Reduced row-echelon form mod q and its pivot columns, by textbook Gauss-Jordan.

    Each pivot row is divided by its pivot, a Fermat inverse, and then
    subtracted from every other row.
    """
    grid = [[x % q for x in row] for row in rows]
    ncols = len(grid[0]) if grid else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if found is None:
            continue
        grid[r], grid[found] = grid[found], grid[r]
        inv = pow(grid[r][c], q - 2, q)
        grid[r] = [x * inv % q for x in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c]:
                factor = grid[i][c]
                grid[i] = [(x - factor * y) % q for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
    return grid, pivots


def leibniz_det(matrix: Matrix):
    """Determinant by the permutation-sum formula, reduced mod ``q`` over ``F_q``."""
    q, n = matrix.field.q, matrix.rows
    assert matrix.cols == n
    rows = matrix.to_rows()
    total = 0
    for perm in itertools.permutations(range(n)):
        term = -1 if sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 else 1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total += term
    return total % q if q is not None else total


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


def modq_product(a: list, b: list, cols: int, q: int) -> list:
    """``a @ b`` mod ``q`` for row lists, ``b`` with ``cols`` columns, one reduced sum per entry."""
    return [[sum(x * row_b[j] for x, row_b in zip(row, b)) % q for j in range(cols)] for row in a]


def exact_product(a: list, b: list, cols: int, q) -> list:
    """:func:`fraction_product` over ``Q`` (``q is None``), :func:`modq_product` over ``F_q``."""
    return fraction_product(a, b, cols) if q is None else modq_product(a, b, cols, q)


def is_canonical_rational(x) -> bool:
    """An ``int`` when integral, a ``Fraction`` otherwise: the scalar format over ``Q``."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def all_f2_matrices(max_rows: int = 3, max_cols: int = 3):
    field = Field.prime(2)
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for bits in itertools.product((0, 1), repeat=r * c):
                yield Matrix(field, r, c, bits)


def hankel_rows(seq, i: int, j: int, shift: int = 0) -> list:
    """The rows of the block Hankel matrix with block (a, b) equal to ``F_(a+b-1+shift)``, from ``seq.blocks``."""
    return [[x for b in range(j) for x in seq.blocks[a + b + shift].row_list(row)]
            for a in range(i) for row in range(seq.p)]


def reference_realizability_order(seq):
    """The order certification scan with one elimination per inspected H_ij.

    Each rank comes from a referee of its own, not from the library's
    elimination: :func:`fraction_rank` over ``Q`` and
    :func:`gauss_rank_oracle` over ``F_q``.
    """
    L, q = len(seq), seq.field.q
    if L < 2:
        raise ValueError("need at least two blocks to certify anything")
    cache = {}

    def rk(i, j):
        if (i, j) not in cache:
            h = hankel_rows(seq, i, j)
            cache[(i, j)] = fraction_rank(h) if q is None else gauss_rank_oracle(h, q)
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
    """Ho-Kalman at (r, s) through ``H_rs``, anchor rows and a second reduction.

    Factors ``H_rs = O R`` through its reduced echelon form, solves
    ``O X = H^`` on ``n`` independent rows of ``O`` (found by an
    elimination of ``O^T``) by reducing ``[O_anchor | H^_anchor]`` to
    ``[I | X]``, and checks the solution on every row.  ``H_rs`` and the
    shifted Hankel matrix ``H^`` are built by :func:`hankel_rows` from
    ``F_(a+b-1)`` and ``F_(a+b)``.  Every elimination is
    :func:`fraction_rref` over ``Q`` and :func:`modq_rref` over ``F_q``,
    and every product :func:`exact_product`, never the library's.
    """
    f, m, p, q = seq.field, seq.m, seq.p, seq.field.q

    def rref(rows):
        return fraction_rref(rows) if q is None else modq_rref(rows, q)

    h, shifted = hankel_rows(seq, r, s), hankel_rows(seq, r, s, shift=1)
    red, pivots = rref(h)
    n = len(pivots)
    obs = [[row[k] for k in pivots] for row in h]
    rowspan = red[:n]
    a_rows, b_rows, c_rows = [], [], obs[:p]
    if n:
        _, anchor = rref([list(col) for col in zip(*obs)])
        solved, _ = rref([obs[i] + shifted[i] for i in anchor])
        x = [row[n:] for row in solved]
        if exact_product(obs, x, m * s, q) != shifted:
            raise InconsistentData("shift equation O X = H^ has no solution")
        a_rows = [[row[k] for k in pivots] for row in x]
        if exact_product(a_rows, rowspan, m * s, q) != x:
            raise InconsistentData("shift equation A R = X has no solution")
        b_rows = [row[:m] for row in rowspan]
    system = LinearSystem(Matrix.from_rows(f, a_rows, cols=n), Matrix.from_rows(f, b_rows, cols=m),
                          Matrix.from_rows(f, c_rows, cols=n))
    if reference_markov_parameters(system, len(seq)) != list(seq.blocks):
        raise InconsistentData("realized system does not reproduce the data window")
    return system


def reference_relation_plane(system: LinearSystem) -> tuple[Matrix, tuple]:
    """The relation plane of ``[B C^T A]`` as its reduced-echelon rows and their 1-based pivots.

    The kernel is the textbook free-column one: reduce ``[B C^T A]``, and
    each free column ``f`` gives ``e_f`` minus its entries at the pivot
    columns.  That basis is then reduced again.  Both eliminations are
    :func:`fraction_rref` over ``Q`` and :func:`modq_rref` over ``F_q``,
    never the library's.  The system is taken as it is; the library
    builds the plane of a cc system on its canonical form.
    """
    f, q, n = system.field, system.field.q, system.n
    rows = [system.B.row_list(i) + [system.C.entry(j, i) for j in range(system.p)] + system.A.row_list(i)
            for i in range(n)]
    width = system.m + system.p + n

    def rref(grid):
        return fraction_rref(grid) if q is None else modq_rref(grid, q)

    red, pivots = rref(rows)
    kernel = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] if q is None else -row[fc] % q
        kernel.append(vec)
    plane, plane_pivots = rref(kernel)
    return Matrix.from_rows(f, plane, cols=width), tuple(c + 1 for c in plane_pivots)


def reference_markov_parameters(system: LinearSystem, count: int) -> list[Matrix]:
    """``C A^(j-1) B`` for ``j = 1..count``, one block at a time.

    Every product is :func:`exact_product`, never the library's.
    """
    f, q = system.field, system.field.q
    a_rows, b_rows = system.A.to_rows(), system.B.to_rows()
    out, cur = [], system.C.to_rows()
    for j in range(count):
        if j:
            cur = exact_product(cur, a_rows, system.n, q)
        out.append(Matrix.from_rows(f, exact_product(cur, b_rows, system.m, q), cols=system.m))
    return out


def reference_new_direction_walk(system: LinearSystem):
    """The Kalman walk column by column: reduce each ``A^i B_j`` against the basis so far.

    Returns the vector of each black box, keyed by box.  The blocks
    ``A^i B`` come from :func:`fraction_product` over ``Q`` and
    :func:`modq_product` over ``F_q``, and the reduction runs in
    ``Fraction`` over ``Q`` and mod ``q`` over ``F_q``.
    """
    q = system.field.q
    n, m = system.n, system.m
    a_rows = system.A.to_rows()
    vectors: dict[tuple[int, int], list] = {}
    basis: list[list] = []  # forward-eliminated copies, leading entries known

    def try_add(vec: list) -> bool:
        v = list(vec)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if v[lead] != 0:
                if q is None:
                    factor = Fraction(v[lead]) / b[lead]
                    v = [x - factor * y for x, y in zip(v, b)]
                else:
                    factor = v[lead] * pow(b[lead], q - 2, q) % q
                    v = [(x - factor * y) % q for x, y in zip(v, b)]
        if all(x == 0 for x in v):
            return False
        basis.append(v)
        return True

    block = system.B.to_rows()
    for i in range(n):
        for j in range(1, m + 1):
            col = [row[j - 1] for row in block]
            if try_add(col):
                vectors[(i, j)] = col
                if len(vectors) == n:
                    return vectors
        if i + 1 < n:
            block = exact_product(a_rows, block, m, q)
    if len(vectors) < n:
        raise NotControllable(f"controllability rank is {len(vectors)} < n = {n}")
    return vectors


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
    """Controllable (A, B) pairs over F_q, by enumerating every pair at once.

    Pair ``k`` reads ``A`` and then ``B``, row by row, off the base-q
    digits of ``k``, lowest digit first.
    """
    digit_count = n * (n + m)
    states = q ** digit_count
    powers = q ** np.arange(digit_count, dtype=np.int64)
    count = 0
    for start in range(0, states, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), states), dtype=np.int64)
        digits = idx[:, None] // powers % q
        a = digits[:, :n * n].reshape(len(idx), n, n)
        b = digits[:, n * n:].reshape(len(idx), n, m)
        blocks = [b]
        cur = b
        for _ in range(1, n):
            cur = np.matmul(a, cur) % q
            blocks.append(cur)
        ctrb = np.concatenate(blocks, axis=2)
        count += int((reference_batched_rank_modq(ctrb, q) == n).sum())
    return count
