"""Exact dense linear algebra over the rationals and over prime fields.

Scalars are plain Python numbers.  Over ``F_q`` they are ``int``
values in ``[0, q)``.  Over the rationals a scalar is an ``int`` when
integral and a ``fractions.Fraction`` otherwise; equal ``int`` and
``Fraction`` values compare, hash and print alike.  ``0`` and ``1``
serve every field, and only outside data passes through
:meth:`Field.coerce`, which reads each input number as one exact
fraction ``a/b``: over ``F_q`` that is ``a * b^-1``, refused exactly
when ``q`` divides ``b`` in lowest terms.  All arithmetic is exact;
there is no floating point anywhere.

One discipline covers every kernel: it computes on plain ``int``
values, reduced mod ``q`` over ``F_q``, and over ``Q`` on integers
over a common denominator, so ``Fraction`` is built only for results.
:class:`Field` does no arithmetic of its own.  Matrices are immutable
and every operation is a pure function, so values can be shared freely
between threads.  The memo a ``LinearSystem`` keeps of its walks and
its canonical reduction keeps that true: each write stores the same
values as any it replaces, so threads racing on one system can repeat
work but never see a wrong result.

:func:`_eliminate` runs one loop for both fields: fraction-free
(Bareiss) elimination, whose divisions are exact.  Over ``F_q`` each
pivot row is first scaled so that its pivot is 1, which makes every
Bareiss division a division by 1.  Over the rationals the work inside
is integral, and ``Fraction`` is built only for results: every row is
first made a primitive integer row, and a reduced form divides each
entry once, at the end, by the last pivot.  Either way the loop
returns a unit whose product with the last pivot is the determinant.
Rows that :func:`_eliminate` leaves unreduced are nonzero multiples of
the echelon rows: a caller may read their pivot columns and row space,
and :func:`minor_det` reads the determinant off the last pivot, but no
other value.

:func:`_dots` is the one product loop: every dot product of a row of
one list of integer rows with a row of another, reduced mod ``q`` over
``F_q``.  ``@``, the power step of :func:`charpoly`, the Markov blocks,
the Krylov walk and the canonical reduction call it.  Over ``Q``
:func:`_cleared` first makes each operand integral over one common
denominator, and each output entry is divided once;
``system.markov_parameters`` clears ``A`` and ``B`` once per call and
:func:`charpoly` once for the whole recursion.

Zero-sized matrices (``0 x k`` and ``k x 0``) are legal everywhere and
follow the usual conventions (empty products are 1, empty sums are 0).

:func:`_eliminate` is the one Gaussian elimination routine: rank, the
column rank profile, reduced echelon form, kernels (one call gives the
reduced-echelon basis), determinants and solving all call it, and basis
completion through those (:func:`inverse` is ``solve_right(M, I)``).
The Kalman walk, the canonical reduction and Ho-Kalman realization call
it directly on their plain rows.  So does the Hankel rank profile, which
resumes a forward elimination a block row at a time: the rows the last
call left stay pivots, untouched, and only the new block row is reduced.
The census keeps its own vectorized kernel on purpose, and tests
cross-check ``counting._batched_rank_modq`` against :func:`rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

from .errors import IndexOutOfRange, NonSquareSelection, SingularMatrix

Scalar = Union[Fraction, int]


# Miller-Rabin with the first 13 primes as bases is deterministic below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(q: int) -> bool:
    """Exact primality test for ``q < _MR_LIMIT``."""
    if q < 2:
        return False
    for b in _MR_BASES:
        if q % b == 0:
            return q == b
    if q < _MR_BASES[-1] ** 2:
        return True
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _as_int(value, what: str) -> int:
    """``value`` as an int; floats, booleans and non-integral numbers are refused, not truncated."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, str):
        return int(value)
    ivalue = int(value)
    if ivalue != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return ivalue


def _non_negative(sizes: dict, prefix: str = "") -> None:
    """A ``ValueError`` naming the first negative size; the one such check but ``Matrix``'s, which runs too often for a call."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{prefix}{name} must be non-negative, got {value}")


def _ratio(a: int, b: int) -> Scalar:
    """``a / b`` as a canonical rational scalar: an ``int`` when ``b`` divides ``a``."""
    return a // b if not a % b else Fraction(a, b)


def _integral(entries) -> tuple:
    """Rational entries as integers over one common denominator: ``(ints, den)``.

    An all-``int`` sequence comes back as it is, with ``den == 1``;
    ``Fraction(k, 1)`` values become ``int``.
    """
    if set(map(type, entries)) <= {int}:
        return entries, 1
    den = lcm(*[x.denominator for x in entries])
    return [x.numerator * (den // x.denominator) for x in entries], den


def _cleared(entries, q: int | None) -> tuple:
    """``(ints, den)`` with ``entries == ints / den``: :func:`_integral` over ``Q``, as they are over ``F_q``."""
    return _integral(entries) if q is None else (entries, 1)


def _dots(xs, ys, q: int | None) -> list:
    """``[[x . y for y in ys] for x in xs]`` on integer rows, reduced mod ``q`` over ``F_q``: the one product loop."""
    if q is None:
        return [[sum(map(mul, x, y)) for y in ys] for x in xs]
    return [[sum(map(mul, x, y)) % q for y in ys] for x in xs]


@dataclass(frozen=True)
class Field:
    """The rationals (``q is None``) or a prime field ``F_q``.

    A field is its modulus and the boundary to outside data; it does no
    arithmetic, which the kernels do on plain numbers.  :meth:`coerce`
    reads an input as one exact fraction ``a/b`` and makes it an ``int``
    in ``[0, q)`` over ``F_q`` (``a * b^-1``, refused when ``q`` divides
    ``b``), over ``Q`` an ``int`` when integral and a ``Fraction``
    otherwise; :meth:`inv` inverts the coerced value.
    """

    q: int | None = None
    zero = 0  # the zero and one of every field
    one = 1

    def __post_init__(self) -> None:
        if self.q is None:
            return
        if self.q >= _MR_LIMIT:
            raise ValueError(f"field modulus {self.q} is too large; moduli below {_MR_LIMIT} are supported")
        if not _is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(q: int) -> "Field":
        return Field(q)

    def coerce(self, value: Scalar | str) -> Scalar:
        """The canonical scalar of an int / Fraction / Decimal / string ``"a"`` or ``"a/b"``."""
        if isinstance(value, bool):
            raise TypeError(f"boolean {value!r} is not a scalar")
        if isinstance(value, float):
            raise TypeError("floating point values are not accepted; arithmetic is exact")
        if isinstance(value, str):
            num, slash, den = value.partition("/")
            num, den = int(num), int(den) if slash else 1
            if den == 0:
                raise ValueError(f"scalar {value!r} has no value in {self}: its denominator vanishes")
            exact = Fraction(num, den)
        else:
            exact = Fraction(value)
        a, b = exact.numerator, exact.denominator
        if self.q is None:
            return a if b == 1 else exact
        if b % self.q == 0:
            raise ValueError(f"scalar {str(value)!r} has no value in {self}: its denominator vanishes")
        return a * pow(b, -1, self.q) % self.q

    def inv(self, a: Scalar | str) -> Scalar:
        a = self.coerce(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.q is None:
            return _ratio(a.denominator, a.numerator)
        return pow(a, -1, self.q)

    def scalar_to_json(self, a: Scalar):
        return str(a) if self.q is None else int(a)

    def to_json(self):
        return "Q" if self.q is None else {"Fp": self.q}

    @staticmethod
    def from_json(obj) -> "Field":
        if obj == "Q":
            return Field.rationals()
        if isinstance(obj, dict) and set(obj) == {"Fp"}:
            return Field.prime(_as_int(obj["Fp"], "Fp"))
        raise ValueError(f"unrecognized field description: {obj!r}")

    def __str__(self) -> str:
        return "Q" if self.q is None else f"F{self.q}"


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix over a :class:`Field`."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = [list(r) for r in rows]
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError(f"every row must have {cols} entries, got {[len(r) for r in data]}")
        ent = tuple(field.coerce(x) for r in data for x in r)
        return cls(field, len(data), cols, ent)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        ent = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(field, n, n, ent)

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def columns_at(self, indices: Sequence[int]) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for i in range(self.rows) for j in indices)
        return Matrix(self.field, self.rows, len(indices), ent)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.field, self.cols, self.rows, ent)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        q, inner, c = self.field.q, self.cols, other.cols
        (se, sd), (oe, od) = _cleared(self.entries, q), _cleared(other.entries, q)
        out = chain.from_iterable(_dots([se[i * inner:(i + 1) * inner] for i in range(self.rows)],
                                        [oe[j::c] for j in range(c)], q))
        if sd * od != 1:
            out = (_ratio(x, sd * od) for x in out)
        return Matrix(self.field, self.rows, c, tuple(out))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        cells = [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "[" + " ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )


def hstack(matrices: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices side by side."""
    if not matrices:
        raise ValueError("hstack of nothing")
    field, rows = matrices[0].field, matrices[0].rows
    if any(m.field != field or m.rows != rows for m in matrices):
        raise ValueError("hstack: row count / field mismatch")
    ent = []
    for i in range(rows):
        for m in matrices:
            ent.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return Matrix(field, rows, sum(m.cols for m in matrices), tuple(ent))


def vstack(matrices: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices on top of each other."""
    if not matrices:
        raise ValueError("vstack of nothing")
    field, cols = matrices[0].field, matrices[0].cols
    if any(m.field != field or m.cols != cols for m in matrices):
        raise ValueError("vstack: column count / field mismatch")
    ent = tuple(x for m in matrices for x in m.entries)
    return Matrix(field, sum(m.rows for m in matrices), cols, ent)


# -- elimination-based operations ---------------------------------------


def _eliminate(field: Field, grid: list, ncols: int, reduced: bool,
               kept: Sequence[int] = ()) -> tuple[list[int], Scalar]:
    """Gaussian elimination of a list of row lists, in place.

    Sweeps the columns left to right and takes the first nonzero entry
    at or below the current row as the pivot, then clears the entries
    below it; with ``reduced`` it also clears the entries above.  Stops
    once every row holds a pivot.  Returns the (0-based) pivot columns
    and a unit ``u``: the determinant of a square input of full rank is
    ``u`` times the last pivot, over either field.

    One loop serves both fields, in the fraction-free form of Bareiss
    (Math. Comp. 22, 1968): a row update is ``(p x - v y) / p_prev``,
    with ``p`` the pivot, ``v`` the entry to clear and ``p_prev`` the
    pivot before ``p``, and that division is exact.

    Over ``F_q`` each pivot row is first scaled so that its pivot is 1,
    and the pivot joins ``u``.  Then ``p == p_prev == 1`` and the update
    is ``x - v y`` mod q.  ``u`` is the sign of the row swaps times the
    product of the pivots.

    Over ``Q`` the work is integral.  Each row is first made a primitive
    integer row: its denominators are cleared and it is divided by the
    gcd of its entries.  With ``reduced`` every other row is updated
    (fraction-free Gauss-Jordan), so all pivot entries end equal to the
    last pivot ``d``; each entry of the pivot rows is then divided once
    by ``d``, which leaves the reduced row-echelon form in canonical
    scalars.  Without ``reduced`` the rows stay integral: each is a
    forward-eliminated row of the input times a nonzero rational, so a
    caller may read the pivot columns and the row space, not the values.
    ``u`` is the sign of the row swaps over the product of the row
    scales.

    A forward elimination resumes with ``kept``: the pivot columns a
    forward call returned, and the first ``len(kept)`` rows of ``grid``
    the rows it left, in that order.  Those rows are taken as the first
    pivots, in that order, and are neither made primitive again nor
    updated; only the rows after them are, first through the kept pivots
    and then among themselves in column order.  The pivot columns come
    back in the order found, kept ones first, so they may resume the
    next call, and ``u`` covers the new rows only.  Each entry is a minor
    on the rows taken so far and on the pivot columns and its own, so the
    divisions stay exact for any pivot order, and the rows may be cut to
    any ``ncols`` past every kept pivot; but over ``Q`` no kept row may
    be rescaled or dropped.
    """
    nrows, t = len(grid), len(kept)
    pivots: list[int] = []
    q = field.q
    sign, num, den, prev = 1, 1, 1, 1  # the row scales multiply to den / num; prev is the previous pivot
    if q is None:
        for i in range(t, nrows):
            ints, d = _integral(grid[i])
            g = gcd(*ints)
            if g > 1:
                ints = [x // g for x in ints]
            if g:
                num, den = num * g, den * d
            grid[i] = ints
    for c in chain(kept, range(ncols)) if t else range(ncols):  # the kept pivots, then a search
        r = len(pivots)
        if r == nrows:
            break
        if r < t:  # a kept pivot: only the new rows are updated, over Q left of c too
            below, lead = t, 0 if q is None else c
        else:
            for piv in range(r, nrows):
                if grid[piv][c] != 0:
                    break
            else:
                continue
            if piv != r:
                grid[r], grid[piv] = grid[piv], grid[r]
                sign = -sign
            below, lead = r + 1, c
        prow = grid[r]
        p = prow[c]
        if q is not None and p != 1:  # scale the pivot to 1; it moves into the unit
            pinv = pow(p, q - 2, q)
            prow[c:] = [pinv * x % q for x in prow[c:]]
            num, p = num * p % q, 1
        for i in range(0 if reduced else below, nrows):
            if i == r:
                continue
            row = grid[i]
            v = row[c]
            start = pivots[i] if i < r else lead  # the row is zero left of start, or unchanged there
            if not v:
                if p != prev:  # over Q every row scales by p / prev, or later divisions are inexact
                    row[start:] = [p * x // prev for x in row[start:]]
            elif q is None:
                row[start:] = [(p * x - v * y) // prev for x, y in zip(row[start:], prow[start:])]
            else:
                row[start:] = [(x - v * y) % q for x, y in zip(row[start:], prow[start:])]
        prev = p
        pivots.append(c)
    if reduced and prev != 1:
        for row in grid[:len(pivots)]:
            row[:] = [_ratio(x, prev) for x in row]
    return pivots, _ratio(sign * num, den) if q is None else sign * num % q


def pivot_columns(matrix: Matrix) -> tuple[int, ...]:
    """Column rank profile: the (0-based) pivot columns of forward elimination.

    Column ``c`` is a pivot exactly when it is not in the span of the
    columns before it, so the number of pivots below ``k`` is the rank of
    the leading ``k`` columns.
    """
    pivots, _ = _eliminate(matrix.field, matrix.to_rows(), matrix.cols, False)
    return tuple(pivots)


def rank(matrix: Matrix) -> int:
    """Rank of the matrix (dimension of its column space)."""
    return len(pivot_columns(matrix))


def rref_with_pivots(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and its (0-based) pivot columns.

    Row space is preserved; pivot entries are 1 and are the only nonzero
    entries in their columns.
    """
    grid = matrix.to_rows()
    pivots, _ = _eliminate(matrix.field, grid, matrix.cols, True)
    ent = tuple(x for row in grid for x in row)
    return Matrix(matrix.field, matrix.rows, matrix.cols, ent), tuple(pivots)


def kernel_basis(matrix: Matrix) -> Matrix:
    """The reduced row-echelon basis of the right kernel ``{v : M v^T = 0}``, with ``cols - rank(M)`` rows.

    One reduced elimination of the reversed columns: each free column ``f``
    gives ``e_f`` minus pivot entries right of ``f``, already reduced.
    """
    f, q, last = matrix.field, matrix.field.q, matrix.cols - 1
    grid = [matrix.row_list(i)[::-1] for i in range(matrix.rows)]
    pivots, _ = _eliminate(f, grid, matrix.cols, True)
    free = sorted(set(range(matrix.cols)).difference(last - c for c in pivots))
    rows = []
    for fc in free:
        vec = [0] * matrix.cols
        vec[fc] = 1
        for row, pc in zip(grid, pivots):
            x = row[last - fc]
            vec[last - pc] = -x % q if q is not None else -x
        rows.extend(vec)
    return Matrix(f, len(free), matrix.cols, tuple(rows))


def minor_det(matrix: Matrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> Scalar:
    """Determinant of the square submatrix selected by the index lists.

    Index lists must be strictly increasing and equally long.  One forward
    elimination; the determinant is the last pivot times the unit that
    :func:`_eliminate` returns.
    """
    row_idx, col_idx = list(row_idx), list(col_idx)
    if len(row_idx) != len(col_idx):
        raise NonSquareSelection(f"{len(row_idx)} rows vs {len(col_idx)} cols")
    for idx, bound, what in ((row_idx, matrix.rows, "row"), (col_idx, matrix.cols, "column")):
        if any(i < 0 or i >= bound for i in idx):
            raise IndexOutOfRange(f"{what} index out of range in {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{what} indices must be strictly increasing")
    f, k = matrix.field, len(col_idx)
    grid = [[matrix.entry(i, j) for j in col_idx] for i in row_idx]
    pivots, unit = _eliminate(f, grid, k, False)
    if len(pivots) < k:
        return f.zero
    return _ratio(unit.numerator * grid[-1][-1], unit.denominator) if k else f.one


def det(matrix: Matrix) -> Scalar:
    if matrix.rows != matrix.cols:
        raise NonSquareSelection("determinant of a non-square matrix")
    return minor_det(matrix, range(matrix.rows), range(matrix.cols))


def inverse(matrix: Matrix) -> Matrix:
    """Inverse of a square matrix, ``solve_right(M, I)``; raises :class:`SingularMatrix`."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    x = solve_right(matrix, Matrix.identity(matrix.field, matrix.rows))
    if x is None:
        raise SingularMatrix("matrix is singular")
    return x


def solve_right(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution ``X`` of ``A X = B``, or ``None`` if inconsistent.

    One reduction of ``[A | B]``: the free unknowns are 0 and the pivot
    unknowns are read off the right part of the reduced rows.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    f, n, k = a.field, a.cols, b.cols
    grid = [a.row_list(i) + b.row_list(i) for i in range(a.rows)]
    pivots, _ = _eliminate(f, grid, n + k, True)
    if any(p >= n for p in pivots):
        return None
    x = [[f.zero] * k for _ in range(n)]
    for row, pc in zip(grid, pivots):
        x[pc] = row[n:]
    return Matrix(f, n, k, tuple(v for row in x for v in row))


def charpoly(matrix: Matrix) -> tuple:
    """Coefficients of ``det(xI - M)``, leading coefficient first.

    The division-free recursion of Berkowitz (Inf. Proc. Letters 18,
    1984) on plain integers: the polynomial of each leading ``(i+1) x
    (i+1)`` block is a Toeplitz product with the one before it.  Over
    ``F_q`` every step is reduced mod ``q``.  Over ``Q`` it runs on
    ``N = d M``, with ``d`` the common denominator of the entries, and
    coefficient ``k`` is that of ``N`` over ``d^k``.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    q, n = matrix.field.q, matrix.rows
    ent, d = _cleared(matrix.entries, q)
    rows = [ent[i * n:(i + 1) * n] for i in range(n)]
    coeffs = [1]
    for i in range(n):
        lead = [row[:i] for row in rows[:i]]  # the leading i x i block
        r, v = rows[i][:i], [row[i] for row in rows[:i]]
        toeplitz = [1, -rows[i][i]]  # 1, -a_ii, then -r lead^k v for k = 0..i-1
        for k in range(i):
            if k:
                v = _dots([v], lead, q)[0]
            toeplitz.append(-sum(map(mul, r, v)))
        coeffs = [sum(toeplitz[s - j] * coeffs[j] for j in range(max(0, s - i - 1), min(s, i) + 1))
                  for s in range(i + 2)]
        if q is not None:
            coeffs = [x % q for x in coeffs]
    if d != 1:
        coeffs = [_ratio(c, d ** k) for k, c in enumerate(coeffs)]
    return tuple(coeffs)
