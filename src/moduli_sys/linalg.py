"""Exact dense linear algebra over the rationals and over prime fields.

Scalars are ``fractions.Fraction`` values over the rationals and plain
integers in ``[0, q)`` over a prime field ``F_q``.  All arithmetic is
exact; there is no floating point anywhere.  Matrices are immutable and
every operation is a pure function, so values can be shared freely
between threads.

Zero-sized matrices (``0 x k`` and ``k x 0``) are legal everywhere and
follow the usual conventions (empty products are 1, empty sums are 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class Field:
    """The rationals (``q is None``) or a prime field ``F_q``."""

    q: int | None = None

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

    @property
    def is_rationals(self) -> bool:
        return self.q is None

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.q is None else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.q is None else 1 % self.q

    def coerce(self, value: Scalar | str) -> Scalar:
        """Convert an int / Fraction / string into a canonical scalar."""
        if isinstance(value, float):
            raise TypeError("floating point values are not accepted; arithmetic is exact")
        if self.q is None:
            return Fraction(value)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator % self.q
            return (value.numerator * self.inv(value.denominator % self.q)) % self.q
        return int(value) % self.q

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.q if self.q is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.q if self.q is not None else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.q if self.q is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.q if self.q is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.q is None:
            return Fraction(1) / a
        return pow(int(a), self.q - 2, self.q)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def scalar_to_json(self, a: Scalar):
        return str(a) if self.q is None else int(a)

    def to_json(self):
        return "Q" if self.q is None else {"Fp": self.q}

    @staticmethod
    def from_json(obj) -> "Field":
        if obj == "Q":
            return Field.rationals()
        if isinstance(obj, dict) and set(obj) == {"Fp"}:
            return Field.prime(int(obj["Fp"]))
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
        if data:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        ent = tuple(field.coerce(x) for r in data for x in r)
        return cls(field, len(data), cols, ent)

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        data = [list(c) for c in cols]
        if data:
            rows = len(data[0])
            if any(len(c) != rows for c in data):
                raise ValueError("ragged columns")
        elif rows is None:
            rows = 0
        ent = tuple(field.coerce(data[j][i]) for i in range(rows) for j in range(len(data)))
        return cls(field, rows, len(data), ent)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        ent = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(field, n, n, ent)

    @classmethod
    def basis_vector(cls, field: Field, n: int, index: int) -> "Matrix":
        """Standard basis column vector ``e_index`` (0-based) of length n."""
        ent = tuple(field.one if i == index else field.zero for i in range(n))
        return cls(field, n, 1, ent)

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def col_list(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def column(self, j: int) -> "Matrix":
        return Matrix(self.field, self.rows, 1, tuple(self.col_list(j)))

    def columns_at(self, indices: Sequence[int]) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for i in range(self.rows) for j in indices)
        return Matrix(self.field, self.rows, len(indices), ent)

    def rows_at(self, indices: Sequence[int]) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for i in indices for j in range(self.cols))
        return Matrix(self.field, len(indices), self.cols, ent)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.field, self.cols, self.rows, ent)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        add = self.field.add
        ent = tuple(add(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, ent)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        sub = self.field.sub
        ent = tuple(sub(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, ent)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, tuple(neg(a) for a in self.entries))

    def scaled(self, s: Scalar) -> "Matrix":
        mul = self.field.mul
        s = self.field.coerce(s)
        return Matrix(self.field, self.rows, self.cols, tuple(mul(s, a) for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        q = self.field.q
        inner, c = self.cols, other.cols
        se, oe = self.entries, other.entries
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            base = i * inner
            arow = se[base:base + inner]
            for j in range(c):
                s = zero
                for k in range(inner):
                    s = s + arow[k] * oe[k * c + j]
                out.append(s % q if q is not None else s)
        return Matrix(self.field, self.rows, c, tuple(out))

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape/field mismatch")

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


def pivot_columns(matrix: Matrix) -> tuple[int, ...]:
    """Column rank profile: the (0-based) pivot columns of forward elimination.

    Column ``c`` is a pivot exactly when it is not in the span of the
    columns before it, so the number of pivots below ``k`` is the rank of
    the leading ``k`` columns.
    """
    f = matrix.field
    grid = matrix.to_rows()
    nrows, ncols = matrix.rows, matrix.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if grid[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            grid[r], grid[piv] = grid[piv], grid[r]
        pivinv = f.inv(grid[r][c])
        prow = grid[r]
        for i in range(r + 1, nrows):
            v = grid[i][c]
            if v != 0:
                factor = f.mul(v, pivinv)
                row = grid[i]
                for k in range(c, ncols):
                    row[k] = f.sub(row[k], f.mul(factor, prow[k]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


def rank(matrix: Matrix) -> int:
    """Rank of the matrix (dimension of its column space)."""
    return len(pivot_columns(matrix))


def rref_with_pivots(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and its (0-based) pivot columns.

    Row space is preserved; pivot entries are 1 and are the only nonzero
    entries in their columns.
    """
    f = matrix.field
    grid = matrix.to_rows()
    nrows, ncols = matrix.rows, matrix.cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if grid[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            grid[r], grid[piv] = grid[piv], grid[r]
        pivinv = f.inv(grid[r][c])
        grid[r] = [f.mul(pivinv, x) for x in grid[r]]
        prow = grid[r]
        for i in range(nrows):
            if i != r and grid[i][c] != 0:
                factor = grid[i][c]
                row = grid[i]
                for k in range(c, ncols):
                    row[k] = f.sub(row[k], f.mul(factor, prow[k]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    ent = tuple(f.coerce(x) for row in grid for x in row)
    return Matrix(f, nrows, ncols, ent), tuple(pivots)


def kernel_basis(matrix: Matrix) -> Matrix:
    """Basis of the right kernel, one vector per row.

    The rows span ``{v : M v^T = 0}``; the row count is
    ``cols - rank(M)``.
    """
    f = matrix.field
    red, pivots = rref_with_pivots(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    rows = []
    for fc in free:
        vec = [f.zero] * matrix.cols
        vec[fc] = f.one
        for ri, pc in enumerate(pivots):
            vec[pc] = f.neg(red.entry(ri, fc))
        rows.append(vec)
    return Matrix.from_rows(f, rows, cols=matrix.cols)


def minor_det(matrix: Matrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> Scalar:
    """Determinant of the square submatrix selected by the index lists.

    Index lists must be strictly increasing and equally long.
    """
    row_idx, col_idx = list(row_idx), list(col_idx)
    if len(row_idx) != len(col_idx):
        raise NonSquareSelection(f"{len(row_idx)} rows vs {len(col_idx)} cols")
    for idx, bound, what in ((row_idx, matrix.rows, "row"), (col_idx, matrix.cols, "column")):
        if any(i < 0 or i >= bound for i in idx):
            raise IndexOutOfRange(f"{what} index out of range in {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{what} indices must be strictly increasing")
    f = matrix.field
    n = len(row_idx)
    grid = [[matrix.entry(i, j) for j in col_idx] for i in row_idx]
    det = f.one
    for c in range(n):
        piv = None
        for i in range(c, n):
            if grid[i][c] != 0:
                piv = i
                break
        if piv is None:
            return f.zero
        if piv != c:
            grid[c], grid[piv] = grid[piv], grid[c]
            det = f.neg(det)
        det = f.mul(det, grid[c][c])
        pivinv = f.inv(grid[c][c])
        for i in range(c + 1, n):
            if grid[i][c] != 0:
                factor = f.mul(grid[i][c], pivinv)
                for k in range(c, n):
                    grid[i][k] = f.sub(grid[i][k], f.mul(factor, grid[c][k]))
    return det


def det(matrix: Matrix) -> Scalar:
    if matrix.rows != matrix.cols:
        raise NonSquareSelection("determinant of a non-square matrix")
    return minor_det(matrix, range(matrix.rows), range(matrix.cols))


def inverse(matrix: Matrix) -> Matrix:
    """Inverse of a square matrix; raises :class:`SingularMatrix`."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.rows
    aug = hstack([matrix, Matrix.identity(matrix.field, n)])
    red, pivots = rref_with_pivots(aug)
    if pivots[:n] != tuple(range(n)) or len(pivots) != n:
        raise SingularMatrix("matrix is singular")
    return red.columns_at(range(n, 2 * n))


def is_invertible(matrix: Matrix) -> bool:
    return matrix.rows == matrix.cols and rank(matrix) == matrix.rows


def solve_right(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution ``X`` of ``A X = B``, or ``None`` if inconsistent."""
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    f = a.field
    red, pivots = rref_with_pivots(hstack([a, b]))
    if any(p >= a.cols for p in pivots):
        return None
    x_rows = [[f.zero] * b.cols for _ in range(a.cols)]
    for ri, pc in enumerate(pivots):
        for j in range(b.cols):
            x_rows[pc][j] = red.entry(ri, a.cols + j)
    return Matrix.from_rows(f, x_rows, cols=b.cols)


def charpoly(matrix: Matrix) -> tuple:
    """Coefficients of ``det(xI - M)``, leading coefficient first.

    Uses the division-free Berkowitz recursion, so it works verbatim
    over both supported fields.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    f = matrix.field
    n = matrix.rows
    if n == 0:
        return (f.one,)
    a = matrix.to_rows()

    def dot(u, v):
        s = f.zero
        for x, y in zip(u, v):
            s = f.add(s, f.mul(x, y))
        return s

    coeffs = [f.one, f.neg(a[0][0])]
    for i in range(1, n):
        prev = [row[:i] for row in a[:i]]
        r = a[i][:i]
        col = [a[t][i] for t in range(i)]
        toeplitz = [f.one, f.neg(a[i][i])]
        v = col
        for step in range(i):
            if step > 0:
                v = [dot(prev[t], v) for t in range(i)]
            toeplitz.append(f.neg(dot(r, v)))
        new = []
        for s in range(i + 2):
            acc = f.zero
            for j, cj in enumerate(coeffs):
                k = s - j
                if 0 <= k < len(toeplitz):
                    acc = f.add(acc, f.mul(toeplitz[k], cj))
            new.append(acc)
        coeffs = new
    return tuple(coeffs)
