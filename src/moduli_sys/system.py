"""Linear control systems ``(A, B, C)`` and their basic invariants.

A system of type ``(m, n, p)`` is its three matrices: an ``n x n`` state
map ``A``, an ``n x m`` input map ``B`` and a ``p x n`` output map ``C``,
over one field.  The field and the type are read off them, since a
``Matrix`` keeps its size even when it holds no entry.  Base change
by ``g`` in ``GL_n`` sends it to ``(g A g^-1, g B, C g^-1)``; everything
of interest here is a function of that orbit.

Every reachability question reads one lazy Krylov walk,
``_krylov_pivots``, which keeps only its result: the black boxes
``(i, j)`` whose columns ``A^i B_j`` are pivots, and those columns.
``classify`` counts the boxes, the Kalman code is the set of them, the
canonical reduction (``_reduction``) reorders the columns and the quiver
view completes them to a basis.  The co side is the cc side of the dual
``(A^T, C^T, B^T)``.  Both walks and the canonical reduction are
``cached_property`` values, computed at most once per system object and
kept on it, so the classification, simplicity, the Kalman code, the
canonical form and both embeddings of one system share them.  The memo
is not a field: equality, hashing, ``repr``, JSON and
``dataclasses.replace`` never see it.

The walk and the reduction compute on plain rows of scalars, as
``markov_parameters`` does, with the one product loop ``linalg._dots``,
and only the values they return become matrices.  Over ``Q`` the walk
runs on integers: ``A`` and ``B`` are cleared of their denominators once.

Degenerate shapes are allowed on purpose: ``n = 0`` is the empty system
(canonical by convention), ``p = 0`` means no outputs, and ``m = 0`` is
admitted so that dualizing a ``p = 0`` system stays total.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from random import Random
from typing import Iterator

from .errors import NotControllable, SingularBaseChange, SingularMatrix
from .linalg import Field, Matrix, _as_int, _cleared, _dots, _eliminate, _non_negative, _ratio, hstack, inverse


MAX_DIM = 64
"""Largest ``m``, ``n`` or ``p`` that a system or Markov file may declare.

A Markov window may hold at most ``2 * MAX_DIM + 1`` blocks, the window
that certifies order ``MAX_DIM``.  Past these caps a well-formed input
could run for hours, so it is refused before any scalar is read."""

MAX_ENTRIES = 1 << 13
"""Most scalars that a system file (``A``, ``B`` and ``C``) or a Markov file may hold."""


def _check_input_size(dims: dict, entries: int) -> None:
    """Refuse a negative dimension by name, then input past :data:`MAX_DIM` or :data:`MAX_ENTRIES` (a ``ValueError``)."""
    _non_negative(dims)
    for key, value in dims.items():
        if value > MAX_DIM:
            raise ValueError(f"{key} = {value} is too large; at most {MAX_DIM} is supported")
    if entries > MAX_ENTRIES:
        raise ValueError(f"{entries} scalars are too many; at most {MAX_ENTRIES} are supported")


def _json_array(raw, what: str) -> list:
    """``raw`` if it is a JSON array; a ``ValueError`` for a string, object or scalar.

    ``len`` and iteration would read a string character by character and
    an object key by key, so neither may stand in for an array."""
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be an array, got {type(raw).__name__}")
    return raw


def _read_matrix(field: Field, raw, rows: int, cols: int, what: str) -> Matrix:
    """The ``rows x cols`` matrix of the JSON array ``raw`` of row-major scalars; a ``ValueError`` naming ``what`` otherwise."""
    if len(_json_array(raw, what)) != rows * cols:
        raise ValueError(f"{what} must have {rows * cols} entries, got {len(raw)}")
    return Matrix(field, rows, cols, tuple(field.coerce(x) for x in raw))


def _json_object(raw, what: str, keys: tuple[str, ...]) -> dict:
    """``raw`` if it is a JSON object holding every key; a ``ValueError`` naming ``what`` or the missing key.

    Indexing would read an array or a string with a confusing error, and
    a missing key would surface as a bare ``KeyError`` that names no document."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    for key in keys:
        if key not in raw:
            raise ValueError(f"{what} has no {key!r} key")
    return raw


@dataclass(frozen=True)
class LinearSystem:
    """A system is its three matrices; its field and its type ``(m, n, p)`` are read off them."""

    A: Matrix
    B: Matrix
    C: Matrix

    def __post_init__(self) -> None:
        a, b, c = self.A, self.B, self.C
        if not a.rows == a.cols == b.rows == c.cols:
            raise ValueError(f"A, B and C must be n x n, n x m and p x n, "
                             f"got {a.rows}x{a.cols}, {b.rows}x{b.cols} and {c.rows}x{c.cols}")
        if not a.field == b.field == c.field:
            raise ValueError(f"A, B and C must be over one field, got {a.field}, {b.field} and {c.field}")

    @property
    def field(self) -> Field:
        return self.A.field

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def p(self) -> int:
        return self.C.rows

    def shape(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.p)

    # The memo: ``cached_property`` stores each walk and the canonical
    # reduction in the instance ``__dict__``, past the frozen
    # ``__setattr__``.  The matrices are immutable, so a value computed
    # once stays true for the life of the object.

    @cached_property
    def _walk(self) -> KrylovWalk:
        """The Krylov walk of ``(A, B)``: :func:`_krylov_pivots`, computed once."""
        return _krylov_pivots(self.A, self.B)

    @cached_property
    def _dual_walk(self) -> KrylovWalk:
        """The Krylov walk of ``(A^T, C^T)``, the cc side of the dual, computed once."""
        return _krylov_pivots(self.A.transpose(), self.C.transpose())

    def _full_walk(self) -> KrylovWalk:
        """:attr:`_walk`, raising :class:`NotControllable` when it has fewer than ``n`` boxes."""
        black, basis = self._walk
        if len(black) < self.n:
            raise NotControllable(f"controllability rank is {len(black)} < n = {self.n}")
        return black, basis

    @cached_property
    def _reduction(self) -> tuple[Matrix, LinearSystem, Matrix]:
        """``(P, canonical system, g = P^-1)`` of a cc system, from one solve, computed once.

        The columns of ``P`` are the black-box vectors ``A^i B_j``, grouped
        by occupied column, by increasing power inside each group.  ``A P_k``
        is ``P_(k+1)`` unless box ``k`` tops its chain, so one reduction of
        ``[P | B | A P_tops | I]`` gives ``B'``, the chain-top columns of
        ``A'`` (whose free entries are the orbit moduli) and ``g``; the
        other columns of ``A'`` are shifted basis vectors and ``C' = C P``.
        The solve runs on plain rows; only ``P`` and the canonical system
        and ``g`` become matrices.  Raises :class:`NotControllable` below
        full rank.
        """
        black, vectors = self._full_walk()
        f, m, n, q = self.field, self.m, self.n, self.field.q
        order = sorted(range(n), key=lambda c: (black[c][1], black[c][0]))
        tops = [k for k, c in enumerate(order) if (black[c][0] + 1, black[c][1]) not in black]
        p_rows = [[vectors.entries[r * n + c] for c in order] for r in range(n)]
        (ae, da), (te, dt) = _cleared(self.A.entries, q), _cleared([row[k] for k in tops for row in p_rows], q)
        a_tops = _dots([te[k * n:(k + 1) * n] for k in range(len(tops))], [ae[r * n:(r + 1) * n] for r in range(n)], q)
        if da * dt != 1:
            a_tops = [[_ratio(x, da * dt) for x in col] for col in a_tops]
        be, width = self.B.entries, 2 * n + m + len(tops)
        grid = [p_rows[r] + list(be[r * m:(r + 1) * m]) + [col[r] for col in a_tops] + [int(r == k) for k in range(n)]
                for r in range(n)]
        _eliminate(f, grid, width, True)  # P is invertible: row r of X is grid[r][n:]
        solved = {k: n + m + t for t, k in enumerate(tops)}
        a = tuple(grid[r][solved[c]] if c in solved else int(r == c + 1) for r in range(n) for c in range(n))
        basis = Matrix(f, n, n, tuple(x for row in p_rows for x in row))
        b = Matrix(f, n, m, tuple(x for row in grid for x in row[n:n + m]))
        g = Matrix(f, n, n, tuple(x for row in grid for x in row[width - n:]))
        return basis, LinearSystem(Matrix(f, n, n, a), b, self.C @ basis), g


@dataclass(frozen=True)
class SystemClass:
    """Outcome of the two rank tests."""

    cc: bool
    co: bool
    canonical: bool
    rank_c: int
    rank_o: int


def controllability_matrix(system: LinearSystem) -> Matrix:
    """``[B, AB, ..., A^(n-1) B]`` as an ``n x (n m)`` matrix."""
    n = system.n
    if n == 0:
        return Matrix.zeros(system.field, 0, 0)
    blocks = [system.B]
    cur = system.B
    for _ in range(1, n):
        cur = system.A @ cur
        blocks.append(cur)
    return hstack(blocks)


def observability_matrix(system: LinearSystem) -> Matrix:
    """``[C; CA; ...; C A^(n-1)]`` as a ``(p n) x n`` matrix: the dual's, transposed."""
    return controllability_matrix(dualize(system)).transpose()


KrylovWalk = tuple[tuple[tuple[int, int], ...], Matrix]


def _krylov_pivots(a: Matrix, b: Matrix) -> KrylovWalk:
    """The pivot columns of the Krylov matrix ``[b, ab, a^2 b, ...]``, built lazily.

    Column ``c`` is ``a^i b_j`` for the box ``(i, j) = boxes[c]`` and is
    a pivot when independent of every column before it.  If ``a^i b_j``
    is not a pivot, neither is ``a^(i+1) b_j``, so a block never holds
    more pivots than the one before it and needs only the columns that
    were pivots there.  With ``k`` of them, at least ``ceil(missing/k)``
    more blocks are needed: that many are appended at once (``ceil(n/m)``
    full blocks to start, all a generic pair needs) before the next
    elimination.  Stops at ``n`` pivots or when the last block holds
    none, so the pivot count is the controllability rank of ``(a, b)``.

    The columns are plain integer lists.  Over ``Q``, ``a`` and ``b`` are
    cleared to integers ``d_a a`` and ``d_b b`` once, so column ``(i, j)``
    holds ``d_a^i d_b a^i b_j``: a nonzero multiple of the true column,
    with the same pivots.  Only the pivot columns are divided back.
    Returns ``(black, basis)``: the box of each pivot, in Krylov column
    order, and the ``n x rank`` matrix of those pivot columns.  Both are
    immutable, since a system shares its memoized walks between callers.
    """
    f, n, m = b.field, b.rows, b.cols
    q = f.q
    (ae, da), (be, db) = _cleared(a.entries, q), _cleared(b.entries, q)
    a_rows = [ae[r * n:(r + 1) * n] for r in range(n)]
    cols, boxes, pivots = [], [], []
    if n and m:
        frontier, live, power = [be[j::m] for j in range(m)], list(range(1, m + 1)), 0
        while True:
            for _ in range(-(-(n - len(pivots)) // len(live))):
                if cols:
                    frontier, power = _dots(frontier, a_rows, q), power + 1
                cols += frontier
                boxes += [(power, j) for j in live]
            pivots, _ = _eliminate(f, [list(row) for row in zip(*cols)], len(cols), False)
            first = len(cols) - len(frontier)
            newest = [c - first for c in pivots if c >= first]
            if len(pivots) == n or not newest:
                break
            live = [live[c] for c in newest]
            frontier = [frontier[c] for c in newest]
    black = tuple(boxes[c] for c in pivots)
    kept = [cols[c] for c in pivots]
    if da != 1 or db != 1:
        kept = [[_ratio(x, da ** i * db) for x in col] for col, (i, _) in zip(kept, black)]
    return black, Matrix(f, n, len(kept), tuple(col[r] for r in range(n) for col in kept))


def classify(system: LinearSystem) -> SystemClass:
    """Controllability / observability via the two rank tests.

    ``rank_c`` is the black-box count of the Krylov walk on ``(A, B)``
    and ``rank_o`` that of the walk on ``(A^T, C^T)``, the controllability
    rank of the dual.  For ``n = 0`` both ranks are trivially maximal,
    so the empty system is canonical.
    """
    rank_c = len(system._walk[0])
    rank_o = len(system._dual_walk[0])
    cc = rank_c == system.n
    co = rank_o == system.n
    return SystemClass(cc=cc, co=co, canonical=cc and co, rank_c=rank_c, rank_o=rank_o)


def act(g: Matrix, system: LinearSystem) -> LinearSystem:
    """Base change: ``(A, B, C) -> (g A g^-1, g B, C g^-1)``."""
    if g.rows != system.n or g.cols != system.n or g.field != system.field:
        raise ValueError(f"base change must be {system.n}x{system.n} over {system.field}")
    try:
        g_inv = inverse(g)
    except SingularMatrix as exc:
        raise SingularBaseChange("base-change matrix is singular") from exc
    return LinearSystem(g @ system.A @ g_inv, g @ system.B, system.C @ g_inv)


def dualize(system: LinearSystem) -> LinearSystem:
    """``(A, B, C) -> (A^T, C^T, B^T)`` of type ``(p, n, m)``.

    An involution that swaps controllability and observability.
    """
    return LinearSystem(system.A.transpose(), system.C.transpose(), system.B.transpose())


def markov_parameters(system: LinearSystem, count: int) -> list[Matrix]:
    """The ``p x m`` blocks ``C A^(j-1) B`` for ``j = 1..count``.

    One pass over plain integer rows, whose products are the one product
    loop ``linalg._dots`` (reduced mod ``q`` over ``F_q``).  Over ``Q`` the
    denominators of ``A``, ``B`` and ``C`` are cleared once per call, not
    once per product: the rows of ``C A^(j-1)`` stay integral over one
    running denominator, cut by the gcd of the rows at each step, and each
    output entry is divided once.  Over ``F_q`` every denominator is 1.
    Only the output blocks become matrices.
    """
    _non_negative({"count": count})
    f, m, n = system.field, system.m, system.n
    q = f.q
    (a, da), (b, db), (c, den) = (_cleared(x.entries, q) for x in (system.A, system.B, system.C))
    a_cols = [a[k::n] for k in range(n)]
    b_cols = [b[k::m] for k in range(m)]
    rows = [c[i * n:(i + 1) * n] for i in range(system.p)]  # C A^(j-1) is rows / den
    out = []
    for j in range(count):
        if j:
            rows = _dots(rows, a_cols, q)
            if den * da != 1:
                den *= da
                g = gcd(den, *itertools.chain.from_iterable(rows))
                if g != 1:
                    den //= g
                    rows = [[x // g for x in row] for row in rows]
        blk = itertools.chain.from_iterable(_dots(rows, b_cols, q))
        if den * db != 1:
            blk = (_ratio(x, den * db) for x in blk)
        out.append(Matrix(f, system.p, m, tuple(blk)))
    return out


# -- JSON interchange ----------------------------------------------------


def system_to_json(system: LinearSystem) -> dict:
    """JSON form: field, dimensions, and row-major entry arrays.

    Rationals are emitted as strings (``"a/b"`` or ``"a"``), prime-field
    elements as integers.
    """
    enc = system.field.scalar_to_json
    return {
        "field": system.field.to_json(),
        "m": system.m,
        "n": system.n,
        "p": system.p,
        "A": [enc(x) for x in system.A.entries],
        "B": [enc(x) for x in system.B.entries],
        "C": [enc(x) for x in system.C.entries],
    }


def system_from_json(obj: dict) -> LinearSystem:
    obj = _json_object(obj, "a system", ("field", "m", "n", "p", "A", "B", "C"))
    field = Field.from_json(obj["field"])
    m, n, p = (_as_int(obj[key], key) for key in ("m", "n", "p"))
    _check_input_size({"m": m, "n": n, "p": p}, n * (n + m) + p * n)
    return LinearSystem(_read_matrix(field, obj["A"], n, n, "A"), _read_matrix(field, obj["B"], n, m, "B"),
                        _read_matrix(field, obj["C"], p, n, "C"))


# -- generation helpers ---------------------------------------------------


def all_systems(field: Field, m: int, n: int, p: int) -> Iterator[LinearSystem]:
    """Every system of type (m, n, p) over a prime field, one by one."""
    if field.q is None:
        raise ValueError("exhaustive enumeration needs a finite field")
    q = field.q
    na, nb, nc = n * n, n * m, p * n
    for digits in itertools.product(range(q), repeat=na + nb + nc):
        yield LinearSystem(Matrix(field, n, n, digits[:na]), Matrix(field, n, m, digits[na:na + nb]),
                           Matrix(field, p, n, digits[na + nb:]))


def random_system(
    field: Field,
    m: int,
    n: int,
    p: int,
    rng: Random,
    require: str = "any",
    bound: int = 3,
) -> LinearSystem:
    """Random system; optionally resample until cc or canonical.

    Rational entries are integers in ``[-bound, bound]``.  Deterministic
    for a fixed ``rng`` state.  Shapes past :data:`MAX_DIM` or
    :data:`MAX_ENTRIES`, which no system file may hold, are refused
    before any entry is drawn.
    """
    _check_input_size({"m": m, "n": n, "p": p}, n * (n + m) + p * n)
    if require not in ("any", "cc", "canonical"):
        raise ValueError(f"unknown requirement {require!r}")
    if require in ("cc", "canonical") and n > 0 and m == 0:
        raise ValueError("no controllable systems with m = 0 and n > 0")
    if require == "canonical" and n > 0 and p == 0:
        raise ValueError("no canonical systems with p = 0 and n > 0")

    def entry():
        return rng.randint(-bound, bound) if field.q is None else rng.randrange(field.q)

    for _ in range(100000):
        A = Matrix(field, n, n, tuple(entry() for _ in range(n * n)))
        B = Matrix(field, n, m, tuple(entry() for _ in range(n * m)))
        C = Matrix(field, p, n, tuple(entry() for _ in range(p * n)))
        sys_ = LinearSystem(A, B, C)
        if require == "any":
            return sys_
        cls = classify(sys_)
        if require == "cc" and cls.cc:
            return sys_
        if require == "canonical" and cls.canonical:
            return sys_
    raise RuntimeError("gave up sampling a system with the requested property")
