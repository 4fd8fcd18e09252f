"""Kalman codes and the canonical form of controllable systems.

The Kalman code of a completely controllable system records which of
the columns ``A^i B_j`` introduce a new direction when the columns are
scanned in lexicographic order of ``(i, j)``.  It is an ``n x m`` box
diagram with exactly ``n`` black boxes, top-justified in every column,
and it only depends on the base-change orbit of the system.  The black
boxes and their vectors ``A^i B_j`` are the system's memoized Krylov
walk (``system._krylov_pivots``): the code is the set of the boxes, and
the canonical reduction (``system._reduction``) takes the vectors in
the order of the boxes by column.  Both are kept on the system, and
both raise :class:`~moduli_sys.errors.NotControllable` below full rank.

Conventions: box rows (powers ``i``) are 0-based, box columns (inputs
``j``) are 1-based; multi-indices are 1-based throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidMultiIndex
from .linalg import Matrix, _as_int, _non_negative
from .system import LinearSystem


@dataclass(frozen=True)
class MultiIndex:
    """Strictly increasing 1-based index tuple, optionally bounded."""

    values: tuple[int, ...]
    ambient: int | None = None

    def __post_init__(self) -> None:
        if self.ambient is not None:
            _non_negative({"ambient": self.ambient})
        vals = tuple(_as_int(v, "multi-index entry") for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v < 1 for v in vals):
            raise ValueError("multi-index entries are 1-based positive integers")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"multi-index must be strictly increasing: {vals}")
        if self.ambient is not None and vals and vals[-1] > self.ambient:
            raise ValueError(f"entry {vals[-1]} exceeds ambient size {self.ambient}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.values) + "}"


@dataclass(frozen=True)
class KalmanCode:
    """Box diagram with ``n`` black boxes, top-justified per column."""

    m: int
    n: int
    black: frozenset  # of (power i, column j) with 0 <= i < n, 1 <= j <= m

    def __post_init__(self) -> None:
        _non_negative({"m": self.m, "n": self.n})
        black = frozenset((_as_int(i, "box row"), _as_int(j, "box column")) for i, j in self.black)
        object.__setattr__(self, "black", black)
        if len(black) != self.n:
            raise ValueError(f"need exactly n={self.n} black boxes, got {len(black)}")
        for i, j in black:
            if not (0 <= i < max(self.n, 1)) or not (1 <= j <= self.m):
                raise ValueError(f"box {(i, j)} out of the {self.n}x{self.m} array")
            if i > 0 and (i - 1, j) not in black:
                raise ValueError(f"column {j} is not top-justified at row {i}")

    @property
    def occupied_columns(self) -> tuple[int, ...]:
        """Columns holding at least one black box, increasing (1-based)."""
        return tuple(sorted({j for _, j in self.black}))

    @property
    def column_heights(self) -> tuple[int, ...]:
        """Black-box count of each occupied column, in column order."""
        counts: dict[int, int] = {}
        for _, j in self.black:
            counts[j] = counts.get(j, 0) + 1
        return tuple(counts[j] for j in self.occupied_columns)

    @property
    def height_prefixes(self) -> tuple[int, ...]:
        """Running totals of the column heights, starting at 0, ending at n."""
        out = [0]
        for h in self.column_heights:
            out.append(out[-1] + h)
        return tuple(out)

    def ascii_art(self) -> str:
        """One text row per power, '#' for black boxes, '.' otherwise."""
        if self.n == 0 or self.m == 0:
            return "(empty)"
        return "\n".join(
            "".join("#" if (i, j) in self.black else "." for j in range(1, self.m + 1))
            for i in range(self.n)
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "occupied_columns": list(self.occupied_columns),
            "column_heights": list(self.column_heights),
        }


def _code(m: int, n: int, columns, heights) -> KalmanCode:
    """The code whose occupied ``columns`` hold ``heights`` black boxes each."""
    return KalmanCode(m, n, frozenset((i, j) for j, h in zip(columns, heights) for i in range(h)))


def kalman_code(system: LinearSystem) -> KalmanCode:
    """Kalman code of a completely controllable system.

    Box ``(i, j)`` is black when column ``A^i B_j`` is independent of
    every column that precedes it lexicographically.  Invariant under
    base change.
    """
    black, _ = system._full_walk()
    return KalmanCode(system.m, system.n, frozenset(black))


def canonical_form(system: LinearSystem) -> tuple[Matrix, LinearSystem]:
    """The unique base change ``g`` putting a cc system in canonical form.

    Returns ``(g, (g A P, g B, C P))`` with ``g = P^-1``, read off the
    system's one kept reduction ``system._reduction``, which is shared
    with :func:`~moduli_sys.grassmann.moduli_point` and
    :func:`~moduli_sys.grassmann.stratum_point`.  The columns of ``P``
    are the black-box vectors ``A^i B_j``, grouped by occupied column, by
    increasing power inside each group.  Constant on orbits: equivalent
    systems produce the identical canonical system.
    """
    _, canon, g = system._reduction
    return g, canon


def multiindex_from_code(code: KalmanCode) -> MultiIndex:
    """The size-``n`` multi-index inside ``{1..m+n-1}`` attached to a code.

    Occupied columns contribute their own positions; the complement of
    the height prefix sums within ``{1..n}`` contributes positions
    shifted by ``m``.
    """
    prefix = set(code.height_prefixes[1:])
    complement = [c for c in range(1, code.n + 1) if c not in prefix]
    values = list(code.occupied_columns) + [code.m + c for c in complement]
    return MultiIndex(tuple(values), ambient=max(code.m + code.n - 1, 0))


def code_from_multiindex(index: MultiIndex, m: int, n: int) -> KalmanCode:
    """Inverse of :func:`multiindex_from_code`.

    Splits the index at ``m``: small entries become the occupied
    columns, large entries (minus ``m``) determine the height prefixes
    through their complement in ``{1..n}``.
    """
    values = tuple(index)
    if len(values) != n:
        raise InvalidMultiIndex(f"need {n} entries, got {len(values)}")
    if any(v < 1 or v > m + n - 1 for v in values):
        raise InvalidMultiIndex(f"entries of {values} must lie in 1..{m + n - 1}")
    cols = [v for v in values if v <= m]
    cs = [v - m for v in values if v > m]
    if any(c < 1 or c >= n for c in cs):
        raise InvalidMultiIndex(f"shifted entries {cs} must lie in 1..{n - 1}")
    ends = [e for e in range(1, n + 1) if e not in set(cs)]
    if len(ends) != len(cols):
        raise InvalidMultiIndex(
            f"{len(cols)} small entries cannot carry {len(ends)} column heights"
        )
    return _code(m, n, cols, [e - prev for prev, e in zip([0] + ends, ends)])


def all_codes(m: int, n: int) -> Iterator[KalmanCode]:
    """Every Kalman code of an (m, n) box array."""
    _non_negative({"m": m, "n": n})
    if n == 0:
        yield KalmanCode(m, 0, frozenset())
        return
    for k in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(1, m + 1), k):
            for cuts in itertools.combinations(range(1, n), k - 1):
                bounds = (0,) + cuts + (n,)
                yield _code(m, n, cols, [b - a for a, b in zip(bounds, bounds[1:])])
