"""Grassmannian points, Schubert cells and the two system embeddings.

A point of ``Gras_k(N)`` is stored as the unique reduced-echelon basis
of its row space, so equality of points is equality of matrices.  Two
embeddings are provided:

* :func:`moduli_point` sends a completely controllable system of state
  dimension ``n >= 1`` to the point of ``Gras_n(m+n-1)`` spanned by the
  first ``m+n-1`` columns of its canonical form.  It is constant on
  orbits; it always lands in the Schubert cell of the Kalman code only
  for ``n <= 3`` or one occupied column (ROADMAP.md, direction 1).
* :func:`stratum_point` sends a system with full-row-rank ``[B C^T A]``
  to the ``(m+p)``-plane of column relations of that matrix, a point of
  ``Gras_{m+p}(m+p+n)`` sitting in stratum ``n`` of the growing family.

Points of the growing family are compared after trailing zero columns
are stripped, which makes the stratum and the locus tests independent
of zero-padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DimensionMismatch, NotControllable, NotInLocus, RankDeficient
from .kalman import MultiIndex, code_from_multiindex
from .linalg import Field, Matrix, hstack, kernel_basis, minor_det, rank, rref_with_pivots
from .system import LinearSystem


@dataclass(frozen=True)
class GrassmannPoint:
    """A k-plane in N-space via its reduced-echelon ``k x N`` representative, which gives the field, k and N."""

    rep: Matrix
    pivots: MultiIndex

    def __post_init__(self) -> None:
        if len(self.pivots) != self.rep.rows:
            raise ValueError("need one pivot per plane dimension")

    @property
    def field(self) -> Field:
        return self.rep.field

    @property
    def k(self) -> int:
        return self.rep.rows

    @property
    def N(self) -> int:
        return self.rep.cols

    def minor(self, index: MultiIndex | Sequence[int]):
        """Determinant of the columns selected by a 1-based multi-index."""
        cols = [v - 1 for v in index]
        return minor_det(self.rep, range(self.k), cols)

    def to_json(self) -> dict:
        enc = self.field.scalar_to_json
        return {
            "field": self.field.to_json(),
            "k": self.k,
            "N": self.N,
            "pivots": list(self.pivots),
            "rep": [enc(x) for x in self.rep.entries],
        }


def point_from_matrix(matrix: Matrix) -> GrassmannPoint:
    """Canonical point with the row space of a full-row-rank matrix."""
    red, pivots = rref_with_pivots(matrix)
    if len(pivots) < matrix.rows:
        raise RankDeficient(
            f"rows span only {len(pivots)} dimensions, expected {matrix.rows}"
        )
    return GrassmannPoint(red, MultiIndex(tuple(c + 1 for c in pivots), ambient=matrix.cols))


def schubert_cell_of(point: GrassmannPoint) -> MultiIndex:
    """The multi-index of column positions where the prefix rank jumps.

    For an echelon representative these are exactly the pivot columns;
    the minor at these columns is invertible.
    """
    return point.pivots


# -- the finite embedding --------------------------------------------------


def moduli_point(system: LinearSystem) -> GrassmannPoint:
    """Point of ``Gras_n(m+n-1)`` attached to a cc system's orbit.

    Built from the canonical form ``(A', B', C')`` as the row space of
    ``[B'_1 ... B'_m  A'_1 ... A'_(n-1)]``.  Requires ``n >= 1``.  Over
    ``F_2`` with heights ``(2, 2)`` its pivots can be ``{1,2,3,4}``, not
    the Kalman code's ``{1,2,3,5}``.
    """
    if system.n < 1:
        raise ValueError("the finite embedding needs state dimension n >= 1")
    _, canon, _ = system._reduction
    blocks = [canon.B]
    if system.n > 1:
        blocks.append(canon.A.columns_at(range(system.n - 1)))
    return point_from_matrix(hstack(blocks))


def system_from_cell(
    index: MultiIndex,
    m: int,
    n: int,
    field: Field,
    free_values: Mapping[tuple[int, int], object] | None = None,
    C: Matrix | None = None,
    A_last: Matrix | None = None,
) -> LinearSystem:
    """A cc system whose :func:`moduli_point` lies in the given cell.

    The pinned columns of the ``n x (m+n-1)`` representative are
    standard basis vectors determined by the box code of ``index``; the
    remaining entries are free cell coordinates, supplied as a mapping
    from 0-based ``(row, column)`` positions.  Any last column of ``A``
    and any ``C`` that fit may be attached on top.  Witnesses surjectivity
    of the embedding onto every cell.
    """
    if n < 1:
        raise ValueError("cells of the finite embedding need state dimension n >= 1")
    code = code_from_multiindex(index, m, n)
    width = m + n - 1
    free_values = dict(free_values or {})

    # 1-based column of the index -> 0-based row of its basis vector
    pinned_row = dict(zip(code.occupied_columns, code.height_prefixes))
    pinned_row.update((v, v - m) for v in index if v > m)

    grid = [[field.zero] * width for _ in range(n)]
    for col, row in pinned_row.items():
        grid[row][col - 1] = field.one

    sorted_index = sorted(pinned_row)
    for (row, col), value in free_values.items():
        if not (0 <= row < n and 0 <= col < width):
            raise ValueError(f"free entry {(row, col)} outside the representative")
        if col + 1 in pinned_row:
            raise ValueError(f"column {col + 1} is pinned, not free")
        allowed = {pinned_row[d] for d in sorted_index if d < col + 1}
        if row not in allowed:
            raise ValueError(
                f"free entry {(row, col)} breaks the echelon pattern of the cell"
            )
        grid[row][col] = field.coerce(value)

    rep = Matrix(field, n, width, tuple(x for row in grid for x in row))
    B = rep.columns_at(range(m))
    if A_last is None:
        A_last = Matrix.zeros(field, n, 1)
    if C is None:
        C = Matrix.zeros(field, 0, n)
    return LinearSystem(hstack([rep.columns_at(range(m, width)), A_last]), B, C)


# -- the stratified embedding ----------------------------------------------


@dataclass(frozen=True, eq=False)
class InfiniteGrassmannPoint:
    """A point of the growing Grassmannian family, stored at stratum ``N - k`` of its representative."""

    point: GrassmannPoint

    @property
    def stratum(self) -> int:
        return self.point.N - self.point.k

    def minimal_ambient(self) -> int:
        """Ambient size once trailing zero columns are stripped."""
        rep = self.point.rep
        last = 0
        for j in range(rep.cols - 1, -1, -1):
            if any(rep.entry(i, j) != 0 for i in range(rep.rows)):
                last = j + 1
                break
        return max(last, self.point.k)

    def padded(self, extra: int) -> "InfiniteGrassmannPoint":
        """The same subspace inside ``extra`` more coordinates: zero columns keep the echelon form."""
        if extra < 0:
            raise ValueError("cannot pad by a negative amount")
        pt, width = self.point, self.point.N + extra
        ent = tuple(x for i in range(pt.k) for x in pt.rep.row_list(i) + [0] * extra)
        pivots = MultiIndex(pt.pivots.values, ambient=width)
        return InfiniteGrassmannPoint(GrassmannPoint(Matrix(pt.field, pt.k, width, ent), pivots))

    def _key(self):
        w = self.minimal_ambient()
        rep = self.point.rep
        stripped = tuple(rep.entry(i, j) for i in range(rep.rows) for j in range(w))
        return (self.point.field, self.point.k, w, stripped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfiniteGrassmannPoint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def stratum_point(system: LinearSystem) -> InfiniteGrassmannPoint:
    """Relation plane of ``[B C^T A]`` inside ``Gras_{m+p}(m+p+n)``.

    For a completely controllable system the plane is computed on the
    canonical form, which makes it constant on orbits and guarantees
    that the ``p + 1`` columns at ``{m+1..m+p, m+p+n}`` of the
    representative stay independent.  Other systems are accepted as
    long as ``[B C^T A]`` has full row rank; they get the raw relation
    plane of the representative at hand.
    """
    try:
        _, system, _ = system._reduction
    except NotControllable:
        pass
    L = hstack([system.B, system.C.transpose(), system.A])
    relations = kernel_basis(L)
    if relations.rows > system.m + system.p:
        raise RankDeficient(f"[B C^T A] has rank below n = {system.n}")
    return InfiniteGrassmannPoint(point_from_matrix(relations))


@dataclass(frozen=True)
class LocusMembership:
    in_cc: bool
    in_co: bool
    in_canonical: bool


def _required_rank_holds(point: GrassmannPoint, columns: set[int]) -> bool:
    cols = sorted(c - 1 for c in columns)
    selected = point.rep.columns_at(cols)
    return rank(selected) == len(cols)


def locus_membership(point: InfiniteGrassmannPoint, m: int, p: int) -> LocusMembership:
    """Membership in the controllable / observable / canonical loci.

    With ``n`` the stratum of the stripped representative, the
    controllable locus requires columns ``{m+1..m+p, m+p+n}`` of the
    representative to be linearly independent (they then extend to an
    invertible ``(m+p)``-minor, i.e. some admissible multi-index has an
    invertible minor); the observable locus requires the same of
    columns ``{1..m, m+p+n}``; the canonical locus is the intersection.
    """
    if point.point.k != m + p:
        raise DimensionMismatch(f"point is a {point.point.k}-plane, expected {m + p}")
    width = point.minimal_ambient()
    n = width - (m + p)
    required_cc = set(range(m + 1, m + p + 1)) | {m + p + n}
    required_co = set(range(1, m + 1)) | {m + p + n}
    in_cc = _required_rank_holds(point.point, required_cc)
    in_co = _required_rank_holds(point.point, required_co)
    return LocusMembership(in_cc=in_cc, in_co=in_co, in_canonical=in_cc and in_co)


def stratum_dimension(point: InfiniteGrassmannPoint, m: int, p: int) -> int:
    """State dimension read off a point of the controllable locus.

    Equals the stripped ambient size minus ``m + p``; the largest
    admissible multi-index ends exactly there.
    """
    membership = locus_membership(point, m, p)
    if not membership.in_cc:
        raise NotInLocus("point is outside the controllable locus")
    return point.minimal_ambient() - (m + p)
