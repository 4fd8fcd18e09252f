"""Hankel matrices of a block sequence and exact minimal realization.

Given a finite prefix ``F_1, ..., F_L`` of ``p x m`` blocks, the block
Hankel matrix ``H_ij`` stacks ``F_(a+b-1)`` at block position (a, b).
When some ``H_rs`` has the same rank as every available ``H_(r+1),(s+j)``
the order is certified inside the window and the sequence is realized by
a canonical system of state dimension ``rank H_rs`` via exact rank
factorization (Ho-Kalman): factor ``H_rs = O R`` through the pivot
columns, solve ``O A R = H^(shifted)``, and read ``B`` and ``C`` off the
factors.

Certification never extrapolates: if the window is too short to check a
single shift, the outcome is the :class:`NotStabilized` value.

``H_ij`` is the leading ``m j`` columns of ``H_(i, L+1-i)``, so every
rank the certification needs is a prefix count of that matrix's pivot
columns: one forward elimination per block-row count, not one per size.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import (
    InconsistentData,
    InsufficientData,
    NotStabilizedError,
    ShapeMismatch,
)
from .linalg import Field, Matrix, inverse, pivot_columns, rref_with_pivots
from .system import LinearSystem, markov_parameters


@dataclass(frozen=True)
class MarkovSequence:
    """Finite prefix of a sequence of p x m blocks over one field."""

    field: Field
    m: int
    p: int
    blocks: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        for blk in self.blocks:
            if (blk.rows, blk.cols) != (self.p, self.m) or blk.field != self.field:
                raise ValueError(
                    f"every block must be {self.p}x{self.m} over {self.field}"
                )

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_scalars(cls, field: Field, values: Sequence) -> "MarkovSequence":
        blocks = tuple(Matrix.from_rows(field, [[v]]) for v in values)
        return cls(field, 1, 1, blocks)

    @classmethod
    def from_system(cls, system: LinearSystem, count: int) -> "MarkovSequence":
        return cls(system.field, system.m, system.p, tuple(markov_parameters(system, count)))

    def to_json(self) -> dict:
        enc = self.field.scalar_to_json
        return {
            "field": self.field.to_json(),
            "m": self.m,
            "p": self.p,
            "blocks": [[enc(x) for x in blk.entries] for blk in self.blocks],
        }

    @staticmethod
    def from_json(obj: dict) -> "MarkovSequence":
        field = Field.from_json(obj["field"])
        m, p = int(obj["m"]), int(obj["p"])
        blocks = []
        for raw in obj["blocks"]:
            if len(raw) != p * m:
                raise ValueError(f"block needs {p * m} entries, got {len(raw)}")
            blocks.append(Matrix(field, p, m, tuple(field.coerce(x) for x in raw)))
        return MarkovSequence(field, m, p, tuple(blocks))


def hankel(seq: MarkovSequence, i: int, j: int) -> Matrix:
    """Block Hankel matrix with block (a, b) equal to ``F_(a+b-1)``."""
    if i < 1 or j < 1:
        raise ValueError("Hankel block counts must be positive")
    if i + j - 1 > len(seq):
        raise InsufficientData(
            f"H_{i}{j} needs {i + j - 1} blocks, sequence has {len(seq)}"
        )
    f = seq.field
    rows = []
    for a in range(i):
        for r in range(seq.p):
            row = []
            for b in range(j):
                row.extend(seq.blocks[a + b].row_list(r))
            rows.append(row)
    return Matrix.from_rows(f, rows, cols=seq.m * j)


def _shifted_hankel(seq: MarkovSequence, i: int, j: int) -> Matrix:
    """Like :func:`hankel` but with blocks ``F_(a+b)``."""
    shifted = MarkovSequence(seq.field, seq.m, seq.p, seq.blocks[1:])
    return hankel(shifted, i, j)


@dataclass(frozen=True)
class HankelRankProfile:
    """Certified stabilization point and the ranks that witnessed it."""

    r: int
    s: int
    order: int
    ranks: tuple[tuple[int, int, int], ...]  # (i, j, rank) for inspected sizes

    def rank_table(self) -> dict[tuple[int, int], int]:
        return {(i, j): rk for i, j, rk in self.ranks}


@dataclass(frozen=True)
class NotStabilized:
    """Window verdict: no (r, s) could be certified with the data given."""

    window: int
    ranks: tuple[tuple[int, int, int], ...]

    def rank_table(self) -> dict[tuple[int, int], int]:
        return {(i, j): rk for i, j, rk in self.ranks}


def realizability_order(seq: MarkovSequence) -> Union[HankelRankProfile, NotStabilized]:
    """Smallest (r, s), scanned lexicographically, with stable rank.

    Certifies ``rank H_rs == rank H_(r+1),(s+j)`` for every shift ``j >= 1``
    available in the window; at least one shift must be checkable.
    Returns :class:`NotStabilized` (a value, not an error) when the
    window certifies nothing.

    Each block-row count ``i`` the scan reaches costs one forward
    elimination of ``H_(i, L+1-i)``; ``rank H_ij`` is then the number of
    its pivot columns below ``m j``.  ``ranks`` lists exactly the sizes
    the scan inspected, in the order of (i, j).
    """
    L = len(seq)
    if L < 2:
        raise ValueError("need at least two blocks to certify anything")
    cache: dict[tuple[int, int], int] = {}
    profiles: dict[int, tuple[int, ...]] = {}

    def rk(i: int, j: int) -> int:
        key = (i, j)
        if key not in cache:
            if i not in profiles:
                profiles[i] = pivot_columns(hankel(seq, i, L + 1 - i))
            cache[key] = bisect_left(profiles[i], seq.m * j)
        return cache[key]

    for r in range(1, L - 1):
        for s in range(1, L - r):
            base = rk(r, s)
            shifts = range(1, L - r - s + 1)
            if all(rk(r + 1, s + j) == base for j in shifts):
                ranks = tuple(sorted((i, j, v) for (i, j), v in cache.items()))
                return HankelRankProfile(r=r, s=s, order=base, ranks=ranks)
    ranks = tuple(sorted((i, j, v) for (i, j), v in cache.items()))
    return NotStabilized(window=L, ranks=ranks)


def _realize_at(seq: MarkovSequence, r: int, s: int) -> LinearSystem:
    """Rank-factor ``H_rs`` and solve the shift equation for ``A``.

    Deterministic: the factorization runs through the pivot columns of
    the reduced echelon form.  Raises :class:`InconsistentData` when the
    shift equation has no solution or the result fails to reproduce
    every supplied block.
    """
    f = seq.field
    h = hankel(seq, r, s)
    red, pivots = rref_with_pivots(h)
    n = len(pivots)
    obs = h.columns_at(pivots)                 # (p r) x n, full column rank
    rowspan = red.rows_at(range(n))            # n x (m s), full row rank
    shifted = _shifted_hankel(seq, r, s)

    if n == 0:
        a = Matrix.zeros(f, 0, 0)
        b = Matrix.zeros(f, 0, seq.m)
        c = Matrix.zeros(f, seq.p, 0)
    else:
        _, obs_row_pivots = rref_with_pivots(obs.transpose())
        anchor = list(obs_row_pivots)          # n independent rows of obs
        x = inverse(obs.rows_at(anchor)) @ shifted.rows_at(anchor)
        if obs @ x != shifted:
            raise InconsistentData("shift equation O X = H^ has no solution")
        a = x.columns_at(pivots)               # pivot columns of rowspan are I_n
        if a @ rowspan != x:
            raise InconsistentData("shift equation A R = X has no solution")
        b = rowspan.columns_at(range(seq.m))
        c = obs.rows_at(range(seq.p))
    system = LinearSystem(f, seq.m, n, seq.p, a, b, c)
    if markov_parameters(system, len(seq)) != list(seq.blocks):
        raise InconsistentData("realized system does not reproduce the data window")
    return system


def realize(seq: MarkovSequence) -> LinearSystem:
    """Canonical system of minimal order reproducing the whole window.

    The state dimension equals the certified stable Hankel rank.
    Raises :class:`NotStabilizedError` when no order can be certified.
    """
    profile = realizability_order(seq)
    if isinstance(profile, NotStabilized):
        raise NotStabilizedError(
            f"no stable Hankel rank certified within {profile.window} blocks"
        )
    return _realize_at(seq, profile.r, profile.s)


def verify_realization(system: LinearSystem, seq: MarkovSequence) -> bool:
    """Exact block-wise comparison of the system's output sequence."""
    if (system.p, system.m) != (seq.p, seq.m) or system.field != seq.field:
        raise ShapeMismatch(
            f"system emits {system.p}x{system.m} blocks over {system.field}, "
            f"sequence holds {seq.p}x{seq.m} over {seq.field}"
        )
    return markov_parameters(system, len(seq)) == list(seq.blocks)
