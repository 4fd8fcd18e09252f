"""Hankel matrices of a block sequence and exact minimal realization.

Given a finite prefix ``F_1, ..., F_L`` of ``p x m`` blocks, the block
Hankel matrix ``H_ij`` stacks ``F_(a+b-1)`` at block position (a, b).
When some ``H_rs`` has the same rank as every available ``H_(r+1),(s+j)``
the order is certified inside the window, and the sequence is realized by
a canonical system of state dimension ``rank H_rs`` via exact rank
factorization (Ho-Kalman): ``H_rs = O R`` through the pivot columns, and
``A``, ``B`` and ``C`` are read off one reduced ``linalg._eliminate`` of
the block rows of ``H_(r,s+1)``, with no Hankel ``Matrix`` on the way.
The certificate is the check: its rank equalities already make the
shift equations solvable and the system reproduce every block of the
window (Tether's partial-realization argument; the proof is in
notes/decisions.md), so nothing is multiplied or compared afterwards.
:func:`verify_realization` stays for callers that report a result.

Certification never extrapolates: if the window is too short to check a
single shift, the outcome is the :class:`NotStabilized` value.

``H_ij`` is the leading ``m j`` columns of ``H_(i, L+1-i)``, so every
rank the certification needs is a prefix count of that matrix's pivot
columns.  Those come from one echelon that grows a block row at a time:
block row ``i+1`` is reduced against the pivot rows kept from
``H_(i, L+1-i)``, which are not eliminated again, and then among its own
rows.  No kept row is dropped: over ``Q`` the fraction-free divisions
stay exact only while each entry is a minor of every row taken so far.
Each entry is a minor on the pivot columns and its own, so columns are
cut instead: to the ``m (L-i)`` columns of ``H_(i+1, L-i)``, or just past
the rightmost pivot column if that lies further right, where the new
rows are padded with zeros.  No later step reads the rest.  The pivots
below ``m j`` depend only on the leading ``m j`` columns, so neither the
padding nor the cut changes a rank that is read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InsufficientData, NotStabilizedError, ShapeMismatch
from .linalg import Field, Matrix, _as_int, _eliminate, _non_negative
from .system import MAX_DIM, LinearSystem, _check_input_size, _json_array, _json_object, _read_matrix, markov_parameters


@dataclass(frozen=True)
class MarkovSequence:
    """Finite prefix of a sequence of p x m blocks over one field."""

    field: Field
    m: int
    p: int
    blocks: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        _non_negative({"m": self.m, "p": self.p})
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
        obj = _json_object(obj, "a Markov sequence", ("field", "m", "p", "blocks"))
        field = Field.from_json(obj["field"])
        m, p = _as_int(obj["m"], "m"), _as_int(obj["p"], "p")
        window = _json_array(obj["blocks"], "blocks")
        _check_input_size({"m": m, "p": p}, len(window) * p * m)
        if len(window) > 2 * MAX_DIM + 1:
            raise ValueError(f"a window of {len(window)} blocks is too long; at most {2 * MAX_DIM + 1} are supported")
        return MarkovSequence(field, m, p, tuple(_read_matrix(field, raw, p, m, "a block") for raw in window))


def _block_rows(seq: MarkovSequence, a: int, j: int) -> list[list]:
    """The ``p`` rows of block row ``a`` (0-based) of ``H_(., j)``: ``F_(a+1) .. F_(a+j)``."""
    m, blocks = seq.m, seq.blocks[a:a + j]
    return [[x for blk in blocks for x in blk.entries[r * m:(r + 1) * m]] for r in range(seq.p)]


def hankel(seq: MarkovSequence, i: int, j: int) -> Matrix:
    """Block Hankel matrix with block (a, b) equal to ``F_(a+b-1)``."""
    if i < 1 or j < 1:
        raise ValueError("Hankel block counts must be positive")
    if i + j - 1 > len(seq):
        raise InsufficientData(
            f"H_{i}{j} needs {i + j - 1} blocks, sequence has {len(seq)}"
        )
    ent = tuple(x for a in range(i) for row in _block_rows(seq, a, j) for x in row)
    return Matrix(seq.field, seq.p * i, seq.m * j, ent)


@dataclass(frozen=True)
class HankelRankProfile:
    """Certified stabilization point and the ranks that witnessed it."""

    r: int
    s: int
    order: int
    ranks: tuple[tuple[int, int, int], ...]  # (i, j, rank) for inspected sizes


@dataclass(frozen=True)
class NotStabilized:
    """Window verdict: no (r, s) could be certified with the data given."""

    window: int
    ranks: tuple[tuple[int, int, int], ...]


def realizability_order(seq: MarkovSequence) -> Union[HankelRankProfile, NotStabilized]:
    """Smallest (r, s), scanned lexicographically, with stable rank.

    Certifies ``rank H_rs == rank H_(r+1),(s+j)`` for every shift ``j >= 1``
    available in the window; at least one shift must be checkable.
    Returns :class:`NotStabilized` (a value, not an error) when the
    window certifies nothing.

    Each block-row count ``i`` the scan reaches costs one forward
    elimination that resumes the one before: only the ``p`` rows of block
    row ``i`` are reduced, first through the kept echelon rows of block
    rows ``1..i-1`` in the order their pivots were found, then among
    themselves.  After block row ``i``, ``rank H_ij`` is the number of
    pivot columns below ``m j``.  ``ranks`` lists exactly the sizes the
    scan inspected, in the order of (i, j).
    """
    f, m, L = seq.field, seq.m, len(seq)
    if L < 2:
        raise ValueError("need at least two blocks to certify anything")
    inspected: dict[tuple[int, int], int] = {}
    profiles: list[list[int]] = []  # sorted pivots of block rows 1..i; those below m (L+1-i) are H_(i, L+1-i)'s
    echelon: list[list] = []
    found: list[int] = []  # the pivot columns of the echelon rows, in the order found

    def rk(i: int, j: int) -> int:
        inspected[i, j] = bisect_left(profiles[i - 1], m * j)
        return inspected[i, j]

    for r in range(1, L - 1):
        for k in range(len(profiles), r + 1):  # the scan at r reads H_(r+1, .)
            # no column past H_(k+1, L-k) and past every pivot is read again; no row is dropped
            cols = m * (L - k)
            width = max(cols, profiles[-1][-1] + 1) if found else cols
            echelon = [row[:width] for row in echelon] + _block_rows(seq, k, L - k)
            if width > cols:  # a pivot lies past the new rows: they are zero there
                for row in echelon[len(found):]:
                    row += [0] * (width - cols)
            found, _ = _eliminate(f, echelon, width, False, found)
            del echelon[len(found):]
            profiles.append(sorted(found))
        for s in range(1, L - r):
            base = rk(r, s)
            shifts = range(1, L - r - s + 1)
            if all(rk(r + 1, s + j) == base for j in shifts):
                ranks = tuple(sorted((i, j, v) for (i, j), v in inspected.items()))
                return HankelRankProfile(r=r, s=s, order=base, ranks=ranks)
    ranks = tuple(sorted((i, j, v) for (i, j), v in inspected.items()))
    return NotStabilized(window=L, ranks=ranks)


def realize(seq: MarkovSequence) -> LinearSystem:
    """Canonical system of minimal order reproducing the whole window.

    The state dimension is the certified stable Hankel rank ``n``; raises
    :class:`NotStabilizedError` when no order can be certified.  At the
    certified ``(r, s)``, one reduced :func:`~moduli_sys.linalg._eliminate`
    of the block rows of ``H_(r,s+1) = [H_rs | next block column]`` gives
    ``n`` rows ``[R | *]``, ``R`` the reduced ``H_rs``, whose pivots all lie
    in ``H_rs``.  ``A`` is those rows past the first block column at the
    pivot columns, ``B`` their first ``m`` columns and ``C`` block row 1
    at the pivot columns.  No check follows: the certificate is the check.
    """
    profile = realizability_order(seq)
    if isinstance(profile, NotStabilized):
        raise NotStabilizedError(
            f"no stable Hankel rank certified within {profile.window} blocks"
        )
    f, m, p, r, s = seq.field, seq.m, seq.p, profile.r, profile.s
    rows = [row for a in range(r) for row in _block_rows(seq, a, s + 1)]
    pivots, _ = _eliminate(f, rows, m * (s + 1), True)
    n = len(pivots)
    del rows[n:]
    a = Matrix(f, n, n, tuple(row[m + k] for row in rows for k in pivots))  # pivot columns of R are I_n
    b = Matrix(f, n, m, tuple(v for row in rows for v in row[:m]))
    c = Matrix(f, p, n, tuple(row[k] for row in _block_rows(seq, 0, s) for k in pivots))
    return LinearSystem(a, b, c)


def verify_realization(system: LinearSystem, seq: MarkovSequence) -> bool:
    """Exact block-wise comparison of the system's output sequence."""
    if (system.p, system.m) != (seq.p, seq.m) or system.field != seq.field:
        raise ShapeMismatch(
            f"system emits {system.p}x{system.m} blocks over {system.field}, "
            f"sequence holds {seq.p}x{seq.m} over {seq.field}"
        )
    return markov_parameters(system, len(seq)) == list(seq.blocks)
