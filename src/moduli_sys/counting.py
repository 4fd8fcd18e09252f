"""Point counts over prime fields: closed formulas and brute-force census.

The closed formulas count orbits of completely controllable (resp.
observable) systems over ``F_q``:

    cc: q^(n(p+1)) * [m+n-1 choose n]_q
    co: q^(n(m+1)) * [p+n-1 choose n]_q

The census is the referee: it counts the controllable ``(A, B)`` pairs
by enumeration (the dual count is the same census of the dual shape)
and their orbits under ``GL_n(F_q)``.  Stabilizers on the controllable
locus are trivial, so the pairs are the orbits times ``|GL_n(F_q)|``.
The output map is free: for a cc pair with chain basis ``P``,
``C -> C P`` permutes the ``p x n`` output maps, so every orbit of cc
pairs carries exactly ``q^(pn)`` orbits of systems, and both counts are
multiplied by that factor once.

Controllability of ``(A, B)`` is invariant under ``(A, B) -> (g A g^-1,
g B h)`` for ``g`` in ``GL_n`` and ``h`` in ``GL_m``, and every ``B`` of
rank ``r`` is ``g [I_r 0; 0 0] h`` for some such pair.  Conjugation by
``g`` permutes the ``A``, and only the column space of ``B`` matters to
the Krylov matrix, so

    #cc pairs = sum_r #{B : rank B = r} * #{A : (A, E_r) cc},  E_r = [I_r; 0].

The pair count makes two exhaustive passes and uses no closed formula:
one over all ``q^(nm)`` matrices ``B`` for the histogram of their ranks,
then one over all ``q^(n^2)`` matrices ``A``, which tests every
``r = 1..min(n, m)`` on each chunk of ``A`` it builds, by the rank of
``[E_r, A E_r, ..., A^(n-1) E_r]``.  Both passes take their chunks from
one buffer, in which the low base-``q`` digits of the index, the same in
every chunk, are written once.  Block elimination
against the ``I_r`` on top of ``E_r`` makes that rank ``r`` plus the rank
of the tail, rows ``r..n-1`` of ``[A E_r, ..., A^(n-1) E_r]``, so only the
``(n - r) x (n - 1) r`` tail is ranked, and ``(A, E_r)`` is cc exactly
when the tail has rank ``n - r``.  ``A^k E_r`` is the first ``r``
columns of ``A^k E_min(n,m)``, so a chunk computes those products once
for every ``r``, and ``A E_min(n,m)`` is the first columns of ``A``.  A
chunk holds far fewer distinct tails than ``A`` (285 of 2^14 at
``(m, n, q) = (1, 4, 2)``), so each tail is coded as an int64, the
integer of its entries in base ``q``, summed from the products without
building the tail, and only the distinct codes are
ranked.  Each ``A`` counts once for each ``r``, so that is
``q^(nm) + min(n, m) q^(n^2)`` enumerated states when ``n > 0``, and
the ``bound`` argument (``DEFAULT_CENSUS_BOUND`` unless given) applies
to that number, once, before any enumeration.  A cell whose report would
be too long to print is refused first (see :func:`census_cc`), and the
number of any other cell is below ``10^4300``, so it is counted exactly.
The rank kernel is a swap-free elimination in batched int64 numpy
arithmetic that reduces mod q lazily, so entries grow to at most
``(q - 1) + cols (q - 1)^2``, exact below the modulus cap.  Tests
cross-check it against the scalar rank routine and an independent
swap-based kernel, and the pair count against a full ``(A, B)``
enumeration.  numpy is imported inside the kernel functions, so only a
census that enumerates loads it.

The ``canonical-forms`` mode of :func:`census_cc` is a referee of another
kind: it enumerates and reduces every pair ``(A, B)``, and counts the
distinct canonical pairs ``(A', B')`` keyed on their entries.  A pair is
its two digit tuples, walked and reduced on plain rows by
``system._canonical_pair``, the core that ``LinearSystem._reduction``
wraps, so no matrix or system is built for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import CensusTooLarge
from .linalg import Field, _non_negative, _shown
from .system import _canonical_pair

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CENSUS_BOUND = 1 << 24
# most states per int64 batch, for every q: the batches and their temporaries set the
# census peak memory, and at 2^14 a pass is no slower than at 2^16 with a third less of it
_CHUNK = 1 << 14
_PAIR_COUNT_CACHE_SIZE = 1 << 16  # entries of the _cc_pair_count LRU cache
# int64 is exact below 2^20: the Krylov product needs n * (q - 1)^2 < 2^63,
# the rank kernel (q - 1) + cols * (q - 1)^2 < 2^63, so cols < 2^23.
_MAX_CENSUS_MODULUS = 1 << 20
_REPORT_DIGITS = 4300  # str() refuses longer ints by default since Python 3.11; fixed, so alike everywhere

CSV_HEADER = "m,n,p,q,raw,gl_order,orbits,formula,match"


def gl_order(n: int, q: int) -> int:
    """``|GL_n(F_q)| = prod_{i=0..n-1} (q^n - q^i)``; 1 for n = 0."""
    _non_negative({"n": n})
    Field.prime(q)  # validates primality
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def q_binomial(a: int, b: int, q: int) -> int:
    """Gaussian binomial coefficient, the subspace count, as an exact int.

    ``q`` is any integer ``>= 2``; at a prime power it counts the
    ``b``-dimensional subspaces of ``F_q^a``.
    """
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    if q < 2:
        raise ValueError(f"q must be at least 2, got q={q}")
    out = 1
    for i in range(1, b + 1):
        out = out * (q ** (a - b + i) - 1) // (q ** i - 1)
    return out


def count_cc_formula(m: int, n: int, p: int, q: int) -> int:
    """Closed-form number of cc orbits of type (m, n, p) over F_q.

    ``q^(n(p+1)) [m+n-1 choose n]_q``, read as 1 for ``n = 0`` and as 0
    for ``m = 0 < n``, where no system is controllable.
    """
    _non_negative({"m": m, "n": n, "p": p})
    Field.prime(q)  # validates primality
    if m == 0:
        return int(n == 0)
    return q ** (n * (p + 1)) * q_binomial(m + n - 1, n, q)


def count_co_formula(m: int, n: int, p: int, q: int) -> int:
    """Closed-form number of co orbits; the cc formula with m and p swapped."""
    _non_negative({"m": m, "n": n, "p": p})
    return count_cc_formula(p, n, m, q)


# -- batched enumeration kernel ---------------------------------------------


def _inverse_table(q: int) -> np.ndarray:
    """``inv[x] = x^(q-2)``, the inverse of each nonzero ``x`` mod q, for every ``x`` at once.

    One table serves a whole pair count: at the largest census moduli a
    build costs more than ranking a chunk.
    """
    import numpy as np
    inv, base, e = np.ones(q, dtype=np.int64), np.arange(q, dtype=np.int64), q - 2
    while e:  # square-and-multiply on every residue at once
        if e & 1:
            inv = inv * base % q
        base, e = base * base % q, e >> 1
    return inv


def _batched_rank_modq(mats: np.ndarray, q: int, inv: np.ndarray) -> np.ndarray:
    """Ranks over F_q of a batch of integer matrices, exactly.

    ``mats`` has shape (batch, rows, cols) with entries already reduced
    mod q, and ``inv`` is :func:`_inverse_table` of ``q``.  Swap-free
    forward elimination of the whole batch at once: in each column the
    first row nonzero mod q pivots, and the column times the pivot row
    (reduced, scaled by the pivot's inverse) is subtracted from every
    row, which leaves the pivot row 0 mod q for good.  Only that column
    and row are reduced, so no entry passes ``(q - 1) + cols (q - 1)^2``.
    """
    import numpy as np
    m = np.array(mats, dtype=np.int64, copy=True)
    ranks = np.zeros(len(m), dtype=np.int64)
    if m.size == 0:
        return ranks
    all_ids = np.arange(len(m))
    for col in range(m.shape[2]):
        column = m[:, :, col] % q
        pivot_ids = (column != 0).argmax(axis=1)
        pivots = column[all_ids, pivot_ids]
        ranks += pivots != 0
        rest = m[:, :, col + 1:]
        pivot_rows = rest[all_ids, pivot_ids] % q * inv[pivots][:, None] % q
        rest -= column[:, :, None] * pivot_rows[:, None, :]
    return ranks


def _digit_matrices(indices: np.ndarray, q: int, rows: int, cols: int) -> np.ndarray:
    """The ``rows x cols`` matrices whose entries are the base-q digits of the indices.

    Digit ``d``, lowest first, is entry ``d`` in row-major order, so the
    index of a matrix with row-major entries ``t`` is ``sum_d t_d q^d``.
    """
    import numpy as np
    digits = np.empty((len(indices), rows * cols), dtype=np.int64)
    t = indices.copy()
    for d in range(rows * cols):
        np.divmod(t, q, out=(t, digits[:, d]))
    return digits.reshape(len(indices), rows, cols)


def _chunks(q: int, rows: int, cols: int):
    """Every ``rows x cols`` matrix over F_q in index order, in chunks of at most ``_CHUNK``.

    An index is ``h q^k + l``, with ``q^k`` the largest power of ``q`` up
    to ``_CHUNK`` and ``k <= rows cols`` (``k = 0`` when ``q > _CHUNK``).
    The digits of ``l`` fill the first ``k`` row-major entries: they are
    written once, into one buffer of ``_CHUNK // q^k`` blocks of ``q^k``
    matrices, and each chunk decodes only its own ``h`` and broadcasts
    their digits into the other entries.  Every chunk is a view of that
    one buffer, which the next chunk overwrites, so a consumer reads a
    chunk before it asks for the next.  An empty shape is one empty matrix.
    """
    import numpy as np
    size = rows * cols
    k = 0
    while k < size and q ** (k + 1) <= _CHUNK:
        k += 1
    low, highs = q ** k, q ** (size - k)
    per_chunk = min(_CHUNK // low, highs)
    buf = np.empty((per_chunk, low, size), dtype=np.int64)
    buf[:, :, :k] = _digit_matrices(np.arange(low, dtype=np.int64), q, 1, k)[:, 0]
    for start in range(0, highs, per_chunk):
        h = np.arange(start, min(start + per_chunk, highs), dtype=np.int64)
        buf[:len(h), :, k:] = _digit_matrices(h, q, 1, size - k)
        yield buf[:len(h)].reshape(len(h) * low, rows, cols)


def _krylov_blocks(a: np.ndarray, s: int, q: int) -> list[np.ndarray]:
    """The blocks ``A^j E_s`` mod q, ``j = 1..n-1``, for a batch of ``n x n`` matrices ``A``.

    ``A E_s`` is the first ``s`` columns of ``A``, with no product; each
    later block is ``A`` times the one before.  ``A^j E_r`` is the first
    ``r`` columns of ``A^j E_s`` for every ``r <= s``, so one list serves
    every ``r``; at ``n = 1`` it is empty.
    """
    import numpy as np
    n = a.shape[1]
    blocks = [a[:, :, :s]] if n > 1 else []
    for _ in range(2, n):
        block = np.matmul(a, blocks[-1])
        block -= block // q * q  # mod q: numpy divides an array by a scalar far faster than it takes %
        blocks.append(block)
    return blocks


def _tail_codes(blocks: list[np.ndarray], count: int, n: int, r: int, q: int) -> np.ndarray:
    """The code ``sum_i t_i q^i`` of each Krylov tail of ``E_r``, ``t`` its row-major entries.

    The tail is rows ``r..n-1`` of ``[A E_r, ..., A^(n-1) E_r]``, a
    ``(n - r) x (n - 1) r`` matrix that :func:`_digit_matrices` decodes
    from its code.  It is never built: block by block, rows ``r..n-1`` of
    the first ``r`` columns of each of the ``count`` :func:`_krylov_blocks`
    are summed against their powers of ``q``.
    """
    import numpy as np
    powers = (q ** np.arange((n - r) * (n - 1) * r, dtype=np.int64)).reshape(n - r, (n - 1) * r)
    codes = np.zeros(count, dtype=np.int64)
    for j, block in enumerate(blocks):
        codes += np.einsum("bij,ij->b", block[:, r:, :r], powers[:, j * r:(j + 1) * r])
    return codes


def _controllable_a_counts(a: np.ndarray, q: int, inv: np.ndarray, m: int) -> list[int]:
    """For each ``r = 1..min(n, m)``, how many ``A`` of one chunk make ``(A, E_r)`` cc.

    The :func:`_krylov_blocks` of the chunk are computed once for every
    ``r``.  Each tail code is below ``q^((n-r)(n-1)r)``, which
    :func:`census_cc` keeps within int64.  Only the distinct tails,
    decoded by :func:`_digit_matrices`, are ranked, and each one of rank
    ``n - r`` counts as often as it occurs.
    """
    import numpy as np
    n = a.shape[1]
    blocks = _krylov_blocks(a, min(n, m), q)
    counts = []
    for r in range(1, min(n, m) + 1):
        distinct, occurrences = np.unique(_tail_codes(blocks, len(a), n, r, q), return_counts=True)
        ranks = _batched_rank_modq(_digit_matrices(distinct, q, n - r, (n - 1) * r), q, inv)
        counts.append(int(occurrences[ranks == n - r].sum()))
    return counts


@lru_cache(maxsize=_PAIR_COUNT_CACHE_SIZE)
def _cc_pair_count(m: int, n: int, q: int) -> int:
    """Number of (A, B) pairs over F_q whose controllability rank is n.

    One pass over the ``B`` finds how many have each rank, and one pass
    over the ``A`` counts, for every ``r`` at once, those whose Krylov
    tail (see :func:`_tail_codes`) has rank ``n - r``; at ``m = 0`` there
    is no ``r`` and no ``A`` is built.  Enumerates ``q^(nm) + min(n, m) q^(n^2)``
    states; :func:`census_cc` checks them against its bound, and the tail
    codes against int64, before calling.
    """
    if n == 0:
        return 1
    import numpy as np
    inv = _inverse_table(q)
    b_ranks = np.zeros(n + 1, dtype=np.int64)
    for b in _chunks(q, n, m):
        b_ranks += np.bincount(_batched_rank_modq(b, q, inv), minlength=n + 1)
    a_counts = [0] * min(n, m)
    for a in _chunks(q, n, n) if m else ():
        a_counts = [total + c for total, c in zip(a_counts, _controllable_a_counts(a, q, inv, m))]
    return sum(int(b_ranks[r]) * count for r, count in enumerate(a_counts, 1))


def _pairs(m: int, n: int, q: int):
    """Every pair ``(A, B)`` of an ``n x n`` and an ``n x m`` matrix over F_q, as row-major digit tuples."""
    na = n * n
    for digits in itertools.product(range(q), repeat=n * (n + m)):
        yield digits[:na], digits[na:]


@dataclass(frozen=True)
class CensusReport:
    m: int
    n: int
    p: int
    q: int
    raw_cc_triples: int
    gl_order: int
    orbit_count: int
    formula_value: int
    match: bool

    def csv_row(self) -> str:
        return (
            f"{self.m},{self.n},{self.p},{self.q},{self.raw_cc_triples},"
            f"{self.gl_order},{self.orbit_count},{self.formula_value},"
            f"{'true' if self.match else 'false'}"
        )


def census_cc(m: int, n: int, p: int, q: int, mode: str = "exhaustive",
              bound: int = DEFAULT_CENSUS_BOUND) -> CensusReport:
    """Brute-force orbit count of cc systems, checked against the formula.

    Each mode finds the number of (A, B) pairs of full controllability
    rank and the number of their orbits.  ``mode="exhaustive"`` counts the
    pairs by the two rank-stratified passes of the module docstring, which
    rank only the distinct Krylov tails that ``E_r`` leaves, and divides by
    ``|GL_n|``.  ``mode="canonical-forms"`` instead reduces every cc pair
    once, on its plain entry tuples with the walk and reduction of
    ``LinearSystem._reduction``, and counts the distinct canonical pairs
    ``(A', B')``, keyed on their entry tuples, which finds the orbits
    without the stabilizer division.  Either way the pairs must be the
    orbits times ``|GL_n|`` (an :class:`ArithmeticError` otherwise), and
    both numbers are multiplied by the ``q^(pn)`` free output maps to give
    ``raw_cc_triples`` and ``orbit_count``.

    Refusals come before any work, in this order: ``ValueError`` for a
    negative dimension, a negative ``bound``, a non-prime ``q``, an unknown
    mode, or a modulus of ``2^20`` and above in an exhaustive cell with
    ``m, n > 0``; then
    :class:`CensusTooLarge` for a report too long to print: ``q^(n(n+m+p))``
    bounds ``raw``, ``|GL_n|`` and the formula, and a cell is refused when
    it has over 4300 digits, that is when ``n(n+m+p) >= 4300 / log10 q``;
    then :class:`CensusTooLarge` for more than ``bound`` states, counted as
    in the module docstring (an exhaustive ``n = 0`` is never refused) or as
    all ``q^(n(n+m))`` pairs for the canonical forms.  Either count is
    at most ``q^(n(n+m+p))`` once the report prints, so it is computed
    exactly, and a count or bound past 256 bits is named ``more than 2^k``.
    Last, an exhaustive cell gets :class:`CensusTooLarge` when its Krylov
    tails have too many codes for int64, ``q^((n-r)(n-1)r) >= 2^63`` for
    some ``r <= min(n, m)``.  Only a raised bound reaches this rule; the
    cell with the fewest states that it refuses is ``(m, n, q) = (3, 7, 2)``.
    """
    _non_negative({"m": m, "n": n, "p": p}, "census dimension ")
    _non_negative({"bound": bound}, "census ")
    field = Field.prime(q)  # validates primality
    if mode not in ("exhaustive", "canonical-forms"):
        raise ValueError(f"unknown census mode {mode!r}")
    exhaustive = mode == "exhaustive"
    if exhaustive and n and m and q >= _MAX_CENSUS_MODULUS:
        raise ValueError(f"census modulus {q} is too large; the census supports moduli below {_MAX_CENSUS_MODULUS}")
    if n * (n + m + p) >= _REPORT_DIGITS / math.log10(q):
        raise CensusTooLarge(f"{q}^({_shown(n)}*{_shown(n + m + p)}) = q^(n(n+m+p)) has more than {_REPORT_DIGITS} "
                             f"digits, too many to print the report of n = {_shown(n)}")
    # an exhaustive n = 0 is the one empty pair, counted without enumeration
    states = q ** (n * m) + min(n, m) * q ** (n * n) if exhaustive else q ** (n * (n + m))
    if (n or not exhaustive) and states > bound:
        raise CensusTooLarge(f"{_shown(states)} states exceed the bound {_shown(bound)}")
    # the pair count codes each Krylov tail as an int64 below q^((n-r)(n-1)r); q >= 2,
    # so every exponent from 63 on is refused without forming the power
    for r in range(1, min(n, m) + 1) if exhaustive else ():
        rows, cols = n - r, (n - 1) * r
        if rows * cols >= 63 or q ** (rows * cols) >= 1 << 63:
            raise CensusTooLarge(f"{q}^({rows}*{cols}) = q^((n-r)(n-1)r) is at least 2^63, too many "
                                 f"Krylov tail codes for int64 at r = {r}")
    glq = gl_order(n, q)
    formula = count_cc_formula(m, n, p, q)
    if exhaustive:
        pairs = _cc_pair_count(m, n, q)
        pair_orbits = pairs // glq
    else:
        forms, pairs = set(), 0
        for a, b in _pairs(m, n, q):
            canon = _canonical_pair(field, n, m, a, b)
            if canon is not None:
                forms.add(canon)
                pairs += 1
        pair_orbits = len(forms)
    if pair_orbits * glq != pairs:
        raise ArithmeticError(f"{pairs} cc pairs but {pair_orbits} orbits over GL of order {glq}")
    outputs = q ** (p * n)
    raw, orbits = pairs * outputs, pair_orbits * outputs
    return CensusReport(
        m=m, n=n, p=p, q=q,
        raw_cc_triples=raw,
        gl_order=glq,
        orbit_count=orbits,
        formula_value=formula,
        match=orbits == formula,
    )


def census_co(m: int, n: int, p: int, q: int, bound: int = DEFAULT_CENSUS_BOUND) -> CensusReport:
    """Dual census: co orbits of type (m, n, p) are cc orbits of type (p, n, m).

    ``(A, C)`` is observable exactly when ``(A^T, C^T)`` is controllable,
    and transposition is a bijection of the pair sets, so the count is
    :func:`census_cc` of the dual shape, reported under the original
    ``m`` and ``p``.
    """
    _non_negative({"m": m, "n": n, "p": p}, "census dimension ")
    return replace(census_cc(p, n, m, q, bound=bound), m=m, p=p)


def census_csv(reports) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports])


# -- generating function -----------------------------------------------------


def cc_series_coefficients(m: int, p: int, q: int, terms: int) -> list[int]:
    """Coefficients of ``sum_n #cc-orbits(m, n, p) t^n`` up to ``t^terms``."""
    _non_negative({"m": m, "p": p, "terms": terms})
    return [count_cc_formula(m, n, p, q) for n in range(terms + 1)]


def geometric_product_coefficients(m: int, p: int, q: int, terms: int) -> list[int]:
    """Truncated expansion of ``prod_{i=1..m} 1 / (1 - q^(p+i) t)``."""
    _non_negative({"m": m, "p": p, "terms": terms})
    coeffs = [1] + [0] * terms
    for i in range(1, m + 1):
        ratio = q ** (p + i)
        # multiply by the geometric series of ratio: c'_d = c_d + ratio * c'_(d-1)
        for d in range(1, terms + 1):
            coeffs[d] += ratio * coeffs[d - 1]
    return coeffs


def series_identity_check(m: int, p: int, q: int, terms: int) -> bool:
    """Do the orbit counts aggregate into the product of geometric series?"""
    return cc_series_coefficients(m, p, q, terms) == geometric_product_coefficients(m, p, q, terms)
