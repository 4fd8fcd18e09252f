"""Point counts over prime fields: closed formulas and brute-force census.

The closed formulas count orbits of completely controllable (resp.
observable) systems over ``F_q``:

    cc: q^(n(p+1)) * prod_{i=1..n} (q^(m+i-1) - 1) / (q^i - 1)
    co: q^(n(m+1)) * prod_{i=1..n} (q^(p+i-1) - 1) / (q^i - 1)

The census is the referee: it enumerates every ``(A, B)`` pair (or
``(A, C)`` for the dual count), tests the rank condition, multiplies by
the free choices of the remaining matrix and divides by ``|GL_n(F_q)|``
(stabilizers on the controllable locus are trivial, so that division is
exact).  The enumeration kernel is batched integer arithmetic mod q via
numpy; it is exact, and tests cross-check it against the scalar rank
routine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CensusTooLarge
from .kalman import canonical_form
from .linalg import Field
from .system import all_systems, classify

DEFAULT_CENSUS_BOUND = 1 << 24
_ENV_BOUND = "MODULI_SYS_CENSUS_BOUND"
_CHUNK = 1 << 16
_PAIR_COUNT_CACHE_SIZE = 1 << 16  # entries of the _cc_pair_count LRU cache

CSV_HEADER = "m,n,p,q,raw,gl_order,orbits,formula,match"


def gl_order(n: int, q: int) -> int:
    """``|GL_n(F_q)| = prod_{i=0..n-1} (q^n - q^i)``; 1 for n = 0."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def q_binomial(a: int, b: int, q: int) -> int:
    """Gaussian binomial coefficient, the subspace count, as an exact int."""
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    out = 1
    for i in range(1, b + 1):
        out = out * (q ** (a - b + i) - 1) // (q ** i - 1)
    return out


def count_cc_formula(m: int, n: int, p: int, q: int) -> int:
    """Closed-form number of cc orbits of type (m, n, p) over F_q."""
    prod = Fraction(1)
    for i in range(1, n + 1):
        prod *= Fraction(q ** (m + i - 1) - 1, q ** i - 1)
    value = Fraction(q ** (n * (p + 1))) * prod
    if value.denominator != 1:
        raise ArithmeticError(f"count formula is not integral at {(m, n, p, q)}")
    return value.numerator


def count_co_formula(m: int, n: int, p: int, q: int) -> int:
    """Closed-form number of co orbits; the cc formula with m and p swapped."""
    return count_cc_formula(p, n, m, q)


# -- batched enumeration kernel ---------------------------------------------


def _batched_rank_modq(mats: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of a batch of integer matrices, exactly.

    ``mats`` has shape (batch, rows, cols) with entries already reduced
    mod q.  Plain forward elimination, vectorized across the batch.
    """
    m = np.array(mats, dtype=np.int64, copy=True)
    count, nrows, ncols = m.shape
    ranks = np.zeros(count, dtype=np.int64)
    if count == 0 or nrows == 0 or ncols == 0:
        return ranks
    inv = np.zeros(q, dtype=np.int64)
    for x in range(1, q):
        inv[x] = pow(x, q - 2, q)
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


def _digit_matrices(indices: np.ndarray, q: int, shapes) -> list[np.ndarray]:
    """Decode base-q digit blocks of enumeration indices into matrices."""
    total_digits = sum(r * c for r, c in shapes)
    digits = np.empty((len(indices), total_digits), dtype=np.int64)
    t = indices.copy()
    for d in range(total_digits):
        digits[:, d] = t % q
        t //= q
    out = []
    offset = 0
    for r, c in shapes:
        out.append(digits[:, offset:offset + r * c].reshape(len(indices), r, c))
        offset += r * c
    return out


def _census_bound(bound: int | None) -> int:
    if bound is not None:
        return bound
    env = os.environ.get(_ENV_BOUND)
    return int(env) if env else DEFAULT_CENSUS_BOUND


@lru_cache(maxsize=_PAIR_COUNT_CACHE_SIZE)
def _cc_pair_count(m: int, n: int, q: int, bound: int) -> int:
    """Number of (A, B) pairs over F_q whose controllability rank is n."""
    if n == 0:
        return 1
    states = q ** (n * (n + m))
    if states > bound:
        raise CensusTooLarge(f"{states} states exceed the bound {bound}")
    count = 0
    for start in range(0, states, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, states), dtype=np.int64)
        a, b = _digit_matrices(idx, q, [(n, n), (n, m)])
        blocks = [b]
        cur = b
        for _ in range(1, n):
            cur = np.matmul(a, cur) % q
            blocks.append(cur)
        ctrb = np.concatenate(blocks, axis=2)
        count += int((_batched_rank_modq(ctrb, q) == n).sum())
    return count


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
              bound: int | None = None) -> CensusReport:
    """Brute-force orbit count of cc systems, checked against the formula.

    ``mode="exhaustive"`` enumerates all (A, B) pairs, counts those of
    full controllability rank, multiplies by the ``q^(pn)`` free output
    maps and divides by ``|GL_n|`` (the division must be exact; that is
    asserted).  ``mode="canonical-forms"`` instead enumerates all
    (A, B, C) triples and counts distinct canonical forms, which checks
    the orbit count without relying on the trivial-stabilizer division.
    """
    Field.prime(q)  # validates primality
    limit = _census_bound(bound)
    glq = gl_order(n, q)
    formula = count_cc_formula(m, n, p, q)
    if mode == "exhaustive":
        raw = _cc_pair_count(m, n, q, limit) * q ** (p * n)
        if raw % glq:
            raise ArithmeticError(
                f"raw count {raw} not divisible by |GL_{n}(F_{q})| = {glq}"
            )
        orbits = raw // glq
    elif mode == "canonical-forms":
        states = q ** (n * (n + m + p))
        if states > limit:
            raise CensusTooLarge(f"{states} states exceed the bound {limit}")
        field = Field.prime(q)
        forms = set()
        raw = 0
        for sys_ in all_systems(field, m, n, p):
            if classify(sys_).cc:
                raw += 1
                forms.add(canonical_form(sys_)[1])
        orbits = len(forms)
        if orbits * glq != raw:
            raise ArithmeticError(
                f"{raw} cc triples but {orbits} canonical forms over GL of order {glq}"
            )
    else:
        raise ValueError(f"unknown census mode {mode!r}")
    return CensusReport(
        m=m, n=n, p=p, q=q,
        raw_cc_triples=raw,
        gl_order=glq,
        orbit_count=orbits,
        formula_value=formula,
        match=orbits == formula,
    )


def census_co(m: int, n: int, p: int, q: int, bound: int | None = None) -> CensusReport:
    """Dual census: counts co orbits by dualizing each (A, C) pair.

    Observability of ``(A, C)`` is tested as controllability of the
    transposed pair ``(A^T, C^T)``, i.e. through the duality that swaps
    the two notions; ``B`` contributes ``q^(mn)`` free choices.
    """
    Field.prime(q)  # validates primality
    limit = _census_bound(bound)
    glq = gl_order(n, q)
    formula = count_co_formula(m, n, p, q)
    if n == 0:
        pairs = 1
    else:
        states = q ** (n * (n + p))
        if states > limit:
            raise CensusTooLarge(f"{states} states exceed the bound {limit}")
        pairs = 0
        for start in range(0, states, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, states), dtype=np.int64)
            a, c = _digit_matrices(idx, q, [(n, n), (p, n)])
            a_t = a.transpose(0, 2, 1)
            c_t = c.transpose(0, 2, 1)
            blocks = [c_t]
            cur = c_t
            for _ in range(1, n):
                cur = np.matmul(a_t, cur) % q
                blocks.append(cur)
            obs_dual = np.concatenate(blocks, axis=2)
            pairs += int((_batched_rank_modq(obs_dual, q) == n).sum())
    raw = pairs * q ** (m * n)
    if raw % glq:
        raise ArithmeticError(
            f"raw count {raw} not divisible by |GL_{n}(F_{q})| = {glq}"
        )
    orbits = raw // glq
    return CensusReport(
        m=m, n=n, p=p, q=q,
        raw_cc_triples=raw,
        gl_order=glq,
        orbit_count=orbits,
        formula_value=formula,
        match=orbits == formula,
    )


def census_csv(reports) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports])


# -- generating function -----------------------------------------------------


def cc_series_coefficients(m: int, p: int, q: int, terms: int) -> list[int]:
    """Coefficients of ``sum_n #cc-orbits(m, n, p) t^n`` up to ``t^terms``."""
    return [count_cc_formula(m, n, p, q) for n in range(terms + 1)]


def geometric_product_coefficients(m: int, p: int, q: int, terms: int) -> list[int]:
    """Truncated expansion of ``prod_{i=1..m} 1 / (1 - q^(p+i) t)``."""
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
