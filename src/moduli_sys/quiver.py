"""Systems as representations of a two-vertex quiver.

A system of type ``(m, n, p)`` is the same data as a representation of
dimension vector ``(1, n)`` of the quiver with ``m`` arrows running
left to right (the columns of ``B``), ``p`` arrows running right to
left (the rows of ``C``) and one loop (``A``).  Simplicity of the
representation and stability with respect to the two nontrivial weights
translate exactly into the canonical / cc / co classification, and this
module decides them two independent ways:

* ``mode="rank"`` computes the exact set of subrepresentation dimension
  vectors from the reachable and unobservable subspaces together with
  the invariant-subspace dimensions of the induced operators (read off
  the factorization of their characteristic polynomials);
* ``mode="oracle"`` enumerates every subspace of ``F_q^n`` and tests
  the defining conditions directly.  Exhaustive, therefore bounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import sympy

from .errors import NonzeroThetaAlpha, OracleTooLarge
from .linalg import Field, Matrix, charpoly, inverse, kernel_basis, rank, rref_with_pivots, vstack
from .system import LinearSystem, controllability_matrix, observability_matrix

DEFAULT_SUBSPACE_LIMIT = 1 << 15

DimensionVector = tuple[int, int]
StabilityWeight = tuple[int, int]


@dataclass(frozen=True)
class QuiverRep:
    """A system viewed as a quiver representation of dimension (1, n)."""

    system: LinearSystem

    @classmethod
    def of(cls, system: LinearSystem) -> "QuiverRep":
        return cls(system)

    @property
    def dimension_vector(self) -> DimensionVector:
        return (1, self.system.n)


def euler_dimension(m: int, n: int, p: int) -> int:
    """``1 - chi((1,n), (1,n))`` for the quiver with m + p arrows and a loop.

    Evaluates the Euler form from the arrow data; the closed form is
    ``(m + p) n``.
    """
    alpha = (1, n)
    arrows = [(0, 1)] * m + [(1, 0)] * p + [(1, 1)]
    chi = alpha[0] * alpha[0] + alpha[1] * alpha[1]
    for s, t in arrows:
        chi -= alpha[s] * alpha[t]
    return 1 - chi


def controllability_weight(n: int) -> StabilityWeight:
    """The weight whose stable representations are the cc systems."""
    return (-n, 1)


def observability_weight(n: int) -> StabilityWeight:
    """The weight whose stable representations are the co systems."""
    return (n, -1)


# -- invariant subspace dimensions ----------------------------------------

_FACTOR_CACHE_SIZE = 2 ** 16  # entries; the oldest is dropped beyond this
_FACTOR_CACHE: dict = {}


def _invariant_subspace_dims(op: Matrix) -> frozenset[int]:
    """All dimensions of invariant subspaces of a square operator.

    An invariant subspace splits along the primary components of the
    operator, and inside the component of an irreducible factor of
    degree d every multiple of d up to the component dimension occurs
    (walk down a composition series).  So the answer is the sumset of
    ``{0, d, 2d, ..., a*d}`` over the factorization ``prod p_i^{a_i}``
    of the characteristic polynomial.
    """
    field = op.field
    coeffs = charpoly(op)
    key = (field.q, coeffs)
    cached = _FACTOR_CACHE.get(key)
    if cached is not None:
        return cached
    degree_mults = _factor_degrees(field, coeffs)
    dims = {0}
    for deg, mult in degree_mults:
        dims = {x + t * deg for x in dims for t in range(mult + 1)}
    result = frozenset(dims)
    if len(_FACTOR_CACHE) >= _FACTOR_CACHE_SIZE:
        del _FACTOR_CACHE[next(iter(_FACTOR_CACHE))]
    _FACTOR_CACHE[key] = result
    return result


def _factor_degrees(field: Field, coeffs: tuple) -> list[tuple[int, int]]:
    """(degree, multiplicity) pairs of the irreducible factors."""
    if len(coeffs) == 1:
        return []
    x = sympy.Symbol("x")
    if field.q is None:
        sym_coeffs = [sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c) for c in coeffs]
        poly = sympy.Poly(sym_coeffs, x, domain="QQ")
    else:
        poly = sympy.Poly([int(c) for c in coeffs], x, modulus=field.q)
    _, factors = poly.factor_list()
    return [(f.degree(), mult) for f, mult in factors]


def _operator_blocks(a: Matrix, subspace_rows: Matrix) -> tuple[Matrix, Matrix]:
    """Restriction and quotient of ``a`` along an invariant subspace.

    ``subspace_rows`` holds a basis of an A-invariant subspace, one
    vector per row.  Completes it to a basis of the whole space and
    conjugates; the result is block upper triangular, giving the
    restricted operator (top left) and the quotient operator (bottom
    right).
    """
    f = a.field
    n = a.rows
    d = subspace_rows.rows
    basis = subspace_rows.to_rows()
    taken = Matrix.from_rows(f, basis, cols=n)
    for i in range(n):
        if taken.rows == n:
            break
        candidate = [f.one if j == i else f.zero for j in range(n)]
        trial = Matrix.from_rows(f, basis + [candidate], cols=n)
        if rank(trial) == len(basis) + 1:
            basis.append(candidate)
            taken = trial
    q_cols = Matrix.from_rows(f, basis, cols=n).transpose()
    conj = inverse(q_cols) @ a @ q_cols
    lower_left = [conj.entry(i, j) for i in range(d, n) for j in range(d)]
    if any(x != 0 for x in lower_left):
        raise ValueError("subspace is not invariant under the operator")
    restriction = Matrix(f, d, d, tuple(conj.entry(i, j) for i in range(d) for j in range(d)))
    quotient = Matrix(f, n - d, n - d, tuple(conj.entry(i, j) for i in range(d, n) for j in range(d, n)))
    return restriction, quotient


def _reachable_rows(system: LinearSystem) -> Matrix:
    """Basis (as rows) of the smallest A-invariant space containing im B."""
    ctrb = controllability_matrix(system)
    red, pivots = rref_with_pivots(ctrb.transpose())
    return red.rows_at(range(len(pivots)))


def _unobservable_rows(system: LinearSystem) -> Matrix:
    """Basis (as rows) of the largest A-invariant space killed by C."""
    return kernel_basis(observability_matrix(system))


# -- subrepresentation dimension vectors -----------------------------------


def subrep_dimvectors(
    rep: QuiverRep,
    mode: str = "rank",
    limit: int = DEFAULT_SUBSPACE_LIMIT,
) -> frozenset[DimensionVector]:
    """Dimension vectors of all proper nonzero subrepresentations.

    A subrepresentation is a pair of subspaces fixed by every arrow.
    With full dimension at the left vertex it is an A-invariant
    subspace containing the image of B; with zero left dimension it is
    an A-invariant subspace annihilated by C.
    """
    if mode == "rank":
        return _subreps_by_rank(rep.system)
    if mode == "oracle":
        return _subreps_by_enumeration(rep.system, limit)
    raise ValueError(f"unknown mode {mode!r}")


def _subreps_by_rank(system: LinearSystem) -> frozenset[DimensionVector]:
    n = system.n
    out: set[DimensionVector] = set()

    reach = _reachable_rows(system)
    _, quotient = _operator_blocks(system.A, reach)
    for extra in _invariant_subspace_dims(quotient):
        l = reach.rows + extra
        if l < n:
            out.add((1, l))

    unobs = _unobservable_rows(system)
    restriction, _ = _operator_blocks(system.A, unobs)
    for l in _invariant_subspace_dims(restriction):
        if l > 0:
            out.add((0, l))
    return frozenset(out)


def iter_subspace_bases(field: Field, n: int) -> Iterator[Matrix]:
    """All subspaces of ``F_q^n``, as reduced-echelon basis rows.

    One representative per subspace: choose pivot columns, then fill the
    free entries (right of each pivot, outside other pivot columns) in
    every possible way.
    """
    if field.q is None:
        raise ValueError("subspace enumeration needs a finite field")
    q = field.q
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_slots = [
                (r, c)
                for r, pc in enumerate(pivots)
                for c in range(pc + 1, n)
                if c not in pivots
            ]
            for values in itertools.product(range(q), repeat=len(free_slots)):
                grid = [[0] * n for _ in range(k)]
                for r, pc in enumerate(pivots):
                    grid[r][pc] = 1
                for (r, c), v in zip(free_slots, values):
                    grid[r][c] = v
                yield Matrix.from_rows(field, grid, cols=n)


def _subreps_by_enumeration(system: LinearSystem, limit: int) -> frozenset[DimensionVector]:
    field, n = system.field, system.n
    if field.q is None:
        raise ValueError("oracle mode needs a finite field")
    if field.q ** n > limit:
        raise OracleTooLarge(f"{field.q}^{n} subspace candidates exceed the limit {limit}")
    b_rows = system.B.transpose()
    c_rows_t = system.C.transpose()
    out: set[DimensionVector] = set()
    for basis in iter_subspace_bases(field, n):
        k = basis.rows
        images = basis @ system.A.transpose()
        if rank(vstack([basis, images])) != k:
            continue
        if k < n and rank(vstack([basis, b_rows])) == k:
            out.add((1, k))
        if k > 0 and (basis @ c_rows_t).is_zero():
            out.add((0, k))
    return frozenset(out)


# -- simplicity and stability ----------------------------------------------


def is_simple(rep: QuiverRep, mode: str = "rank", limit: int = DEFAULT_SUBSPACE_LIMIT) -> bool:
    """True when there is no proper nonzero subrepresentation.

    Equivalent to the underlying system being canonical.
    """
    return not subrep_dimvectors(rep, mode=mode, limit=limit)


def _check_weight(rep: QuiverRep, theta: StabilityWeight) -> None:
    alpha = rep.dimension_vector
    pairing = theta[0] * alpha[0] + theta[1] * alpha[1]
    if pairing != 0:
        raise NonzeroThetaAlpha(f"theta.alpha = {pairing} != 0 for theta={theta}, alpha={alpha}")


def is_theta_stable(
    rep: QuiverRep,
    theta: StabilityWeight,
    mode: str = "rank",
    limit: int = DEFAULT_SUBSPACE_LIMIT,
) -> bool:
    """Every proper nonzero subrepresentation pairs strictly positively.

    With the controllability weight this is equivalent to cc, with the
    observability weight to co.
    """
    _check_weight(rep, theta)
    return all(
        theta[0] * a + theta[1] * l > 0
        for a, l in subrep_dimvectors(rep, mode=mode, limit=limit)
    )


def is_theta_semistable(
    rep: QuiverRep,
    theta: StabilityWeight,
    mode: str = "rank",
    limit: int = DEFAULT_SUBSPACE_LIMIT,
) -> bool:
    """Like stability, with the pairing allowed to vanish."""
    _check_weight(rep, theta)
    return all(
        theta[0] * a + theta[1] * l >= 0
        for a, l in subrep_dimvectors(rep, mode=mode, limit=limit)
    )
