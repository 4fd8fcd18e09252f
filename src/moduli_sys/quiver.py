"""Systems as representations of a two-vertex quiver.

A system of type ``(m, n, p)`` is the same data as a representation of
dimension vector ``(1, n)`` of the quiver with ``m`` arrows running
left to right (the columns of ``B``), ``p`` arrows running right to
left (the rows of ``C``) and one loop (``A``).  Simplicity of the
representation and stability with respect to the two nontrivial weights
translate exactly into the canonical / cc / co classification.  This
module has two deciders, and neither calls the other (they share only
the linear algebra of ``linalg``):

* the rank verdicts.  ``is_simple`` and the theta tests read every
  verdict off the two ranks of ``classify``: the reachable space and
  the unobservable space are one subrepresentation of each kind, and
  one of each kind decides simplicity and every stability question.
  ``subrep_dimvectors`` returns the exact set: the reachable space, the
  span of the black-box vectors that the system's Krylov walk keeps,
  plus the invariant-subspace dimensions of the operator induced on the
  quotient by it (read off the factorization of its characteristic
  polynomial).  The unobservable side is the same question for the
  dual: ``W`` inside the unobservable space ``N`` is ``A``-invariant
  exactly when ``W^perp``, which contains ``N^perp`` = reach
  ``(A^T, C^T)``, is ``A^T``-invariant, and
  ``dim W^perp / N^perp = n - rank_o - dim W``;
* the enumeration referee.  ``subrep_dimvectors_by_enumeration``
  enumerates every subspace of ``F_q^n`` and tests the defining
  conditions directly; a test applies the stability definition to the
  set it returns.  It refuses, with :class:`OracleTooLarge` and before
  enumerating, a system whose ``sum_k [n choose k]_q`` subspaces exceed
  ``DEFAULT_SUBSPACE_LIMIT`` (``2^15``): it takes ``n <= 7`` over
  ``F_2``, ``n <= 5`` over ``F_3`` and ``n <= 4`` over ``F_5`` and
  ``F_7``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .counting import q_binomial
from .errors import NonzeroThetaAlpha, OracleTooLarge
from .linalg import Field, Matrix, charpoly, hstack, pivot_columns, rank, solve_right, vstack
from .system import LinearSystem, classify

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


def _invariant_subspace_dims(op: Matrix) -> frozenset[int]:
    """All dimensions of invariant subspaces of a square operator.

    An invariant subspace splits along the primary components of the
    operator, and inside the component of an irreducible factor of
    degree d every multiple of d up to the component dimension occurs
    (walk down a composition series).  So the answer is the sumset of
    ``{0, d, 2d, ..., a*d}`` over the factorization ``prod p_i^{a_i}``
    of the characteristic polynomial.
    """
    field, coeffs = op.field, charpoly(op)
    if len(coeffs) == 1:
        return frozenset({0})
    import sympy  # only subrep_dimvectors factors; keep it off the import path

    x = sympy.Symbol("x")
    if field.q is None:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], x, domain="QQ")
    else:
        poly = sympy.Poly([int(c) for c in coeffs], x, modulus=field.q)
    dims = {0}
    for factor, mult in poly.factor_list()[1]:
        dims = {d + t * factor.degree() for d in dims for t in range(mult + 1)}
    return frozenset(dims)


def _quotient_dims(a: Matrix, reach: Matrix) -> tuple[int, frozenset[int]]:
    """Dimension of the reachable space and the invariant-subspace dimensions of ``a`` modulo it.

    ``reach`` is the basis of one of the two walks a system keeps: its
    columns span the reachable space, an ``a``-invariant subspace of
    dimension ``d``.  Completing it greedily with standard basis vectors
    and conjugating makes ``a`` block upper triangular; the bottom-right
    block is the operator induced on the quotient.
    """
    f, n, d = a.field, a.rows, reach.cols
    ext = hstack([reach, Matrix.identity(f, n)])
    basis = ext.columns_at(pivot_columns(ext))
    conj = solve_right(basis, a @ basis)
    quotient = Matrix(f, n - d, n - d, tuple(conj.entry(i, j) for i in range(d, n) for j in range(d, n)))
    return d, _invariant_subspace_dims(quotient)


# -- subrepresentation dimension vectors -----------------------------------


def subrep_dimvectors(rep: QuiverRep) -> frozenset[DimensionVector]:
    """Dimension vectors of all proper nonzero subrepresentations.

    A subrepresentation is a pair of subspaces fixed by every arrow.
    With full dimension at the left vertex it is an A-invariant
    subspace containing the image of B; with zero left dimension it is
    an A-invariant subspace annihilated by C.
    """
    system, n = rep.system, rep.system.n
    out: set[DimensionVector] = set()
    rank_c, dims = _quotient_dims(system.A, system._walk[1])
    out.update((1, rank_c + x) for x in dims if rank_c + x < n)
    rank_o, dims = _quotient_dims(system.A.transpose(), system._dual_walk[1])
    out.update((0, n - rank_o - x) for x in dims if n - rank_o - x > 0)
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
                ent = [0] * (k * n)
                for r, pc in enumerate(pivots):
                    ent[r * n + pc] = 1
                for (r, c), v in zip(free_slots, values):
                    ent[r * n + c] = v
                yield Matrix(field, k, n, tuple(ent))


def subrep_dimvectors_by_enumeration(rep: QuiverRep) -> frozenset[DimensionVector]:
    """:func:`subrep_dimvectors` by testing every subspace of ``F_q^n``: the referee of the rank verdicts.

    Raises :class:`OracleTooLarge` past ``DEFAULT_SUBSPACE_LIMIT``
    subspaces, and ``ValueError`` over ``Q``.
    """
    system = rep.system
    field, n = system.field, system.n
    if field.q is None:
        raise ValueError("subspace enumeration needs a finite field")
    subspaces = sum(q_binomial(n, k, field.q) for k in range(n + 1))
    if subspaces > DEFAULT_SUBSPACE_LIMIT:
        raise OracleTooLarge(
            f"{subspaces} subspaces of F_{field.q}^{n} exceed the limit {DEFAULT_SUBSPACE_LIMIT}"
        )
    a_t, b_rows, c_rows_t = system.A.transpose(), system.B.transpose(), system.C.transpose()
    out: set[DimensionVector] = set()
    for basis in iter_subspace_bases(field, n):
        k = basis.rows
        images = basis @ a_t
        if rank(vstack([basis, images])) != k:
            continue
        if k < n and rank(vstack([basis, b_rows])) == k:
            out.add((1, k))
        if k > 0 and (basis @ c_rows_t).is_zero():
            out.add((0, k))
    return frozenset(out)


# -- simplicity and stability ----------------------------------------------


def _extremal_subreps(rep: QuiverRep) -> frozenset[DimensionVector]:
    """Enough subrepresentation dimension vectors to decide every verdict.

    Every legal weight is ``k * (-n, 1)``.  It pairs a ``(1, l)`` with
    ``l < n`` to ``k (l - n)``, of the sign of ``-k``, and a ``(0, l)``
    with ``l > 0`` to ``k l``, of the sign of ``k``.  So one proper
    nonzero subrepresentation of each kind, when there is one, decides
    simplicity and stability for every weight: the reachable space
    ``(1, rank_c)`` and the unobservable space ``(0, n - rank_o)``.
    """
    n, cls = rep.system.n, classify(rep.system)
    out: set[DimensionVector] = set()
    if cls.rank_c < n:
        out.add((1, cls.rank_c))
    if cls.rank_o < n:
        out.add((0, n - cls.rank_o))
    return frozenset(out)


def is_simple(rep: QuiverRep) -> bool:
    """True when there is no proper nonzero subrepresentation.

    Equivalent to the underlying system being canonical.
    """
    return not _extremal_subreps(rep)


def _pairings(rep: QuiverRep, theta: StabilityWeight) -> list[int]:
    """``theta`` paired with the subrepresentations that decide stability; needs ``theta . alpha = 0``."""
    alpha = rep.dimension_vector
    pairing = theta[0] * alpha[0] + theta[1] * alpha[1]
    if pairing != 0:
        raise NonzeroThetaAlpha(f"theta.alpha = {pairing} != 0 for theta={theta}, alpha={alpha}")
    return [theta[0] * a + theta[1] * l for a, l in _extremal_subreps(rep)]


def is_theta_stable(rep: QuiverRep, theta: StabilityWeight) -> bool:
    """Every proper nonzero subrepresentation pairs strictly positively.

    With the controllability weight this is equivalent to cc, with the
    observability weight to co.
    """
    return all(x > 0 for x in _pairings(rep, theta))


def is_theta_semistable(rep: QuiverRep, theta: StabilityWeight) -> bool:
    """Like stability, with the pairing allowed to vanish."""
    return all(x >= 0 for x in _pairings(rep, theta))
