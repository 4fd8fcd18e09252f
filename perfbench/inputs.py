"""Seeded input generators for the benchmark, independent of the library.

Pipeline items are plain data: integer matrices (row-major lists) plus
their shape and kind.  Nothing here imports ``moduli_sys``: generating
inputs must not be library work, and ``random_system`` would call
``classify`` while sampling.

The shape and kind mix is stratified: every block of ``len(BLOCK)``
consecutive items holds exactly the weighted counts of each shape, and
inside each shape the kinds cycle random / unreachable / random /
unobservable.  The seed shuffles the order inside each block and draws
every entry, so a short time-bounded run still sees the full mix.
"""

from __future__ import annotations

from random import Random

# (m, n, p) shapes with their count weights out of 20 (40/25/20/15 %).
SHAPES = (((1, 2, 1), 8), ((2, 3, 1), 5), ((2, 6, 2), 4), ((3, 10, 2), 3))
KIND_CYCLE = ("random", "unreachable", "random", "unobservable")
BLOCK = tuple(shape for shape, weight in SHAPES for _ in range(weight))
N_CLASSES = tuple(shape[1] for shape, _ in SHAPES)
ENTRY_BOUND = 3  # rational entries are integers in [-3, 3]


def _matrix(rng: Random, rows: int, cols: int, q: int | None) -> list[list[int]]:
    if q is None:
        return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def _matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    inner = len(y)
    cols = len(y[0]) if y else 0
    return [[sum(row[k] * y[k][j] for k in range(inner)) for j in range(cols)] for row in x]


def _transpose(x: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*x)]


def _unit_lower_inverse(low: list[list[int]]) -> list[list[int]]:
    """Inverse of a unit lower-triangular integer matrix, by substitution."""
    n = len(low)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(low[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _unimodular(rng: Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random ``T = L U`` with unit bidiagonal factors, and ``T^-1``.

    Bidiagonal factors with +-1 off the diagonal keep the entries of ``T``
    and ``T^-1`` small, so conjugation hides a block structure without
    the wide spread of entry sizes that dense random factors give.
    """

    def bidiagonal():
        return [[1 if i == j else (rng.choice((-1, 1)) if j == i - 1 else 0)
                 for j in range(n)] for i in range(n)]

    low, up_t = bidiagonal(), bidiagonal()
    up = _transpose(up_t)
    t = _matmul(low, up)
    t_inv = _matmul(_transpose(_unit_lower_inverse(up_t)), _unit_lower_inverse(low))
    return t, t_inv


def make_system(rng: Random, shape: tuple[int, int, int], kind: str, q: int | None) -> dict:
    """One system of the given kind as ``{"A", "B", "C"}`` integer rows.

    ``unreachable`` is block upper triangular with ``B`` zero below an
    ``r``-dimensional reachable block; ``unobservable`` is its dual shape
    with ``C`` zero on an ``r``-dimensional A-invariant block.  Both
    are then conjugated by a random unimodular matrix, which preserves the
    kind and hides the block structure.  ``r = n // 2`` is fixed because
    the cost of an item over ``Q`` grows steeply with it, and a random
    ``r`` would make short runs differ more than the program does.
    """
    m, n, p = shape
    a = _matrix(rng, n, n, q)
    b = _matrix(rng, n, m, q)
    c = _matrix(rng, p, n, q)
    if kind != "random":
        r = n // 2
        if kind == "unreachable":
            # Reachable space inside the first r coordinates.
            for i in range(r, n):
                b[i] = [0] * m
                for j in range(r):
                    a[i][j] = 0
        else:
            # The last r coordinates are A-invariant and killed by C.
            for i in range(n - r):
                for j in range(n - r, n):
                    a[i][j] = 0
            for row in c:
                for j in range(n - r, n):
                    row[j] = 0
        t, t_inv = _unimodular(rng, n)
        a = _matmul(_matmul(t, a), t_inv)
        b = _matmul(t, b)
        c = _matmul(c, t_inv)
    if q is not None:
        a, b, c = ([[x % q for x in row] for row in mat] for mat in (a, b, c))
    return {"A": a, "B": b, "C": c}


def system_json(mats: dict, shape: tuple[int, int, int], q: int | None) -> dict:
    """The library's JSON form of a generated system."""
    m, n, p = shape
    flat = {key: [x for row in mats[key] for x in row] for key in "ABC"}
    return {"field": "Q" if q is None else {"Fp": q}, "m": m, "n": n, "p": p, **flat}


def pipeline_items(seed: int, q: int | None):
    """Endless stream of pipeline items for one seed over ``Q`` or ``F_q``.

    Each item is ``{"id", "shape", "kind", "A", "B", "C"}``.  The shape
    and kind sequence depends on the seed only, never on the field, so
    the same seed gives the same mix over ``Q`` and ``F_5``.
    """
    order_rng = Random(f"order-{seed}")
    entry_rng = Random(f"entries-{seed}-{q}")
    seen = {shape: 0 for shape, _ in SHAPES}
    item_id = 0
    while True:
        block = list(BLOCK)
        order_rng.shuffle(block)
        for shape in block:
            kind = KIND_CYCLE[seen[shape] % len(KIND_CYCLE)]
            seen[shape] += 1
            item = {"id": item_id, "shape": shape, "kind": kind}
            item.update(make_system(entry_rng, shape, kind, q))
            yield item
            item_id += 1


def take(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]


def self_test(seed: int, q: int | None) -> list[str]:
    """Problems with the generator for this seed; empty when it is sound.

    The same seed must give identical inputs; another seed must give
    different entries with the same shape and kind counts per block.
    """
    count = 2 * len(BLOCK)
    first = take(pipeline_items(seed, q), count)
    again = take(pipeline_items(seed, q), count)
    other = take(pipeline_items(seed + 1, q), count)
    problems = []
    if first != again:
        problems.append("same seed gave different inputs")
    if [(x["A"], x["B"], x["C"]) for x in first] == [(x["A"], x["B"], x["C"]) for x in other]:
        problems.append("different seeds gave identical entries")

    def mix(items):
        return sorted((tuple(x["shape"]), x["kind"]) for x in items)

    for start in range(0, count, len(BLOCK)):
        end = start + len(BLOCK)
        if mix(first[start:end]) != mix(other[start:end]):
            problems.append(f"shape/kind mix differs between seeds in items {start}..{end - 1}")
    return problems
