"""Hankel matrices, order certification, Ho-Kalman realization."""

import itertools
import random
from fractions import Fraction

import pytest

from moduli_sys.errors import InsufficientData, NotStabilizedError, ShapeMismatch
from moduli_sys.kalman import canonical_form
from moduli_sys.linalg import Field, Matrix, rank
from moduli_sys.realization import (
    HankelRankProfile,
    MarkovSequence,
    NotStabilized,
    hankel,
    realizability_order,
    realize,
    verify_realization,
)
from moduli_sys.system import LinearSystem, act, all_systems, classify, random_system

QQ = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def scalar_seq(values, field=QQ):
    return MarkovSequence.from_scalars(field, values)


def test_hankel_examples():
    seq = scalar_seq([1, 1, 1])
    h = hankel(seq, 2, 2)
    assert h.to_rows() == [[1, 1], [1, 1]]
    assert rank(h) == 1

    seq = scalar_seq([1, 2, 4])
    h = hankel(seq, 2, 2)
    assert h.to_rows() == [[1, 2], [2, 4]]
    assert rank(h) == 1

    zeros = scalar_seq([0, 0, 0, 0])
    for i, j in ((1, 1), (2, 2), (1, 3)):
        assert hankel(zeros, i, j).is_zero()

    with pytest.raises(InsufficientData):
        hankel(scalar_seq([1, 2]), 2, 2)
    with pytest.raises(ValueError):
        hankel(scalar_seq([1, 2]), 0, 1)


def test_hankel_block_layout():
    blocks = [Matrix.from_rows(QQ, [[j], [10 * j]]) for j in (1, 2, 3)]
    seq = MarkovSequence(QQ, 1, 2, tuple(blocks))
    h = hankel(seq, 2, 2)
    assert h.to_rows() == [[1, 2], [10, 20], [2, 3], [20, 30]]


def test_realizability_order_examples():
    prof = realizability_order(scalar_seq([1, 1, 1, 1]))
    assert isinstance(prof, HankelRankProfile)
    assert (prof.r, prof.s, prof.order) == (1, 1, 1)

    prof = realizability_order(scalar_seq([0, 0, 0, 0]))
    assert prof.order == 0

    prof = realizability_order(scalar_seq([1, 1, 2, 3, 5, 8]))
    assert prof.order == 2
    assert (prof.r, prof.s, 2) in prof.ranks


def test_realizability_not_stabilized():
    verdict = realizability_order(scalar_seq([1, 2]))
    assert isinstance(verdict, NotStabilized)
    assert verdict.window == 2
    with pytest.raises(ValueError):
        realizability_order(scalar_seq([1]))
    with pytest.raises(NotStabilizedError):
        realize(scalar_seq([1, 2]))


def test_realize_constant_and_geometric():
    system = realize(scalar_seq([1, 1, 1, 1]))
    assert system.n == 1
    assert verify_realization(system, scalar_seq([1, 1, 1, 1]))
    reference = LinearSystem(
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
    )
    assert canonical_form(system)[1] == canonical_form(reference)[1]

    system = realize(scalar_seq([1, 2, 4, 8]))
    assert system.n == 1
    reference = LinearSystem(
        Matrix.from_rows(QQ, [[2]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
    )
    assert canonical_form(system)[1] == canonical_form(reference)[1]


def test_realize_fibonacci():
    seq = scalar_seq([1, 1, 2, 3, 5, 8])
    system = realize(seq)
    assert system.n == 2
    assert classify(system).canonical
    assert verify_realization(system, seq)


def test_realize_zero_sequence():
    system = realize(scalar_seq([0, 0, 0, 0]))
    assert system.n == 0
    assert verify_realization(system, scalar_seq([0, 0, 0, 0]))


def test_realize_output_is_canonical_round_trip():
    rng = random.Random(21)
    for field in (QQ, F5):
        for _ in range(40):
            n = rng.randint(0, 3)
            m = rng.randint(1, 2)
            p = rng.randint(1, 2)
            original = random_system(field, m, n, p, rng, require="canonical")
            seq = MarkovSequence.from_system(original, max(2 * n + 1, 3))
            realized = realize(seq)
            assert realized.n == n
            assert classify(realized).canonical
            assert verify_realization(realized, seq)
            if n > 0:
                assert canonical_form(realized)[1] == canonical_form(original)[1]


def test_realize_is_the_canonical_form_on_the_f2_sweep(f2_sweep):
    # two independent routes to one normal form: the Hankel pivots of the
    # Markov blocks and the Krylov chains of the canonical reduction
    members = [s for s, cls in f2_sweep if cls.canonical and s.n >= 1]
    assert len(members) == 2528
    for s in members:
        assert realize(MarkovSequence.from_system(s, 2 * s.n + 1)) == canonical_form(s)[1]


def test_realize_is_the_canonical_form_up_to_the_order_of_the_basis():
    # Ho-Kalman orders the black boxes power by power, the canonical
    # reduction chain by chain: for n <= 3 the two differ by a permutation
    rng = random.Random(24)
    for field in (QQ, F2, F3):
        for _ in range(210):
            m, n, p = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
            s = random_system(field, m, n, p, rng, require="canonical")
            realized = realize(MarkovSequence.from_system(s, 2 * n + 1))
            canon = canonical_form(s)[1]
            perms = [Matrix.from_rows(field, [[int(j == k) for j in range(n)] for k in order])
                     for order in itertools.permutations(range(n))]
            assert any(act(perm, canon) == realized for perm in perms), (s, realized, canon)


def test_realize_matrix_blocks():
    rng = random.Random(22)
    original = random_system(QQ, 2, 3, 2, rng, require="canonical")
    seq = MarkovSequence.from_system(original, 7)
    realized = realize(seq)
    assert realized.n == 3
    assert verify_realization(realized, seq)
    assert canonical_form(realized)[1] == canonical_form(original)[1]


def test_minimality_exhaustive_f2():
    # no F_2 system of state dimension < 2 reproduces these order-2 windows
    rng = random.Random(23)
    instances = []
    while len(instances) < 2:
        s = random_system(F2, 1, 2, 1, rng, require="canonical")
        instances.append(MarkovSequence.from_system(s, 5))
    for seq in instances:
        assert realize(seq).n == 2
        for n_small in (0, 1):
            for candidate in all_systems(F2, 1, n_small, 1):
                assert not verify_realization(candidate, seq)


def test_inconsistent_data():
    # (r, s) = (1, 1) sees rank 1, but the tail breaks the recursion: the scan certifies nothing,
    # and the referee, asked at (1, 1) regardless, finds no exact realization there
    from helpers import InconsistentData, reference_realize_at

    seq = scalar_seq([1, 1, 1, 5])
    with pytest.raises(NotStabilizedError):
        realize(seq)
    with pytest.raises(InconsistentData):
        reference_realize_at(seq, 1, 1)


def test_verify_shape_mismatch():
    system = LinearSystem(
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
        Matrix.from_rows(QQ, [[1]]),
    )
    with pytest.raises(ShapeMismatch):
        verify_realization(system, MarkovSequence(QQ, 2, 1, (Matrix.from_rows(QQ, [[1, 1]]),)))
    assert not verify_realization(system, scalar_seq([1, 2]))
    for block in (Matrix.from_rows(QQ, [[1, 1]]), Matrix.from_rows(F5, [[1]])):
        with pytest.raises(ValueError, match="^every block must be 1x1 over Q$"):
            MarkovSequence(QQ, 1, 1, (block,))


def test_equivalent_systems_verify_the_same_sequence():
    from moduli_sys.system import act

    from helpers import unimodular

    rng = random.Random(25)
    s = random_system(QQ, 2, 3, 1, rng, require="canonical")
    seq = MarkovSequence.from_system(s, 7)
    for _ in range(5):
        moved = act(unimodular(QQ, 3, rng), s)
        assert verify_realization(moved, seq)


def test_markov_sequence_json_roundtrip():
    rng = random.Random(24)
    s = random_system(F5, 2, 2, 1, rng)
    seq = MarkovSequence.from_system(s, 5)
    assert MarkovSequence.from_json(seq.to_json()) == seq


def test_realizability_order_matches_reference_scan():
    # the prefix-count certification against one elimination per inspected H_ij
    from helpers import reference_realizability_order

    rng = random.Random(26)
    verdicts = {HankelRankProfile: 0, NotStabilized: 0}
    random_windows = []

    def check(seq):
        got = realizability_order(seq)
        assert got == reference_realizability_order(seq), seq
        verdicts[type(got)] += 1
        return got

    for field in (QQ, F2, F5):
        for m in (1, 2, 3):
            for p in (1, 2, 3):
                for n in range(5):
                    require = rng.choice(("any", "canonical"))
                    system = random_system(field, m, n, p, rng, require=require)
                    exact = max(2 * n + 1, 2)
                    for window in (exact, exact + rng.randint(1, 3)):
                        check(MarkovSequence.from_system(system, window))
                for window in (2, 3, 5):
                    zero = Matrix.zeros(field, p, m)
                    check(MarkovSequence(field, m, p, (zero,) * window))
                for window in (2, 3, 4):
                    blocks = tuple(
                        Matrix(field, p, m, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(p * m)))
                        for _ in range(window)
                    )
                    random_windows.append(check(MarkovSequence(field, m, p, blocks)))
    assert verdicts[HankelRankProfile] > 0 and verdicts[NotStabilized] > 0
    # random short windows are mostly not realizable inside the window
    unstable = sum(isinstance(v, NotStabilized) for v in random_windows)
    assert unstable >= 2 * len(random_windows) // 3

    # one output and order up to 6 certify at r up to 6: the echelon is cut and extended past r = 3
    certified_at = set()
    for field in (F2, F3):
        for n in range(7):
            m = rng.randint(1, 2)
            system = random_system(field, m, n, 1, rng, require=rng.choice(("any", "canonical")))
            for window in range(max(2 * n + 1, 2), 3 * n + 5):
                got = check(MarkovSequence.from_system(system, window))
                if isinstance(got, HankelRankProfile):
                    certified_at.add(got.r)
    assert max(certified_at) > 3, certified_at
    # long random windows: the scan runs through every block-row count up to L - 1
    for field in (QQ, F2, F5):
        for window in range(5, 13):
            m, p = rng.randint(1, 2), rng.randint(1, 2)
            blocks = tuple(
                Matrix(field, p, m, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(p * m)))
                for _ in range(window)
            )
            check(MarkovSequence(field, m, p, blocks))

    # over Q with non-integral entries: Markov blocks with growing denominators
    def rational_system(m, n, p):
        def grid(rows, cols):
            ent = (QQ.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(rows * cols))
            return Matrix(QQ, rows, cols, tuple(ent))

        return LinearSystem(grid(n, n), grid(n, m), grid(p, n))

    fractional = 0
    for m in (1, 2, 3):
        for p in (1, 2, 3):
            for n in range(5):
                seq = MarkovSequence.from_system(rational_system(m, n, p), max(2 * n + 1, 2) + rng.randint(0, 2))
                fractional += any(x.denominator > 1 for blk in seq.blocks for x in blk.entries)
                check(seq)
    assert fractional >= 30, fractional
    # one output and order up to 6 over Q: the carried integral echelon rows re-enter past r = 3
    certified_at = set()
    for n in range(4, 7):
        system = rational_system(rng.randint(1, 2), n, 1)
        for window in range(2 * n + 1, 2 * n + 4):
            got = check(MarkovSequence.from_system(system, window))
            if isinstance(got, HankelRankProfile):
                certified_at.add(got.r)
    assert max(certified_at) > 3, certified_at


def test_realizability_order_matches_reference_scan_at_the_pipeline_shapes():
    # over Q at the shapes where the kept pivot sequence is longest: random systems, and systems
    # hiding an unreachable or an unobservable block of dimension n // 2 under a unimodular base change
    from helpers import reference_realizability_order, unimodular

    rng = random.Random(28)

    def hiding(m, n, p, kind):
        system = random_system(QQ, m, n, p, rng)
        if kind == "random":
            return system
        k = n - n // 2
        a, b, c = system.A.to_rows(), system.B.to_rows(), system.C.to_rows()
        if kind == "unreachable":  # B reaches only the first k states, which A maps among themselves
            b = [row if i < k else [0] * m for i, row in enumerate(b)]
            a = [[x if i < k or j >= k else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
        else:  # C does not see the last n // 2 states, which A maps among themselves
            c = [[x if j < k else 0 for j, x in enumerate(row)] for row in c]
            a = [[x if i >= k or j < k else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
        hidden = LinearSystem(Matrix.from_rows(QQ, a), Matrix.from_rows(QQ, b), Matrix.from_rows(QQ, c))
        return act(unimodular(QQ, n, rng), hidden)

    orders = []
    for m, n, p in ((2, 6, 2), (3, 10, 2)):
        for kind in ("random", "unreachable", "unobservable"):
            system = hiding(m, n, p, kind)
            for window in (2 * n + 1, 2 * n + 3):
                seq = MarkovSequence.from_system(system, window)
                got = realizability_order(seq)
                assert got == reference_realizability_order(seq), (kind, seq)
                orders.append((n, kind, got.order))
    assert all(order <= n - n // 2 for n, kind, order in orders if kind != "random"), orders
    assert any(order == n for n, kind, order in orders if kind == "random"), orders


def test_realizability_order_eliminates_once_per_block_row_count(monkeypatch):
    # the scan extends one echelon: no Hankel matrix is built and no pivot_columns call is made,
    # and each block-row count reduces only its p new rows against the rows the one before left
    import moduli_sys.linalg
    import moduli_sys.realization

    from helpers import hankel_rows

    def forbidden(*args, **kwargs):
        raise AssertionError("the scan must not build or re-eliminate a whole Hankel matrix")

    calls = []

    def recording_eliminate(field, grid, ncols, reduced, kept=()):
        before = [list(row) for row in grid]
        pivots, unit = eliminate(field, grid, ncols, reduced, kept)
        calls.append({"ncols": ncols, "reduced": reduced, "kept": list(kept), "before": before,
                      "after": [list(row) for row in grid[:len(pivots)]], "pivots": list(pivots)})
        return pivots, unit

    eliminate = moduli_sys.realization._eliminate
    monkeypatch.setattr(moduli_sys.realization, "hankel", forbidden)
    monkeypatch.setattr(moduli_sys.linalg, "pivot_columns", forbidden)
    monkeypatch.setattr(moduli_sys.realization, "_eliminate", recording_eliminate)
    rng = random.Random(27)
    resumed = widened = 0
    seqs = []
    for field in (QQ, F2, F5):
        for n in range(7):
            system = random_system(field, rng.randint(1, 2), n, rng.randint(1, 2), rng)
            seqs += [MarkovSequence.from_system(system, window) for window in (2, 2 * n + 2, 3 * n + 4)]
        # random windows have pivots in their last block columns, which the next width keeps
        for window in range(4, 10):
            m, p = rng.randint(1, 2), rng.randint(1, 2)
            seqs.append(MarkovSequence(field, m, p, tuple(
                Matrix(field, p, m, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(p * m)))
                for _ in range(window))))
    for seq in seqs:
        field, window = seq.field, len(seq)
        calls.clear()
        verdict = realizability_order(seq)
        reached = max((i for i, _, _ in verdict.ranks), default=0)
        assert len(calls) == reached, (seq, len(calls), verdict)
        last = {"after": [], "pivots": []}
        for k, call in enumerate(calls):
            kept, before, ncols = call["kept"], call["before"], call["ncols"]
            assert not call["reduced"]
            # the carried rows are all the rows the last call left, cut past the columns of
            # H_(k+1, L-k) only as far as their last pivot column
            assert ncols == max([seq.m * (window - k)] + [c + 1 for c in kept]), seq
            widened += ncols > seq.m * (window - k)
            assert kept == last["pivots"], seq
            assert before[:len(kept)] == [row[:ncols] for row in last["after"]], seq
            # only the p rows of block row k + 1 are new, padded with zeros to the width
            new = hankel_rows(seq, k + 1, window - k)[k * seq.p:]
            assert before[len(kept):] == [row + [0] * (ncols - len(row)) for row in new], seq
            # the carried rows come back unchanged: not made primitive again, not rescaled
            assert call["pivots"][:len(kept)] == kept
            assert call["after"][:len(kept)] == before[:len(kept)], seq
            resumed += bool(kept)
            last = call
    assert resumed > 60 and widened > 0, (resumed, widened)


def test_realize_at_matches_reference():
    # one reduction of H_(r,s+1) at the certified (r, s) against H_rs, anchor rows, an inverse
    # and a block-built shifted H
    from helpers import reference_realize_at

    rng = random.Random(31)
    certified = 0
    for field in (QQ, F2, F5):
        for m in (1, 2, 3):
            for p in (1, 2, 3):
                windows = []
                for n in range(5):
                    system = random_system(field, m, n, p, rng, require=rng.choice(("any", "canonical")))
                    exact = max(2 * n + 1, 2)
                    windows += [MarkovSequence.from_system(system, w) for w in (exact, exact + rng.randint(1, 3))]
                windows += [MarkovSequence(field, m, p, (Matrix.zeros(field, p, m),) * w) for w in (2, 3, 5)]
                for window in (2, 3, 4):
                    blocks = tuple(
                        Matrix(field, p, m, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(p * m)))
                        for _ in range(window)
                    )
                    windows.append(MarkovSequence(field, m, p, blocks))
                for seq in windows:
                    profile = realizability_order(seq)
                    if isinstance(profile, HankelRankProfile):
                        assert realize(seq) == reference_realize_at(seq, profile.r, profile.s), seq
                        certified += 1
    assert certified >= 250, certified


def _perturbed(seq, rng):
    """The window with one entry of one block moved by one."""
    blocks = list(seq.blocks)
    k = rng.randrange(len(blocks))
    entries = list(blocks[k].entries)
    i = rng.randrange(len(entries))
    entries[i] = seq.field.coerce(entries[i] + rng.choice((1, -1)))
    blocks[k] = Matrix(seq.field, seq.p, seq.m, tuple(entries))
    return MarkovSequence(seq.field, seq.m, seq.p, tuple(blocks))


def test_a_certified_window_needs_no_check():
    # realize runs no consistency test after the scan: the rank certificate implies them all.
    # At every certified (r, s) the referee, which solves O X = H^ on every row, checks A R = X
    # and compares the whole window, must not refuse, and the window must be reproduced,
    # also on perturbed windows and on windows of arbitrary blocks
    from helpers import reference_realize_at

    rng = random.Random(34)
    windows = []  # (seq, perturbed)

    def add(system, n):
        for window in (n + 2, 2 * n + 1, 2 * n + 3):
            seq = MarkovSequence.from_system(system, max(window, 2))
            windows.append((_perturbed(seq, rng), True) if rng.random() < 0.5 else (seq, False))

    for field in (QQ, F2, F3, F5):
        for _ in range(60):
            n = rng.randint(0, 4)
            add(random_system(field, rng.randint(1, 3), n, rng.randint(1, 3), rng,
                              require=rng.choice(("any", "canonical"))), n)
        for _ in range(60):
            m, p = rng.randint(1, 3), rng.randint(1, 3)
            windows.append((MarkovSequence(field, m, p, tuple(
                Matrix(field, p, m, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(p * m)))
                for _ in range(rng.randint(2, 9)))), False))
    for field in (QQ, F5):
        for m, n, p in ((2, 6, 2), (3, 10, 2)):
            add(random_system(field, m, n, p, rng), n)
    seen, top = {True: 0, False: 0}, 0
    for seq, perturbed in windows:
        profile = realizability_order(seq)
        if isinstance(profile, NotStabilized):
            continue
        got = realize(seq)
        assert got == reference_realize_at(seq, profile.r, profile.s), seq
        assert got.n == profile.order and verify_realization(got, seq), seq
        seen[perturbed] += 1
        top = max(top, got.n)
    assert seen[True] >= 60 and seen[False] >= 200 and top >= 10, (seen, top)


def test_realize_reads_the_system_off_one_reduction(monkeypatch):
    # no Hankel matrix, no rref_with_pivots and no check after the scan: one reduced elimination of
    # the block rows of H_(r,s+1), no Markov parameter and no product, and the same system as the referee
    import moduli_sys.linalg
    import moduli_sys.realization

    from helpers import reference_realize_at

    def fractional(m, n, p):
        def grid(rows, cols):
            return Matrix(QQ, rows, cols, tuple(QQ.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                                                for _ in range(rows * cols)))

        return LinearSystem(grid(n, n), grid(n, m), grid(p, n))

    rng = random.Random(32)
    systems = [random_system(field, rng.randint(1, 3), n, rng.randint(1, 3), rng, require="canonical")
               for field in (QQ, F2, F5) for n in range(5)]
    systems += [fractional(rng.randint(1, 2), n, rng.randint(1, 2)) for n in range(1, 5)]
    seqs = [MarkovSequence.from_system(system, 2 * system.n + 2 + rng.randint(0, 2)) for system in systems]
    expected = []
    for seq in seqs:
        profile = realizability_order(seq)
        expected.append(reference_realize_at(seq, profile.r, profile.s))

    def forbidden(*args, **kwargs):
        raise AssertionError("Ho-Kalman must read the system off its own reduction of the block rows")

    calls = []
    eliminate = moduli_sys.realization._eliminate
    monkeypatch.setattr(moduli_sys.realization, "_eliminate", lambda *args: calls.append(args[3]) or eliminate(*args))
    for owner, name in ((moduli_sys.realization, "hankel"), (moduli_sys.linalg, "rref_with_pivots"),
                        (moduli_sys.realization, "markov_parameters"),
                        (moduli_sys.realization, "verify_realization"), (Matrix, "__matmul__")):
        monkeypatch.setattr(owner, name, forbidden)
    got, reductions = [], []
    for seq in seqs:
        calls.clear()
        got.append(realize(seq))
        reductions.append(list(calls))
    monkeypatch.undo()
    for seq, system, want, reduced in zip(seqs, got, expected, reductions):
        # the scan's forward eliminations, then exactly one reduced one
        assert reduced.count(True) == 1 and reduced[-1] is True, reduced
        assert system == want, seq
    assert len(got) == len(systems) == 19
