"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All arithmetic is exact, so every comparison is exact equality; the
stated wall-clock budgets are asserted where given.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager


from moduli_sys.counting import (
    census_cc,
    census_co,
    count_co_formula,
    series_identity_check,
)
from moduli_sys.grassmann import (
    locus_membership,
    moduli_point,
    schubert_cell_of,
    stratum_dimension,
    stratum_point,
    system_from_cell,
)
from moduli_sys.kalman import (
    MultiIndex,
    all_codes,
    canonical_form,
    code_from_multiindex,
    kalman_code,
    multiindex_from_code,
)
from moduli_sys.linalg import Field, Matrix, inverse, rank
from moduli_sys.quiver import (
    QuiverRep,
    controllability_weight,
    euler_dimension,
    is_simple,
    is_theta_stable,
    observability_weight,
    subrep_dimvectors_by_enumeration,
)
from moduli_sys.realization import MarkovSequence, realize, verify_realization
from moduli_sys.system import classify, random_system, system_to_json

from helpers import col_list, stable_by_definition, unimodular

QQ = Field.rationals()
F5 = Field.prime(5)


@contextmanager
def criterion(number, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number:02d} ({name}): PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_census_vs_formula():
    with criterion(1, "census equals closed formula", budget=60.0):
        grid = [
            (m, n, p, q)
            for m in (1, 2)
            for p in (0, 1, 2)
            for n in (0, 1, 2)
            for q in (2, 3, 5)
        ]
        grid += [(m, 3, p, 2) for m in (1, 2) for p in (0, 1)]
        for m, n, p, q in grid:
            report = census_cc(m, n, p, q)
            assert report.match, f"cc census mismatch at {(m, n, p, q)}: {report}"
            assert report.orbit_count * report.gl_order == report.raw_cc_triples
            dual = census_co(m, n, p, q)
            assert dual.match, f"co census mismatch at {(m, n, p, q)}: {dual}"
            assert dual.formula_value == count_co_formula(m, n, p, q)


def test_criterion_02_simple_iff_canonical(f2_sweep):
    with criterion(2, "simple iff canonical, exhaustive F_2", budget=30.0):
        for s, cls in f2_sweep:
            rep = QuiverRep.of(s)
            assert is_simple(rep) == cls.canonical, s
            # simple by definition: the enumeration finds no proper nonzero subrepresentation
            assert (not subrep_dimvectors_by_enumeration(rep)) == cls.canonical, s


def test_criterion_03_stability_iff_cc_co(f2_sweep):
    with criterion(3, "theta-stability iff cc/co, exhaustive F_2"):
        for s, cls in f2_sweep:
            rep = QuiverRep.of(s)
            plus = controllability_weight(s.n)
            minus = observability_weight(s.n)
            assert is_theta_stable(rep, plus) == cls.cc, s
            assert is_theta_stable(rep, minus) == cls.co, s
            subreps = subrep_dimvectors_by_enumeration(rep)  # once per system, for both weights
            assert stable_by_definition(subreps, plus) == cls.cc, s
            assert stable_by_definition(subreps, minus) == cls.co, s


def _assert_structure_bullets(source, g, canon):
    code = kalman_code(source)
    f = canon.field
    n = canon.n
    prefixes = code.height_prefixes
    for t, j in enumerate(code.occupied_columns):
        expected = [f.one if r == prefixes[t] else f.zero for r in range(n)]
        assert col_list(canon.B, j - 1) == expected
    ends = set(prefixes[1:])
    for i in range(1, n + 1):
        if i not in ends:
            expected = [f.one if r == i else f.zero for r in range(n)]
            assert col_list(canon.A, i - 1) == expected
    assert canon.C == source.C @ inverse(g)


def test_criterion_04_canonical_form_lemma():
    with criterion(4, "canonical form structure, orbit invariance, idempotence"):
        from moduli_sys.system import act

        rng = random.Random(4040)
        for field in (QQ, F5):
            for _ in range(500):
                n = rng.randint(1, 4)
                m = rng.randint(1, 3)
                p = rng.randint(0, 2)
                s = random_system(field, m, n, p, rng, require="cc", bound=2)
                g, canon = canonical_form(s)
                assert act(g, s) == canon
                _assert_structure_bullets(s, g, canon)
                for _ in range(10):
                    h = unimodular(field, n, rng)
                    g2, canon2 = canonical_form(act(h, s))
                    assert canon2 == canon
                g3, canon3 = canonical_form(canon)
                assert g3 == Matrix.identity(field, n)
                assert canon3 == canon


def test_criterion_05_cell_structure(f2_sweep):
    with criterion(5, "Schubert cells, surjectivity, code bijection"):
        # cell of the embedded point equals the code's multi-index
        for s, cls in f2_sweep:
            if cls.cc and s.n >= 1:
                assert schubert_cell_of(moduli_point(s)) == multiindex_from_code(kalman_code(s))
        # every cell is hit by a controllable system
        field = Field.prime(2)
        for m in range(1, 4):
            for n in range(1, 4):
                for values in itertools.combinations(range(1, m + n), n):
                    idx = MultiIndex(values, ambient=m + n - 1)
                    witness = system_from_cell(idx, m, n, field)
                    assert classify(witness).cc
                    assert schubert_cell_of(moduli_point(witness)) == idx
        # codes and multi-indices are in bijection, with the right count
        for m in range(1, 5):
            for n in range(0, 5):
                codes = list(all_codes(m, n))
                assert len(codes) == math.comb(m + n - 1, n)
                images = set()
                for code in codes:
                    idx = multiindex_from_code(code)
                    assert code_from_multiindex(idx, m, n) == code
                    images.add(tuple(idx))
                assert len(images) == len(codes)


def test_criterion_06_infinite_grassmannian_loci(f2_sweep):
    with criterion(6, "controllable/observable/canonical loci"):
        canonical_failures = []
        for s, cls in f2_sweep:
            if not cls.cc:
                continue
            point = stratum_point(s)
            membership = locus_membership(point, s.m, s.p)
            # every cc class lies in the controllable locus
            assert membership.in_cc, (s, membership)
            # the distinguished p+1 columns of the representative are independent
            required = sorted(set(range(s.m + 1, s.m + s.p + 1)) | {s.m + s.p + s.n})
            selected = point.point.rep.columns_at([c - 1 for c in required])
            expected_rank = s.p + 1 if s.n >= 1 else len(required)
            assert rank(selected) == expected_rank, s
            # the stratum recovers the state dimension
            assert stratum_dimension(point, s.m, s.p) == s.n
            if cls.canonical and not membership.in_canonical:
                canonical_failures.append(s)
        assert not canonical_failures, (
            f"{len(canonical_failures)} canonical sweep members are outside the "
            "observable-locus column test {1..m, m+p+n}; the first is "
            f"{canonical_failures[0]}.  The embedded relation plane of a "
            "canonical class need not admit an invertible minor through the "
            "input-block columns: no relation among the columns of [B' C'^T A'] "
            "involves B' when every later column avoids the B'-pivot "
            "directions.  The observable-locus condition characterizes the "
            "dual embedding's image instead (see notes/decisions.md); the "
            "dual class always passes the controllable-locus test."
        )


def test_criterion_07_generating_function():
    with criterion(7, "generating function via q-binomial theorem", budget=1.0):
        for m in (1, 2, 3):
            for p in (0, 1, 2):
                for q in (2, 3):
                    assert series_identity_check(m, p, q, 8), (m, p, q)


def test_criterion_08_realization_round_trip():
    with criterion(8, "realization round trip"):
        rng = random.Random(8080)
        for field in (QQ, F5):
            for _ in range(500):
                n = rng.randint(0, 3)
                m = rng.randint(1, 2)
                p = rng.randint(1, 2)
                original = random_system(field, m, n, p, rng, require="canonical", bound=2)
                seq = MarkovSequence.from_system(original, max(2 * n + 1, 3))
                realized = realize(seq)
                assert realized.n == n
                assert classify(realized).canonical
                assert verify_realization(realized, seq)
                if n > 0:
                    assert canonical_form(realized)[1] == canonical_form(original)[1]
        fib = MarkovSequence.from_scalars(QQ, [1, 1, 2, 3, 5, 8])
        fib_system = realize(fib)
        assert fib_system.n == 2 and verify_realization(fib_system, fib)
        zero = MarkovSequence.from_scalars(QQ, [0, 0, 0, 0])
        assert realize(zero).n == 0


def test_criterion_09_dimension_formula():
    with criterion(9, "orbit-space dimension count"):
        for m in range(0, 4):
            for p in range(0, 4):
                for n in range(0, 5):
                    assert euler_dimension(m, n, p) == (m + p) * n


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism, byte identical"):
        rng = random.Random(1010)
        corpus = []
        specs = [
            (QQ, 1, 1, 1, "canonical"),
            (QQ, 2, 2, 1, "cc"),
            (Field.prime(3), 2, 2, 2, "canonical"),
            (F5, 1, 3, 1, "cc"),
        ]
        for i, (field, m, n, p, require) in enumerate(specs):
            s = random_system(field, m, n, p, rng, require=require)
            path = tmp_path / f"sys{i}.json"
            path.write_text(json.dumps(system_to_json(s)))
            corpus.append(str(path))

        def run_once(args):
            result = subprocess.run(
                [sys.executable, "-m", "moduli_sys", *args],
                capture_output=True,
                check=True,
            )
            return result.stdout

        for path in corpus:
            for command in ("analyze", "canon", "embed"):
                first = run_once([command, "--system", path])
                second = run_once([command, "--system", path])
                assert first == second
                assert first  # nonempty output
            first = run_once(["analyze", "--system", path, "--json"])
            second = run_once(["analyze", "--system", path, "--json"])
            assert first == second
