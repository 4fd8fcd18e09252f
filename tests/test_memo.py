"""The memo a ``LinearSystem`` keeps: its two Krylov walks and its canonical reduction.

Every public result must be the same whatever was asked of the object
before, equal to the result on a fresh, equal system; the memo must be
invisible to equality, hashing, ``repr``, JSON and
``dataclasses.replace``; and one system must walk each side once and
reduce once.
"""

import dataclasses
import itertools
import random
import sys
import threading

import pytest

from moduli_sys import system as system_module
from moduli_sys.errors import ModuliError
from moduli_sys.grassmann import locus_membership, moduli_point, stratum_point
from moduli_sys.kalman import canonical_form, kalman_code
from moduli_sys.linalg import Field, Matrix
from moduli_sys.quiver import (
    QuiverRep,
    controllability_weight,
    is_simple,
    is_theta_semistable,
    is_theta_stable,
    observability_weight,
    subrep_dimvectors,
)
from moduli_sys.realization import MarkovSequence, realize, verify_realization
from moduli_sys.system import classify, markov_parameters, random_system, system_from_json, system_to_json

QQ = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)

MEMO_KEYS = ("_walk", "_dual_walk", "_reduction")

RESULTS = {
    "classify": classify,
    "is_simple": lambda s: is_simple(QuiverRep.of(s)),
    "cc_stable": lambda s: is_theta_stable(QuiverRep.of(s), controllability_weight(s.n)),
    "co_semistable": lambda s: is_theta_semistable(QuiverRep.of(s), observability_weight(s.n)),
    "subreps": lambda s: subrep_dimvectors(QuiverRep.of(s)),
    "kalman_code": kalman_code,
    "canonical_form": canonical_form,
    "moduli_point": moduli_point,
    "stratum_point": stratum_point,
    "markov": lambda s: markov_parameters(s, 3),
}


def outcome(name, system):
    """The result of ``RESULTS[name]`` on ``system``, or the type of the error it raises."""
    try:
        return RESULTS[name](system)
    except (ModuliError, ValueError) as exc:
        return type(exc)


def fresh(system):
    """An equal system that has computed nothing yet."""
    return system_from_json(system_to_json(system))


def sample(field, shape, rng):
    """Systems of one shape: some of any kind, one cc and one canonical when the shape has them."""
    m, n, p = shape
    out = [random_system(field, m, n, p, rng, bound=2) for _ in range(3)]
    if n == 0 or m > 0:
        out.append(random_system(field, m, n, p, rng, require="cc", bound=2))
    if n == 0 or m > 0 and p > 0:
        out.append(random_system(field, m, n, p, rng, require="canonical", bound=2))
    return [fresh(s) for s in out]


SHAPES = [(1, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 0), (2, 4, 2), (1, 0, 1)]


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=str)
def test_results_do_not_depend_on_call_order(field):
    rng = random.Random(1300 + (field.q or 0))
    names = list(RESULTS)
    for shape in SHAPES:
        for system in sample(field, shape, rng):
            expected = {name: outcome(name, fresh(system)) for name in names}
            for _ in range(3):
                rng.shuffle(names)
                one = fresh(system)
                for name in names + names:
                    assert outcome(name, one) == expected[name], (shape, name, names)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_one_reduction_carries_g_whatever_the_order(field, monkeypatch):
    # each system reduces [P | B | A P_tops | I] once, whichever reader asks first
    rng = random.Random(7)
    solves = []
    eliminate = system_module._eliminate

    def recording(field, grid, ncols, reduced):
        if reduced:
            solves.append([row[ncols - len(grid):] for row in grid])
        return eliminate(field, grid, ncols, reduced)

    monkeypatch.setattr(system_module, "_eliminate", recording)
    readers = (canonical_form, moduli_point, stratum_point, kalman_code)
    for shape in ((1, 2, 1), (2, 4, 2), (3, 5, 1)):
        system = random_system(field, *shape, rng, require="cc")
        n = shape[1]
        expected = [reader(fresh(system)) for reader in readers]
        for order in itertools.permutations(range(len(readers))):
            one = fresh(system)
            solves.clear()
            for k in order + order:
                assert readers[k](one) == expected[k], (shape, order)
            assert solves == [[[int(r == k) for k in range(n)] for r in range(n)]], (shape, order)
            assert one._reduction[2] == expected[0][0]


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=str)
def test_each_walk_keeps_its_black_boxes_and_their_vectors(field):
    # the kept walk is its result only: one box and one n-vector per unit of rank
    rng = random.Random(1900 + (field.q or 0))
    for shape in SHAPES:
        for system in sample(field, shape, rng):
            cls = classify(system)
            for key, rank in (("_walk", cls.rank_c), ("_dual_walk", cls.rank_o)):
                black, basis = system.__dict__[key]
                assert len(black) == len(set(black)) == rank, (shape, key)
                assert (basis.rows, basis.cols) == (system.n, rank), (shape, key)


def test_replace_starts_without_a_memo():
    rng = random.Random(11)
    for field in (QQ, F2, F5):
        system = random_system(field, 2, 3, 1, rng, require="canonical")
        for name in RESULTS:
            outcome(name, system)
        assert all(key in system.__dict__ for key in MEMO_KEYS)
        zero_c = Matrix.zeros(field, 1, 3)
        zero_b = Matrix.zeros(field, 3, 2)
        for changed in (dataclasses.replace(system, C=zero_c), dataclasses.replace(system, B=zero_b),
                        dataclasses.replace(system)):
            assert not any(key in changed.__dict__ for key in MEMO_KEYS)
            for name in RESULTS:
                assert outcome(name, changed) == outcome(name, fresh(changed)), name
        assert not classify(dataclasses.replace(system, C=zero_c)).co
        assert not classify(dataclasses.replace(system, B=zero_b)).cc


def test_memo_is_invisible_to_eq_hash_repr_and_json():
    rng = random.Random(5)
    for field in (QQ, F2, F5):
        for shape in ((1, 2, 1), (2, 3, 2)):
            system = random_system(field, *shape, rng, require="cc")
            before = (hash(system), repr(system), system_to_json(system))
            for name in RESULTS:
                outcome(name, system)
            assert "_reduction" in system.__dict__
            twin = fresh(system)
            assert system == twin and twin == system
            assert (hash(system), repr(system), system_to_json(system)) == before
            assert (hash(twin), repr(twin), system_to_json(twin)) == before
            assert {system: 1}[twin] == 1


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_every_stage_of_one_cc_system_walks_twice(field, monkeypatch):
    walks = []
    walk = system_module._krylov_pivots
    monkeypatch.setattr(system_module, "_krylov_pivots", lambda f, n, m, a, b: walks.append(m) or walk(f, n, m, a, b))
    rng = random.Random(3)
    for shape in ((1, 2, 1), (2, 3, 1), (2, 6, 2), (3, 10, 2)):
        system = fresh(random_system(field, *shape, rng, require="cc"))
        m, n, p = shape
        walks.clear()
        for _ in range(2):
            cls = classify(system)
            assert is_simple(QuiverRep.of(system)) == cls.canonical
            subrep_dimvectors(QuiverRep.of(system))
            kalman_code(system)
            canonical_form(system)
            moduli_point(system)
            locus_membership(stratum_point(system), m, p)
            seq = MarkovSequence.from_system(system, 2 * n + 1)
            assert verify_realization(realize(seq), seq)
        assert walks == [m, p], shape


def test_threads_sharing_systems_get_the_results_of_fresh_systems():
    rng = random.Random(17)
    systems = [fresh(random_system(field, 2, 4, 2, rng, require="cc")) for field in (QQ, F5) for _ in range(6)]
    expected = [{name: outcome(name, fresh(s)) for name in RESULTS} for s in systems]
    wrong = []

    def work(seed):
        names = list(RESULTS)
        order = random.Random(seed)
        for _ in range(3):
            for k, system in enumerate(systems):
                order.shuffle(names)
                wrong.extend((k, name) for name in names if outcome(name, system) != expected[k][name])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
