"""The package namespace: its public names, and submodules loaded on first use."""

import subprocess
import sys

import pytest

import moduli_sys

PUBLIC = [
    "CensusReport", "Field", "GrassmannPoint", "HankelRankProfile", "InfiniteGrassmannPoint",
    "KalmanCode", "LinearSystem", "LocusMembership", "MarkovSequence", "Matrix", "MultiIndex",
    "NotStabilized", "QuiverRep", "SystemClass", "act", "all_codes", "all_systems",
    "canonical_form", "census_cc", "census_co", "charpoly", "classify", "code_from_multiindex",
    "controllability_matrix", "controllability_weight", "count_cc_formula", "count_co_formula",
    "det", "dualize", "euler_dimension", "gl_order", "hankel", "hstack", "inverse", "is_simple",
    "is_theta_semistable", "is_theta_stable", "kalman_code", "kernel_basis", "locus_membership",
    "markov_parameters", "minor_det", "moduli_point", "multiindex_from_code",
    "observability_matrix", "observability_weight", "point_from_matrix", "q_binomial",
    "random_system", "rank", "realizability_order", "realize", "rref_with_pivots",
    "schubert_cell_of", "series_identity_check", "stratum_dimension", "stratum_point",
    "subrep_dimvectors", "subrep_dimvectors_by_enumeration", "system_from_cell",
    "system_from_json", "system_to_json", "verify_realization", "vstack",
]
SUBMODULES = ["counting", "errors", "grassmann", "kalman", "linalg", "quiver", "realization", "system"]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 64
    assert sorted(moduli_sys.__all__) == PUBLIC


def test_every_public_name_resolves_three_ways():
    star = {}
    exec("from moduli_sys import *", star)
    assert sorted(name for name in star if name != "__builtins__") == PUBLIC
    listed = dir(moduli_sys)
    for name in PUBLIC:
        value = getattr(moduli_sys, name)
        one = {}
        exec(f"from moduli_sys import {name}", one)
        assert one[name] is value is star[name], name
        assert name in listed, name


def test_submodules_resolve_as_attributes_without_an_import():
    # in a fresh interpreter, since this one has imported them all already
    script = (
        "import sys\n"
        "import moduli_sys\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(moduli_sys, name) is sys.modules['moduli_sys.' + name], name\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["no_such_name", "cli_main", "DEFAULT_CENSUS_BOUND"])
def test_an_unknown_name_raises_attribute_error_naming_it(name):
    with pytest.raises(AttributeError, match=f"^module 'moduli_sys' has no attribute '{name}'$"):
        getattr(moduli_sys, name)
    assert not hasattr(moduli_sys, name)
