"""Exact tools for linear control systems over Q and prime fields.

Classification (cc / co / canonical), the quiver-representation view
with simplicity and stability tests, Kalman codes and canonical forms,
Grassmannian embeddings with Schubert cells and locus tests, closed
point-count formulas with an exhaustive census referee, and exact
minimal realization from Markov blocks.

The namespace is lazy (PEP 562): ``import moduli_sys`` loads no
submodule, and a public name or a submodule attribute imports its
module on first access.  So a CLI command loads only the modules it
uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_PUBLIC = {
    "counting": """CensusReport census_cc census_co count_cc_formula count_co_formula
        gl_order q_binomial series_identity_check""",
    "grassmann": """GrassmannPoint InfiniteGrassmannPoint LocusMembership locus_membership
        moduli_point point_from_matrix schubert_cell_of stratum_dimension stratum_point
        system_from_cell""",
    "kalman": """KalmanCode MultiIndex all_codes canonical_form code_from_multiindex
        kalman_code multiindex_from_code""",
    "linalg": """Field Matrix charpoly det hstack inverse kernel_basis minor_det rank
        rref_with_pivots vstack""",
    "quiver": """QuiverRep controllability_weight euler_dimension is_simple
        is_theta_semistable is_theta_stable observability_weight subrep_dimvectors
        subrep_dimvectors_by_enumeration""",
    "realization": """HankelRankProfile MarkovSequence NotStabilized hankel
        realizability_order realize verify_realization""",
    "system": """LinearSystem SystemClass act all_systems classify controllability_matrix
        dualize markov_parameters observability_matrix random_system system_from_json
        system_to_json""",
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = frozenset(_PUBLIC) | {"errors"}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it in this namespace
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
