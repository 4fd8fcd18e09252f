"""Exact tools for linear control systems over Q and prime fields.

Classification (cc / co / canonical), the quiver-representation view
with simplicity and stability tests, Kalman codes and canonical forms,
Grassmannian embeddings with Schubert cells and locus tests, closed
point-count formulas with an exhaustive census referee, and exact
minimal realization from Markov blocks.
"""

from .counting import (
    CensusReport,
    census_cc,
    census_co,
    count_cc_formula,
    count_co_formula,
    gl_order,
    q_binomial,
    series_identity_check,
)
from .grassmann import (
    GrassmannPoint,
    InfiniteGrassmannPoint,
    LocusMembership,
    locus_membership,
    moduli_point,
    point_from_matrix,
    schubert_cell_of,
    stratum_dimension,
    stratum_point,
    system_from_cell,
)
from .kalman import (
    KalmanCode,
    MultiIndex,
    all_codes,
    canonical_form,
    code_from_multiindex,
    kalman_code,
    multiindex_from_code,
)
from .linalg import (
    Field,
    Matrix,
    charpoly,
    det,
    hstack,
    inverse,
    kernel_basis,
    minor_det,
    rank,
    rref_with_pivots,
    vstack,
)
from .quiver import (
    QuiverRep,
    controllability_weight,
    euler_dimension,
    is_simple,
    is_theta_semistable,
    is_theta_stable,
    observability_weight,
    subrep_dimvectors,
    subrep_dimvectors_by_enumeration,
)
from .realization import (
    HankelRankProfile,
    MarkovSequence,
    NotStabilized,
    hankel,
    realizability_order,
    realize,
    verify_realization,
)
from .system import (
    LinearSystem,
    SystemClass,
    act,
    all_systems,
    classify,
    controllability_matrix,
    dualize,
    markov_parameters,
    observability_matrix,
    random_system,
    system_from_json,
    system_to_json,
)

__version__ = "0.1.0"
