"""Exact classification of weighted blowups of affine space.

Decides eps-log terminal / eps-log canonical status of the weighted blowup
with primitive weights n through emptiness / hollowness of lattice simplices,
runs exhaustive censuses over the index, instantiates the one-parameter
families of hollow 4-simplices, and extracts blowups from sporadic-simplex
records.  All geometry is done in exact rational arithmetic.
"""

from .classifier import (
    SingularityClass,
    classify,
    is_canonical_fast,
    is_terminal_fast,
)
from .exactgeom import (
    LatticeWitness,
    MembershipClass,
    OracleCapExceeded,
    WeightVector,
    ZeroWeightError,
    brute_force_lattice_points,
    frac_point,
    lattice_points_in_shrunk_simplex,
)
from .families import (
    DivisibilityError,
    Quintuple,
    blowup_from_quintuple,
    bound_dim1,
    get_quintuple,
    instantiate,
    quintuple_table,
)
from .projections import FacetData, ProjectedConfig, ell_L
from .search import (
    BudgetExceeded,
    CensusQuery,
    CensusResult,
    Histogram,
    enumerate_blowups,
    run_census,
)
from .sporadic import (
    EMBEDDED_RECORDS,
    DatasetFormatError,
    DatasetIntegrityError,
    SporadicRecord,
    blowups_from_record,
    parse_dataset,
    record_from_weights,
    sporadic_report,
)

__version__ = "0.1.0"
