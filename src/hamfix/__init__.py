"""Exact-arithmetic toolkit for fixed-point data of Hamiltonian circle
actions on ten-dimensional manifolds with six isolated fixed points:
constraint checking, cohomological invariants, and pruned exhaustive
classification searches."""

from .model import (
    Configuration,
    IsotropyComponent,
    MomentProfile,
    SchemaError,
    StructureError,
    WeightEdge,
    WeightSystem,
    canonicalize,
    config_dumps,
    config_from_dict,
    config_loads,
    config_to_dict,
    derive_weight_system,
    flip,
    isotropy_components,
    validate_structure,
)
from .constraints import CheckReport, Violation, check_all, compute_c1
from .cohomology import (
    ChernReport,
    CohomologyError,
    ConsistencyError,
    DualityError,
    EquivariantClass,
    IntegralityError,
    RingPresentation,
    chern_restrictions,
    cohomology_report,
    localize_integral,
    ring_presentation,
    total_chern,
    u_tilde,
)
from .examples import (
    BUILTIN_NAMES,
    DegenerateDirection,
    GKMGraph,
    ParamError,
    builtin,
    o_gkm_graph,
    project_gkm,
)
from .search import (
    BudgetExceeded,
    SearchResult,
    SearchSpec,
    SearchStats,
    SpecError,
    TheoremReport,
    enumerate_configurations,
    theorem4_weight_system,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)

__version__ = "0.1.0"
