"""Convex set intersection through linear minimization oracles.

Find a point in the intersection of two compact convex sets, or certify
that they are disjoint, touching the sets only through linear
minimization.  Also ships the generic cyclic block-coordinate
conditional gradient engine the two-set solver specializes, an
alternating-projections baseline for projection-friendly sets, and an
exact hull-intersection feasibility solver.
"""

from .alm import (
    AlmResult,
    AlmState,
    Certificate,
    Disjoint,
    IntersectionPoint,
    RATE_CONSTANT,
    Undecided,
    adaptive_run,
    alm_run,
    certificate_tolerance,
    certify_disjoint_free,
    certify_disjoint_parameterized,
    default_start,
    disjointness_threshold,
    dual_quantity,
    threshold_exceeded,
)
from .cbcg import (
    BlockProblem,
    ConvexCombination,
    IterateTrace,
    InfeasibleStart,
    NumericsError,
    RateReport,
    StepRule,
    TraceRow,
    cbcg_run,
    check_rate_bounds,
    distance_problem,
    full_gap,
    rate_constant,
)
from .feasibility import (
    FeasibilityProgram,
    FeasibleCombination,
    HullMeet,
    epsilon_pq,
    hull_distance,
    hull_meet,
    phase_one_simplex,
    solve_feasibility,
)
from .oracles import (
    Ball,
    Box,
    DimensionMismatch,
    GeometryError,
    L1Ball,
    OracleSet,
    ProjectionUnsupported,
    Simplex,
    VPolytope,
    project_to_simplex,
    support_gap,
    supports_projection,
)
from .pocs import PocsTrace, check_pocs_rate, pocs_certificate, pocs_run

__version__ = "0.1.0"
