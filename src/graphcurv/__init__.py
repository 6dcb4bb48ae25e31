"""graphcurv: exact curvature vectors of finite graphs.

Given a finite connected graph with distance matrix D, solve D w = n 1
exactly over the rationals, report the curvature bound K = n / ||w||_1, and
certify the minimax sandwich A <= K <= B for probability measures on the
vertex set, including the exact inner-product identity behind it and the
zero-sum matrix game whose value coincides with K under non-negative
curvature.
"""

__version__ = "0.1.0"

from .curvature import (
    CurvatureSolution,
    FloatSolution,
    SolveStatus,
    curvature_bound,
    solve_curvature,
    solve_curvature_float,
    transitive_oracle,
)
from .errors import (
    DisconnectedGraphError,
    GraphInputError,
    HardVerificationError,
    InconsistentSystemError,
    NumericallySingularError,
)
from .game import (
    GameCurvatureComparison,
    GameSolution,
    game_value,
    game_vs_curvature,
    search_lower_violation,
)
from .graphs import (
    Graph,
    ValidationReport,
    complete,
    cycle,
    generate,
    gnp,
    grid,
    hypercube,
    parse_edge_list,
    parse_generator_spec,
    path,
    serialize,
    star,
    validate,
)
from .measures import (
    Battery,
    Measure,
    measure_delta,
    measure_uniform,
    measure_uniform_on,
    sample_measures,
)
from .metric import DistanceMatrix, apsp, eccentricities, row_sums
from .rationals import rational_from, rational_str
from .verifier import (
    MeasureRecord,
    TransportBounds,
    VerificationReport,
    identity_check,
    measure_battery,
    transport_vector,
    verify_minimax,
)

__all__ = [name for name in dir() if not name.startswith("_")]
