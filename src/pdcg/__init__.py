"""Primal-dual first-order solvers with duality-gap certificates.

Solves min_x h(x) + f(A x) for a strongly convex regularizer h and a
Lipschitz loss f, via mirror descent on the primal or the generalized
conditional gradient method on the Fenchel dual; the two are the same
algorithm under a matched start, and every run emits a per-iteration
duality-gap certificate trace that can be replayed against the certified
convergence bounds.
"""

__version__ = "0.1.0"

from .algorithms import (
    GCG,
    MD,
    NS_MD,
    FixedOneOverT,
    FixedTwoOverTPlusOne,
    LineSearch,
    RunResult,
    SolverState,
    SqrtDecay,
    init_state,
    init_state_compact,
    run,
    step,
)
from .certificates import (
    BOUND_IDS,
    BoundReport,
    GeometryConstants,
    check_bound,
    dual_objective,
    duality_gap,
    geometry_constants,
    primal_objective,
)
from .core import (
    ConfigurationError,
    DimensionMismatch,
    DomainError,
    FeasibilityError,
    GapInconsistencyError,
    LinearOperator,
    ProblemInstance,
    TraceRecord,
    ValidationError,
    as_vector,
)
from .equivalence import EquivalenceReport, verify_equivalence
from .functions import (
    Box,
    DualNormGauge,
    Hinge,
    L1Ball,
    LeastAbsoluteDeviation,
    Logistic,
    Loss,
    NegativeEntropySimplex,
    RealSpace,
    Regularizer,
    Simplex,
    SquaredL2,
    SquaredL2Box,
)
from .harness import (
    ExperimentConfig,
    ReferenceSolution,
    build_schedule,
    emit_trace,
    generate_problem,
    prepare,
    reference_solution,
    run_sweep,
    trace_csv,
    trace_json_obj,
)

__all__ = [name for name in dir() if not name.startswith("_")]
