"""Objective values, duality gaps, geometry constants, and bound checkers.

The duality gap

    gap(x, y) = [h(x) + h*(-A^T y) + <y, A x>] + [f(A x) + f*(y) - <y, A x>]

is nonnegative for feasible pairs and zero exactly at optima, so it is
an online certificate.  ``check_bound`` replays a finished trace against
one of the certified convergence bounds:

* ``md-avg-subopt`` / ``md-best-subopt`` / ``md-distance``: mirror
  descent with rho_t = 2/(t+1); weighted-average suboptimality, best
  pre-step iterate suboptimality, and Bregman distance to the optimum
  are all bounded by R^2 / (mu (t+1)).
* ``gcg-fixed-dual-subopt`` / ``gcg-fixed-min-gap``: conditional
  gradient with rho_t = 2/(t+1); dual suboptimality <= 2 R^2/(mu (t+1))
  and the running minimum gap <= 8 R^2/(mu (t+1)).
* ``gcg-linesearch-dual-subopt`` / ``gcg-linesearch-min-gap``: the
  adaptive step rule; both quantities <= 2 R^2/(mu (t+3)).
* ``compact-averaged-gap``: the compact-domain recursion with
  rho_t = delta/(R sqrt(t)); the averaged-pair gap <= 2 R delta/sqrt(t).

Here R^2 = diam(A^T C)^2 for the strongly convex bounds and
R^2 = max_{y in C} ||A^T y||^2 for the compact-domain bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import (
    GCG,
    MD,
    NS_MD,
    FixedTwoOverTPlusOne,
    LineSearch,
    RunResult,
    SqrtDecay,
)
from .core import (
    ConfigurationError,
    LinearOperator,
    ProblemInstance,
    as_vector,
    clamp_gap,
)
from .functions import Box, L1Ball, Loss

# Largest dual dimension for which vertex enumeration is exact.
EXACT_VERTEX_LIMIT = 20

MODE_EXACT = "exact-vertex"
MODE_BOUND = "column-norm-bound"


# ---------------------------------------------------------------------------
# Objectives and gaps


def primal_objective(problem: ProblemInstance, x) -> float:
    """h(x) + f(A x); +inf outside the primal domain."""
    x = as_vector(x, problem.p, "x")
    hv = problem.regularizer.value(x)
    if hv == float("inf"):
        return float("inf")
    return hv + problem.loss.value(problem.operator.apply(x))


def dual_objective(problem: ProblemInstance, y) -> float:
    """-h*(-A^T y) - f*(y); -inf outside the closure of C."""
    y = as_vector(y, problem.n, "y")
    fc = problem.loss.conj_value(y)
    if fc == float("inf"):
        return float("-inf")
    return -problem.regularizer.conj_value(-problem.operator.adjoint_apply(y)) - fc


def gap_decomposition(problem: ProblemInstance, x, y) -> tuple[float, float]:
    """The two Fenchel residuals whose sum is the duality gap.

    Returns (h-pair residual, f-pair residual); each is nonnegative up
    to round-off, and each vanishes exactly when the corresponding pair
    is Fenchel-conjugate.
    """
    x = as_vector(x, problem.p, "x")
    y = as_vector(y, problem.n, "y")
    ax = problem.operator.apply(x)
    aty = problem.operator.adjoint_apply(y)
    inner = float(y @ ax)
    h_res = problem.regularizer.value(x) + problem.regularizer.conj_value(-aty) + inner
    f_res = problem.loss.value(ax) + problem.loss.conj_value(y) - inner
    return h_res, f_res


def duality_gap(problem: ProblemInstance, x, y) -> float:
    """Nonnegative duality gap; tiny negative round-off is clamped to 0."""
    p = primal_objective(problem, x)
    d = dual_objective(problem, y)
    if p == float("inf") or d == float("-inf"):
        return float("inf")
    return clamp_gap(p - d)


def support_gap(problem: ProblemInstance, x, y) -> float:
    """Gap certificate for min_{x in K} f(A x) over the compact domain K.

    Uses the support function of K in place of the conjugate of h:
    f(A x) + sigma_K(-A^T y) + f*(y).
    """
    x = as_vector(x, problem.p, "x")
    y = as_vector(y, problem.n, "y")
    dom = problem.regularizer.domain
    if not dom.compact:
        raise ConfigurationError("support gap requires a compact primal domain")
    fc = problem.loss.conj_value(y)
    if fc == float("inf"):
        return float("inf")
    val = (
        problem.loss.value(problem.operator.apply(x))
        + dom.support(-problem.operator.adjoint_apply(y))
        + fc
    )
    return clamp_gap(val)


# ---------------------------------------------------------------------------
# Geometry constants


@dataclass(frozen=True)
class GeometryConstants:
    """R^2 in its two variants plus the Bregman radius of a compact domain.

    ``r2_primal`` is diam(A^T C)^2 (used by the strongly convex bounds);
    ``r2_origin`` is max_{y in C} ||A^T y||^2 (used by the compact-domain
    bound).  ``mode`` records whether the values are exact vertex maxima
    or norm upper bounds; the bounds remain valid with any upper bound.
    """

    r2_primal: float
    r2_origin: float
    mode: str
    delta2: Optional[float] = None


def _vertex_images(matrix: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A^T y for every vertex y of the box [lower, upper], one row per vertex."""
    k = matrix.shape[0]
    choose = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return np.where(choose == 1, upper, lower) @ matrix


def _max_sq_norm_over_vertices(matrix: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Exact max of ||A^T y||^2 over the vertices of a box, meet in the middle.

    A vertex is a pair of vertices of the two half-boxes (first n//2
    coordinates, the rest), so A^T y = u1 + u2 and
    ||u1 + u2||^2 = ||u1||^2 + ||u2||^2 + 2 <u1, u2>.  One product of the
    two image tables, taken in blocks of 64 rows, scores all 2^n vertices
    in O(2^(n/2) p) memory.  The winner is rescored as ||u1 + u2||^2, so the
    value returned is the norm of a real vertex image.
    """
    k = matrix.shape[0] // 2
    u1 = _vertex_images(matrix[:k], lower[:k], upper[:k])
    u2 = _vertex_images(matrix[k:], lower[k:], upper[k:])
    sq1 = np.einsum("ij,ij->i", u1, u1)
    sq2 = np.einsum("ij,ij->i", u2, u2)
    best, best_i, best_j = -np.inf, 0, 0
    for start in range(0, u1.shape[0], 64):
        s = u1[start : start + 64] @ u2.T
        s *= 2.0
        s += sq1[start : start + 64, None]
        s += sq2
        flat = int(s.argmax())
        i, j = divmod(flat, s.shape[1])
        if s[i, j] > best:
            best, best_i, best_j = s[i, j], start + i, j
    v = u1[best_i] + u2[best_j]
    return float(v @ v)


def estimate_r2(loss: Loss, op: LinearOperator, which: str = "diameter") -> tuple[float, str]:
    """R^2 for the dual domain C of ``loss`` under the operator ``op``.

    ``which='diameter'`` gives max_{y,y' in C} ||A^T (y - y')||^2;
    ``which='origin'`` gives max_{y in C} ||A^T y||^2.  Boxes with at
    most EXACT_VERTEX_LIMIT coordinates are solved exactly by vertex
    enumeration (the maximum of a convex function over a box is attained
    at a vertex); larger boxes fall back to the norm upper bound
    (sum_i c_i ||row_i(A)||)^2.  The l1 ball is always exact.
    """
    if which not in ("diameter", "origin"):
        raise ConfigurationError(f"which must be 'diameter' or 'origin', got {which!r}")
    dom = loss.dual_domain
    if isinstance(dom, L1Ball):
        m = float(np.max(op.row_norms))
        r = dom.radius * m
        return ((2.0 * r) ** 2 if which == "diameter" else r**2), MODE_EXACT
    if isinstance(dom, Box):
        if dom.dim != op.n:
            raise ConfigurationError("dual domain dimension does not match the operator")
        if dom.dim <= EXACT_VERTEX_LIMIT:
            if which == "diameter":
                w = dom.widths
                return _max_sq_norm_over_vertices(op.matrix, -w, w), MODE_EXACT
            return _max_sq_norm_over_vertices(op.matrix, dom.lower, dom.upper), MODE_EXACT
        coeff = dom.widths if which == "diameter" else dom.max_abs()
        return float(np.sum(coeff * op.row_norms)) ** 2, MODE_BOUND
    raise ConfigurationError(f"unsupported dual domain {type(dom).__name__}")


def geometry_constants(problem: ProblemInstance, x0=None) -> GeometryConstants:
    """Convenience bundle of both R^2 variants (and delta^2 when compact)."""
    r2_primal, mode_d = estimate_r2(problem.loss, problem.operator, "diameter")
    r2_origin, mode_o = estimate_r2(problem.loss, problem.operator, "origin")
    mode = MODE_EXACT if mode_d == mode_o == MODE_EXACT else MODE_BOUND
    delta2 = None
    if problem.regularizer.domain.compact:
        if x0 is None:
            x0 = problem.regularizer.interior_point()
        delta2 = problem.regularizer.delta2(x0)
    return GeometryConstants(r2_primal=r2_primal, r2_origin=r2_origin, mode=mode, delta2=delta2)


# ---------------------------------------------------------------------------
# Bound checking


@dataclass
class BoundReport:
    """Outcome of replaying a trace against one convergence bound.

    ``margins[i] = bounds[i] - observed[i]`` for the i-th record; the
    report passes when every margin is >= -1e-9 * (1 + |bound|).  An
    empty trace passes vacuously with ``iterations == 0``.
    """

    bound_id: str
    iterations: int
    bounds: np.ndarray
    observed: np.ndarray
    margins: np.ndarray
    passed: bool
    worst_iteration: int
    worst_margin: float


# bound id -> (algorithm, schedule class, needs a reference solution)
BOUND_PAIRING = {
    "md-avg-subopt": (MD, FixedTwoOverTPlusOne, True),
    "md-best-subopt": (MD, FixedTwoOverTPlusOne, True),
    "md-distance": (MD, FixedTwoOverTPlusOne, True),
    "gcg-fixed-dual-subopt": (GCG, FixedTwoOverTPlusOne, True),
    "gcg-fixed-min-gap": (GCG, FixedTwoOverTPlusOne, False),
    "gcg-linesearch-dual-subopt": (GCG, LineSearch, True),
    "gcg-linesearch-min-gap": (GCG, LineSearch, False),
    "compact-averaged-gap": (NS_MD, SqrtDecay, False),
}

BOUND_IDS = tuple(BOUND_PAIRING)


def _finish_report(bound_id: str, bounds: np.ndarray, observed: np.ndarray) -> BoundReport:
    margins = bounds - observed
    slack = 1e-9 * (1.0 + np.abs(bounds))
    if margins.size == 0:
        return BoundReport(bound_id, 0, bounds, observed, margins, True, 0, float("inf"))
    worst = int(np.argmin(margins + slack))
    passed = bool(np.all(margins >= -slack))
    return BoundReport(
        bound_id=bound_id,
        iterations=margins.size,
        bounds=bounds,
        observed=observed,
        margins=margins,
        passed=passed,
        worst_iteration=worst + 1,
        worst_margin=float(margins[worst]),
    )


def check_bound(
    result: RunResult,
    constants: GeometryConstants,
    mu: float,
    which: str,
    reference=None,
    reference_tolerance: Optional[float] = None,
) -> BoundReport:
    """Compare a finished trace against one certified bound.

    ``reference`` (needed by the suboptimality variants) is an object
    exposing ``dual_value``, ``primal_value`` and ``certified_gap``; the
    reference tolerance (default: its certified gap) is added to the
    bound, since the optimum is only known up to that gap.  Gap-based
    variants need no reference.  The run must have been produced by the
    matching algorithm and schedule.
    """
    if which not in BOUND_PAIRING:
        raise ConfigurationError(f"unknown bound id {which!r}; expected one of {BOUND_IDS}")
    algo, sched_type, needs_ref = BOUND_PAIRING[which]
    if result.algorithm != algo:
        raise ConfigurationError(
            f"{which} applies to algorithm {algo!r}, trace came from {result.algorithm!r}"
        )
    if not isinstance(result.schedule, sched_type):
        raise ConfigurationError(
            f"{which} applies to schedule {sched_type.name!r}, "
            f"trace used {result.schedule.name!r}"
        )
    if which.startswith("md-") and not result.init_dual_derived:
        raise ConfigurationError(
            "mirror descent bounds require a dual-derived start "
            "(carried subgradient in -A^T C)"
        )
    tol = 0.0
    if needs_ref:
        if reference is None:
            raise ConfigurationError(f"{which} requires a reference solution")
        tol = reference.certified_gap if reference_tolerance is None else reference_tolerance
    trace = result.trace
    t = np.array([rec.t for rec in trace], dtype=np.float64)
    if which in ("md-avg-subopt", "md-best-subopt", "md-distance"):
        bounds = constants.r2_primal / (mu * (t + 1.0)) + tol
        if which == "md-avg-subopt":
            observed = np.array([rec.avg_primal_value for rec in trace]) - reference.dual_value
        elif which == "md-best-subopt":
            vals = np.array([rec.primal_value for rec in trace]) - reference.dual_value
            observed = np.minimum.accumulate(vals)
        else:
            breg = [rec.bregman_to_ref for rec in trace]
            if any(b is None for b in breg):
                raise ConfigurationError("trace lacks reference columns; rerun with a reference")
            observed = np.array(breg, dtype=np.float64)
    elif which in ("gcg-fixed-dual-subopt", "gcg-linesearch-dual-subopt"):
        denom = t + 1.0 if which == "gcg-fixed-dual-subopt" else t + 3.0
        bounds = 2.0 * constants.r2_primal / (mu * denom) + tol
        sub = [rec.dual_suboptimality for rec in trace]
        if any(s is None for s in sub):
            raise ConfigurationError("trace lacks reference columns; rerun with a reference")
        observed = np.array(sub, dtype=np.float64)
    elif which in ("gcg-fixed-min-gap", "gcg-linesearch-min-gap"):
        if which == "gcg-fixed-min-gap":
            bounds = 8.0 * constants.r2_primal / (mu * (t + 1.0))
        else:
            bounds = 2.0 * constants.r2_primal / (mu * (t + 3.0))
        observed = np.minimum.accumulate(np.array([rec.gap for rec in trace]))
    else:  # compact-averaged-gap
        if constants.delta2 is None:
            raise ConfigurationError("compact-averaged-gap requires delta^2 in the constants")
        sched = result.schedule
        radius = float(np.sqrt(constants.r2_origin))
        delta = float(np.sqrt(constants.delta2))
        if sched.radius > radius * (1.0 + 1e-12) + 1e-12:
            raise ConfigurationError(
                "schedule radius exceeds the certified R; the bound does not apply"
            )
        if abs(sched.delta - delta) > 1e-9 * (1.0 + delta):
            raise ConfigurationError("schedule delta disagrees with the certified delta^2")
        gaps = [rec.avg_gap for rec in trace]
        if any(g is None for g in gaps):
            raise ConfigurationError("trace lacks averaged-pair gaps")
        bounds = 2.0 * radius * delta / np.sqrt(t)
        observed = np.array(gaps, dtype=np.float64)
    return _finish_report(which, np.asarray(bounds, dtype=np.float64), observed)
