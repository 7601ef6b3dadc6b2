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
from .core import ConfigurationError, ProblemInstance, as_vector, clamp_gap, contiguous_vector
from .functions import MODE_BOUND, MODE_EXACT


# ---------------------------------------------------------------------------
# Objectives and gaps


def primal_objective(problem: ProblemInstance, x) -> float:
    """h(x) + f(A x); +inf outside the primal domain."""
    x = contiguous_vector(x, problem.p, "x")
    hv = problem.regularizer._value(x)
    if hv == float("inf"):
        return float("inf")
    return hv + problem.loss._value(as_vector(problem.operator.apply(x), name="ax"))


def dual_objective(problem: ProblemInstance, y) -> float:
    """-h*(-A^T y) - f*(y); -inf outside the closure of C."""
    return _dual_objective(problem, contiguous_vector(y, problem.n, "y"))


def _dual_objective(problem: ProblemInstance, y: np.ndarray) -> float:
    """``dual_objective`` at a checked y; A^T y, which can overflow, is scanned."""
    fc = problem.loss._conj_value(y)
    if fc == float("inf"):
        return float("-inf")
    return -problem.regularizer._conj_value(-as_vector(problem.operator.adjoint_apply(y), name="aty")) - fc


def duality_gap(problem: ProblemInstance, x, y) -> float:
    """Nonnegative duality gap; tiny negative round-off is clamped to 0.

    The primal objective is never -inf and the dual never +inf, so an
    infeasible x or y gives +inf, never NaN.
    """
    return clamp_gap(primal_objective(problem, x) - dual_objective(problem, y))


# ---------------------------------------------------------------------------
# Geometry constants


@dataclass(frozen=True)
class GeometryConstants:
    """R^2 in its two variants plus the Bregman radius of a compact domain.

    ``r2_primal`` is diam(A^T C)^2 (used by the strongly convex bounds);
    ``r2_origin`` is max_{y in C} ||A^T y||^2 (used by the compact-domain
    bound); a variant that was not computed is None.  ``mode`` records
    whether the values are exact vertex maxima or norm upper bounds; the
    bounds remain valid with any upper bound.
    """

    r2_primal: Optional[float]
    r2_origin: Optional[float]
    mode: str
    delta2: Optional[float] = None


def geometry_constants(problem: ProblemInstance, bound_id: Optional[str] = None) -> GeometryConstants:
    """Both R^2 variants, and delta^2 at the interior start when compact, as the instance keeps them.

    Given a ``bound_id``, only the variant that bound reads is computed
    (the origin R^2 for the compact-domain bound, the diameter R^2 for
    the others); on a small dual box each one is an exact enumeration.
    """
    r2_primal, mode_d = (None, MODE_EXACT) if bound_id == COMPACT_BOUND else problem.r2("diameter")
    r2_origin, mode_o = (None, MODE_EXACT) if bound_id not in (None, COMPACT_BOUND) else problem.r2("origin")
    mode = MODE_EXACT if mode_d == mode_o == MODE_EXACT else MODE_BOUND
    delta2 = problem.delta2 if problem.regularizer.domain.compact else None
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


@dataclass(frozen=True)
class BoundPairing:
    """A certified bound: the run it applies to and how its trace is read.

    The strongly convex bounds are ``coef R^2 / (mu (t + shift))``, plus
    the reference tolerance when ``needs_reference``.  The observed value
    is the trace ``column`` (less the reference dual value for a primal
    objective column), or its running minimum with ``running_min``.
    ``compact-averaged-gap`` is ``coef R delta / sqrt(t)`` instead.
    """

    algorithm: str
    schedule: str
    needs_reference: bool
    coef: float
    shift: float
    column: str
    running_min: bool = False


_TWO = FixedTwoOverTPlusOne.name
COMPACT_BOUND = "compact-averaged-gap"

BOUND_PAIRING = {
    "md-avg-subopt": BoundPairing(MD, _TWO, True, 1.0, 1.0, "avg_primal_value"),
    "md-best-subopt": BoundPairing(MD, _TWO, True, 1.0, 1.0, "primal_value", running_min=True),
    "md-distance": BoundPairing(MD, _TWO, True, 1.0, 1.0, "bregman_to_ref"),
    "gcg-fixed-dual-subopt": BoundPairing(GCG, _TWO, True, 2.0, 1.0, "dual_suboptimality"),
    "gcg-fixed-min-gap": BoundPairing(GCG, _TWO, False, 8.0, 1.0, "gap", running_min=True),
    "gcg-linesearch-dual-subopt": BoundPairing(GCG, LineSearch.name, True, 2.0, 3.0, "dual_suboptimality"),
    "gcg-linesearch-min-gap": BoundPairing(GCG, LineSearch.name, False, 2.0, 3.0, "gap", running_min=True),
    COMPACT_BOUND: BoundPairing(NS_MD, SqrtDecay.name, False, 2.0, 0.0, "avg_gap"),
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
    row = BOUND_PAIRING[which]
    if result.algorithm != row.algorithm:
        raise ConfigurationError(
            f"{which} applies to algorithm {row.algorithm!r}, trace came from {result.algorithm!r}"
        )
    if result.schedule.name != row.schedule:
        raise ConfigurationError(
            f"{which} applies to schedule {row.schedule!r}, trace used {result.schedule.name!r}"
        )
    tol = 0.0
    if row.needs_reference:
        if reference is None:
            raise ConfigurationError(f"{which} requires a reference solution")
        tol = reference.certified_gap if reference_tolerance is None else reference_tolerance
    trace = result.trace
    t = np.array([rec.t for rec in trace], dtype=np.float64)
    r2 = constants.r2_origin if which == COMPACT_BOUND else constants.r2_primal
    if r2 is None:
        raise ConfigurationError(f"{which} requires the R^2 it reads in the constants")
    if which == COMPACT_BOUND:
        if constants.delta2 is None:
            raise ConfigurationError("compact-averaged-gap requires delta^2 in the constants")
        sched = result.schedule
        radius = float(np.sqrt(r2))
        delta = float(np.sqrt(constants.delta2))
        if sched.radius > radius * (1.0 + 1e-12) + 1e-12:
            raise ConfigurationError(
                "schedule radius exceeds the certified R; the bound does not apply"
            )
        if abs(sched.delta - delta) > 1e-9 * (1.0 + delta):
            raise ConfigurationError("schedule delta disagrees with the certified delta^2")
        bounds = row.coef * radius * delta / np.sqrt(t)
    else:
        bounds = row.coef * r2 / (mu * (t + row.shift)) + tol
    column = [getattr(rec, row.column) for rec in trace]
    if any(v is None for v in column):
        raise ConfigurationError(f"trace lacks the {row.column} column; rerun with a reference")
    observed = np.array(column, dtype=np.float64)
    if row.column.endswith("primal_value"):  # suboptimality against the optimum
        observed = observed - reference.dual_value
    if row.running_min:
        observed = np.minimum.accumulate(observed)
    return _finish_report(which, bounds, observed)
