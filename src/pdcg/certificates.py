"""Objective values, duality gaps, geometry constants, and bound checkers.

The duality gap

    gap(x, y) = [h(x) + h*(-A^T y) + <y, A x>] + [f(A x) + f*(y) - <y, A x>]

is nonnegative for feasible pairs and zero exactly at optima, so it is
an online certificate.  ``dual_objective`` is the one dual evaluator,
the reference polish's included.  ``check_bound`` replays a finished
trace against one of the certified convergence bounds:

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
R^2 = max_{y in C} ||A^T y||^2 for the compact-domain bound.  Each bound's
pairing, constants and trace column are one row of ``BOUND_PAIRING``, and
``check_pairing`` owns every precondition of a bound; it needs no trace,
so ``pdcg certify`` runs it before the run and ``check_bound`` again first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .core import ConfigurationError, GeometryConstants, ProblemInstance, as_vector, clamp_gap, contiguous_vector


# ---------------------------------------------------------------------------
# Objectives and gaps


def primal_objective(problem: ProblemInstance, x) -> float:
    """h(x) + f(A x); +inf outside the primal domain."""
    x = contiguous_vector(x, problem.p, "x")
    hv = problem.regularizer._value(x)
    if hv == float("inf"):
        return float("inf")
    return float(hv + problem.loss._value(as_vector(problem.operator.apply(x), name="ax")))


def dual_objective(problem: ProblemInstance, y) -> float:
    """-h*(-A^T y) - f*(y); -inf outside the closure of C.  A^T y, which can overflow, is scanned."""
    y = contiguous_vector(y, problem.n, "y")
    fc = problem.loss._conj_value(y)
    if fc == float("inf"):
        return float("-inf")
    return float(-problem.regularizer._conj_value(-as_vector(problem.operator.adjoint_apply(y), name="aty")) - fc)


def duality_gap(problem: ProblemInstance, x, y) -> float:
    """Nonnegative duality gap; tiny negative round-off is clamped to 0.

    The primal objective is never -inf and the dual never +inf, so an
    infeasible x or y gives +inf, never NaN.
    """
    return clamp_gap(primal_objective(problem, x), dual_objective(problem, y))


# ---------------------------------------------------------------------------
# Geometry constants


def geometry_constants(problem: ProblemInstance) -> GeometryConstants:
    """Both R^2 variants, and delta^2 at the interior start when compact, as the instance keeps them."""
    return problem.geometry


# ---------------------------------------------------------------------------
# Bound checking


@dataclass
class BoundReport:
    """Outcome of replaying a trace against one convergence bound.

    All else is read from ``bounds`` and ``observed``: margins are bounds
    less observed; the report passes exactly when observed <= bound on
    every row, with no tolerance; the worst row has the first smallest
    margin.  An empty trace passes, with 0 rows and a worst margin of inf.
    """

    bound_id: str
    bounds: np.ndarray
    observed: np.ndarray

    @property
    def iterations(self) -> int:
        return self.bounds.size

    @property
    def margins(self) -> np.ndarray:
        return self.bounds - self.observed

    @property
    def passed(self) -> bool:
        return bool(np.all(self.observed <= self.bounds))

    @property
    def worst_iteration(self) -> int:
        return int(np.argmin(self.margins)) + 1 if self.iterations else 0

    @property
    def worst_margin(self) -> float:
        return float(self.margins[self.worst_iteration - 1]) if self.iterations else float("inf")


@dataclass(frozen=True)
class BoundPairing:
    """A certified bound: the run it applies to and how its trace is read.

    The strongly convex bounds are exactly ``coef R^2 / (mu (t + shift))``
    and ``compact-averaged-gap`` is ``coef R delta / sqrt(t)``, with no
    slack added.  The observed value is the trace ``column`` (less the
    reference dual value for a primal objective column), or its running
    minimum with ``running_min``.
    """

    algorithm: str
    schedule: str
    coef: float
    shift: float
    column: str
    running_min: bool = False

    @property
    def needs_reference(self) -> bool:
        """A primal column, ``dual_suboptimality`` or ``bregman_to_ref`` is measured against the optimum."""
        return self.column not in ("gap", "avg_gap")


_TWO = FixedTwoOverTPlusOne.name
COMPACT_BOUND = "compact-averaged-gap"

BOUND_PAIRING = {
    "md-avg-subopt": BoundPairing(MD, _TWO, 1.0, 1.0, "avg_primal_value"),
    "md-best-subopt": BoundPairing(MD, _TWO, 1.0, 1.0, "primal_value", running_min=True),
    "md-distance": BoundPairing(MD, _TWO, 1.0, 1.0, "bregman_to_ref"),
    "gcg-fixed-dual-subopt": BoundPairing(GCG, _TWO, 2.0, 1.0, "dual_suboptimality"),
    "gcg-fixed-min-gap": BoundPairing(GCG, _TWO, 8.0, 1.0, "gap", running_min=True),
    "gcg-linesearch-dual-subopt": BoundPairing(GCG, LineSearch.name, 2.0, 3.0, "dual_suboptimality"),
    "gcg-linesearch-min-gap": BoundPairing(GCG, LineSearch.name, 2.0, 3.0, "gap", running_min=True),
    COMPACT_BOUND: BoundPairing(NS_MD, SqrtDecay.name, 2.0, 0.0, "avg_gap"),
}

BOUND_IDS = tuple(BOUND_PAIRING)


def check_pairing(which: str, algorithm: str, sched, constants: GeometryConstants, mu: float,
                  reference=None) -> BoundPairing:
    """Raise ConfigurationError unless bound ``which`` applies to a run of
    ``algorithm`` under ``sched`` with these ``constants``, ``mu`` and
    ``reference``; return its row.  A schedule takes its constants from the
    instance as ``constants`` do, so they are compared exactly: line
    search's ``r2`` and ``mu``, sqrt-decay's ``delta`` (and at most its ``R``).
    """
    if which not in BOUND_PAIRING:
        raise ConfigurationError(f"unknown bound id {which!r}; expected one of {BOUND_IDS}")
    row = BOUND_PAIRING[which]
    if algorithm != row.algorithm:
        raise ConfigurationError(f"{which} applies to algorithm {row.algorithm!r}, trace came from {algorithm!r}")
    if sched.name != row.schedule:
        raise ConfigurationError(f"{which} applies to schedule {row.schedule!r}, trace used {sched.name!r}")
    if row.needs_reference and reference is None:
        raise ConfigurationError(f"{which} requires a reference solution")
    if row.column == "bregman_to_ref" and not reference.certified:
        raise ConfigurationError(f"{which} requires a certified reference; its distance to x* is unknown")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ConfigurationError(f"mu must be positive and finite, got {mu!r}")
    r2 = constants.r2_origin if which == COMPACT_BOUND else constants.r2_primal
    if row.schedule == LineSearch.name and (sched.r2 != r2 or sched.mu != mu):
        raise ConfigurationError("line-search schedule r2 and mu disagree with the certified R^2 and mu")
    if which == COMPACT_BOUND:
        if constants.delta2 is None:
            raise ConfigurationError("compact-averaged-gap requires delta^2 in the constants")
        if sched.radius > float(np.sqrt(r2)):
            raise ConfigurationError("schedule radius exceeds the certified R; the bound does not apply")
        delta = float(np.sqrt(constants.delta2))
        if sched.delta != delta:
            raise ConfigurationError("schedule delta disagrees with the certified delta^2")
    return row


def check_bound(
    result: RunResult,
    constants: GeometryConstants,
    mu: float,
    which: str,
    reference=None,
) -> BoundReport:
    """Compare a finished trace against one certified bound, after ``check_pairing`` on its run.

    ``reference`` is an object exposing ``dual_value``, against which a
    primal objective column is measured, and ``certified``.  By weak
    duality a dual value is at most the optimum, so the measured
    suboptimality over-estimates the true one and no tolerance is added
    to the bound.
    """
    row = check_pairing(which, result.algorithm, result.schedule, constants, mu, reference)
    trace = result.trace
    t = np.array([rec.t for rec in trace], dtype=np.float64)
    if which == COMPACT_BOUND:
        bounds = row.coef * float(np.sqrt(constants.r2_origin)) * float(np.sqrt(constants.delta2)) / np.sqrt(t)
    else:
        r2 = constants.r2_primal
        bounds = row.coef * r2 / (mu * (t + row.shift))
    column = [getattr(rec, row.column) for rec in trace]
    if any(v is None for v in column):
        raise ConfigurationError(f"trace lacks the {row.column} column; rerun with a reference")
    observed = np.array(column, dtype=np.float64)
    if row.column.endswith("primal_value"):  # suboptimality against the optimum
        observed = observed - reference.dual_value
    if row.running_min:
        observed = np.minimum.accumulate(observed)
    return BoundReport(which, bounds, observed)
