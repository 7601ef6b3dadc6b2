"""The primal-dual recursions, step-size schedules, and the run loop.

Three recursions are provided:

* ``md_step`` - mirror descent on the primal: the loss oracle produces
  ybar_{t-1} at A x_{t-1}, the carried regularizer subgradient is mixed
  as g = (1-rho) g_prev - rho A^T ybar_{t-1}, and x_t = (h*)'(g).  The
  carried vector is never recomputed from x; this is the subgradient
  selection under which the method coincides with the dual recursion
  even for non-smooth h.
* ``gcg_step`` - generalized conditional gradient on the dual: linearize
  the smooth part of the dual at y_{t-1}, keep f* exact in the
  subproblem, and take the convex-combination step
  y_t = (1-rho) y_{t-1} + rho ybar_{t-1}.
* ``ns_md_step`` - mirror descent over a compact domain without strong
  convexity in the objective: x_t solves the Bregman-proximal
  subproblem in closed form (multiplicative update on the simplex,
  clamped gradient step on a box).

Steppers are pure state transitions that carry the recursion only;
``run`` drives them, keeps the running sums the schedule's averages
need, and appends one certificate row per iteration.  Each public
stepper checks the state vectors it reads and calls its kernel (same
name, leading underscore), which ``run`` and the other loops call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .core import (
    ConfigurationError,
    FeasibilityError,
    ProblemInstance,
    TraceRecord,
    ValidationError,
    as_vector,
    check_gap_floor,
    contiguous_vector,
)

MD = "md"
GCG = "gcg"
NS_MD = "ns-md"

ALGORITHMS = (MD, GCG, NS_MD)


# ---------------------------------------------------------------------------
# Step-size schedules


class StepSchedule:
    """A step rule ``rho(t, gap)`` together with what it certifies.

    Each schedule declares which recursions it pairs with (``run``
    raises ``pairing_error`` for the others), whether ``rho`` reads the
    current duality gap, and how md/gcg iterates are averaged for the
    ``avg_primal``/``avg_gap`` columns: ``weighted`` puts weight u on
    x_{u-1} with normalizer 2/(t(t+1)), otherwise every iterate has
    weight 1 and the sum is divided by t.  ``avg_dual`` names the dual
    point of the averaged-pair gap: ``"y"`` for y_t (the weighted
    average of the oracle outputs under 2/(t+1)), ``"oracle"`` for the
    uniform average of the oracle outputs, None for no such gap.  The
    compact-domain recursion averages uniformly under every schedule.
    """

    name: ClassVar[str]
    recursions: ClassVar[tuple] = ALGORITHMS
    pairing_error: ClassVar[str] = ""
    needs_gap: ClassVar[bool] = False
    weighted: ClassVar[bool] = False
    avg_dual: ClassVar[Optional[str]] = None


@dataclass(frozen=True)
class FixedTwoOverTPlusOne(StepSchedule):
    """rho_t = 2/(t+1); rho_1 = 1, so the first step forgets the start."""

    name: ClassVar[str] = "two-over-t-plus-one"
    weighted: ClassVar[bool] = True
    avg_dual: ClassVar[Optional[str]] = "y"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        return 2.0 / (t + 1.0)


@dataclass(frozen=True)
class FixedOneOverT(StepSchedule):
    """rho_t = 1/t; pairs with plain (uniform) iterate averaging."""

    name: ClassVar[str] = "one-over-t"
    avg_dual: ClassVar[Optional[str]] = "oracle"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        return 1.0 / t


@dataclass(frozen=True)
class LineSearch(StepSchedule):
    """rho_t = min{(mu/R^2) gap(x_{t-1}, y_{t-1}), 1}.

    R^2 is the squared diameter of A^T C; the rule maximizes the
    guaranteed per-step dual progress.
    """

    mu: float
    r2: float
    name: ClassVar[str] = "line-search"
    recursions: ClassVar[tuple] = (MD, GCG)
    pairing_error: ClassVar[str] = "line search is not defined for the compact-domain recursion"
    needs_gap: ClassVar[bool] = True

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        if gap is None:
            raise ValueError("line-search schedule requires the current duality gap")
        if self.r2 <= 0.0:
            return 1.0
        return min(self.mu / self.r2 * max(gap, 0.0), 1.0)


@dataclass(frozen=True)
class SqrtDecay(StepSchedule):
    """rho_t = min{delta/(R sqrt(t)), 1} for the compact-domain recursion."""

    delta: float
    radius: float
    name: ClassVar[str] = "sqrt-decay"
    recursions: ClassVar[tuple] = (NS_MD,)
    pairing_error: ClassVar[str] = "sqrt-decay pairs with the compact-domain recursion only"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        if self.radius <= 0.0:
            return 1.0
        return min(self.delta / (self.radius * np.sqrt(t)), 1.0)


def step_size(schedule: StepSchedule, t: int, current_gap: Optional[float] = None) -> float:
    """Step size rho_t in [0, 1] for iteration t >= 1."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if not isinstance(schedule, StepSchedule):
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    return schedule.rho(t, current_gap)


# ---------------------------------------------------------------------------
# Solver state


@dataclass
class SolverState:
    """State of one recursion after ``t`` iterations: the recursion only.

    ``carried_h_sub`` is the subgradient of h maintained by the
    recursion itself; along the dual recursion it equals -A^T y_t.
    ``y`` is the dual iterate (a convex combination of loss-oracle
    outputs; for the compact-domain recursion, the latest oracle
    output), ``y_bar`` the oracle output of the last md/gcg step and
    ``last_aty`` the A^T y of the last compact-domain step.  ``ax``
    caches A x to avoid recomputing matvecs.  Iterate averages are
    certificates, not part of the recursion: ``run`` keeps the running
    sums its trace reads, as the schedule declares.
    """

    t: int
    x: np.ndarray
    ax: np.ndarray
    y: np.ndarray
    carried_h_sub: Optional[np.ndarray] = None
    y_bar: Optional[np.ndarray] = None
    last_aty: Optional[np.ndarray] = None


def resolve_initial_dual(problem: ProblemInstance, y0=None):
    """Dual start: y0 as given (``init_state`` checks it), else 0 in C, else the oracle at A (h*)'(0)."""
    loss = problem.loss
    if y0 is not None:
        return y0
    zero = np.zeros(problem.n)
    if loss.dual_domain.contains(zero, 0.0):
        return zero
    return loss.subgradient(problem.operator.apply(problem.regularizer.conj_grad(np.zeros(problem.p))))


def init_state(problem: ProblemInstance, y0) -> SolverState:
    """Matched start for both strongly convex recursions.

    x_0 = (h*)'(-A^T y_0) and the carried subgradient is -A^T y_0, so the
    primal and dual recursions trace identical trajectories.
    """
    y0 = contiguous_vector(y0, problem.n, "y0")
    if not problem.loss.dual_domain.contains(y0, 1e-10):
        raise FeasibilityError("y0 lies outside the dual domain C")
    carried = -as_vector(problem.operator.adjoint_apply(y0), name="aty")
    x0 = problem.regularizer._conj_grad(carried)
    ax0 = as_vector(problem.operator.apply(x0), name="ax")
    return SolverState(t=0, x=x0, ax=ax0, y=y0.copy(), carried_h_sub=carried)


def init_state_compact(problem: ProblemInstance) -> SolverState:
    """Start for the compact-domain recursion at the interior point of its domain."""
    x0 = problem.regularizer.interior_point()
    return SolverState(t=0, x=x0, ax=as_vector(problem.operator.apply(x0), name="ax"), y=np.zeros(problem.n))


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"step size must lie in [0, 1], got {rho}")
    return rho


def _checked(problem: ProblemInstance, state: SolverState, *fields: str) -> SolverState:
    """``state`` with the named vectors checked, as a public stepper or evaluator reads them."""
    length = {"x": problem.p, "carried_h_sub": problem.p, "ax": problem.n, "y": problem.n}
    return dataclasses.replace(state, **{f: contiguous_vector(getattr(state, f), length[f], f) for f in fields})


# Step kernels: the state's vectors are checked, and each vector made here
# that can overflow float64 is scanned once, where it is made (the matvecs
# scan x and y as inputs).  Loss-oracle outputs lie in the compact C, and
# md/gcg's y is a convex combination of them, so they are bounded.


def _md_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    op, loss = problem.operator, problem.loss
    ybar = loss._subgradient(state.ax)
    g = as_vector((1.0 - rho) * state.carried_h_sub - rho * op.adjoint_apply(ybar), name="g")
    x = problem.regularizer._conj_grad(g)
    ax = as_vector(op.apply(x), name="ax")
    y = (1.0 - rho) * state.y + rho * ybar
    return SolverState(t=state.t + 1, x=x, ax=ax, y=y, carried_h_sub=g, y_bar=ybar)


def _gcg_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    op = problem.operator
    ybar = problem.loss._subgradient(state.ax)
    y = (1.0 - rho) * state.y + rho * ybar
    carried = -as_vector(op.adjoint_apply(y), name="aty")
    x = problem.regularizer._conj_grad(carried)
    ax = as_vector(op.apply(x), name="ax")
    return SolverState(t=state.t + 1, x=x, ax=ax, y=y, carried_h_sub=carried, y_bar=ybar)


def _ns_md_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    # A^T y is not scanned: the prox step keeps x finite on a box or
    # makes it NaN on the simplex, and the matvec then rejects x
    op = problem.operator
    y = problem.loss._subgradient(state.ax)
    aty = op.adjoint_apply(y)
    x = problem.regularizer._prox_step(state.x, aty, rho)
    return SolverState(t=state.t + 1, x=x, ax=as_vector(op.apply(x), name="ax"), y=y, last_aty=aty)


def md_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    """One mirror descent step.

    ybar_{t-1} maximizes <y, A x_{t-1}> - f*(y) over C; the new carried
    subgradient is g = (1-rho) g_prev - rho A^T ybar_{t-1} and
    x_t = (h*)'(g).  The dual iterate is advanced by the same convex
    combination so traces and line searches see a feasible dual point.
    """
    rho = _check_rho(rho)
    if state.carried_h_sub is None:
        raise ValueError("mirror descent state has no carried subgradient; use init_state")
    return _md_step(problem, _checked(problem, state, "ax"), rho)


def gcg_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    """One generalized conditional gradient step.

    Performs the three lines: x_{t-1} = (h*)'(-A^T y_{t-1}) (cached in
    the state), ybar_{t-1} = argmax_{y in C} <y, A x_{t-1}> - f*(y),
    y_t = (1-rho) y_{t-1} + rho ybar_{t-1}.  The primal iterate and the
    carried subgradient -A^T y_t are refreshed from the new dual point.
    """
    rho = _check_rho(rho)
    return _gcg_step(problem, _checked(problem, state, "ax"), rho)


def ns_md_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    """One compact-domain mirror descent step.

    y_{t-1} is the loss oracle at A x_{t-1}; x_t solves
    argmin_{x in K} (1/rho) D(x, x_{t-1}) + <x - x_{t-1}, A^T y_{t-1}>
    in closed form: a renormalized multiplicative update on the simplex,
    a clamped gradient step on a box.
    """
    rho = _check_rho(rho)
    # only a compact domain's prox step reads x; the others raise there
    read = ("ax", "x") if problem.regularizer.domain.compact else ("ax",)
    return _ns_md_step(problem, _checked(problem, state, *read), rho)


# ---------------------------------------------------------------------------
# Run loop


@dataclass
class RunResult:
    """A finished run: certificate trace, final state, and provenance."""

    trace: list
    state: SolverState
    algorithm: str
    schedule: StepSchedule
    termination: str  # "budget" | "gap_tolerance"


def _values(problem: ProblemInstance, state: SolverState) -> tuple[float, float]:
    reg, loss = problem.regularizer, problem.loss
    primal = reg._value(state.x) + loss._value(state.ax)
    dual = -reg._conj_value(state.carried_h_sub) - loss._conj_value(state.y)
    return primal, dual


def primal_dual_values(problem: ProblemInstance, state: SolverState) -> tuple[float, float]:
    """Primal/dual objective at the state's (x, y); -A^T y is the carried vector."""
    return _values(problem, _checked(problem, state, "x", "ax", "carried_h_sub", "y"))


def run(
    problem: ProblemInstance,
    algorithm: str,
    schedule: StepSchedule,
    max_iters: int,
    gap_tol: float = 0.0,
    y0=None,
    reference=None,
) -> RunResult:
    """Iterate until the budget is exhausted or the gap reaches ``gap_tol``.

    Each iteration appends a ``TraceRecord``; see its docstring for the
    exact semantics of every column.  ``reference`` (an object with
    ``x_star`` and ``primal_value`` attributes) enables the
    reference-relative columns.  Initialization follows the matched
    rule: the dual start y_0 (default per ``resolve_initial_dual``)
    determines x_0 = (h*)'(-A^T y_0) for both strongly convex
    recursions; the compact-domain recursion starts from the interior
    point of its domain (simplex barycenter / box center), the point at
    which the instance computes delta^2 (``ProblemInstance.delta2``).
    A NaN ``gap_tol`` could never be met, so it raises.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if max_iters < 0:
        raise ConfigurationError("max_iters must be nonnegative")
    if math.isnan(gap_tol):
        raise ConfigurationError("gap_tol must not be NaN")
    reg, loss = problem.regularizer, problem.loss
    strongly_convex = algorithm in (MD, GCG)
    if not strongly_convex and not reg.domain.compact:
        raise ValidationError("algorithm requires a compact primal domain")
    if algorithm not in schedule.recursions:
        raise ConfigurationError(schedule.pairing_error)

    if strongly_convex:
        state = init_state(problem, resolve_initial_dual(problem, y0=y0))
        stepper = _md_step if algorithm == MD else _gcg_step
        # the post-step pair of one iteration is the pre-step pair of the next
        values = _values(problem, state)
        # x* enters every row's Bregman column, so it is checked once
        if reference is not None and max_iters:
            x_star = contiguous_vector(reference.x_star, problem.p, "x_star")
    else:
        state = init_state_compact(problem)
        stepper = _ns_md_step

    # running sums of the averaged iterates, oracle outputs and A^T y.  A
    # weighted schedule adds x_{u-1} with weight u and scales the sum by
    # 2/(t(t+1)); otherwise each iterate enters once and the sum is divided
    # by t.  The compact-domain recursion averages uniformly under every
    # schedule.
    weighted = strongly_convex and schedule.weighted
    average = np.multiply if weighted else np.true_divide
    sum_x, sum_aty = np.zeros(problem.p), np.zeros(problem.p)
    sum_ax, sum_ybar = np.zeros(problem.n), np.zeros(problem.n)

    records = []
    termination = "budget"
    for _ in range(max_iters):
        t = state.t + 1
        dual_subopt = None
        bregman_ref = None
        if strongly_convex:
            primal, dual = values
            gap = check_gap_floor(primal - dual)
            rho = step_size(schedule, t, current_gap=gap)
            norm = 2.0 / (t * (t + 1.0)) if weighted else t
            sum_x += t * state.x if weighted else state.x
            sum_ax += t * state.ax if weighted else state.ax
            state = stepper(problem, state, _check_rho(rho))
            values = _values(problem, state)
            post_dual = values[1]
            avg_x = as_vector(average(sum_x, norm), name="avg_x")
            avg_primal = reg._value(avg_x) + loss._value(as_vector(average(sum_ax, norm), name="avg_ax"))
            avg_gap = None
            if schedule.avg_dual == "y":
                avg_gap = check_gap_floor(avg_primal - post_dual)
            elif schedule.avg_dual == "oracle":
                sum_ybar += t * state.y_bar if weighted else state.y_bar
                ybar_avg = average(sum_ybar, norm)
                aty_avg = as_vector(problem.operator.adjoint_apply(ybar_avg), name="aty")
                dual_avg = -reg._conj_value(-aty_avg) - loss._conj_value(ybar_avg)
                avg_gap = check_gap_floor(avg_primal - dual_avg)
            if reference is not None:
                dual_subopt = reference.primal_value - post_dual
                bregman_ref = reg._bregman(x_star, state.x)
        else:
            rho = step_size(schedule, t)
            # objective of min_{x in K} f(A x); the dual uses the support
            # function of K in place of the conjugate of h
            primal = loss._value(state.ax)
            sum_ax += state.ax
            state = stepper(problem, state, _check_rho(rho))
            sum_ybar += state.y
            sum_aty += state.last_aty
            dual = -reg.domain.support(-state.last_aty) - loss._conj_value(state.y)
            gap = check_gap_floor(primal - dual)
            avg_primal = loss._value(as_vector(sum_ax / t, name="avg_ax"))
            avg_y = as_vector(sum_ybar / t, name="avg_y")
            avg_gap = check_gap_floor(avg_primal + reg.domain.support(-(sum_aty / t)) + loss._conj_value(avg_y))
        # positional: a NamedTuple builds from keywords about three times slower
        records.append(TraceRecord(t, rho, primal, dual, gap, avg_primal, dual_subopt, bregman_ref, avg_gap))
        if gap <= gap_tol:
            termination = "gap_tolerance"
            break
    return RunResult(
        trace=records,
        state=state,
        algorithm=algorithm,
        schedule=schedule,
        termination=termination,
    )
