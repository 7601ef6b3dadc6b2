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
  clamped gradient step on a box) and plain iterate/dual averages are
  maintained for the averaged-pair gap certificate.

Steppers are pure state transitions; ``run`` drives them and appends
one certificate row per iteration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .core import (
    ConfigurationError,
    FeasibilityError,
    ProblemInstance,
    TraceRecord,
    as_vector,
    check_gap_floor,
    validate_instance,
)

MD = "md"
GCG = "gcg"
NS_MD = "ns-md"

ALGORITHMS = (MD, GCG, NS_MD)


# ---------------------------------------------------------------------------
# Step-size schedules


@dataclass(frozen=True)
class FixedTwoOverTPlusOne:
    """rho_t = 2/(t+1); rho_1 = 1, so the first step forgets the start."""

    name: ClassVar[str] = "two-over-t-plus-one"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        return 2.0 / (t + 1.0)


@dataclass(frozen=True)
class FixedOneOverT:
    """rho_t = 1/t; pairs with plain (uniform) iterate averaging."""

    name: ClassVar[str] = "one-over-t"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        return 1.0 / t


@dataclass(frozen=True)
class LineSearch:
    """rho_t = min{(mu/R^2) gap(x_{t-1}, y_{t-1}), 1}.

    R^2 is the squared diameter of A^T C; the rule maximizes the
    guaranteed per-step dual progress.
    """

    mu: float
    r2: float
    name: ClassVar[str] = "line-search"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        if gap is None:
            raise ValueError("line-search schedule requires the current duality gap")
        if self.r2 <= 0.0:
            return 1.0
        return min(self.mu / self.r2 * max(gap, 0.0), 1.0)


@dataclass(frozen=True)
class SqrtDecay:
    """rho_t = min{delta/(R sqrt(t)), 1} for the compact-domain recursion."""

    delta: float
    radius: float
    name: ClassVar[str] = "sqrt-decay"

    def rho(self, t: int, gap: Optional[float] = None) -> float:
        if self.radius <= 0.0:
            return 1.0
        return min(self.delta / (self.radius * np.sqrt(t)), 1.0)


StepSchedule = Union[FixedTwoOverTPlusOne, FixedOneOverT, LineSearch, SqrtDecay]


def step_size(schedule: StepSchedule, t: int, current_gap: Optional[float] = None) -> float:
    """Step size rho_t in [0, 1] for iteration t >= 1."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if not hasattr(schedule, "rho"):
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    return schedule.rho(t, current_gap)


# ---------------------------------------------------------------------------
# Solver state


@dataclass
class SolverState:
    """State of one recursion after ``t`` iterations.

    ``carried_h_sub`` is the subgradient of h maintained by the
    recursion itself; along the dual recursion it equals -A^T y_t.
    ``y`` is the dual iterate (a convex combination of loss-oracle
    outputs; for the compact-domain recursion, the latest oracle
    output).  Weighted sums use weight u on iterate x_{u-1}; plain sums
    are unweighted.  ``ax`` caches A x to avoid recomputing matvecs.
    """

    t: int
    x: np.ndarray
    ax: np.ndarray
    y: np.ndarray
    carried_h_sub: Optional[np.ndarray] = None
    y_bar: Optional[np.ndarray] = None
    last_aty: Optional[np.ndarray] = None
    # weighted running sums: sum_u u * (.)_{u-1}
    wsum_x: Optional[np.ndarray] = None
    wsum_ax: Optional[np.ndarray] = None
    wsum_ybar: Optional[np.ndarray] = None
    # plain running sums: sum_u (.)_{u-1}
    psum_x: Optional[np.ndarray] = None
    psum_ax: Optional[np.ndarray] = None
    psum_ybar: Optional[np.ndarray] = None
    psum_aty: Optional[np.ndarray] = None

    @property
    def weighted_y_avg(self) -> np.ndarray:
        if self.t == 0:
            raise ValueError("averages undefined before the first iteration")
        return 2.0 / (self.t * (self.t + 1.0)) * self.wsum_ybar

    @property
    def plain_x_avg(self) -> np.ndarray:
        if self.t == 0:
            raise ValueError("averages undefined before the first iteration")
        return self.psum_x / self.t

    @property
    def plain_y_avg(self) -> np.ndarray:
        if self.t == 0:
            raise ValueError("averages undefined before the first iteration")
        return self.psum_ybar / self.t


def resolve_initial_dual(problem: ProblemInstance, y0=None, x_init=None) -> np.ndarray:
    """Default dual start: given y0, else the loss oracle at A x_init, else 0."""
    loss = problem.loss
    if y0 is not None:
        y0 = as_vector(y0, problem.n, "y0")
        if not loss.dual_domain.contains(y0, 1e-10):
            raise FeasibilityError("y0 lies outside the dual domain C")
        return y0
    if x_init is not None:
        x_init = as_vector(x_init, problem.p, "x_init")
        return loss.subgradient(problem.operator.apply(x_init))
    zero = np.zeros(problem.n)
    if loss.dual_domain.contains(zero, 0.0):
        return zero
    return loss.subgradient(problem.operator.apply(problem.regularizer.conj_grad(np.zeros(problem.p))))


def init_state(problem: ProblemInstance, y0) -> SolverState:
    """Matched start for both strongly convex recursions.

    x_0 = (h*)'(-A^T y_0) and the carried subgradient is -A^T y_0, so the
    primal and dual recursions trace identical trajectories.
    """
    y0 = as_vector(y0, problem.n, "y0")
    if not problem.loss.dual_domain.contains(y0, 1e-10):
        raise FeasibilityError("y0 lies outside the dual domain C")
    aty0 = problem.operator.adjoint_apply(y0)
    carried = -aty0
    x0 = problem.regularizer.conj_grad(carried)
    ax0 = problem.operator.apply(x0)
    n, p = problem.n, problem.p
    return SolverState(
        t=0,
        x=x0,
        ax=ax0,
        y=y0.copy(),
        carried_h_sub=carried,
        wsum_x=np.zeros(p),
        wsum_ax=np.zeros(n),
        wsum_ybar=np.zeros(n),
        psum_x=np.zeros(p),
        psum_ax=np.zeros(n),
        psum_ybar=np.zeros(n),
    )


def init_state_compact(problem: ProblemInstance, x0=None) -> SolverState:
    """Start for the compact-domain recursion from an interior point."""
    reg = problem.regularizer
    if x0 is None:
        x0 = reg.interior_point()
    x0 = as_vector(x0, problem.p, "x0")
    reg.check_start(x0)
    ax0 = problem.operator.apply(x0)
    n, p = problem.n, problem.p
    return SolverState(
        t=0,
        x=x0,
        ax=ax0,
        y=np.zeros(n),
        psum_x=np.zeros(p),
        psum_ax=np.zeros(n),
        psum_ybar=np.zeros(n),
        psum_aty=np.zeros(p),
    )


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"step size must lie in [0, 1], got {rho}")
    return rho


def _accumulate(state: SolverState, t: int, ybar: np.ndarray) -> dict:
    """Running-sum updates with the pre-step iterate x_{t-1} at weight t."""
    return dict(
        wsum_x=state.wsum_x + t * state.x,
        wsum_ax=state.wsum_ax + t * state.ax,
        wsum_ybar=state.wsum_ybar + t * ybar,
        psum_x=state.psum_x + state.x,
        psum_ax=state.psum_ax + state.ax,
        psum_ybar=state.psum_ybar + ybar,
    )


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
    op, reg, loss = problem.operator, problem.regularizer, problem.loss
    t = state.t + 1
    ybar = loss.subgradient(state.ax)
    aty_bar = op.adjoint_apply(ybar)
    g = (1.0 - rho) * state.carried_h_sub - rho * aty_bar
    x = reg.conj_grad(g)
    ax = op.apply(x)
    y = (1.0 - rho) * state.y + rho * ybar
    return dataclasses.replace(
        state,
        t=t,
        x=x,
        ax=ax,
        y=y,
        carried_h_sub=g,
        y_bar=ybar,
        **_accumulate(state, t, ybar),
    )


def gcg_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    """One generalized conditional gradient step.

    Performs the three lines: x_{t-1} = (h*)'(-A^T y_{t-1}) (cached in
    the state), ybar_{t-1} = argmax_{y in C} <y, A x_{t-1}> - f*(y),
    y_t = (1-rho) y_{t-1} + rho ybar_{t-1}.  The primal iterate and the
    carried subgradient -A^T y_t are refreshed from the new dual point.
    """
    rho = _check_rho(rho)
    op, reg, loss = problem.operator, problem.regularizer, problem.loss
    t = state.t + 1
    ybar = loss.subgradient(state.ax)
    y = (1.0 - rho) * state.y + rho * ybar
    aty = op.adjoint_apply(y)
    carried = -aty
    x = reg.conj_grad(carried)
    ax = op.apply(x)
    return dataclasses.replace(
        state,
        t=t,
        x=x,
        ax=ax,
        y=y,
        carried_h_sub=carried,
        y_bar=ybar,
        **_accumulate(state, t, ybar),
    )


def ns_md_step(problem: ProblemInstance, state: SolverState, rho: float) -> SolverState:
    """One compact-domain mirror descent step.

    y_{t-1} is the loss oracle at A x_{t-1}; x_t solves
    argmin_{x in K} (1/rho) D(x, x_{t-1}) + <x - x_{t-1}, A^T y_{t-1}>
    in closed form: a renormalized multiplicative update on the simplex,
    a clamped gradient step on a box.  Plain averages of iterates and
    oracle outputs are maintained for the averaged-pair certificate.
    """
    rho = _check_rho(rho)
    op = problem.operator
    t = state.t + 1
    y = problem.loss.subgradient(state.ax)
    aty = op.adjoint_apply(y)
    x = problem.regularizer.prox_step(state.x, aty, rho)
    ax = op.apply(x)
    return dataclasses.replace(
        state,
        t=t,
        x=x,
        ax=ax,
        y=y,
        last_aty=aty,
        psum_x=state.psum_x + state.x,
        psum_ax=state.psum_ax + state.ax,
        psum_ybar=state.psum_ybar + y,
        psum_aty=state.psum_aty + aty,
    )


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
    init_dual_derived: bool = True


def primal_dual_values(problem: ProblemInstance, state: SolverState) -> tuple[float, float]:
    """Primal/dual objective at the state's (x, y); -A^T y is the carried vector."""
    reg, loss = problem.regularizer, problem.loss
    primal = reg.value(state.x) + loss.value(state.ax)
    dual = -reg.conj_value(state.carried_h_sub) - loss.conj_value(state.y)
    return primal, dual


def run(
    problem: ProblemInstance,
    algorithm: str,
    schedule: StepSchedule,
    max_iters: int,
    gap_tol: float = 0.0,
    y0=None,
    x0=None,
    x_init=None,
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
    point ``x0`` (default: simplex barycenter / box center).
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if max_iters < 0:
        raise ConfigurationError("max_iters must be nonnegative")
    reg, loss = problem.regularizer, problem.loss

    if algorithm in (MD, GCG):
        validate_instance(problem, require_strong_convexity=True)
        if isinstance(schedule, SqrtDecay):
            raise ConfigurationError("sqrt-decay pairs with the compact-domain recursion only")
        state = init_state(problem, resolve_initial_dual(problem, y0=y0, x_init=x_init))
        stepper = md_step if algorithm == MD else gcg_step
        # the post-step pair of one iteration is the pre-step pair of the next
        values = primal_dual_values(problem, state)
    else:
        validate_instance(problem, require_compact_domain=True)
        if isinstance(schedule, LineSearch):
            raise ConfigurationError("line search is not defined for the compact-domain recursion")
        state = init_state_compact(problem, x0=x0)
        stepper = ns_md_step

    records = []
    termination = "budget"
    weighted = isinstance(schedule, FixedTwoOverTPlusOne)
    for _ in range(max_iters):
        t = state.t + 1
        dual_subopt = None
        bregman_ref = None
        if algorithm in (MD, GCG):
            primal, dual = values
            gap = check_gap_floor(primal - dual)
            rho = step_size(schedule, t, current_gap=gap)
            state = stepper(problem, state, rho)
            values = primal_dual_values(problem, state)
            post_dual = values[1]
            if weighted:
                w = 2.0 / (t * (t + 1.0))
                avg_primal = reg.value(w * state.wsum_x) + loss.value(w * state.wsum_ax)
                avg_gap = check_gap_floor(avg_primal - post_dual)
            else:
                avg_primal = reg.value(state.psum_x / t) + loss.value(state.psum_ax / t)
                if isinstance(schedule, FixedOneOverT):
                    ybar_avg = state.psum_ybar / t
                    aty_avg = problem.operator.adjoint_apply(ybar_avg)
                    dual_avg = -reg.conj_value(-aty_avg) - loss.conj_value(ybar_avg)
                    avg_gap = check_gap_floor(avg_primal - dual_avg)
                else:
                    avg_gap = None
            if reference is not None:
                dual_subopt = reference.primal_value - post_dual
                bregman_ref = reg.bregman(reference.x_star, state.x)
        else:
            rho = step_size(schedule, t)
            # objective of min_{x in K} f(A x); the dual uses the support
            # function of K in place of the conjugate of h
            primal = loss.value(state.ax)
            state = stepper(problem, state, rho)
            dual = -reg.domain.support(-state.last_aty) - loss.conj_value(state.y)
            gap = check_gap_floor(primal - dual)
            avg_primal = loss.value(state.psum_ax / t)
            avg_gap = check_gap_floor(
                avg_primal
                + reg.domain.support(-state.psum_aty / t)
                + loss.conj_value(state.psum_ybar / t)
            )
        records.append(
            TraceRecord(
                t=t,
                rho=rho,
                primal_value=primal,
                dual_value=dual,
                gap=gap,
                avg_primal_value=avg_primal,
                dual_suboptimality=dual_subopt,
                bregman_to_ref=bregman_ref,
                avg_gap=avg_gap,
            )
        )
        if gap <= gap_tol:
            termination = "gap_tolerance"
            break
    return RunResult(
        trace=records,
        state=state,
        algorithm=algorithm,
        schedule=schedule,
        termination=termination,
        init_dual_derived=(algorithm in (MD, GCG)),
    )
