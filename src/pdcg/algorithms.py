"""The primal-dual recursions, step-size schedules, and the run loop.

Three recursions are provided, each one step of ``step``:

* ``md`` - mirror descent on the primal: the loss oracle produces
  ybar_{t-1} at A x_{t-1}, the carried regularizer subgradient is mixed
  as g = (1-rho) g_prev - rho A^T ybar_{t-1}, and x_t = (h*)'(g).  The
  carried vector is never recomputed from x; this is the subgradient
  selection under which the method coincides with the dual recursion
  even for non-smooth h.  y takes the same convex combination of the
  oracle outputs, so line searches see a feasible dual point.
* ``gcg`` - generalized conditional gradient on the dual: linearize
  the smooth part of the dual at y_{t-1}, keep f* exact in the
  subproblem, and take the convex-combination step
  y_t = (1-rho) y_{t-1} + rho ybar_{t-1}.
* ``ns-md`` - mirror descent over a compact domain without strong
  convexity in the objective: x_t solves the Bregman-proximal
  subproblem in closed form (multiplicative update on the simplex,
  clamped gradient step on a box).

Steppers are pure state transitions that carry the recursion only;
``run`` drives them, keeps the running sums the schedule's averages
need, and appends one certificate row per iteration.  ``step`` checks
the state vectors a kernel reads (``STEPPERS``) and calls it; the loops
call the kernels and check their schedule once, on entry.
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
    check_gap_floors,
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

    Each schedule declares its ``name``, which recursions it pairs with
    (``run`` raises ``pairing_error`` for the others), whether ``rho``
    reads the current duality gap, and ``avg_dual``, the dual point of
    the averaged-pair gap, which also fixes how md/gcg iterates are
    averaged for the ``avg_primal``/``avg_gap`` columns: under ``"y"``
    (y_t, the 2/(t+1) average of the oracle outputs) x_{u-1} takes
    weight u and the normalizer is 2/(t(t+1)); under ``"oracle"`` (the
    uniform average of the oracle outputs) and None (no such gap) every
    iterate has weight 1 and the sum is divided by t.  The
    compact-domain recursion averages uniformly under every schedule.
    """

    name: ClassVar[str]
    recursions: ClassVar[tuple] = ALGORITHMS
    pairing_error: ClassVar[str] = ""
    needs_gap: ClassVar[bool] = False
    avg_dual: ClassVar[Optional[str]] = None


@dataclass(frozen=True)
class FixedTwoOverTPlusOne(StepSchedule):
    """rho_t = 2/(t+1); rho_1 = 1, so the first step forgets the start."""

    name: ClassVar[str] = "two-over-t-plus-one"
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
        if gap > 0.0:
            return min(self.mu / self.r2 * gap, 1.0)
        # zero, its sign kept, or NaN: mu/R^2 is inf on a subnormal R^2, and inf * 0 would be NaN
        return max(gap, 0.0)


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


def _check_schedule(schedule: StepSchedule, *algorithms: str) -> None:
    """Raise ConfigurationError unless ``schedule`` is a ``StepSchedule`` paired with every one of ``algorithms``."""
    if not isinstance(schedule, StepSchedule):
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    if any(algorithm not in schedule.recursions for algorithm in algorithms):
        raise ConfigurationError(schedule.pairing_error)


# ---------------------------------------------------------------------------
# Solver state


@dataclass
class SolverState:
    """State of one recursion after ``t`` iterations: the recursion only.

    ``carried_h_sub`` is the dual image -A^T y_t for gcg and the
    compact-domain recursion, and md's own mixed subgradient of h, which
    equals it along the matched path.  ``y`` is the dual iterate (a
    convex combination of loss-oracle outputs; for the compact-domain
    recursion, the latest oracle output) and ``y_bar`` the oracle output
    of the last md/gcg step.  ``ax`` caches A x to avoid recomputing
    matvecs.  Iterate averages are certificates, not part of the
    recursion: ``run`` keeps the running sums its trace reads, as the
    schedule declares.
    """

    t: int
    x: np.ndarray
    ax: np.ndarray
    y: np.ndarray
    carried_h_sub: Optional[np.ndarray] = None
    y_bar: Optional[np.ndarray] = None


def init_state(problem: ProblemInstance, y0=None) -> SolverState:
    """Matched start for both strongly convex recursions.

    x_0 = (h*)'(-A^T y_0) and the carried subgradient is -A^T y_0, so the
    primal and dual recursions trace identical trajectories.  y_0 is
    ``y0``, else 0; either is checked to be a finite length-n point of C.
    """
    y0 = contiguous_vector(np.zeros(problem.n) if y0 is None else y0, problem.n, "y0")
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
    return SolverState(t=state.t + 1, x=x, ax=as_vector(op.apply(x), name="ax"), y=y, carried_h_sub=-aty)


# recursion -> its kernel and the state vectors it reads, which ``step`` checks
STEPPERS = {
    MD: (_md_step, ("ax", "y", "carried_h_sub")),
    GCG: (_gcg_step, ("ax", "y")),
    NS_MD: (_ns_md_step, ("ax", "x")),
}


def _check_algorithm(problem: ProblemInstance, algorithm: str) -> None:
    """Raise unless ``algorithm`` is known and, for ns-md, K is compact; the entry check of ``run`` and ``step``."""
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm == NS_MD and not problem.regularizer.domain.compact:
        raise ValidationError("algorithm requires a compact primal domain")


def step(problem: ProblemInstance, algorithm: str, state: SolverState, rho: float) -> SolverState:
    """One ``algorithm`` step of size ``rho`` from ``state``; checks ``rho`` and the vectors the recursion reads."""
    _check_algorithm(problem, algorithm)
    kernel, read = STEPPERS[algorithm]
    rho = _check_rho(rho)
    if algorithm == MD and state.carried_h_sub is None:
        raise ValueError("mirror descent state has no carried subgradient; use init_state")
    length = {"ax": problem.n, "y": problem.n, "x": problem.p, "carried_h_sub": problem.p}
    checked = {f: contiguous_vector(getattr(state, f), length[f], f) for f in read}
    return kernel(problem, dataclasses.replace(state, **checked), rho)


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
    return float(primal), float(dual)


def _stack(vectors: list) -> np.ndarray:
    """The vectors as the rows of a (k, dim) stack; a single vector is viewed, not copied."""
    return vectors[0][None] if len(vectors) == 1 else np.array(vectors)


def _partial_sums(sums: np.ndarray, rows: list, weights=None) -> np.ndarray:
    """The running sum (last row of ``sums``) after each of w_1 r_1, ..., w_k r_k in turn; one row adds in place."""
    if len(rows) == 1:
        total = sums[-1]
        total += rows[0] if weights is None else weights[0] * rows[0]
        return sums[-1:]
    out = np.array([sums[-1], *rows])
    if weights is not None:
        out[1:] *= weights[:, None]
    return np.add.accumulate(out, axis=0, out=out)[1:]


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
    reference-relative columns; an ``x_star`` of None leaves the Bregman
    column empty.  Initialization follows the matched
    rule: the dual start y_0 (``y0``, or 0 by ``init_state``'s default)
    determines x_0 = (h*)'(-A^T y_0) for both strongly convex
    recursions; the compact-domain recursion starts from the interior
    point of its domain (simplex barycenter / box center), the point at
    which the instance computes delta^2 (``ProblemInstance.geometry``).
    That recursion reads neither ``y0`` nor ``reference``, so either one
    given with it raises.  A NaN ``gap_tol`` could never be met, so it
    raises, as does a schedule that is not a ``StepSchedule`` paired
    with ``algorithm``; the schedule is checked once, here, and the loop
    calls its ``rho``.

    The recursion steps row by row; a block of rows takes one kernel call
    per column on the stacked iterates.  Records, state and the first
    exception are those of evaluating each row after its step.
    """
    _check_algorithm(problem, algorithm)
    if algorithm == NS_MD and (y0 is not None or reference is not None):
        raise ConfigurationError("ns-md starts at the interior point of K and has no y0 or reference; pass neither")
    if max_iters < 0:
        raise ConfigurationError("max_iters must be nonnegative")
    if math.isnan(gap_tol):
        raise ConfigurationError("gap_tol must not be NaN")
    reg, loss = problem.regularizer, problem.loss
    strongly_convex = algorithm in (MD, GCG)
    _check_schedule(schedule, algorithm)

    stepper = STEPPERS[algorithm][0]
    in_loop = strongly_convex and schedule.needs_gap
    x_star = None
    if strongly_convex:
        state = init_state(problem, y0)
        # the post-step pair of one iteration is the pre-step pair of the next
        pair = _values(problem, state)
        # x* enters every row's Bregman column, so it is checked once
        if reference is not None and reference.x_star is not None and max_iters:
            x_star = contiguous_vector(reference.x_star, problem.p, "x_star")
    else:
        state, pair = init_state_compact(problem), None

    # Running sums of the averaged iterates, oracle outputs and -A^T y, each the
    # last row of a stack.  Under avg_dual "y" the sum adds x_{u-1} with weight u
    # and is scaled by 2/(t(t+1)); otherwise each iterate enters once and the
    # sum is divided by t.  The compact-domain recursion averages uniformly.
    weighted = strongly_convex and schedule.avg_dual == "y"
    average = np.multiply if weighted else np.true_divide
    sums = (np.zeros((1, problem.p)), np.zeros((1, problem.n)), np.zeros((1, problem.n)), np.zeros((1, problem.p)))

    def evaluate(states: list, rhos: list, pairs, sums: tuple, pair):
        """Rows of the steps states[0] -> states[1] -> ..., the running sums after them and the last pair."""
        sum_x, sum_ax, sum_ybar, sum_z = sums
        k, pre, post = len(rhos), states[:-1], states[1:]
        ts = np.arange(pre[0].t + 1, pre[0].t + k + 1, dtype=np.float64)[:, None]
        dual_subopt = bregman_ref = avg_gap = [None] * k
        if strongly_convex:
            x = _stack([s.x for s in post])
            if pairs is None:
                primal = np.concatenate(([pair[0]], reg._value(x) + loss._value(_stack([s.ax for s in post]))))
                dual = np.concatenate(([pair[1]], -reg._conj_value(_stack([s.carried_h_sub for s in post]))
                                       - loss._conj_value(_stack([s.y for s in post]))))
            else:
                primal, dual = np.array(pairs).T
            gap = check_gap_floors(primal[:-1] - dual[:-1], primal[:-1], dual[:-1])
            weights = ts[:, 0] if weighted else None
            norm = 2.0 / (ts * (ts + 1.0)) if weighted else ts
            sum_x = _partial_sums(sum_x, [s.x for s in pre], weights)
            sum_ax = _partial_sums(sum_ax, [s.ax for s in pre], weights)
            avg_x, avg_ax = average(sum_x, norm), average(sum_ax, norm)
            as_vector(avg_x.ravel(), name="avg_x")  # one scan of each averaged stack
            as_vector(avg_ax.ravel(), name="avg_ax")
            avg_primal = reg._value(avg_x) + loss._value(avg_ax)
            if schedule.avg_dual == "y":
                avg_gap = check_gap_floors(avg_primal - dual[1:], avg_primal, dual[1:])
            elif schedule.avg_dual == "oracle":
                sum_ybar = _partial_sums(sum_ybar, [s.y_bar for s in post], weights)
                ybar_avg = average(sum_ybar, norm)
                aty_avg = _stack([problem.operator.adjoint_apply(v) for v in ybar_avg])
                as_vector(aty_avg.ravel(), name="aty")
                avg_dual = -reg._conj_value(-aty_avg) - loss._conj_value(ybar_avg)
                avg_gap = check_gap_floors(avg_primal - avg_dual, avg_primal, avg_dual)
            if reference is not None:
                dual_subopt = (reference.primal_value - dual[1:]).tolist()
            if x_star is not None:
                bregman_ref = reg._bregman(x_star, x).tolist()
            pair, primal, dual = (float(primal[-1]), float(dual[-1])), primal[:-1], dual[:-1]
        else:
            ax, y, z = [s.ax for s in pre], [s.y for s in post], [s.carried_h_sub for s in post]
            # objective of min_{x in K} f(A x); the dual uses the support
            # function of K at z = -A^T y in place of the conjugate of h
            primal = loss._value(_stack(ax))
            dual = -reg.domain.support(_stack(z)) - loss._conj_value(_stack(y))
            gap = check_gap_floors(primal - dual, primal, dual)
            sum_ax, sum_ybar, sum_z = (_partial_sums(t, r) for t, r in ((sum_ax, ax), (sum_ybar, y), (sum_z, z)))
            avg_ax, avg_y = sum_ax / ts, sum_ybar / ts
            as_vector(avg_ax.ravel(), name="avg_ax")
            as_vector(avg_y.ravel(), name="avg_y")
            avg_primal = loss._value(avg_ax)
            support, conj = reg.domain.support(sum_z / ts), loss._conj_value(avg_y)
            avg_gap = check_gap_floors(avg_primal + support + conj, avg_primal, -support - conj)
        # positional: a NamedTuple builds from keywords about three times slower
        rows = list(map(TraceRecord, range(pre[0].t + 1, pre[0].t + k + 1), rhos, primal.tolist(), dual.tolist(), gap,
                        avg_primal.tolist(), dual_subopt, bregman_ref, avg_gap))
        return rows, (sum_x, sum_ax, sum_ybar, sum_z), pair

    # rows per block: as many as fit 2^14 floats of n + p (under 128 KiB a stack), from 1 to 64
    block = max(1, min(64, 2**14 // (problem.n + problem.p)))
    records = []
    termination = "budget"
    while termination == "budget" and len(records) < max_iters:
        # step a block; an exception waits until the rows before it are evaluated
        states, rhos, pairs, failure = [state], [], [pair] if in_loop else None, None
        try:
            while len(rhos) < min(block, max_iters - len(records)):
                gap = check_gap_floor(*pairs[-1]) if in_loop else None
                rho = schedule.rho(states[-1].t + 1, gap)
                new = stepper(problem, states[-1], _check_rho(rho))
                if in_loop:
                    pairs.append(_values(problem, new))
                states.append(new)
                rhos.append(rho)
                if in_loop and gap <= gap_tol:
                    break
        except Exception as exc:
            failure = exc
        rows = []
        if rhos:
            try:
                rows, sums, pair = evaluate(states, rhos, pairs, sums, pair)
            except Exception:
                if len(rhos) == 1:
                    raise
                # row by row: the first row that fails raises, as it would right after its step
                for i in range(len(rhos)):
                    one = None if pairs is None else pairs[i : i + 2]
                    more, sums, pair = evaluate(states[i : i + 2], rhos[i : i + 1], one, sums, pair)
                    rows += more
                    if more[0].gap <= gap_tol:
                        break
        for record, state in zip(rows, states[1:]):
            records.append(record)
            if record.gap <= gap_tol:
                termination = "gap_tolerance"
                break
        if failure is not None and termination == "budget":
            if strongly_convex:  # the failing row checks its pre-step gap before it steps
                check_gap_floor(*pair)
            raise failure
    return RunResult(
        trace=records,
        state=state,
        algorithm=algorithm,
        schedule=schedule,
        termination=termination,
    )
