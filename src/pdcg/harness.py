"""Problem generation, reference solving, and experiment orchestration.

Everything is synthetic and seeded: a config plus a seed determines the
instance from ``generate_problem``, the run, and the trace byte-for-byte.
Traces are written as CSV (fixed column set, 17 significant digits) or
JSON (same record fields plus a header with the config echo, geometry
constants and termination reason).  A JSON trace is
``json.dumps(trace_json_obj(...), indent=1)`` plus a newline, byte for
byte; ``tests/test_harness.py::test_json_trace_matches_json_dumps``
holds the writer to that.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import (
    ALGORITHMS,
    GCG,
    FixedOneOverT,
    FixedTwoOverTPlusOne,
    LineSearch,
    RunResult,
    SqrtDecay,
    StepSchedule,
    _values,
    init_state,
    run,
)
from .certificates import dual_objective
from .core import (ConfigurationError, GeometryConstants, LinearOperator, ProblemInstance, TraceRecord,
                   ValidationError, clamp_gap)
from .functions import (
    DualNormGauge,
    Hinge,
    LeastAbsoluteDeviation,
    Logistic,
    NegativeEntropySimplex,
    SquaredL2,
    SquaredL2Box,
)

LOSS_KINDS = ("hinge", "lad", "logistic", "gauge")
REGULARIZER_KINDS = ("squared_l2", "squared_l2_box", "entropy")
# each schedule class names itself; this order is the CLI's and the grid's
SCHEDULES = (FixedTwoOverTPlusOne, FixedOneOverT, LineSearch, SqrtDecay)
SCHEDULE_NAMES = tuple(schedule.name for schedule in SCHEDULES)

# trace column -> TraceRecord field, in CSV and JSON order
TRACE_COLUMNS = {
    "t": "t",
    "rho": "rho",
    "primal": "primal_value",
    "dual": "dual_value",
    "gap": "gap",
    "avg_primal": "avg_primal_value",
    "dual_subopt": "dual_suboptimality",
    "bregman_ref": "bregman_to_ref",
}
CSV_HEADER = ",".join(TRACE_COLUMNS)
# one TraceRecord -> its values in TRACE_COLUMNS order
_trace_row = operator.itemgetter(*(TraceRecord._fields.index(field) for field in TRACE_COLUMNS.values()))

# JSON values accepted for each declared config field type
_CONFIG_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real}


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment; building it (``replace`` too) runs ``validate``."""

    loss: str = "hinge"
    regularizer: str = "squared_l2"
    n: int = 100
    p: int = 20
    mu: float = 1.0
    scale: Optional[float] = None  # None -> 1/n
    gauge_omega0: float = 1.0
    gauge_lambda: float = 0.0
    box_lower: float = 0.0
    box_upper: float = 1.0
    seed: int = 0
    algorithm: str = GCG
    schedule: str = FixedTwoOverTPlusOne.name
    max_iters: int = 1000
    gap_tol: float = 0.0
    output_format: str = "csv"
    output_path: Optional[str] = None
    reference_budget: int = 100000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigurationError for an invalid field, else return the config; the constructor calls it."""
        for key, kinds in (("loss", LOSS_KINDS), ("regularizer", REGULARIZER_KINDS),
                           ("algorithm", ALGORITHMS), ("schedule", SCHEDULE_NAMES)):
            if getattr(self, key) not in kinds:
                raise ConfigurationError(f"{key} must be one of {kinds}, got {getattr(self, key)!r}")
        if self.n < 1 or self.p < 1:
            raise ConfigurationError("n and p must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if math.isnan(self.gap_tol):
            raise ConfigurationError("gap_tol must not be NaN")
        if self.reference_budget < 0:
            raise ConfigurationError("reference_budget must be nonnegative")
        if self.output_format not in ("csv", "json"):
            raise ConfigurationError("output_format must be 'csv' or 'json'")
        if self.regularizer == "entropy" and self.mu != 1.0:
            raise ConfigurationError("the entropy regularizer has modulus 1; set mu = 1")
        if self.regularizer == "squared_l2_box" and not self.box_lower < self.box_upper:
            raise ConfigurationError("box_lower must be strictly below box_upper")
        try:
            _instance(self, 1, 1)
        except ValidationError as exc:
            raise ConfigurationError(str(exc)) from exc
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            declared = fields[key]  # "str", "int", "float" or "Optional[...]" of one
            if val is None and declared.startswith("Optional["):
                continue
            allowed = _CONFIG_TYPES[declared.removeprefix("Optional[").rstrip("]")]
            if isinstance(val, bool) or not isinstance(val, allowed):
                raise ConfigurationError(f"config key {key!r} must be {declared}, got {val!r}")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"invalid config JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config file must contain a JSON object")
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Problem generation


def generate_problem(config: ExperimentConfig) -> ProblemInstance:
    """Deterministic synthetic instance for a config.

    Classification losses use rows drawn from two unit-variance Gaussian
    clusters at +-0.5/sqrt(p) with matching labels; the least-absolute-
    deviation loss uses Gaussian rows, a planted primal point and sparse
    outliers.  Features are scaled by 1/sqrt(n) so column norms are O(1).
    The matrix is drawn and scaled in place: a build holds it and the
    operator's own copy, and no other matrix-sized buffer.
    """
    return _instance(config, config.n, config.p)


def _instance(config: ExperimentConfig, n: int, p: int) -> ProblemInstance:
    """The config's instance at size n x p; at 1 x 1 it runs every constructor check cheaply."""
    rng = np.random.default_rng(config.seed)
    scale = config.scale if config.scale is not None else 1.0 / n

    if config.regularizer == "entropy":
        regularizer = NegativeEntropySimplex(p)
    elif config.regularizer == "squared_l2_box":
        regularizer = SquaredL2Box(
            config.mu, np.full(p, config.box_lower), np.full(p, config.box_upper)
        )
    else:
        regularizer = SquaredL2(config.mu, p)

    if config.loss in ("hinge", "logistic"):
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        center = 0.5 / np.sqrt(p)
        a = rng.standard_normal((n, p))
        a += labels[:, None] * center
        a /= np.sqrt(n)
        loss = Hinge(labels, scale) if config.loss == "hinge" else Logistic(labels, scale)
    elif config.loss == "lad":
        a = rng.standard_normal((n, p))
        a /= np.sqrt(n)
        if config.regularizer == "entropy":
            x_true = rng.dirichlet(np.ones(p))
        elif config.regularizer == "squared_l2_box":
            x_true = rng.uniform(config.box_lower, config.box_upper, size=p)
        else:
            x_true = rng.standard_normal(p)
        k = max(1, n // 10)
        outlier_idx = rng.choice(n, size=k, replace=False)
        amplitudes = 5.0 * rng.standard_normal(k)
        targets = a @ x_true
        targets[outlier_idx] += amplitudes
        loss = LeastAbsoluteDeviation(targets, scale)
    else:  # gauge
        a = rng.standard_normal((n, p))
        a /= np.sqrt(n)
        loss = DualNormGauge(n, config.gauge_omega0, config.gauge_lambda)

    return ProblemInstance(LinearOperator(a), regularizer, loss)


# ---------------------------------------------------------------------------
# Reference solving


@dataclass
class ReferenceSolution:
    """A primal-dual pair whose duality gap certifies its own quality.

    ``certified_gap`` is the gap achieved at (x_star, y_star); the pair
    is ``certified`` when that gap meets the requested tolerance.  The
    primal and dual objective values at the pair bracket the optimum.
    """

    x_star: np.ndarray
    y_star: np.ndarray
    certified_gap: float
    iterations: int
    certified: bool
    primal_value: float
    dual_value: float


def _polish_box_dual(problem: ProblemInstance, tol: float, max_iter: int):
    """Active-set projected Newton ascent on the dual over a box C, under a smooth h*.

    Each pass identifies the active face at y and takes a backtracked
    Newton step on the remaining smooth concave program, until the gap
    is <= tol.  Returns the state of the best of its passes (at least one,
    ``max_iter`` >= 1) and their count.
    The reference engine from the dual start when h* has ``_conj_hess``;
    the pair is certified by its gap, not by this procedure.
    """
    op, reg, loss = problem.operator, problem.regularizer, problem.loss
    box = loss.dual_domain
    lo, hi = box.lower, box.upper
    widths = np.maximum(box.widths, 1e-300)
    # each point is clipped once; an open C keeps the start 1e-12, a step 1e-15 of the widths inside
    start, step = ((lo + m * widths, hi - m * widths) if loss.open_domain else (lo, hi) for m in (1e-12, 1e-15))
    y = np.clip(np.zeros(problem.n), *start)
    best, best_gap = None, float("inf")
    for used in range(1, max_iter + 1):
        state = init_state(problem, y)
        primal, dual = _values(problem, state)
        gap = clamp_gap(primal, dual)
        if best is None or gap < best_gap:
            best_gap, best = gap, state
        if gap <= tol:
            break
        conj_grad, conj_hess_diag = loss._conj_newton(y)
        grad = state.ax - conj_grad
        at_lo = (y - lo) <= 1e-12 * widths
        at_hi = (hi - y) <= 1e-12 * widths
        free = ~((at_lo & (grad <= 0.0)) | (at_hi & (grad >= 0.0)))
        direction = np.zeros_like(y)
        if np.any(free):
            # minus the dual's Hessian: A (h*)'' A^T + diag((f*)'')
            neg_hess = op.matrix @ reg._conj_hess(state.carried_h_sub, state.x) @ op.matrix.T
            neg_hess[np.diag_indices_from(neg_hess)] += conj_hess_diag
            sub = neg_hess[np.ix_(free, free)]
            sub[np.diag_indices_from(sub)] += 1e-12 * (1.0 + np.trace(sub) / sub.shape[0])
            try:
                d = np.linalg.solve(sub, grad[free])
            except np.linalg.LinAlgError:
                d = np.linalg.lstsq(sub, grad[free], rcond=None)[0]
            direction[free] = d

        def _try(step_dir):
            alpha = 1.0
            for _ in range(60):
                cand = np.clip(y + alpha * step_dir, *step)
                if dual_objective(problem, cand) > dual:
                    return cand
                alpha *= 0.5
            return None

        nxt = _try(direction) if np.any(free) else None
        if nxt is None:
            nxt = _try(grad)
        if nxt is None:
            break
        y = nxt
    return best, used


def reference_solution(problem: ProblemInstance, tol: float = 1e-9, cap: int = 10**6) -> ReferenceSolution:
    """High-accuracy primal-dual pair, certified by its duality gap.

    One engine per instance, picked from the kernels the kinds implement:
    a loss with ``_conj_newton`` under an h* with ``_conj_hess`` is solved
    by the active-set Newton polish of its dual from the dual start, every
    other instance by ``run``'s line-search conditional gradient alone,
    for up to 500 steps (stopping at gap ``tol``).  The pair is the state
    the engine ends in (the start at a zero budget), so x_star is
    (h*)'(-A^T y_star).  A gap above ``tol`` gives a result marked
    uncertified, except that a ``_conj_newton`` loss under an h* without
    ``_conj_hess`` raises "no smooth dual model" when budget is left.
    A ``tol`` that is not >= 0 (NaN included) or a negative ``cap`` raises
    ConfigurationError.
    """
    if not tol >= 0:
        raise ConfigurationError(f"reference tolerance must be >= 0, got {tol!r}")
    if cap < 0:
        raise ConfigurationError(f"reference budget must be >= 0, got {cap!r}")
    reg, loss = problem.regularizer, problem.loss
    newton_loss = hasattr(loss, "_conj_newton")
    newton = newton_loss and hasattr(reg, "_conj_hess")
    if not newton:
        schedule = LineSearch(mu=reg.mu, r2=problem.geometry.r2_primal)
        result = run(problem, GCG, schedule, min(cap, 500), gap_tol=tol)
        final, iters = result.state, len(result.trace)
    else:
        final, iters = _polish_box_dual(problem, tol, min(200, cap)) if cap else (init_state(problem), 0)
    primal, dual = _values(problem, final)
    certified_gap = clamp_gap(primal, dual)
    if newton_loss and not newton and certified_gap > tol and iters < cap:
        raise ConfigurationError(f"no smooth dual model for {type(reg).__name__}")
    return ReferenceSolution(
        x_star=final.x,
        y_star=final.y,
        certified_gap=certified_gap,
        iterations=iters,
        certified=bool(certified_gap <= tol),
        primal_value=primal,
        dual_value=dual,
    )


# ---------------------------------------------------------------------------
# Schedules and experiment assembly


def build_schedule(config: ExperimentConfig, problem: ProblemInstance) -> StepSchedule:
    """Schedule object for a config; R^2 and delta^2 are the instance's."""
    name = config.schedule
    if name == FixedTwoOverTPlusOne.name:
        return FixedTwoOverTPlusOne()
    if name == FixedOneOverT.name:
        return FixedOneOverT()
    if name == LineSearch.name:
        return LineSearch(mu=problem.regularizer.mu, r2=problem.geometry.r2_primal)
    geo = problem.geometry  # SqrtDecay, the last of SCHEDULES
    if geo.delta2 is None:  # off a compact domain, where delta2() raises
        problem.regularizer.delta2()
    return SqrtDecay(delta=float(np.sqrt(geo.delta2)), radius=float(np.sqrt(geo.r2_origin)))


@dataclass(frozen=True)
class Experiment:
    """A config with its generated instance and schedule, ready to run."""

    config: ExperimentConfig
    problem: ProblemInstance
    schedule: StepSchedule

    def run(self, reference=None) -> RunResult:
        """Run the config's algorithm within its iteration budget and gap tolerance."""
        cfg = self.config
        return run(self.problem, cfg.algorithm, self.schedule, cfg.max_iters, cfg.gap_tol, reference=reference)


def prepare(config: ExperimentConfig) -> Experiment:
    """Generate the config's instance and build its schedule (every command starts here)."""
    problem = generate_problem(config)
    return Experiment(config, problem, build_schedule(config, problem))


# ---------------------------------------------------------------------------
# Trace serialization


# json.dumps(..., indent=1) layout of one record; each %s takes a value's JSON token
_JSON_RECORD = "  {\n" + ",\n".join(f"   {json.dumps(col)}: %s" for col in TRACE_COLUMNS) + "\n  }"
# json takes its C encoder only without indent; record values are numbers and
# None, so their tokens hold no "," and one split separates them
_JSON_VALUES = json.JSONEncoder(separators=(",", ":"))


def trace_csv(result: RunResult) -> str:
    """CSV text for a trace: fixed header plus one row per iteration."""
    # %.17g prints what format(float(v), ".17g") does, so every iteration
    # index t < 1e17 as an integer; %.0s prints a None column as nothing
    lines = [CSV_HEADER]
    for row in map(_trace_row, result.trace):
        lines.append(",".join("%.0s" if v is None else "%.17g" for v in row) % row)
    return "\n".join(lines) + "\n"


def _trace_header(result: RunResult, config: Optional[ExperimentConfig], geometry: Optional[GeometryConstants]) -> dict:
    return {
        "algorithm": result.algorithm,
        "schedule": result.schedule.name,
        "termination": result.termination,
        "iterations": len(result.trace),
        "config": config.to_dict() if config is not None else None,
        "geometry": None if geometry is None else dataclasses.asdict(geometry),
    }


def trace_json_obj(
    result: RunResult,
    config: Optional[ExperimentConfig] = None,
    geometry: Optional[GeometryConstants] = None,
) -> dict:
    """JSON object mirroring the CSV fields plus a header."""
    records = [{col: getattr(rec, field) for col, field in TRACE_COLUMNS.items()} for rec in result.trace]
    return {"header": _trace_header(result, config, geometry), "records": records}


def _trace_json(result: RunResult, config: Optional[ExperimentConfig], geometry: Optional[GeometryConstants]) -> str:
    """``json.dumps(trace_json_obj(result, config, geometry), indent=1)``, byte for byte."""
    text = json.dumps({"header": _trace_header(result, config, geometry), "records": []}, indent=1)
    if not result.trace:
        return text
    tokens = _JSON_VALUES.encode(list(map(_trace_row, result.trace)))[2:-2].replace("],[", ",").split(",")
    records = ",\n".join([_JSON_RECORD] * len(result.trace)) % tuple(tokens)
    return text[: -len("[]\n}")] + "[\n" + records + "\n ]\n}"


def emit_trace(
    result: RunResult,
    output_format: str,
    path: str,
    config: Optional[ExperimentConfig] = None,
    geometry: Optional[GeometryConstants] = None,
) -> None:
    """Write a trace to ``path`` as CSV or JSON."""
    if output_format == "csv":
        text = trace_csv(result)
    elif output_format == "json":
        text = _trace_json(result, config, geometry) + "\n"
    else:
        raise ConfigurationError(f"unknown output format {output_format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Sweeps


def sweep_cells(config: ExperimentConfig, schedules, seeds, out_dir: str):
    """One (config, output path) pair per grid cell; two cells may not share a path."""
    cells = {}
    for sched in schedules:
        for seed in seeds:
            cfg = dataclasses.replace(config, schedule=sched, seed=int(seed))
            path = os.path.join(out_dir, f"trace_{sched}_{seed}.{cfg.output_format}")
            if path in cells:
                raise ConfigurationError(
                    f"schedule {sched!r} and seed {seed} appear twice; each cell needs its own trace file"
                )
            cells[path] = cfg
    return [(cfg, path) for path, cfg in cells.items()]


def _run_cell(cell) -> str:
    cfg, path = cell
    result = prepare(cfg).run()
    emit_trace(result, cfg.output_format, path, config=cfg)
    return path


def run_sweep(config: ExperimentConfig, schedules, seeds, out_dir: str, workers: Optional[int] = None):
    """Run the grid; cells are independent, so order never affects bytes.

    ``workers`` defaults to the cores this process may run on
    (``os.sched_getaffinity`` where the platform has it, else
    ``os.cpu_count()``) and must be at least 1.  Every argument is
    checked before ``out_dir`` is created: each schedule runs with a
    zero budget on the last seed's instance built at n = p = 1, which
    makes every check ``solve`` makes and takes no step.
    """
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    cells = sweep_cells(config, schedules, seeds, out_dir)
    if cells:
        last = cells[-1][0]  # cells differ only in schedule and seed
        problem = _instance(last, 1, 1)
        for sched in dict.fromkeys(cfg.schedule for cfg, _ in cells):
            cfg = dataclasses.replace(last, schedule=sched, max_iters=0)
            Experiment(cfg, problem, build_schedule(cfg, problem)).run()
    os.makedirs(out_dir, exist_ok=True)
    if workers == 1 or len(cells) <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(_run_cell, cells))
